"""``strided-survey``: decimate-by-8 STA/LTA over half the channels.

The archive is uncompressed contiguous minute files, the layout
``write_das_file`` produces by default, so the optimizer pushes the
channel range and the stride into ``hdf5lite``'s strided read path.
Almost all of the time is that read path; compute is small.  The
other workloads never take it.
"""

from __future__ import annotations

import os

from perfbench import checks
from perfbench.inputs import Geometry, earthquake_record, mapped, write_minutes
from perfbench.runner import Op, Workload
from repro.core.graph import Query
from repro.core.optimizer import execute, optimize
from repro.core.stalta import StaLtaOp
from repro.storage import create_vca, open_stream

SCALES = {
    "full": Geometry(channels=64, minutes=8, samples_per_minute=12000),
    "tiny": Geometry(channels=8, minutes=2, samples_per_minute=6000),
}
STEP = 8
NSTA, NLTA = 10, 100


class StridedSurvey(Workload):
    name = "strided-survey"
    primary = "pass"
    setup_reps = 9  # uncompressed writes take ~15 ms: more repetitions steady the median

    def __init__(self, seed: int, root: str, scale: str = "full", naive: bool = False):
        super().__init__(seed, root, scale)
        self.geometry = SCALES[scale]
        self.naive = naive
        self.channels = (0, self.geometry.channels // 2)

    def synthesize(self) -> None:
        self.record = earthquake_record(self.geometry, self.seed, self.geometry.minutes // 2)

    def setup(self, directory: str) -> None:
        paths = write_minutes(directory, self.record)
        self.archive = create_vca(os.path.join(directory, "archive.h5"), paths)

    def prepare_checks(self) -> None:
        lo, hi = self.channels
        ref = checks.sta_lta_reference(self.record.raw[lo:hi, ::STEP], NSTA, NLTA)
        self.ref = mapped(self.root, "ref_survey", ref)
        self.record.raw = None

    def survey(self):
        query = (
            Query.scan(None)
            .select_channels(*self.channels)
            .decimate(STEP)
            .then(StaLtaOp(NSTA, NLTA))
        )
        with open_stream(self.archive) as src:
            plan = optimize(
                query,
                chunk_samples=self.geometry.samples_per_minute,
            )
            (result,) = execute(plan, source=src, naive=self.naive)
        return result.output

    def check(self, out) -> None:
        checks.check_close("survey sta/lta", out, self.ref, rtol=1e-9, atol=1e-9)

    def round(self):
        lo, hi = self.channels
        yield Op(
            "pass", self.survey, samples=(hi - lo) * self.geometry.samples, check=self.check
        )

"""``archive-detect``: a two-detector plan over a compressed archive.

Each pass opens the archive again and runs one plan whose shared taper +
band-pass prefix feeds an STA/LTA branch and a local-similarity branch,
at full resolution with ``threads=2``.  The archive is per-minute files,
chunked, ``transpose-zlib``-compressed and CRC-checked, merged into a
VCA.  Time goes to decode, CRC, the multi-branch executor and the
filters; strided pushdown, ``serve`` and ``rt`` are not used.

``DASSA.plan`` offers no prefix stages, so the pass lowers the same
queries through ``repro.core``'s public ``Query``/``optimize``/``execute``,
verifying the plan as ``DASSA.plan`` always does.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.signal import butter

from perfbench import checks
from perfbench.inputs import Geometry, earthquake_record, mapped, write_minutes
from perfbench.runner import Op, Workload
from repro.core.graph import Query
from repro.core.local_similarity import LocalSimilarityConfig, LocalSimilarityOp
from repro.core.operators import FiltFiltOp, TaperOp
from repro.core.optimizer import execute, optimize
from repro.core.stalta import StaLtaOp
from repro.storage import create_vca, open_stream

SCALES = {
    "full": Geometry(channels=64, minutes=4, samples_per_minute=12000),
    "tiny": Geometry(channels=8, minutes=2, samples_per_minute=6000),
}
TAPER = 0.05
BAND = (2.0, 20.0)
NSTA, NLTA = 40, 400
SIMILARITY = LocalSimilarityConfig(half_window=25, half_lag=5, stride=50)
CODEC = "transpose-zlib"


class ArchiveDetect(Workload):
    name = "archive-detect"
    primary = "pass"

    def __init__(self, seed: int, root: str, scale: str = "full", threads: int = 2,
                 verify: bool = True):
        super().__init__(seed, root, scale)
        self.geometry = SCALES[scale]
        self.threads = threads
        self.verify = verify
        self.b, self.a = butter(4, BAND, btype="band", fs=self.geometry.fs)

    def synthesize(self) -> None:
        self.record = earthquake_record(self.geometry, self.seed, self.geometry.minutes // 2)

    def setup(self, directory: str) -> None:
        g = self.geometry
        paths = write_minutes(
            directory, self.record, chunks=(g.channels, g.samples_per_minute // 4),
            codec=CODEC, checksum=True,
        )
        self.archive = create_vca(os.path.join(directory, "archive.h5"), paths)

    def prepare_checks(self) -> None:
        ref = checks.detect_reference(self.record.raw, TAPER, self.b, self.a, NSTA, NLTA)
        self.ref_trigger = mapped(self.root, "ref_trigger", ref)
        g = self.geometry
        self.centers = SIMILARITY.time_halo + SIMILARITY.stride * np.arange(
            (g.samples - 2 * SIMILARITY.time_halo - 1) // SIMILARITY.stride + 1
        )
        self.record.raw = mapped(self.root, "raw", self.record.raw)

    def queries(self) -> list[Query]:
        base = Query.scan(None).then(TaperOp(TAPER)).then(FiltFiltOp(self.b, self.a))
        return [
            base.then(StaLtaOp(NSTA, NLTA)).with_label("trigger"),
            base.then(LocalSimilarityOp(SIMILARITY)).with_label("similarity"),
        ]

    def detect(self) -> dict:
        with open_stream(self.archive) as src:
            plan = optimize(
                self.queries(),
                chunk_samples=self.geometry.samples_per_minute,
                threads=self.threads,
                verify=self.verify,
            )
            results = execute(plan, source=src)
        return {"trigger": results[0].output, "similarity": results[1].output}

    def check(self, out: dict) -> None:
        checks.check_close("sta/lta", out["trigger"], self.ref_trigger, rtol=1e-6, atol=1e-6)
        checks.check_similarity(
            out["similarity"], self.centers, self.geometry.fs, self.record.event_times
        )

    def round(self):
        g = self.geometry
        yield Op("pass", self.detect, samples=g.channels * g.samples, check=self.check)

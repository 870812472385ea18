"""``live-ingest``: land minute files in a spool and drain the RT service.

A closed loop: for each minute file the benchmark writes it through
``write_das_file`` (``transpose-zlib`` codec + CRC) to a temporary name,
renames it into the spool, then calls ``RTService.drain()``, which
reads it, runs the incremental band-pass + local-similarity pipeline,
assembles events, appends them to the fsync'd event log and writes a
checkpoint.  ``settle_seconds=0`` and ``stable_polls=1`` keep every
timer out of the loop.  A round is one record of several minutes in a
fresh spool with a fresh service, flushed at its end, so every round
does the same work however long the run is.  Writes and fsyncs run
beside reads here, and it is the only workload that uses ``rt``.

Set-up is what an operator's restart costs: constructing the service
over a spool whose earlier minutes it already processed, so it resumes
from the checkpoint and re-reads the carried tail.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
from scipy.signal import butter

from perfbench import checks
from perfbench.inputs import Geometry, earthquake_record, minute_name, write_minute
from perfbench.runner import CheckFailed, Op, Workload
from repro.core.local_similarity import local_similarity_block
from repro.daslib import filtfilt
from repro.rt import (
    DetectorConfig,
    EventPolicy,
    EventSink,
    RTService,
    ServiceConfig,
    map_events,
)

SCALES = {
    "full": Geometry(channels=64, minutes=6, samples_per_minute=3000),
    "tiny": Geometry(channels=8, minutes=3, samples_per_minute=3000),
}
CODEC = "transpose-zlib"
DETECTOR = DetectorConfig()
POLICY = EventPolicy(threshold=0.4, min_fraction=0.25)
LOOP = ServiceConfig(poll_interval=0, settle_seconds=0, stable_polls=1)


class LiveIngest(Workload):
    name = "live-ingest"
    primary = "file"
    setup_reps = 21  # a restart takes ~7 ms: many repetitions steady the median
    history_minutes = 3

    def __init__(self, seed: int, root: str, scale: str = "full"):
        super().__init__(seed, root, scale)
        self.geometry = SCALES[scale]
        self.service = None
        self.rounds = 0
        self.history = None

    def synthesize(self) -> None:
        self.record = earthquake_record(self.geometry, self.seed, 2)

    def stage(self, directory: str) -> None:
        """A copy of a spool where a service processed the first minutes
        and checkpointed mid-record (made once, by the program)."""
        if self.history is None:
            self.history = os.path.join(self.root, "history")
            os.makedirs(self.history)
            service = RTService(self.history, detector=DETECTOR, policy=POLICY, config=LOOP)
            for m in range(self.history_minutes):
                self.land_and_drain(self.history, m, service)
            service.close()
        shutil.copytree(self.history, directory, dirs_exist_ok=True)

    def setup(self, directory: str) -> None:
        """Resume the service over the staged spool."""
        self.service = RTService(directory, detector=DETECTOR, policy=POLICY, config=LOOP)

    def teardown(self) -> None:
        self.service = None

    def prepare_checks(self) -> None:
        """Batch detection over the whole record (the float32 samples the
        files hold), the reference the streamed event log must equal."""
        g = self.geometry
        data = np.asarray(self.record.raw, dtype=np.float64)
        b, a = butter(DETECTOR.filter_order, DETECTOR.band, "bandpass", fs=g.fs)
        simi, centers = local_similarity_block(filtfilt(b, a, data, axis=-1), DETECTOR.similarity)
        self.batch = map_events(
            simi, centers, g.fs, POLICY, n_channels=g.channels,
            channel_lo=DETECTOR.channel_lo,
        )
        checks.check_events_found(self.batch, self.record.event_times)
        resumed = len(self.service.files_done)
        if self.service.resume_error or resumed != self.history_minutes:
            raise CheckFailed(f"resume: {resumed} files carried, {self.service.resume_error}")

    def round(self):
        g = self.geometry
        spool = os.path.join(self.root, f"spool{self.rounds % 2}")
        shutil.rmtree(spool, ignore_errors=True)
        os.makedirs(spool)
        self.rounds += 1
        yield Op("open", lambda: self.open(spool), counted=False)
        for m in range(g.minutes):
            yield Op(
                "file",
                lambda m=m: self.land_and_drain(spool, m),
                samples=g.channels * g.samples_per_minute,
                check=lambda done, m=m: self.check_file(done, m),
            )
        yield Op("flush", lambda: self.service.flush(), counted=False)

    def open(self, spool: str) -> None:
        self.service = RTService(spool, detector=DETECTOR, policy=POLICY, config=LOOP)

    def land_and_drain(self, spool: str, minute: int, service=None) -> int:
        name = minute_name(minute)
        tmp = os.path.join(spool, "." + name + ".tmp")
        write_minute(tmp, self.record, minute, codec=CODEC, checksum=True)
        os.replace(tmp, os.path.join(spool, name))
        return (service or self.service).drain()

    def check_file(self, done: int, minute: int) -> None:
        if done != 1 or self.service.metrics.files_ingested != minute + 1:
            raise CheckFailed(f"file {minute}: drained {done}, ingested "
                              f"{self.service.metrics.files_ingested}")

    def round_check(self) -> None:
        logged = EventSink(self.service.sink.path).load()
        checks.check_event_log(logged, self.batch)
        checks.check_events_found(logged, self.record.event_times)

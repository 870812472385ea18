"""``viewer-mix``: two tenants' viewer sessions against a ``DataServer``.

One closed-loop client thread interleaves two tenants' seeded request
sequences: pyramid previews (zoom, pan), full-resolution channel-subset
windows, decimated windows and event lookups.  The archive is
compressed and checksummed and carries a pyramid; the server's block
cache holds about a third of the decoded archive, so requests that
jump evict what panning reuses.  The tenants get quotas that never
bind: the default (50 req/s) would make a lone client wait on the
admission timer and measure the quota, not the program.
"""

from __future__ import annotations

import os

import numpy as np

from perfbench import checks
from perfbench.inputs import Geometry, earthquake_record, mapped, write_minutes
from perfbench.runner import CheckFailed, Op, Workload
from repro.core.detection import DetectedEvent
from repro.rt import EventSink, SeamEvent
from repro.serve import DataServer, ServeConfig, TenantQuota, build_pyramid
from repro.storage import create_vca

SCALES = {
    "full": Geometry(channels=64, minutes=8, samples_per_minute=12000),
    "tiny": Geometry(channels=16, minutes=2, samples_per_minute=6000),
}
CODEC = "transpose-zlib"
TENANTS = ("alice", "bob")
SCENES_PER_TENANT = {"full": 48, "tiny": 2}
ZOOMS_S = (30, 120, None)  # preview spans in seconds; None = whole record
WINDOWS_PER_SCENE = 5
DECIMATED_AFTER = 3  # the decimated overview comes after this many windows
CATALOG_EVENTS = 60
PREVIEW_WIDTH = 600
PYRAMID_FACTOR, PYRAMID_LEVELS = 4, 5  # PyramidConfig defaults, for the checks
UNBOUND = TenantQuota(
    requests_per_s=1e12, request_burst=1e12, bytes_per_s=1e18, byte_burst=1e18
)


class ViewerMix(Workload):
    name = "viewer-mix"
    primary = "window"

    def __init__(self, seed: int, root: str, scale: str = "full",
                 cache_fraction: float = 1 / 3):
        super().__init__(seed, root, scale)
        self.geometry = SCALES[scale]
        g = self.geometry
        self.cache_bytes = int(cache_fraction * g.channels * g.samples * 4)
        self.server = None

    # -- inputs ---------------------------------------------------------------
    def synthesize(self) -> None:
        g = self.geometry
        self.record = earthquake_record(g, self.seed, g.minutes // 2)
        rng = np.random.default_rng([self.seed, 1])
        self.catalog = self._catalog(rng)
        scenes = SCENES_PER_TENANT[self.scale]
        streams = [self._requests(rng, scenes) for _ in TENANTS]
        self.requests = [
            (tenant, req)
            for pair in zip(*streams)
            for tenant, req in zip(TENANTS, pair)
        ]

    def _catalog(self, rng) -> list[SeamEvent]:
        g = self.geometry
        duration = g.samples / g.fs
        out = []
        for i, t in enumerate(np.sort(rng.uniform(0, duration - 5, CATALOG_EVENTS))):
            lo = int(rng.integers(0, g.channels - 4))
            event = DetectedEvent(
                label=i, kind="earthquake", channel_lo=lo,
                channel_hi=int(rng.integers(lo + 1, g.channels)),
                t_start=float(t), t_end=float(t + rng.uniform(0.5, 5.0)),
                peak_similarity=float(rng.uniform(0.5, 1.0)), n_cells=int(rng.integers(4, 400)),
                speed_channels_per_s=0.0,
            )
            out.append(SeamEvent(event, 10 * i, 10 * i + 5))
        return out

    def _requests(self, rng, scenes: int) -> list[tuple]:
        """One viewer: per scene, jump somewhere, preview it at the next
        zoom, pan through it at full resolution with one decimated
        overview among the windows, then look up its events.  A fixed
        scene shape keeps the mix (and the share of windows the cache
        can serve) the same for every seed."""
        g = self.geometry
        fs, total, C = g.fs, g.samples, g.channels
        out = []
        for k in range(scenes):
            cursor = int(rng.integers(0, total))
            span = ZOOMS_S[k % len(ZOOMS_S)]
            span = total if span is None else int(span * fs)
            out.append(("preview", _clip(cursor - span // 2, span, total), None, 0))
            for i in range(WINDOWS_PER_SCENE):
                if i == DECIMATED_AFTER:
                    width = int(rng.choice([C // 2, C]))
                    lo = int(rng.integers(0, C - width + 1))
                    span = int(rng.uniform(20, 60) * fs)
                    step = int(rng.choice([4, 8]))
                    out.append(("decimated", _clip(cursor, span, total), (lo, lo + width), step))
                width = min(16, C)
                lo = int(rng.integers(0, C - width + 1))
                span = int(rng.uniform(1, 4) * fs)
                t0, t1 = _clip(cursor, span, total)
                out.append(("window", (t0, t1), (lo, lo + width), 1))
                cursor = t1 % total
            out.append(("events", _clip(cursor - int(30 * fs), int(60 * fs), total), None, 0))
        return out

    # -- program state ----------------------------------------------------------
    def setup(self, directory: str) -> None:
        g = self.geometry
        paths = write_minutes(
            directory, self.record, chunks=(g.channels, g.samples_per_minute // 4),
            codec=CODEC, checksum=True,
        )
        archive = create_vca(os.path.join(directory, "archive.h5"), paths)
        build_pyramid(archive)
        events_path = os.path.join(directory, "events.jsonl")
        EventSink(events_path).emit(self.catalog, record="catalog")
        self.server = DataServer(
            archive,
            config=ServeConfig(
                cache_bytes=self.cache_bytes, quotas={t: UNBOUND for t in TENANTS}
            ),
            events_path=events_path,
        )
        self.sessions = {t: self.server.session(t) for t in TENANTS}

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def prepare_checks(self) -> None:
        self.raw = mapped(self.root, "raw", self.record.raw)
        self.record.raw = None

    # -- requests ---------------------------------------------------------------
    def round(self):
        for tenant, (kind, (t0, t1), channels, step) in self.requests:
            session = self.sessions[tenant]
            if kind in ("window", "decimated"):
                lo, hi = channels
                yield Op(
                    kind,
                    lambda s=session, a=t0, b=t1, c=channels, q=step: s.read_window(
                        a, b, channels=c, step=q
                    ),
                    samples=(hi - lo) * -(-(t1 - t0) // step),
                    check=lambda out, a=t0, b=t1, c=channels, q=step: self.check_window(
                        out, a, b, c, q
                    ),
                )
            elif kind == "preview":
                yield Op(
                    kind,
                    lambda s=session, a=t0, b=t1: s.preview(a, b, width=PREVIEW_WIDTH),
                    samples=self.geometry.channels * columns(t0, t1),
                    check=lambda out, a=t0, b=t1: self.check_preview(out, a, b),
                )
            else:
                yield Op(
                    kind,
                    lambda s=session, a=t0, b=t1: s.events(a, b),
                    check=lambda out, a=t0, b=t1: self.check_events(out, a, b),
                )

    def check_window(self, out, t0, t1, channels, step) -> None:
        lo, hi = channels
        want = np.asarray(self.raw[lo:hi, t0:t1][:, ::step], dtype=np.float64)
        checks.check_exact(f"window [{t0},{t1}) ch[{lo},{hi}) step {step}", out.data, want)
        if out.gaps:
            raise CheckFailed(f"window [{t0},{t1}): unexpected gaps {out.gaps}")

    def check_preview(self, out, t0, t1) -> None:
        factor = expected_factor(t1 - t0, PREVIEW_WIDTH)
        if out.level is None or out.factor != factor:
            raise CheckFailed(f"preview [{t0},{t1}): factor {out.factor}, want {factor}")
        if out.data.shape != (self.geometry.channels, columns(t0, t1)):
            raise CheckFailed(f"preview [{t0},{t1}): shape {out.data.shape}")
        if out.mask.any() or not np.all(np.isfinite(out.data)):
            raise CheckFailed(f"preview [{t0},{t1}): masked pixels")

    def check_events(self, out, t0, t1) -> None:
        fs = self.geometry.fs
        want = [
            e.key for e in self.catalog
            if e.event.t_start < t1 / fs and e.event.t_end >= t0 / fs
        ]
        if [e.key for e in out] != want:
            raise CheckFailed(f"events [{t0},{t1}): {len(out)} returned, {len(want)} overlap")


def columns(t0: int, t1: int) -> int:
    """Preview pixels per channel: level samples on the lattice in [t0, t1)."""
    factor = expected_factor(t1 - t0, PREVIEW_WIDTH)
    return -(-t1 // factor) - (-(-t0 // factor))


def expected_factor(span: int, width: int) -> int:
    """The coarsest stored level with at least one sample per pixel."""
    factor = 1
    for k in range(1, PYRAMID_LEVELS + 1):
        if PYRAMID_FACTOR**k <= span // width:
            factor = PYRAMID_FACTOR**k
    return factor


def _clip(t0: int, span: int, total: int) -> tuple[int, int]:
    span = max(1, min(span, total))
    t0 = min(max(0, t0), total - span)
    return t0, t0 + span

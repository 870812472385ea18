"""The measurement loop shared by every workload.

A workload synthesises its inputs (not timed), sets the program up
several times (``setup_s`` is the median), runs one warm-up round, then
repeats whole rounds of operations until ``seconds`` have passed.  Only
program calls sit inside the timed intervals: each operation's output is
checked after its interval closes.  With ``trace`` the timed phase is
split in two halves, the second one traced, so the run reports the
per-layer metrics and the tracer's own overhead.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("msamples_per_s", "Msamples/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
]

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
RSS_INTERVAL_S = 0.005  # how often the sampler reads resident memory


class CheckFailed(AssertionError):
    """A program output disagreed with the benchmark's reference."""


@dataclass
class Op:
    """One program operation: ``call()`` is timed, ``check(output)`` is not.

    ``counted`` operations are the workload's user-level operations
    (``ops_per_s``); round bookkeeping such as opening or flushing a
    service is timed into the total but not counted.
    """

    kind: str
    call: Callable[[], object]
    samples: int = 0
    check: Callable[[object], None] | None = None
    counted: bool = True


@dataclass
class PhaseStats:
    seconds: float = 0.0  # summed op intervals
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    counted: int = 0
    samples: int = 0
    latencies: dict[str, list[float]] = field(default_factory=dict)
    # per round: (program seconds, counted ops, samples)
    per_round: list[tuple[float, int, int]] = field(default_factory=list)


class Workload:
    """Base class; see the workload modules for the concrete ones."""

    name = ""
    primary = ""  # op kind whose median is op_p50_ms
    setup_reps = 3

    def __init__(self, seed: int, root: str, scale: str = "full"):
        self.seed = int(seed)
        self.root = root
        self.scale = scale

    def synthesize(self) -> None:
        """Generate input arrays from the seed (not part of setup_s)."""

    def stage(self, directory: str) -> None:
        """Put inputs for one set-up in ``directory`` (not part of setup_s)."""

    def setup(self, directory: str) -> None:
        """Program calls that prepare state (timed as setup_s)."""

    def teardown(self) -> None:
        """Close what setup opened."""

    def prepare_checks(self) -> None:
        """Reference outputs, computed apart from the program."""

    def round(self) -> Iterable[Op]:
        raise NotImplementedError

    def round_check(self) -> None:
        """Checks that need a whole round (untimed)."""


class RssSampler:
    """Peak anonymous resident memory of this process while program
    calls run, sampled in a thread every ``RSS_INTERVAL_S`` and once
    as each call returns (file-backed pages -- the interpreter's code and
    memory-mapped reference arrays -- do not count, nor do the checks
    that run between calls)."""

    def __init__(self):
        self.peak = 0
        self.active = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._page = os.sysconf("SC_PAGE_SIZE")

    def sample(self) -> None:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        self.peak = max(self.peak, (int(fields[1]) - int(fields[2])) * self._page)

    def _loop(self) -> None:
        while not self._stop.is_set():
            if self.active:
                self.sample()
            self._stop.wait(RSS_INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def release_heap() -> None:
    """Return freed set-up memory to the OS so the timed phase starts
    from the same resident baseline in every run."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def run_phase(wl: Workload, seconds: float, stats: PhaseStats, errors: list[str],
              tracer=None, rss: RssSampler | None = None) -> None:
    """Whole rounds, at least one, until ``seconds`` of wall time have passed."""
    perf = time.perf_counter
    start = perf()
    while stats.rounds == 0 or perf() - start < seconds:
        before = (stats.seconds, stats.counted, stats.samples)
        for op in wl.round():
            stats.attempted += 1
            frame = tracer.enter("bench.op") if tracer is not None else None
            if rss is not None:
                rss.active = True
            t0 = perf()
            try:
                output = op.call()
            except Exception:  # an operation failure is counted, not fatal
                stats.failed += 1
                errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                elapsed = perf() - t0
                if frame is not None:
                    tracer.exit(frame)
                if rss is not None:
                    rss.active = False
                    rss.sample()
            stats.seconds += elapsed
            stats.latencies.setdefault(op.kind, []).append(elapsed)
            stats.samples += op.samples
            if op.counted:
                stats.counted += 1
            if op.check is not None:
                check(op.check, output, errors)
            output = None  # keep no output resident during the next call
        check(lambda _: wl.round_check(), None, errors)
        stats.rounds += 1
        stats.per_round.append(
            (stats.seconds - before[0], stats.counted - before[1], stats.samples - before[2])
        )


def check(fn, output, errors: list[str]) -> None:
    try:
        fn(output)
    except CheckFailed as exc:
        errors.append(f"check failed: {exc}")


def measure(wl: Workload, seconds: float, trace: bool, trace_path: str | None = None) -> dict:
    """Run one workload; returns the result document (last output line)."""
    errors: list[str] = []
    wl.synthesize()
    setup_times = []
    reps = 1 if trace else wl.setup_reps
    for rep in range(reps):
        directory = os.path.join(wl.root, f"setup{rep}")
        os.makedirs(directory)
        wl.stage(directory)
        t0 = time.perf_counter()
        wl.setup(directory)
        setup_times.append(time.perf_counter() - t0)
        if rep < reps - 1:
            wl.teardown()
            shutil.rmtree(directory)
    try:
        check(lambda _: wl.prepare_checks(), None, errors)
        release_heap()
        run_phase(wl, 0.0, PhaseStats(), errors)  # warm-up
        release_heap()
        if not trace:
            stats = PhaseStats()
            with RssSampler() as rss:
                run_phase(wl, seconds, stats, errors, rss=rss)
            metrics = end_to_end(wl, stats, setup_times, rss.peak)
            attempted, failed = stats.attempted, stats.failed
            detail = describe(wl, stats)
        else:
            metrics, attempted, failed, detail = traced(wl, seconds, errors, trace_path)
    finally:
        wl.teardown()
    for line in errors[:5]:
        print(line, file=sys.stderr)
    detail["setup_times_s"] = setup_times
    print(json.dumps({"detail": detail}))
    return {
        "correct": not any(e.startswith("check failed") for e in errors),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def end_to_end(wl: Workload, stats: PhaseStats, setup_times: list[float],
               peak_rss: int) -> dict:
    # Rates are medians over rounds (every round does the same work), so
    # a burst of host contention shorter than half the run does not move them.
    rounds = [r for r in stats.per_round if r[0] > 0]
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss / 2**20,
        "msamples_per_s": statistics.median(n / s for s, _, n in rounds) / 1e6,
        "ops_per_s": statistics.median(n / s for s, n, _ in rounds),
        "op_p50_ms": statistics.median(stats.latencies[wl.primary]) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def describe(wl: Workload, stats: PhaseStats) -> dict:
    """Per-kind medians and tails, for the line before the result."""
    kinds = {}
    for kind, lat in sorted(stats.latencies.items()):
        entry = {"n": len(lat), "p50_ms": statistics.median(lat) * 1e3}
        pct = tail_percentile(len(lat))
        if pct is not None:
            entry["tail_pct"] = pct
            entry["tail_ms"] = percentile(lat, pct) * 1e3
        kinds[kind] = entry
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "rounds": stats.rounds,
        "timed_s": stats.seconds,
        "kinds": kinds,
    }


def traced(wl: Workload, seconds: float, errors: list[str], trace_path: str | None):
    """Untraced half, then traced half; per-layer metrics per operation."""
    from perfbench.layers import PER_LAYER, install, layer_metrics
    from perfbench.tracing import Tracer

    plain = PhaseStats()
    run_phase(wl, seconds / 2, plain, errors)
    tracer = Tracer()
    install(tracer)
    stats = PhaseStats()
    try:
        run_phase(wl, seconds / 2, stats, errors, tracer=tracer)
    finally:
        tracer.uninstall()
    if trace_path is not None:
        tracer.dump(trace_path)
    per_round_plain = statistics.median(r[0] for r in plain.per_round)
    per_round_traced = statistics.median(r[0] for r in stats.per_round)
    overhead_pct = 100.0 * (per_round_traced / per_round_plain - 1.0)
    values = layer_metrics(tracer, stats.attempted, overhead_pct)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    detail = describe(wl, stats)
    detail["untraced_round_s"] = per_round_plain
    detail["traced_round_s"] = per_round_traced
    return (
        metrics,
        plain.attempted + stats.attempted,
        plain.failed + stats.failed,
        detail,
    )



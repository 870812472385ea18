"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

Every workload runs to completion at a tiny size, traced and untraced,
and every correctness check rejects a perturbed program output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import checks  # noqa: E402
from perfbench.archive_detect import ArchiveDetect  # noqa: E402
from perfbench.layers import PER_LAYER, SELF_METRICS, install  # noqa: E402
from perfbench.live_ingest import LiveIngest  # noqa: E402
from perfbench.run import workloads  # noqa: E402
from perfbench.runner import END_TO_END, CheckFailed, measure  # noqa: E402
from perfbench.strided_survey import StridedSurvey  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.viewer_mix import ViewerMix  # noqa: E402

WORKLOADS = [ArchiveDetect, StridedSurvey, ViewerMix, LiveIngest]


def ready(cls, tmp_path, **kwargs):
    """A tiny workload with its program state set up and references made."""
    root = tmp_path / "work"
    root.mkdir()
    wl = cls(seed=3, root=str(root), scale="tiny", **kwargs)
    wl.synthesize()
    setup = root / "setup"
    setup.mkdir()
    wl.stage(str(setup))
    wl.setup(str(setup))
    wl.prepare_checks()
    return wl


def outputs(wl):
    """Run one round; ``(op, output)`` for every checked operation."""
    got = []
    for op in wl.round():
        out = op.call()
        if op.check is not None:
            op.check(out)
            got.append((op, out))
    wl.round_check()
    return got


# -- the benchmark's declaration ---------------------------------------------
def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- every workload runs to its end ---------------------------------------------
@pytest.mark.parametrize("cls", WORKLOADS, ids=lambda c: c.name)
def test_workload_runs_untraced(cls, tmp_path):
    result = measure(cls(seed=5, root=str(tmp_path), scale="tiny"), 0.2, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [name for name in result["metrics"]] == [name for name, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("cls", WORKLOADS, ids=lambda c: c.name)
def test_workload_runs_traced(cls, tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    result = measure(cls(seed=5, root=str(tmp_path), scale="tiny"), 0.4, trace=True,
                     trace_path=trace_path)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [name for name in metrics] == [name for name, _ in PER_LAYER]
    assert metrics["trace.spans"]["value"] > 0
    if cls is ViewerMix:  # previews served by the pyramid, windows from raw samples
        assert metrics["serve.pyramid_requests"]["value"] > 0
        assert metrics["serve.raw_requests"]["value"] > 0
    with open(trace_path) as handle:
        first = json.loads(handle.readline())
    assert {"name", "start", "end", "parent"} <= set(first)


def test_tracer_restores_every_patched_callable():
    import repro.daslib as daslib
    from repro.hdf5lite.binary import FileBackend

    module = sys.modules["repro.daslib.filtfilt"]
    before = (module.filtfilt, daslib.filtfilt, FileBackend.readinto_at, os.fsync)
    tracer = Tracer()
    install(tracer)
    assert module.filtfilt is not before[0] and daslib.filtfilt is not before[1]
    tracer.uninstall()
    assert (module.filtfilt, daslib.filtfilt, FileBackend.readinto_at, os.fsync) == before


def test_self_times_and_unattributed_add_up_to_the_wall(tmp_path):
    wl = ready(ArchiveDetect, tmp_path)
    tracer = Tracer()
    install(tracer)
    try:
        for op in wl.round():
            frame = tracer.enter("bench.op")
            op.call()
            tracer.exit(frame)
    finally:
        tracer.uninstall()
    from perfbench.layers import layer_metrics

    values = layer_metrics(tracer, 1, 0.0)
    main, _every, _counters = tracer.aggregate()
    wall = main["bench.op"][1]
    accounted = values["unattributed_s"] + sum(values[name] for name in SELF_METRICS)
    assert accounted == pytest.approx(wall, rel=1e-6)
    assert values["hdf5lite.decode_calls"] > 0 and values["core.cse_hits"] > 0


# -- every check rejects a perturbed output -----------------------------------------
def perturbed(array: np.ndarray, delta: float = 1e-3) -> np.ndarray:
    out = np.array(array, dtype=np.float64, copy=True)
    out.flat[out.size // 2] += delta
    return out


def test_archive_detect_checks(tmp_path):
    wl = ready(ArchiveDetect, tmp_path)
    ((_op, out),) = outputs(wl)
    with pytest.raises(CheckFailed, match="sta/lta"):
        wl.check({**out, "trigger": perturbed(out["trigger"])})
    bad = np.array(out["similarity"], copy=True)
    bad[0, 0] = 1.5
    with pytest.raises(CheckFailed, match="outside"):
        wl.check({**out, "similarity": bad})
    flat = np.zeros_like(out["similarity"])
    with pytest.raises(CheckFailed, match="not found"):
        wl.check({**out, "similarity": flat})


def test_strided_survey_checks(tmp_path):
    wl = ready(StridedSurvey, tmp_path)
    ((_op, out),) = outputs(wl)
    with pytest.raises(CheckFailed):
        wl.check(perturbed(out))
    with pytest.raises(CheckFailed, match="shape"):
        wl.check(out[:, :-1])


def test_viewer_mix_checks(tmp_path):
    wl = ready(ViewerMix, tmp_path)
    got = outputs(wl)
    by_kind = {}
    for op, out in got:
        by_kind.setdefault(op.kind, (op, out))
    assert set(by_kind) == {"window", "decimated", "preview", "events"}
    for kind in ("window", "decimated"):
        op, out = by_kind[kind]
        with pytest.raises(CheckFailed, match="bit-exact"):
            op.check(dataclasses.replace(out, data=perturbed(out.data, 1e-9)))
    op, out = by_kind["preview"]
    mask = np.array(out.mask, copy=True)
    mask.flat[0] = True
    with pytest.raises(CheckFailed, match="masked"):
        op.check(dataclasses.replace(out, mask=mask))
    with pytest.raises(CheckFailed, match="shape"):
        op.check(dataclasses.replace(out, data=out.data[:, 1:], mask=out.mask[:, 1:]))
    with pytest.raises(CheckFailed, match="factor"):
        op.check(dataclasses.replace(out, factor=out.factor * 4))
    events = [(op, out) for op, out in got if op.kind == "events" and out]
    assert events, "the tiny catalog must answer some lookups"
    op, out = events[0]
    with pytest.raises(CheckFailed):
        op.check(out[1:])


def test_live_ingest_checks(tmp_path):
    wl = ready(LiveIngest, tmp_path)
    resumed = wl.service
    wl.setup(str(tmp_path))  # a service over a spool with no checkpoint
    with pytest.raises(CheckFailed, match="resume"):
        wl.prepare_checks()
    wl.service = resumed
    got = outputs(wl)
    op, done = got[0]
    with pytest.raises(CheckFailed, match="file"):
        op.check(done + 1)
    logged = wl.service.sink.load()
    assert logged
    with pytest.raises(CheckFailed):
        checks.check_event_log(logged[1:], wl.batch)
    moved = dataclasses.replace(
        logged[0], event=dataclasses.replace(logged[0].event, t_end=logged[0].event.t_end + 1)
    )
    with pytest.raises(CheckFailed, match="t_end"):
        checks.check_event_log([moved] + logged[1:], wl.batch)
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_events_found([], wl.record.event_times)


# -- the command refuses to run without the program ----------------------------------
def test_run_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "archive-detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

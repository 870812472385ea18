"""Which program calls the traced run wraps, and the per-layer metrics
computed from their spans.

Every ``*_s`` metric is *self* time (span time minus child spans) per
operation, except the ``rt`` stage metrics ``rt.read_s``,
``rt.pipeline_s``, ``rt.events_s``, ``rt.sink_s`` and
``rt.checkpoint_s``, which are inclusive stage durations like the
service's own per-stage reservoirs.  The self-time metrics plus
``unattributed_s`` add up to the main thread's traced wall time per
operation.
"""

from __future__ import annotations

import importlib
import inspect
import os

from perfbench.tracing import ROOT, Tracer

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("unattributed_s", "s/op"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count/op"),
    ("hdf5lite.read_calls", "count/op"),
    ("hdf5lite.read_s", "s/op"),
    ("hdf5lite.contiguous_runs_s", "s/op"),
    ("hdf5lite.bytes_read", "B/op"),
    ("hdf5lite.read_amplification", "ratio"),
    ("hdf5lite.decode_calls", "count/op"),
    ("hdf5lite.decode_s", "s/op"),
    ("hdf5lite.crc_s", "s/op"),
    ("hdf5lite.cache_hit_ratio", "ratio"),
    ("hdf5lite.cache_evictions", "count/op"),
    ("hdf5lite.encode_s", "s/op"),
    ("hdf5lite.bytes_written", "B/op"),
    ("hdf5lite.write_s", "s/op"),
    ("hdf5lite.other_s", "s/op"),
    ("storage.source_read_s", "s/op"),
    ("storage.open_s", "s/op"),
    ("storage.other_s", "s/op"),
    ("core.optimize_s", "s/op"),
    ("core.optimize_calls", "count/op"),
    ("core.execute_self_s", "s/op"),
    ("core.pipeline_self_s", "s/op"),
    ("core.chunks", "count/op"),
    ("core.cse_hits", "count/op"),
    ("core.bytes_streamed", "B/op"),
    ("core.op.taper_s", "s/op"),
    ("core.op.filtfilt_s", "s/op"),
    ("core.op.fused_s", "s/op"),
    ("core.op.sta_lta_s", "s/op"),
    ("core.op.local_similarity_s", "s/op"),
    ("core.op.decimate_s", "s/op"),
    ("core.op.other_s", "s/op"),
    ("daslib.filtfilt_s", "s/op"),
    ("daslib.other_s", "s/op"),
    ("daslib.calls", "count/op"),
    ("arrayudf.map_blocks_calls", "count/op"),
    ("arrayudf.map_blocks_s", "s/op"),
    ("serve.request_self_s", "s/op"),
    ("serve.admit_s", "s/op"),
    ("serve.admission_wait_s", "s/op"),
    ("serve.pyramid_requests", "count/op"),
    ("serve.raw_requests", "count/op"),
    ("rt.self_s", "s/op"),
    ("rt.read_s", "s/op"),
    ("rt.pipeline_s", "s/op"),
    ("rt.events_s", "s/op"),
    ("rt.sink_s", "s/op"),
    ("rt.checkpoint_s", "s/op"),
    ("rt.fsyncs", "count/op"),
    ("os.fsync_s", "s/op"),
]

#: Self-time metrics; with ``unattributed_s`` they sum to traced wall/op.
SELF_METRICS = [
    name
    for name, unit in PER_LAYER
    if unit == "s/op"
    and name != "unattributed_s"
    and name not in ("rt.read_s", "rt.pipeline_s", "rt.events_s", "rt.sink_s",
                     "rt.checkpoint_s", "serve.admission_wait_s")
]

_OPS = {
    "taperop": "taper",
    "filtfiltop": "filtfilt",
    "fusedop": "fused",
    "staltaop": "sta_lta",
    "localsimilarityop": "local_similarity",
    "decimateop": "decimate",
}


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _count_arg_len(key: str, index: int):
    def post(st, args, kwargs, result, parent, token):
        st.counters[key] += len(args[index])
    return post


def _count_arg_int(key: str, index: int):
    def post(st, args, kwargs, result, parent, token):
        st.counters[key] += int(args[index])
    return post


def _delivered(st, args, kwargs, result, parent, token):
    if parent is None or not parent[0].startswith("hdf5lite."):
        st.counters["bytes_delivered"] += result.nbytes


def _cache_get(st, args, kwargs, result, parent, token):
    st.counters["cache_misses" if result is None else "cache_hits"] += 1


def _evictions_before(args, kwargs):
    return args[0].evictions


def _cache_put(st, args, kwargs, result, parent, token):
    st.counters["cache_evictions"] += args[0].evictions - token


def _preview(st, args, kwargs, result, parent, token):
    st.counters["raw_requests" if result.level is None else "pyramid_requests"] += 1


def _window(st, args, kwargs, result, parent, token):
    st.counters["raw_requests"] += 1


def _admit(st, args, kwargs, result, parent, token):
    st.counters["admission_wait_s"] += result.waited_s


def _execute(st, args, kwargs, result, parent, token):
    seen = set()
    for res in result:
        prof = res.profile
        if id(prof) in seen:
            continue
        seen.add(id(prof))
        st.counters["core.chunks"] += prof.n_chunks
        st.counters["core.cse_hits"] += getattr(prof, "cse_hits", 0)
        st.counters["core.bytes_streamed"] += prof.bytes_streamed


def _fsync(st, args, kwargs, result, parent, token):
    if any(frame[0].startswith("rt.") for frame in st.stack):
        st.counters["rt.fsyncs"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's public calls (undo with
    ``tracer.uninstall()``)."""
    mod = {
        name: importlib.import_module("repro." + name)
        for name in (
            "hdf5lite.binary", "hdf5lite.codecs", "hdf5lite.checksum",
            "hdf5lite.hyperslab", "hdf5lite.dataset", "hdf5lite.file",
            "hdf5lite.cache", "storage.chunks", "storage.vca",
            "storage.dasfile", "storage.catalog", "core.optimizer",
            "core.pipeline", "daslib", "arrayudf", "arrayudf.fuse",
            "serve.server", "serve.admission",
            "rt.service", "rt.ingest", "rt.scheduler", "rt.events",
            "rt.checkpoint",
        )
    }
    # Import every module that defines operators, so their classes exist.
    for name in ("core.operators", "core.stalta", "core.local_similarity",
                 "core.graph", "core.interferometry", "core.stacking"):
        importlib.import_module("repro." + name)

    # hdf5lite
    backend = mod["hdf5lite.binary"].FileBackend
    tracer.patch_method(backend, "readinto_at", "hdf5lite.read",
                        post=_count_arg_len("bytes_read", 2))
    tracer.patch_method(backend, "read_at", "hdf5lite.read",
                        post=_count_arg_int("bytes_read", 2))
    tracer.patch_method(backend, "write_at", "hdf5lite.write",
                        post=_count_arg_len("bytes_written", 2))
    tracer.patch_method(backend, "append", "hdf5lite.write",
                        post=_count_arg_len("bytes_written", 1))
    codecs = mod["hdf5lite.codecs"]
    for cls in [codecs.Codec] + _subclasses(codecs.Codec):
        for attr in ("decode", "encode"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, "hdf5lite." + attr)
    tracer.patch_function("repro.hdf5lite.checksum", "verify_block", "hdf5lite.crc")
    tracer.patch_function("repro.hdf5lite.hyperslab", "contiguous_runs",
                          "hdf5lite.contiguous_runs", generator=True)
    dataset = mod["hdf5lite.dataset"].Dataset
    tracer.patch_method(dataset, "read_hyperslab", "hdf5lite.dataset", post=_delivered)
    tracer.patch_method(dataset, "write_hyperslab", "hdf5lite.dataset")
    hfile = mod["hdf5lite.file"]
    tracer.patch_method(hfile.Group, "create_dataset", "hdf5lite.dataset")
    for attr in ("__init__", "flush", "close"):
        tracer.patch_method(hfile.File, attr, "hdf5lite.file")
    cache = mod["hdf5lite.cache"]
    tracer.patch_method(cache.BlockCache, "get", "hdf5lite.cache", post=_cache_get)
    tracer.patch_method(cache.BlockCache, "put", "hdf5lite.cache",
                        pre=_evictions_before, post=_cache_put)
    tracer.patch_method(cache.FilePool, "acquire", "hdf5lite.file")

    # storage
    chunks = mod["storage.chunks"]
    for cls in [chunks.ChunkSource] + _subclasses(chunks.ChunkSource):
        for attr in ("read", "read_rows", "read_strided"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, "storage.source_read")
    tracer.patch_function("repro.storage.vca", "open_vca", "storage.open")
    tracer.patch_method(mod["storage.vca"].VCAHandle, "close", "storage.open")
    tracer.patch_function("repro.storage.vca", "create_vca", "storage.vca")
    tracer.patch_function("repro.storage.dasfile", "read_das_file", "storage.dasfile")
    tracer.patch_function("repro.storage.dasfile", "write_das_file", "storage.dasfile")
    catalog = mod["storage.catalog"].Catalog
    for attr in ("open", "refresh", "save"):
        tracer.patch_method(catalog, attr, "storage.catalog")

    # core
    tracer.patch_function("repro.core.optimizer", "optimize", "core.optimize")
    tracer.patch_function("repro.core.optimizer", "execute", "core.execute", post=_execute)
    pipeline = mod["core.pipeline"]
    tracer.patch_method(pipeline.StreamPipeline, "run", "core.pipeline")
    for attr in ("push", "flush"):
        tracer.patch_method(pipeline.IncrementalRunner, attr, "core.pipeline")
    for cls in _subclasses(pipeline.Operator):
        if "apply" in cls.__dict__:
            tracer.patch_method(cls, "apply", "core.op." + cls.__name__.lower())
    for cls in _subclasses(pipeline.SinkOp):
        for attr in ("consume", "finalize"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, "core.op." + cls.__name__.lower())

    # daslib: every public function, under its own span name
    daslib = mod["daslib"]
    for name in daslib.__all__:
        fn = getattr(daslib, name)
        if inspect.isfunction(fn):
            tracer.patch_function(fn.__module__, fn.__name__, "daslib." + fn.__name__)

    # arrayudf
    tracer.patch_function("repro.arrayudf.fuse", "map_blocks_mt", "arrayudf.map_blocks")
    for name in ("apply", "apply_mt"):
        fn = getattr(mod["arrayudf"], name)
        tracer.patch_function(fn.__module__, fn.__name__, "arrayudf.apply")

    # serve
    session = mod["serve.server"].ServeSession
    tracer.patch_method(session, "read_window", "serve.request", post=_window)
    tracer.patch_method(session, "preview", "serve.request", post=_preview)
    tracer.patch_method(session, "events", "serve.request")
    tracer.patch_method(mod["serve.server"].DataServer, "load_events", "serve.request")
    admission = mod["serve.admission"].AdmissionController
    tracer.patch_method(admission, "admit", "serve.admit", post=_admit)
    for attr in ("reconcile", "record_latency"):
        tracer.patch_method(admission, attr, "serve.admit")

    # rt: stage spans around the calls each stage makes
    service = mod["rt.service"].RTService
    for attr in ("drain", "tick", "flush", "__init__"):
        tracer.patch_method(service, attr, "rt.drain")
    tracer.patch_method(mod["rt.ingest"].SpoolWatcher, "scan", "rt.drain")
    tracer.patch(mod["rt.service"], "read_das_file",
                 tracer.wrap(mod["rt.service"].read_das_file, "rt.read"))
    scheduler = mod["rt.scheduler"].SeamScheduler
    for attr in ("process", "flush"):
        tracer.patch_method(scheduler, attr, "rt.pipeline")
    events = mod["rt.events"]
    for attr in ("feed", "flush"):
        tracer.patch_method(events.EventAssembler, attr, "rt.events")
    tracer.patch_method(events.EventSink, "emit", "rt.sink")
    tracer.patch_method(mod["rt.checkpoint"].CheckpointStore, "save", "rt.checkpoint")
    tracer.patch(os, "fsync", tracer.wrap(os.fsync, "os.fsync", post=_fsync))


def layer_metrics(tracer: Tracer, n_ops: int, overhead_pct: float) -> dict[str, float]:
    """Per-operation per-layer values from the traced phase, with the
    ``trace.overhead_pct`` the runner measured."""
    main, every, counters = tracer.aggregate()
    n = max(1, int(n_ops))

    def own(*names: str, prefix: str | None = None) -> float:
        keys = [k for k in every if prefix is not None and k.startswith(prefix)]
        keys += [k for k in names if k in every and k not in keys]
        return sum(every[k][2] for k in keys) / n

    def incl(name: str) -> float:
        return every.get(name, [0, 0.0, 0.0])[1] / n

    def calls(name: str) -> float:
        return every.get(name, [0, 0.0, 0.0])[0] / n

    def counter(name: str) -> float:
        return counters.get(name, 0.0) / n

    known_ops = ["core.op." + key for key in _OPS]
    hits, misses = counters.get("cache_hits", 0.0), counters.get("cache_misses", 0.0)
    delivered = counters.get("bytes_delivered", 0.0)
    values = {
        "unattributed_s": main.get(ROOT, [0, 0.0, 0.0])[2] / n,
        "trace.overhead_pct": overhead_pct,
        "trace.spans": tracer.span_count() / n,
        "hdf5lite.read_calls": calls("hdf5lite.read"),
        "hdf5lite.read_s": own("hdf5lite.read"),
        "hdf5lite.contiguous_runs_s": own("hdf5lite.contiguous_runs"),
        "hdf5lite.bytes_read": counter("bytes_read"),
        "hdf5lite.read_amplification": (
            counters.get("bytes_read", 0.0) / delivered if delivered else 0.0
        ),
        "hdf5lite.decode_calls": calls("hdf5lite.decode"),
        "hdf5lite.decode_s": own("hdf5lite.decode"),
        "hdf5lite.crc_s": own("hdf5lite.crc"),
        "hdf5lite.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "hdf5lite.cache_evictions": counter("cache_evictions"),
        "hdf5lite.encode_s": own("hdf5lite.encode"),
        "hdf5lite.bytes_written": counter("bytes_written"),
        "hdf5lite.write_s": own("hdf5lite.write"),
        "hdf5lite.other_s": own("hdf5lite.dataset", "hdf5lite.file", "hdf5lite.cache"),
        "storage.source_read_s": own("storage.source_read"),
        "storage.open_s": own("storage.open"),
        "storage.other_s": own("storage.vca", "storage.dasfile", "storage.catalog"),
        "core.optimize_s": own("core.optimize"),
        "core.optimize_calls": calls("core.optimize"),
        "core.execute_self_s": own("core.execute"),
        "core.pipeline_self_s": own("core.pipeline"),
        "core.chunks": counter("core.chunks"),
        "core.cse_hits": counter("core.cse_hits"),
        "core.bytes_streamed": counter("core.bytes_streamed"),
        "core.op.other_s": sum(
            every[k][2] for k in every
            if k.startswith("core.op.") and k not in known_ops
        ) / n,
        "daslib.filtfilt_s": own("daslib.filtfilt"),
        "daslib.other_s": own(prefix="daslib.") - own("daslib.filtfilt"),
        "daslib.calls": counter("daslib.entries"),
        "arrayudf.map_blocks_calls": calls("arrayudf.map_blocks"),
        "arrayudf.map_blocks_s": own("arrayudf.map_blocks", "arrayudf.apply"),
        "serve.request_self_s": own("serve.request"),
        "serve.admit_s": own("serve.admit"),
        "serve.admission_wait_s": counter("admission_wait_s"),
        "serve.pyramid_requests": counter("pyramid_requests"),
        "serve.raw_requests": counter("raw_requests"),
        "rt.self_s": own(prefix="rt."),
        "rt.read_s": incl("rt.read"),
        "rt.pipeline_s": incl("rt.pipeline"),
        "rt.events_s": incl("rt.events"),
        "rt.sink_s": incl("rt.sink"),
        "rt.checkpoint_s": incl("rt.checkpoint"),
        "rt.fsyncs": counter("rt.fsyncs"),
        "os.fsync_s": own("os.fsync"),
    }
    for key, short in _OPS.items():
        values[f"core.op.{short}_s"] = own("core.op." + key)
    return {name: float(values.get(name, 0.0)) for name, _unit in PER_LAYER}

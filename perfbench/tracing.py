"""In-memory span tracer wrapped around the program's public layer calls.

The program is not instrumented.  :func:`install` replaces public
functions and methods of each measured layer (``hdf5lite``, ``storage``,
``core``, ``daslib``, ``arrayudf``, ``serve``, ``rt``) with wrappers that
record a span per call -- name, start, end, parent -- and
:meth:`Tracer.uninstall` puts the originals back.  Aggregates (count,
inclusive and self seconds per span name) are kept per thread, so a
layer's *self* time is its spans' durations minus what their child spans
cover, and the benchmark's own ``bench.op`` root span keeps exactly the
wall time that no layer claims (``unattributed_s``).

Raw spans are kept in memory (up to ``SPAN_CAP`` per thread) and written
out only by :meth:`Tracer.dump`, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

ROOT = "bench.op"
SPAN_CAP = 100_000  # raw spans kept per thread; later ones are only counted


class _ThreadState:
    __slots__ = ("ident", "stack", "agg", "counters", "spans", "next_id", "dropped")

    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[list] = []  # frames: [name, t0, child_s, span_id]
        self.agg: dict[str, list] = {}  # name -> [count, incl_s, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.next_id = 0
        self.dropped = 0


class Tracer:
    """Collects spans from every thread that enters a wrapped call."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []  # guarded-by: _lock
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------
    def state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _close(self, st: _ThreadState, frame: list, t1: float, parent) -> None:
        name, t0, child, span_id = frame
        dur = t1 - t0
        if parent is not None:
            parent[2] += dur
        agg = st.agg.get(name)
        if agg is None:
            agg = st.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if len(st.spans) < SPAN_CAP:
            st.spans.append(
                (span_id, parent[3] if parent is not None else 0, name, t0, t1)
            )
        else:
            st.dropped += 1

    # -- spans ---------------------------------------------------------------
    def enter(self, name: str) -> list:
        st = self.state()
        st.next_id += 1
        frame = [name, time.perf_counter(), 0.0, st.next_id]
        st.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        st = self.state()
        st.stack.pop()
        self._close(st, frame, t1, st.stack[-1] if st.stack else None)

    def wrap(self, fn, name: str, pre=None, post=None):
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``pre(args, kwargs)`` runs before the call and its value is handed
        to ``post(state, args, kwargs, result, parent, token)``, which adds
        counters after the span closed.
        """
        tracer = self
        perf = time.perf_counter
        entry_key = name.split(".", 1)[0] + ".entries"
        layer = name.split(".", 1)[0] + "."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            parent = stack[-1] if stack else None
            token = pre(args, kwargs) if pre is not None else None
            st.next_id += 1
            frame = [name, perf(), 0.0, st.next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer._close(st, frame, t1, parent)
                if parent is None or not parent[0].startswith(layer):
                    st.counters[entry_key] += 1
            if post is not None:
                post(st, args, kwargs, result, parent, token)
            return result

        wrapper.__perfbench__ = True
        return wrapper

    def wrap_generator(self, fn, name: str):
        """Time each step of a generator function as ``name``.

        The consumer interleaves other calls between steps, so steps are
        aggregated (one count per generator) and credited to whichever
        span is open when the step runs; no raw span is kept for them.
        """
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            agg = st.agg.get(name)
            if agg is None:
                agg = st.agg[name] = [0, 0.0, 0.0]
            agg[0] += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    dur = perf() - t0
                    agg[1] += dur
                    agg[2] += dur
                    if st.stack:
                        st.stack[-1][2] += dur
                    return
                dur = perf() - t0
                agg[1] += dur
                agg[2] += dur
                if st.stack:
                    st.stack[-1][2] += dur
                yield item

        wrapper.__perfbench__ = True
        return wrapper

    # -- patching ------------------------------------------------------------
    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, pre=None, post=None,
                       generator: bool = False) -> None:
        """Wrap a module-level function everywhere it is bound by name:
        its defining module and every loaded program or benchmark module
        that imported it."""
        original = getattr(sys.modules[module], attr)
        if getattr(original, "__perfbench__", False):
            return  # an alias of a function wrapped already
        wrapped = (
            self.wrap_generator(original, name)
            if generator
            else self.wrap(original, name, pre=pre, post=post)
        )
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name.startswith("repro") or mod_name.startswith("perfbench")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, pre=None, post=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.patch(cls, attr, staticmethod(self.wrap(raw.__func__, name, pre, post)))
        elif isinstance(raw, classmethod):
            self.patch(cls, attr, classmethod(self.wrap(raw.__func__, name, pre, post)))
        elif inspect.isfunction(raw):
            self.patch(cls, attr, self.wrap(raw, name, pre=pre, post=post))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def aggregate(self) -> tuple[dict[str, list], dict[str, list], dict[str, float]]:
        """``(main-thread agg, all-thread agg, counters)``; agg values are
        ``[count, incl_s, self_s]``."""
        main_ident = threading.main_thread().ident
        main: dict[str, list] = {}
        every: dict[str, list] = {}
        counters: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (n, incl, own) in st.agg.items():
                for target in (every, main) if st.ident == main_ident else (every,):
                    slot = target.setdefault(key, [0, 0.0, 0.0])
                    slot[0] += n
                    slot[1] += incl
                    slot[2] += own
            for key, value in st.counters.items():
                counters[key] += value
        return main, every, dict(counters)

    def span_count(self) -> int:
        with self._lock:
            return sum(len(st.spans) + st.dropped for st in self._states)

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with self._lock:
            states = list(self._states)
        with open(path, "w", encoding="utf-8") as handle:
            for st in states:
                for span_id, parent, name, t0, t1 in st.spans:
                    handle.write(
                        json.dumps(
                            {
                                "thread": st.ident,
                                "id": span_id,
                                "parent": parent,
                                "name": name,
                                "start": t0,
                                "end": t1,
                            }
                        )
                        + "\n"
                    )
                if st.dropped:
                    handle.write(
                        json.dumps({"thread": st.ident, "dropped": st.dropped}) + "\n"
                    )

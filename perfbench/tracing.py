"""Per-layer spans and counters, installed from outside the program.

Nothing under ``src/`` knows about this module: :func:`install` replaces
public functions of each layer (a module attribute or a class method)
with thin wrappers that record a span around the call.  Spans are kept
in memory and written out by :meth:`Tracer.dump` when the benchmark
ends.

Self time is a span's duration minus the part its child spans cover.
Synchronous spans on the main thread nest on one stack, so their self
times are exact.  Two kinds of spans do not nest on that stack: the
advisor's coroutines, which interleave on one event loop, and disk
loads, which ``asyncio.to_thread`` runs on worker threads.  Those are
kept as intervals and attributed by wall clock after the query stream
(:meth:`Tracer.attribute_concurrent`): time with a load in flight
counts as surface loading, the rest of the time some query was in
flight counts as advisor self time.

Besides spans, :func:`install` always keeps a registry of the run-cache
and selection-memo objects a repetition creates.  Their own counters
are then read directly, which costs nothing per call, so the untraced
run can check exact counts too.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span recorder; a no-op while ``enabled`` is false."""

    def __init__(self) -> None:
        self.enabled = False
        self.main_ident = threading.get_ident()
        self._lock = threading.Lock()
        #: Objects created while installed, by class name; always on.
        self.instances: dict[str, list] = defaultdict(list)
        self.reset()

    def reset(self) -> None:
        #: ``(span id, parent id, name, start, end)`` in end order.
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []  # [id, parent, start, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        #: Outermost calls and their summed duration, per span name.
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        #: Self seconds per layer.
        self.self_s: dict[str, float] = defaultdict(float)
        #: Spans kept off the stack (coroutines, worker threads).
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: Named counts recorded by result hooks.
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording -------------------------------------------------------

    def push(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._depth[name] += 1
        self._stack.append([sid, parent, perf_counter(), 0.0])

    def pop(self, name: str, layer: str) -> None:
        t1 = perf_counter()
        sid, parent, t0, child = self._stack.pop()
        dur = t1 - t0
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.calls[name] += 1
            self.total_s[name] += dur
        self.spans.append((sid, parent, name, t0, t1))

    def off_stack(self, name: str, t0: float, t1: float) -> None:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            self.calls[name] += 1
            self.intervals[name].append((t0, t1))
            self.spans.append((sid, None, name, t0, t1))

    def attribute_concurrent(
        self, outer: tuple[str, str], inner: tuple[str, str]
    ) -> None:
        """Attribute interleaved ``outer`` spans (coroutines) and the
        ``inner`` spans they wait on (worker threads) by wall clock,
        as children of the synchronous span now on top of the stack.

        Each argument is ``(span name, layer)``.
        """
        outer_iv = _union(self.intervals[outer[0]])
        inner_iv = _intersect(_union(self.intervals[inner[0]]), outer_iv)
        outer_s = _length(outer_iv)
        inner_s = _length(inner_iv)
        self.total_s[outer[0]] += outer_s
        self.total_s[inner[0]] += inner_s
        self.self_s[outer[1]] += outer_s - inner_s
        self.self_s[inner[1]] += inner_s
        if self._stack:
            self._stack[-1][3] += outer_s

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON (times relative to the first)."""
        base = min((s[3] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, name, round(t0 - base, 9), round(t1 - base, 9)]
            for sid, parent, name, t0, t1 in sorted(self.spans, key=lambda s: s[3])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": rows,
        }))


def _union(intervals):
    out: list[list[float]] = []
    for t0, t1 in sorted(intervals):
        if out and t0 <= out[-1][1]:
            out[-1][1] = max(out[-1][1], t1)
        else:
            out.append([t0, t1])
    return out


def _intersect(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append([lo, hi])
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _length(intervals) -> float:
    return sum(t1 - t0 for t0, t1 in intervals)


# -- wrappers ------------------------------------------------------------

def _sync(tracer: Tracer, fn, name: str, layer: str, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if threading.get_ident() != tracer.main_ident:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.off_stack(name, t0, perf_counter())
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(name, layer)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _async(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return await fn(*args, **kwargs)
        t0 = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.off_stack(name, t0, perf_counter())

    return wrapper


def _registering_init(tracer: Tracer, cls):
    init = cls.__init__

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.instances[cls.__name__].append(self)

    return wrapper


def _count_records(tracer: Tracer, result) -> None:
    """Count the RunRecords a runner cell returned, whatever its
    nesting: records, ``(bid, records)`` pairs, or per-shape lists."""
    def count(obj) -> int:
        if isinstance(obj, tuple):
            return count(obj[1])
        if isinstance(obj, list):
            return sum(count(x) for x in obj)
        return 1

    tracer.counts["runner.records"] += count(result)


def _patch_method(cls, attr: str, wrap) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def register(tracer: Tracer) -> None:
    """Keep every run cache and selection memo created from now on in
    ``tracer.instances``; call once per process."""
    from repro.core.adaptive import SelectionMemo
    from repro.experiments.cache import RunCache

    for cls in (RunCache, SelectionMemo):
        cls.__init__ = _registering_init(tracer, cls)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call once per process, after
    :func:`register`."""
    from repro.core import bid_batch
    from repro.core.adaptive import SelectionMemo
    from repro.core.engine import SpotSimulator
    from repro.core.vector_engine import VectorSimulator
    from repro.experiments import runner as runner_mod
    from repro.experiments.cache import RunCache
    from repro.experiments.runner import ExperimentRunner
    from repro.market.spot_market import PriceOracle
    from repro.service.advisor import AdvisorService
    from repro.service.surface import SurfaceBuilder, SurfaceCell, SurfaceStore
    from repro.traces import library

    def sync(name, layer, on_result=None):
        return lambda fn: _sync(tracer, fn, name, layer, on_result)

    # module functions: patch every namespace that imported the name
    window = sync("traces.window", "traces")(library.evaluation_window)
    library.evaluation_window = window
    runner_mod.evaluation_window = window
    classes = sync("bidbatch.classes", "bidbatch")(bid_batch.bid_equivalence_classes)
    bid_batch.bid_equivalence_classes = classes
    runner_mod.bid_equivalence_classes = classes

    methods = [
        (PriceOracle, "zone_uptimes", "oracle.uptimes", "oracle"),
        (PriceOracle, "combined_uptimes", "oracle.uptimes", "oracle"),
        (PriceOracle, "zone_stats", "oracle.zone_stats", "oracle"),
        (PriceOracle, "threshold_stats", "oracle.threshold_stats", "oracle"),
        (VectorSimulator, "run_cube", "vector.cube", "vector"),
        (VectorSimulator, "run_adaptive_cube", "vector.adaptive", "vector"),
        (SelectionMemo, "select", "adaptive.select", "adaptive"),
        (SelectionMemo, "first_visit", "adaptive.select", "adaptive"),
        (SpotSimulator, "run", "engine.fast", "engine"),
        (ExperimentRunner, "run_adaptive", "runner.entry", "runner"),
        (ExperimentRunner, "run_cube", "runner.entry", "runner"),
        (RunCache, "get", "cache.get", "cache"),
        (RunCache, "put", "cache.put", "cache"),
        (SurfaceBuilder, "build_family", "surface.build", "surface"),
        (SurfaceCell, "from_records", "surface.aggregate", "surface"),
        (SurfaceStore, "save", "surface.save", "surface"),
        (SurfaceStore, "load", "surface.load", "surface"),
        (SurfaceStore, "catalog", "surface.catalog", "surface"),
    ]
    for cls, attr, name, layer in methods:
        _patch_method(cls, attr, sync(name, layer))
    for attr in ("run_grid_cell", "run_cube_cell", "run_start_axis_cells"):
        _patch_method(ExperimentRunner, attr,
                      sync("runner.cell", "runner", _count_records))
    _patch_method(AdvisorService, "advise",
                  lambda fn: _async(tracer, fn, "advisor.advise"))

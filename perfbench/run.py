"""End-to-end benchmark of the spot-instance simulator and advisor.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-adaptive --seed 1 --seconds 55 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``fig5-adaptive`` and ``advisor-ladder``, one per invocation.  Everything runs in this one process with one worker; the
advisor's client is one asyncio loop.

The run repeats the workload until ``--seconds`` are used (at least
three times).  Every repetition regenerates the trace archive from the
seed and rebuilds every per-run object, then times each chunk of the
measured phase (a grid cell, a ladder build, a query batch).  Each
end-to-end time is the sum over chunks of the best repetition of that
chunk, so a chunk that ran during one of the host's slow phases does not
count as long as another repetition of it did not.  ``setup_s`` is the
median import time, measured in fresh interpreters after a first import
has compiled the bytecode, plus the median per-repetition set-up.

With ``--trace 0`` the program runs unwrapped.  With ``--trace 1`` the
first half of the time runs unwrapped; then the span wrappers of
``perfbench/tracing.py`` go in and the second half runs traced.  The
per-layer metrics come from the fastest traced repetition, the
advisor-ladder phase times from the unwrapped half, and
``trace.overhead_share`` compares the fastest traced repetition with the
fastest unwrapped one.  The spans are written to
``.perfbench/spans-<workload>.json``.

Every metric is printed with its unit and sample count.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

MIN_REPS = 3
IMPORT_SAMPLES = 5
IMPORTS = "import repro.experiments.figures, repro.service.advisor"

#: Layers whose self times, plus ``trace.other_s``, add up to the traced
#: wall time.
LAYERS = ("traces", "oracle", "vector", "bidbatch", "adaptive", "engine",
          "runner", "cache", "surface", "advisor")


def import_seconds() -> list[float]:
    """Import times of the program in fresh interpreters.  A first,
    untimed import compiles the bytecode."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        f"t = time.perf_counter(); {IMPORTS}; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True,
            text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples[1:]


def calib_ms() -> float:
    """A fixed pure-Python + NumPy kernel, timed; shows host slow phases."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += (i * i) % 7
    a = np.arange(1_000_000, dtype=np.float64)
    for _ in range(4):
        acc += float(np.sqrt(a).sum())
    return (perf_counter() - t0) * 1e3


class Repetition:
    """Timings and counts of one repetition."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.chunks: dict[str, float] = {}
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.calib_ms: list[float] = []
        self.counts: dict = {}
        self.extra: dict = {}
        self.layers: dict = {}

    @contextlib.contextmanager
    def timer(self, label: str):
        t0 = perf_counter()
        yield
        self.chunks[label] = self.chunks.get(label, 0.0) + perf_counter() - t0


def run_repetition(workload, tracer, traced: bool) -> Repetition:
    rep = Repetition(traced)
    gc.collect()
    tracer.reset()
    tracer.enabled = traced
    t0 = perf_counter()
    workload.setup()
    rep.setup_s = perf_counter() - t0
    window_s = tracer.total_s.get("traces.window", 0.0)
    tracer.reset()
    rep.calib_ms.append(calib_ms())
    t0 = perf_counter()
    workload.measure(rep.timer)
    rep.wall_s = perf_counter() - t0
    tracer.enabled = False
    rep.calib_ms.append(calib_ms())
    rep.counts = workload.counts()
    rep.extra = workload.extra()
    if traced:
        rep.layers = layer_metrics(tracer, rep, window_s)
        rep.spans = list(tracer.spans)
    return rep


def layer_metrics(tracer, rep: Repetition, window_s: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    tracer.attribute_concurrent(("advisor.advise", "advisor"),
                                ("surface.load", "surface"))
    calls, total = tracer.calls, tracer.total_s
    c = rep.counts

    def ratio(num, den):
        return num / den if den else 0.0

    native = sum(v for k, v in c.items() if k.startswith("vector.rows_native"))
    cloned = sum(v for k, v in c.items() if k.startswith("vector.rows_cloned"))
    fallback = sum(v for k, v in c.items()
                   if k.startswith("vector.rows_fallback"))
    cache = {
        field: sum(v for k, v in c.items()
                   if k.startswith("cache.") and k.endswith("." + field))
        for field in ("gets", "hits", "disk_hits", "misses", "stores")
    }
    hits, misses = c.get("adaptive.memo_hits", 0), c.get("adaptive.memo_misses", 0)
    out = {
        "traces.window_s": (window_s, "s"),
        "oracle.uptimes_s": (total["oracle.uptimes"], "s"),
        "oracle.uptimes_calls": (calls["oracle.uptimes"], "count"),
        "oracle.zone_stats_s": (total["oracle.zone_stats"], "s"),
        "oracle.zone_stats_calls": (calls["oracle.zone_stats"], "count"),
        "oracle.threshold_stats_s": (total["oracle.threshold_stats"], "s"),
        "oracle.threshold_stats_calls": (calls["oracle.threshold_stats"], "count"),
        "vector.cube_s": (total["vector.cube"], "s"),
        "vector.cube_calls": (calls["vector.cube"], "count"),
        "vector.adaptive_s": (total["vector.adaptive"], "s"),
        "vector.adaptive_calls": (calls["vector.adaptive"], "count"),
        "vector.rows_native": (native, "count"),
        "vector.rows_cloned": (cloned, "count"),
        "vector.rows_fallback": (fallback, "count"),
        "vector.clone_share": (ratio(cloned, native + cloned + fallback), "ratio"),
        "bidbatch.classes_s": (total["bidbatch.classes"], "s"),
        "bidbatch.classes_calls": (calls["bidbatch.classes"], "count"),
        "adaptive.select_s": (total["adaptive.select"], "s"),
        "adaptive.memo_hits": (hits, "count"),
        "adaptive.memo_misses": (misses, "count"),
        "adaptive.memo_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "engine.fast_runs": (calls["engine.fast"], "count"),
        "engine.fast_s": (total["engine.fast"], "s"),
        "runner.cells": (calls["runner.cell"], "count"),
        "runner.records": (tracer.counts["runner.records"], "count"),
        "runner.cell_s": (total["runner.cell"], "s"),
        "cache.gets": (cache["gets"], "count"),
        "cache.hits": (cache["hits"], "count"),
        "cache.disk_hits": (cache["disk_hits"], "count"),
        "cache.misses": (cache["misses"], "count"),
        "cache.stores": (cache["stores"], "count"),
        "cache.hit_ratio": (ratio(cache["hits"], cache["gets"]), "ratio"),
        "cache.get_s": (total["cache.get"], "s"),
        "cache.put_s": (total["cache.put"], "s"),
        "surface.aggregate_s": (total["surface.aggregate"], "s"),
        "surface.save_s": (total["surface.save"], "s"),
        "surface.saves": (calls["surface.save"], "count"),
        "surface.load_s": (total["surface.load"], "s"),
        "surface.loads": (calls["surface.load"], "count"),
        "surface.catalog_s": (total["surface.catalog"], "s"),
        "advisor.queries": (c.get("advisor.queries", 0), "count"),
        "advisor.interpolated": (c.get("advisor.interpolated", 0), "count"),
        "advisor.coalesced": (c.get("advisor.coalesced", 0), "count"),
        "advisor.cold_builds": (c.get("advisor.cold_builds", 0), "count"),
    }
    named = 0.0
    for layer in LAYERS:
        self_s = tracer.self_s.get(layer, 0.0)
        out[f"{layer}.self_s"] = (self_s, "s")
        named += self_s
    out["trace.wall_s"] = (rep.wall_s, "s")
    out["trace.other_s"] = (rep.wall_s - named, "s")
    return out


def best_chunks(reps: list[Repetition]) -> dict[str, float]:
    """Per chunk, the fastest repetition's time."""
    labels = reps[0].chunks.keys()
    return {k: min(r.chunks[k] for r in reps) for k in labels}


def repeat(workload, tracer, seconds: float, traced: bool) -> list[Repetition]:
    reps: list[Repetition] = []
    t0 = perf_counter()
    while True:
        reps.append(run_repetition(workload, tracer, traced))
        used = perf_counter() - t0
        if len(reps) >= MIN_REPS and used + used / len(reps) > seconds:
            return reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.tracing import Tracer, install, register
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    tracer = Tracer()
    register(tracer)
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, tracer, WORKDIR)
    seconds = args.seconds / 2 if args.trace else args.seconds
    traced: list[Repetition] = []
    try:
        plain = repeat(workload, tracer, seconds, traced=False)
        if args.trace:
            # the span wrappers go in only now, so the plain repetitions
            # run the program's own code
            install(tracer)
            traced = repeat(workload, tracer, seconds, traced=True)
        log = workload.check()
    finally:
        workload.close()
    reps = plain + traced

    # exact counts must repeat across repetitions; no run may leave the
    # vector engine for the per-run fallback
    for rep in reps[1:]:
        if rep.counts != reps[0].counts:
            log.failed.append(f"counts differ: {rep.counts} != {reps[0].counts}")
    for key, value in reps[0].counts.items():
        if key.startswith("vector.rows_fallback") and value:
            log.failed.append(f"{key}={value}")
    for rep in reps:
        if rep.traced and rep.layers["engine.fast_runs"][0]:
            log.failed.append("engine.fast_runs nonzero")

    best = best_chunks(plain)
    wall_s = sum(best.values())
    runs, runs_s = workload.engine_runs(best)
    setup_s = statistics.median(import_s) + statistics.median(
        r.setup_s for r in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_share = min(len(log.failed) / log.attempted, 1.0)
    calib = [c for r in reps for c in r.calib_ms]

    report = [
        ("setup_s", setup_s, "s",
         f"median import ({len(import_s)}) + median set-up ({len(plain)})"),
        ("wall_s", wall_s, "s",
         f"sum over {len(best)} chunks of the best of {len(plain)}"),
        ("runs_per_s", runs / runs_s, "runs/s",
         f"{runs} engine runs in {runs_s:.3f} s, best of {len(plain)} per chunk"),
        ("peak_rss_mb", peak_rss_mb, "MB", "max resident set"),
    ]
    # advisor-ladder phases; zero on the other workloads
    phases = [("cold_build_s", 0.0, "s"), ("warm_build_s", 0.0, "s"),
              ("queries_per_s", 0.0, "queries/s"),
              ("query_p50_ms", 0.0, "ms"), ("query_p99_ms", 0.0, "ms")]
    shown = list(report)
    if workload.name == "advisor-ladder":
        cold = sum(v for k, v in best.items() if k.startswith("cold/"))
        warm = sum(v for k, v in best.items() if k.startswith("warm/"))
        serve = sum(v for k, v in best.items() if k.startswith("serve/"))
        queries = reps[0].counts["advisor.queries"]
        p50 = min(r.extra["p50_ms"] for r in plain)
        p99 = min(r.extra["p99_ms"] for r in plain)
        shown += [
            ("cold_build_s", cold, "s",
             f"best of {len(plain)} per window, summed"),
            ("warm_build_s", warm, "s",
             f"best of {len(plain)} per window, summed"),
            ("queries_per_s", queries / serve, "queries/s",
             f"{queries} queries in {serve:.3f} s, best of {len(plain)} "
             "per batch"),
            ("query_p50_ms", p50, "ms",
             f"best of {len(plain)}, {queries} samples each"),
            ("query_p99_ms", p99, "ms",
             f"best of {len(plain)}, {queries} samples each"),
        ]
        phases = [(name, value, unit)
                  for name, value, unit, _ in shown[len(report):]]
    shown.append(("failed_share", failed_share, "ratio",
                  f"{len(log.failed)} of {log.attempted} units"))

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"reps={len(plain)} plain + {len(traced)} traced")
    print(f"  scale: {workload.scale}")
    for name, value, unit, how in shown:
        print(f"  {name:<14} {value:12.4f} {unit:<10} {how}")
    print("  host.calib_ms  " + " ".join(f"{c:.1f}" for c in calib))
    print("  counts " + json.dumps(reps[0].counts, sort_keys=True))
    for rep in reps:
        if rep.extra:
            print("  order-dependent " + json.dumps(
                {k: v for k, v in rep.extra.items() if not k.endswith("_ms")},
                sort_keys=True))
    for label in log.failed:
        print(f"  FAILED {label}")

    if args.trace:
        best_traced = min(traced, key=lambda r: r.wall_s)
        best_plain = min(plain, key=lambda r: r.wall_s)
        layers = dict(best_traced.layers)
        layers.update({name: (value, unit) for name, value, unit in phases})
        hot = [r.extra.get("advisor.hot_hits", 0) for r in reps]
        loads = [r.extra.get("advisor.disk_loads", 0) for r in reps]
        queries = reps[0].counts.get("advisor.queries", 0)
        layers.update({
            "advisor.hot_hits": (statistics.median(hot), "count"),
            "advisor.hot_hits_spread": (max(hot) - min(hot), "count"),
            "advisor.disk_loads": (statistics.median(loads), "count"),
            "advisor.disk_loads_spread": (max(loads) - min(loads), "count"),
            "advisor.hot_ratio": (
                statistics.median(hot) / queries if queries else 0.0, "ratio"),
            "host.calib_ms": (statistics.median(calib), "ms"),
            "trace.overhead_share": (
                best_traced.wall_s / best_plain.wall_s - 1.0, "ratio"),
        })
        metrics = layers
        tracer.spans = best_traced.spans
        tracer.dump(WORKDIR / f"spans-{workload.name}.json")
        print("  layer self times (s): " + " ".join(
            f"{layer}={layers[layer + '.self_s'][0]:.3f}" for layer in LAYERS)
            + f" other={layers['trace.other_s'][0]:.3f}"
            + f" wall={layers['trace.wall_s'][0]:.3f}")
    else:
        metrics = {name: (value, unit) for name, value, unit, _ in report}

    print(json.dumps({
        "correct": not log.failed,
        "attempted": log.attempted,
        "failed": len(log.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

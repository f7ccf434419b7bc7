"""Adaptive-axis throughput — the vector engine's Adaptive columns.

The Adaptive-heavy grid: the controller's full 15-bid candidate grid
(x zone sets x policy kinds) evaluated at every decision epoch of
``REPRO_BENCH_GRID_STARTS`` overlapping starts.  The axis runs once as
a per-run fast loop (one simulator and one fresh controller per start)
and once through the vector engine, which advances every start as a
column in lockstep and calls each row's own controller only at that
row's decision epochs.  Both engines make the same per-controller
decisions — each controller builds its statistics bucket's decision
matrices itself and nothing is shared between runs — so the ratio
measures the vector engine's column stepping against the scalar loop.
The records must match bit for bit; the measured speedup lands in
``BENCH_vector_adaptive.json`` at the repo root and is gated at 3x by
``check_regression.py``.  (Large-bid's native columns are measured by
the full-grid bench's Naive cell.)

Set ``REPRO_BENCH_GRID_STARTS`` (default 256) to rescale; the paper
acceptance bar is 256.  Below 96 starts the floor relaxes and the JSON
is left untouched — the committed baseline always holds a full-scale
measurement, and ``check_regression.py`` never compares across
scales.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.app.workload import paper_experiment
from repro.experiments.runner import ExperimentRunner
from repro.traces.library import DEFAULT_SEED


def grid_starts() -> int:
    return int(os.environ.get("REPRO_BENCH_GRID_STARTS", "256"))


def _sweep(runner: ExperimentRunner, config) -> dict:
    """The Adaptive axis on either engine."""
    return {"adaptive": runner.run_adaptive(config)}


def test_vector_speedup_adaptive_axis(benchmark):
    """Vector-engine Adaptive columns vs the per-run fast loop."""
    n = grid_starts()
    config = paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)
    fast = ExperimentRunner("low", num_experiments=n, seed=DEFAULT_SEED)
    vec = ExperimentRunner("low", num_experiments=n, seed=DEFAULT_SEED,
                           engine_mode="vector")
    starts = fast.starts(config)

    t0 = time.perf_counter()
    fast_records = _sweep(fast, config)
    fast_s = time.perf_counter() - t0

    vec_records = benchmark(_sweep, vec, config)
    assert vec_records == fast_records  # bit-identical cells

    # counters accumulate over every benchmark round, so report shares
    stats = vec.drain_vector_stats()
    assert stats is not None and stats.native > 0
    assert stats.fallback == {}, "Adaptive cells fell back"

    vec_s = float(benchmark.stats.stats.mean)
    speedup = fast_s / vec_s
    payload = {
        "window": "low",
        "candidate_bids": 15,
        "starts": len(starts),
        "runs_per_engine": sum(len(v) for v in fast_records.values()),
        "native_share": round(stats.native / stats.total, 4),
        "fallback_share": round(
            sum(stats.fallback.values()) / stats.total, 4
        ),
        "fast_seconds": fast_s,
        "vector_seconds_mean": vec_s,
        "speedup": speedup,
    }
    if len(starts) >= 96:
        # sub-scale smokes keep the committed full-scale baseline: a
        # 32-start measurement must never become the file
        # check_regression.py compares
        out = Path(__file__).resolve().parent.parent / "BENCH_vector_adaptive.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
    floor = 3.0 if len(starts) >= 96 else 1.4
    assert speedup >= floor, (
        f"adaptive axis only {speedup:.1f}x over fast loop "
        f"(floor {floor}x at {len(starts)} starts)"
    )

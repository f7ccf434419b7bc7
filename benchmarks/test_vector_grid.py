"""Fused (bid x start) grid throughput — the full-grid vector engine.

A Figure-4-style grid — all five paper policies over a 15-bid axis,
plus the Naive and Adaptive cells, over ``REPRO_BENCH_GRID_STARTS``
overlapping starts — runs once as a per-run fast loop (one simulator
per (policy, bid, start)) and once through a one-shape
:meth:`ExperimentRunner.run_cube`, which advances each (policy,
zone-set) cell's whole (bid x start) tile in lockstep: native columns
for every policy kind (Naive/Large-bid included), bid-equivalence
clones for the bid-invariant ones, and for Adaptive one column per
start whose own controller is called at that row's decision epochs.
The records must match bit for bit; the measured speedup lands in
``BENCH_vector_grid.json`` at the repo root and is gated at 4x by
``check_regression.py``.

Set ``REPRO_BENCH_GRID_STARTS`` (default 256) to rescale; the paper
acceptance bar is 256.  Below 96 starts the floor relaxes and the
JSON is left untouched: the committed baseline always holds a
full-scale measurement and ``check_regression.py`` never compares
across scales.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.app.workload import paper_experiment
from repro.experiments.runner import POLICY_FACTORIES, ExperimentRunner
from repro.traces.library import DEFAULT_SEED

#: The 15-bid axis: the paper's figure bids densified across the
#: calm-window price range so the grid has both clone-heavy low bids
#: and never-outbid high ones.
GRID_BIDS = (
    0.20, 0.24, 0.27, 0.31, 0.35, 0.40, 0.46, 0.53,
    0.62, 0.71, 0.81, 1.00, 1.30, 1.80, 2.40,
)

#: The four bid-parameterized single-zone policies; Naive (the fifth
#: paper scheme) and the Adaptive controller ride along below on their
#: own native columns.
GRID_POLICIES = tuple(sorted(POLICY_FACTORIES))


def grid_starts() -> int:
    return int(os.environ.get("REPRO_BENCH_GRID_STARTS", "256"))


def _per_run_sweep(runner: ExperimentRunner, config) -> dict:
    """One fast simulator per (policy, bid, start): the scalar loop."""
    zones = runner.trace.zone_names[:1]
    out = {}
    for label in GRID_POLICIES:
        for bid in GRID_BIDS:
            out[(label, bid)] = runner.run_single_zone(
                label, config, bid, zones=zones
            )
    out[("naive", None)] = runner.run_large_bid(config, None,
                                                zone=zones[0])
    out[("adaptive", None)] = runner.run_adaptive(config)
    return out


def _grid_sweep(runner: ExperimentRunner, config) -> dict:
    """One fused (bid x start) tile per policy cell."""
    zones = runner.trace.zone_names[:1]
    out = {}
    for label in GRID_POLICIES:
        ((cell,),) = runner.run_cube([label], [config], GRID_BIDS,
                                     zones=zones)
        for bid in GRID_BIDS:
            out[(label, bid)] = cell[bid]
    out[("naive", None)] = runner.run_large_bid(config, None,
                                                zone=zones[0])
    out[("adaptive", None)] = runner.run_adaptive(config)
    return out


def test_vector_speedup_full_grid(benchmark):
    """Fused tiles vs the per-run fast loop on the calm window."""
    n = grid_starts()
    config = paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)
    fast = ExperimentRunner("low", num_experiments=n, seed=DEFAULT_SEED)
    vec = ExperimentRunner("low", num_experiments=n, seed=DEFAULT_SEED,
                           engine_mode="vector")
    starts = fast.starts(config)

    t0 = time.perf_counter()
    fast_records = _per_run_sweep(fast, config)
    fast_s = time.perf_counter() - t0

    vec_records = benchmark(_grid_sweep, vec, config)
    assert vec_records == fast_records  # bit-identical grids

    # counters accumulate over every benchmark round, so report shares
    stats = vec.drain_vector_stats()
    assert stats is not None and stats.native > 0

    vec_s = float(benchmark.stats.stats.mean)
    speedup = fast_s / vec_s
    payload = {
        "window": "low",
        "bids": len(GRID_BIDS),
        "starts": len(starts),
        "policies": len(GRID_POLICIES) + 2,  # + naive and adaptive cells
        "runs_per_engine": sum(len(v) for v in fast_records.values()),
        "native_share": round(stats.native / stats.total, 4),
        "cloned_share": round(stats.cloned / stats.total, 4),
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
        out = Path(__file__).resolve().parent.parent / "BENCH_vector_grid.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
    floor = 4.0 if len(starts) >= 96 else 2.5
    assert speedup >= floor, (
        f"fused grid only {speedup:.1f}x over fast loop "
        f"(floor {floor}x at {len(starts)} starts)"
    )

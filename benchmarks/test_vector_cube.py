"""Fused (shape x bid x start) cube throughput — the shape-axis engine.

A deadline ladder — eight job shapes sharing one compute time, slack
loosening rung by rung — over the 15-bid axis and
``REPRO_BENCH_CUBE_STARTS`` overlapping starts per shape runs three
ways on the calm window's first zone:

* one fast simulator per (shape, policy, bid, start) — the scalar
  loop a pre-vector surface-family build would run;
* one fused (bid x start) tile per (shape, policy) — a one-shape
  :meth:`ExperimentRunner.run_cube` each, shapes still sequential;
* one :meth:`ExperimentRunner.run_cube` pass per policy cell — the
  whole ladder advancing in lockstep, shape rows sharing the
  zone-dynamics column work and the price lookups.

All three must agree bit for bit.  The gated ``speedup`` is cube vs
the scalar loop (the end-to-end win a family build sees, floor 3x in
``check_regression.py``); ``grid_ratio`` records cube vs the
per-shape fused grids — the marginal value of the shape axis alone —
as an ungated diagnostic, since a ~1.1x ratio would sit on the
absolute-parity floor and flake exactly the way the arena bench once
did.  Results land in ``BENCH_vector_cube.json`` at the repo root.

Set ``REPRO_BENCH_CUBE_STARTS`` (default 256) to rescale; the paper
acceptance bar is 256.  Below 96 starts the vector batches no longer
amortize their setup, so the floor relaxes and the JSON is left
untouched: the committed baseline always holds a full-scale
measurement and ``check_regression.py`` never compares across scales.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.app.workload import paper_experiment
from repro.experiments.runner import POLICY_FACTORIES, ExperimentRunner
from repro.traces.library import DEFAULT_SEED

#: The same 15-bid axis the grid benchmark sweeps: clone-heavy low
#: bids through never-outbid high ones.
CUBE_BIDS = (
    0.20, 0.24, 0.27, 0.31, 0.35, 0.40, 0.46, 0.53,
    0.62, 0.71, 0.81, 1.00, 1.30, 1.80, 2.40,
)

#: The 8-rung deadline ladder: one compute time, slack from barely
#: feasible to double the compute time — the spread a surface family
#: build sweeps.
CUBE_SLACKS = (0.10, 0.15, 0.25, 0.35, 0.50, 0.70, 1.00, 1.40)

#: All four bid-parameterized policies, so the cube mixes clone-heavy
#: bid-invariant cells with fully bid-dependent native ones.
CUBE_POLICIES = tuple(sorted(POLICY_FACTORIES))


def cube_starts() -> int:
    return int(os.environ.get("REPRO_BENCH_CUBE_STARTS", "256"))


def _scalar_sweep(runner: ExperimentRunner, shapes, zones) -> dict:
    """One fast simulator per (shape, policy, bid, start)."""
    return {
        label: [
            {
                bid: runner.run_single_zone(label, cfg, bid, zones=zones)
                for bid in CUBE_BIDS
            }
            for cfg in shapes
        ]
        for label in CUBE_POLICIES
    }


def _per_shape_grids(runner: ExperimentRunner, shapes, zones) -> dict:
    """One fused (bid x start) tile per (shape, policy): shapes in
    sequence, each tile re-deriving its own zone dynamics."""
    return {
        label: [runner.run_cube(label, [cfg], CUBE_BIDS, zones=zones)[0]
                for cfg in shapes]
        for label in CUBE_POLICIES
    }


def _cube_sweep(runner: ExperimentRunner, shapes, zones) -> dict:
    """One fused (shape x bid x start) cube per policy cell."""
    return {
        label: runner.run_cube(label, shapes, CUBE_BIDS, zones=zones)
        for label in CUBE_POLICIES
    }


def test_cube_speedup_full_ladder(benchmark):
    """Fused shape ladder vs the scalar loop and per-shape grids."""
    n = cube_starts()
    shapes = [
        paper_experiment(slack_fraction=s, ckpt_cost_s=300.0)
        for s in CUBE_SLACKS
    ]
    fast = ExperimentRunner("low", num_experiments=n, seed=DEFAULT_SEED)
    vec = ExperimentRunner("low", num_experiments=n, seed=DEFAULT_SEED,
                           engine_mode="vector")
    zones = vec.trace.zone_names[:1]

    t0 = time.perf_counter()
    fast_records = _scalar_sweep(fast, shapes, zones)
    fast_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid_records = _per_shape_grids(vec, shapes, zones)
    grid_s = time.perf_counter() - t0
    vec.drain_vector_stats()  # keep the cube's share report clean

    vec_records = benchmark.pedantic(
        _cube_sweep, args=(vec, shapes, zones), rounds=1, iterations=1
    )
    assert vec_records == fast_records  # bit-identical ladders
    assert vec_records == grid_records

    stats = vec.drain_vector_stats()
    assert stats is not None and stats.native > 0

    cube_s = float(benchmark.stats.stats.mean)
    speedup = fast_s / cube_s
    payload = {
        "window": "low",
        "shapes": len(CUBE_SLACKS),
        "bids": len(CUBE_BIDS),
        "policies": len(CUBE_POLICIES),
        "starts_per_shape": n,
        "runs_per_engine": sum(
            len(records)
            for per_shape in fast_records.values()
            for per_bid in per_shape
            for records in per_bid.values()
        ),
        "native_share": round(stats.native / stats.total, 4),
        "cloned_share": round(stats.cloned / stats.total, 4),
        "fallback_share": round(
            sum(stats.fallback.values()) / stats.total, 4
        ),
        "fast_seconds": fast_s,
        "per_shape_grid_seconds": grid_s,
        "cube_seconds": cube_s,
        # diagnostic, deliberately not a speedup_* key: the shape
        # axis's marginal win over per-shape fused grids is real but
        # small enough that the parity floor would make it a flake gate
        "grid_ratio": grid_s / cube_s,
        "speedup": speedup,
    }
    if n >= 96:
        # sub-scale smokes keep the committed full-scale baseline (the
        # PR-9 convention): a 32-start measurement must never become
        # the file check_regression.py compares
        out = Path(__file__).resolve().parent.parent / "BENCH_vector_cube.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
    floor = 3.0 if n >= 96 else 1.5
    assert speedup >= floor, (
        f"fused cube only {speedup:.1f}x over the scalar loop "
        f"(floor {floor}x at {n} starts per shape)"
    )

"""Ablation — Adaptive's candidate bid grid resolution.

Adaptive searches bids $0.27 … $3.07 in $0.20 steps (15 candidates).
This sweep coarsens the grid (every 2nd / every 4th candidate) to ask
how much of Adaptive's advantage comes from fine-grained bid choice;
the paper's design implicitly assumes the full grid matters.
"""

from __future__ import annotations

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.experiments.metrics import box, deadline_violations
from repro.experiments.reporting import format_table
from repro.market.constants import bid_grid


def _sweep(runner):
    full = tuple(bid_grid())
    grids = {
        "full (15 bids)": full,
        "every 2nd (8 bids)": full[::2],
        "every 4th (4 bids)": full[::4],
        "single ($0.87)": (full[3],),
    }
    config = paper_experiment(slack_fraction=0.5, ckpt_cost_s=300.0)
    rows = []
    for label, bids in grids.items():
        records = runner.run_adaptive(
            config,
            controller_factory=lambda bids=bids: AdaptiveController(bids=bids),
        )
        stats = box(records)
        rows.append(
            {
                "grid": label,
                "median": stats.median,
                "max": stats.maximum,
                "violations": len(deadline_violations(records)),
            }
        )
    return rows


def test_bid_grid_ablation(benchmark, high_runner):
    rows = benchmark.pedantic(_sweep, args=(high_runner,), rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["bid grid", "median $", "max $", "violations"],
            [[r["grid"], r["median"], r["max"], r["violations"]] for r in rows],
        )
    )
    assert all(r["violations"] == 0 for r in rows)
    by_grid = {r["grid"]: r for r in rows}
    # a moderately coarse grid stays close to the full grid
    assert by_grid["every 2nd (8 bids)"]["median"] <= by_grid["full (15 bids)"]["median"] * 1.4
    # even the degenerate single-bid controller must stay deadline-safe
    # and below the Large-bid style blow-ups
    assert by_grid["single ($0.87)"]["max"] <= 48.0 * 1.25

"""Data assembly for every table and figure in the paper's evaluation.

Each ``figN_*`` / ``tableN_*`` function returns plain data structures
(dicts of :class:`~repro.stats.descriptive.BoxplotStats`, lists of
rows) that the benchmarks print and the tests assert on.  Rendering to
text lives in :mod:`repro.experiments.reporting`.

Index (see DESIGN.md §4):

========  ===================================================
F2        Figure 2 — zone and combined availability bars
VAR       §3.1 — cross-zone VAR dependence analysis
QD        §5 — spot queuing-delay statistics
F4        Figure 4 — single-zone policies vs best-case redundancy
T2/T3     Tables 2/3 — optimal policy per quadrant
F5        Figure 5 — Adaptive vs Periodic/Markov-Daly/Redundancy
F6        Figure 6 — Large-bid thresholds vs Adaptive
HL        headline claims (7x on-demand, 44%, bounded worst case)
========  ===================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.app.workload import paper_experiment
from repro.core.ondemand import on_demand_cost
from repro.experiments.metrics import RunRecord, box, deadline_violations
from repro.experiments.runner import RETAINED_POLICIES, ExperimentRunner
from repro.market.constants import CKPT_COST_HIGH_S, CKPT_COST_LOW_S, SLACK_HIGH, SLACK_LOW
from repro.market.queuing import QueueDelayModel
from repro.stats.availability import availability_report
from repro.stats.descriptive import BoxplotStats, best_policy_by_median
from repro.stats.var import zone_dependence_report
from repro.traces.library import DEFAULT_SEED, evaluation_window, month_start

#: The bids Figure 4's caption calls out.
FIGURE_BIDS: tuple[float, ...] = (0.27, 0.81, 2.40)

#: Quadrants of the evaluation: (volatility window, slack fraction).
QUADRANTS: tuple[tuple[str, float], ...] = (
    ("low", SLACK_LOW),
    ("low", SLACK_HIGH),
    ("high", SLACK_LOW),
    ("high", SLACK_HIGH),
)

SINGLE_ZONE_POLICIES: tuple[str, ...] = ("threshold", "edge", "periodic", "markov-daly")


# ----------------------------------------------------------------------
# F2 — Figure 2
# ----------------------------------------------------------------------

def fig2_availability(
    bid: float = 0.81,
    window_hours: float = 15.0,
    start_offset_hours: float = 150.0,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Per-zone and combined availability over a 15-hour volatile window.

    The paper's Figure 2 uses December 19, 2012; the canonical archive's
    equivalent is any stormy stretch of the volatile window, selected by
    ``start_offset_hours`` from the window start.
    """
    trace, eval_start = evaluation_window("high", seed)
    t0 = eval_start + start_offset_hours * 3600.0
    sub = trace.window(t0, window_hours * 3600.0)
    report = availability_report(sub, bid)
    return {
        "bid": bid,
        "window_hours": window_hours,
        "per_zone": report.per_zone,
        "combined": report.combined,
        "redundancy_gain": report.redundancy_gain(),
    }


# ----------------------------------------------------------------------
# VAR — Section 3.1
# ----------------------------------------------------------------------

def sec31_var_analysis(
    months: int = 2, max_order: int = 8, seed: int = DEFAULT_SEED
) -> dict:
    """AIC-selected VAR over the archive: own vs cross-zone effects."""
    from repro.traces.library import canonical_dataset

    trace = canonical_dataset(seed)
    t0 = month_start(2013, 1)
    sub = trace.slice(t0, t0 + months * 31 * 86400.0)
    return zone_dependence_report(sub.matrix().T, max_order=max_order)


# ----------------------------------------------------------------------
# QD — Section 5 queuing delay
# ----------------------------------------------------------------------

def sec5_queuing_stats(
    num_probes: int = 120, seed: int = 7
) -> dict:
    """Replay the paper's two-month, twice-daily probing campaign.

    The paper reports avg 299.6 s / min 143 s / max 880 s over two
    months of 7 AM + 7 PM spot requests; we draw the same number of
    probes from the queuing model.
    """
    model = QueueDelayModel()
    rng = np.random.default_rng(seed)
    samples = model.sample_many(rng, num_probes)
    return {
        "num_probes": int(num_probes),
        "mean_s": float(samples.mean()),
        "min_s": float(samples.min()),
        "max_s": float(samples.max()),
        "population_mean_s": model.mean(),
    }


# ----------------------------------------------------------------------
# F4 — Figure 4
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyCell:
    """One boxplot of Figure 4/5: a policy's cost distribution."""

    label: str
    bid: float
    stats: BoxplotStats
    violations: int


def _cell(label: str, bid: float, records: Sequence[RunRecord]) -> PolicyCell:
    return PolicyCell(
        label=label,
        bid=bid,
        stats=box(records),
        violations=len(deadline_violations(records)),
    )


def _single_zone(
    runner: ExperimentRunner,
    policies: Sequence[str],
    config,
    bids: Sequence[float],
) -> dict[str, dict[float, list[RunRecord]]]:
    """``{policy: {bid: records}}`` of merged single-zone cells, from one
    fused (policy x bid x start) cube; per-bid records match
    ``run_single_zone`` exactly."""
    return {
        label: per_shape[0]
        for label, per_shape in zip(
            policies, runner.run_cube(policies, [config], bids)
        )
    }


def fig4_quadrant(
    runner: ExperimentRunner,
    slack_fraction: float,
    ckpt_cost_s: float = CKPT_COST_LOW_S,
    bids: Sequence[float] = FIGURE_BIDS,
    policies: Sequence[str] = SINGLE_ZONE_POLICIES,
) -> list[PolicyCell]:
    """One plot of Figure 4: T/E/P/M single-zone boxes + best-case R.

    Single-zone policies merge all three zones into one box per bid
    (the paper's protocol); the redundancy box is the per-experiment
    best case over the four redundancy-based policies.  Every policy's
    whole bid axis runs as one cube — one fused (policy x bid x start)
    lockstep tile per zone — with per-bid records identical to
    ``run_single_zone`` called once per (policy, bid); the four
    redundancy-based policies run as one more cube over the same bids
    (``run_best_redundant``).  Audited runners take the per-bid per-run
    path so the auditor observes every run.
    """
    config = paper_experiment(slack_fraction=slack_fraction, ckpt_cost_s=ckpt_cost_s)
    per_policy = _single_zone(runner, policies, config, bids)
    best = runner.run_best_redundant(config, bids)
    cells: list[PolicyCell] = []
    for bid in bids:
        for label in policies:
            cells.append(_cell(label, bid, per_policy[label][bid]))
        cells.append(_cell("redundant-best", bid, best[bid]))
    return cells


def fig4_reference_lines(config=None) -> dict:
    """The $48 on-demand and $5.40 lowest-spot reference lines."""
    config = config or paper_experiment()
    od = on_demand_cost(config)
    lowest = 0.27 * np.ceil(config.compute_s / 3600.0)
    return {"on_demand": float(od), "lowest_spot": float(lowest)}


# ----------------------------------------------------------------------
# T2/T3 — Tables 2 and 3
# ----------------------------------------------------------------------

def optimal_policy_table(
    runners: Mapping[str, ExperimentRunner],
    ckpt_cost_s: float,
    bids: Sequence[float] = FIGURE_BIDS,
) -> list[dict]:
    """Tables 2/3: the least-median-cost (policy, bid) per quadrant.

    ``runners`` maps each volatility window to its runner; one runner
    serves both slack quadrants of its window.  Single-zone candidates
    are Periodic and Markov-Daly (the policies the paper retains after
    Section 6); the redundancy candidate is the best-case redundancy
    box.  Returns one row per quadrant with the winner and the full
    per-candidate medians for inspection.
    """
    rows = []
    for window, slack in QUADRANTS:
        runner = runners[window]
        config = paper_experiment(slack_fraction=slack, ckpt_cost_s=ckpt_cost_s)
        single = _single_zone(runner, RETAINED_POLICIES, config, bids)
        best = runner.run_best_redundant(config, bids)
        candidates: dict[str, BoxplotStats] = {}
        for bid in bids:
            for label in RETAINED_POLICIES:
                candidates[f"{label}@{bid:.2f}"] = box(single[label][bid])
            candidates[f"redundant@{bid:.2f}"] = box(best[bid])
        winner, stats = best_policy_by_median(candidates)
        rows.append(
            {
                "window": window,
                "slack": slack,
                "ckpt_cost_s": ckpt_cost_s,
                "winner": winner,
                "winner_median": stats.median,
                "medians": {k: v.median for k, v in candidates.items()},
            }
        )
    return rows


def table2(runners: Mapping[str, ExperimentRunner]) -> list[dict]:
    """Table 2: optimal policies at t_c = 300 s."""
    return optimal_policy_table(runners, CKPT_COST_LOW_S)


def table3(runners: Mapping[str, ExperimentRunner]) -> list[dict]:
    """Table 3: optimal policies at t_c = 900 s."""
    return optimal_policy_table(runners, CKPT_COST_HIGH_S)


# ----------------------------------------------------------------------
# F5 — Figure 5
# ----------------------------------------------------------------------

def fig5_quadrant(
    runner: ExperimentRunner,
    slack_fraction: float,
    ckpt_cost_s: float,
    bid: float = 0.81,
) -> list[PolicyCell]:
    """One plot of Figure 5: Adaptive vs P / M / best-case R at B=$0.81.

    The paper fixes B = $0.81 for the non-adaptive boxes ("we observe
    that B=$0.81 generally results in better median costs"); Adaptive
    chooses its own bids.
    """
    config = paper_experiment(slack_fraction=slack_fraction, ckpt_cost_s=ckpt_cost_s)
    singles = _single_zone(runner, RETAINED_POLICIES, config, [bid])
    return [
        *(_cell(label, bid, singles[label][bid]) for label in RETAINED_POLICIES),
        _cell("redundant-best", bid,
              runner.run_best_redundant(config, [bid])[bid]),
        _cell("adaptive", float("nan"), runner.run_adaptive(config)),
    ]


# ----------------------------------------------------------------------
# F6 — Figure 6
# ----------------------------------------------------------------------

#: The Large-bid control thresholds of Figure 6's x-axis; ``None`` is
#: the "Naive" (no threshold) point and 20.02 the "Max" point.
FIG6_THRESHOLDS: tuple[float | None, ...] = (0.27, 0.81, 2.40, 20.02, None)


def fig6_panel(
    runner: ExperimentRunner,
    slack_fraction: float,
    ckpt_cost_s: float,
    thresholds: Sequence[float | None] = FIG6_THRESHOLDS,
) -> list[PolicyCell]:
    """One Figure 6 panel: Large-bid across thresholds, plus Adaptive.

    The maximum of each cell's stats is the paper's "circle" (worst
    case incurred).
    """
    config = paper_experiment(slack_fraction=slack_fraction, ckpt_cost_s=ckpt_cost_s)
    cells = []
    for threshold in thresholds:
        records = runner.run_large_bid(config, threshold)
        label = "naive" if threshold is None else f"L={threshold:.2f}"
        cells.append(_cell(label, 100.0, records))
    cells.append(_cell("adaptive", float("nan"), runner.run_adaptive(config)))
    return cells


# ----------------------------------------------------------------------
# HL — headline claims
# ----------------------------------------------------------------------

def headline_claims(runners: Mapping[str, ExperimentRunner]) -> dict:
    """The abstract's three quantitative claims, measured.

    ``runners`` maps each volatility window to its runner.

    1. Adaptive up to ~7x cheaper than on-demand (calm markets).
    2. Adaptive up to ~44% cheaper than the best-case non-redundant
       spot policy (low volatility, t_c = 900 s, low slack in the
       paper's data).
    3. Adaptive's worst case stays within ~20% above on-demand.
    """
    od = on_demand_cost(paper_experiment())
    best_ratio = 0.0
    best_single_improvement = 0.0
    worst_ratio = 0.0
    for window, slack in QUADRANTS:
        runner = runners[window]
        for tc in (CKPT_COST_LOW_S, CKPT_COST_HIGH_S):
            config = paper_experiment(slack_fraction=slack, ckpt_cost_s=tc)
            adaptive = box(runner.run_adaptive(config))
            best_ratio = max(best_ratio, od / adaptive.median)
            worst_ratio = max(worst_ratio, adaptive.maximum / od)
            per_label = _single_zone(runner, RETAINED_POLICIES, config,
                                     FIGURE_BIDS)
            singles = [
                box(per_label[label][bid]).median
                for label in RETAINED_POLICIES
                for bid in FIGURE_BIDS
            ]
            best_single = min(singles)
            improvement = (best_single - adaptive.median) / best_single
            best_single_improvement = max(best_single_improvement, improvement)
    return {
        "on_demand_cost": od,
        "max_on_demand_over_adaptive": best_ratio,
        "max_improvement_over_best_single": best_single_improvement,
        "worst_case_over_on_demand": worst_ratio,
    }

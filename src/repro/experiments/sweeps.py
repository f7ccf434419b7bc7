"""Parameter sweeps over the evaluation grid.

The paper fixes slack ∈ {15%, 50%} and t_c ∈ {300, 900}; these helpers
sweep any axis — slack, checkpoint cost, bid, redundancy degree — and
return per-point boxplot statistics, powering the ablation benchmarks
and letting users map their own experiment onto the cost landscape.

Every sweep accepts ``workers``: when given, the runner's grid cells
are fanned out over that many worker processes (see
:mod:`repro.experiments.parallel`) with results identical to the
serial path; when ``None`` the runner's own ``workers`` setting
applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.app.workload import paper_experiment
from repro.experiments.metrics import RunRecord, box, deadline_violations
from repro.experiments.runner import ExperimentRunner
from repro.stats.descriptive import BoxplotStats


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: the parameter value and its cost stats."""

    value: float | str
    stats: BoxplotStats
    violations: int

    def row(self) -> list:
        return [self.value, self.stats.median, self.stats.q3,
                self.stats.maximum, self.violations]


def _point(value, records: Sequence[RunRecord]) -> SweepPoint:
    return SweepPoint(
        value=value,
        stats=box(records),
        violations=len(deadline_violations(records)),
    )


def _with_workers(
    runner: ExperimentRunner, workers: int | None
) -> ExperimentRunner:
    return runner if workers is None else runner.with_workers(workers)


def sweep_slack(
    runner: ExperimentRunner,
    fractions: Sequence[float],
    policy_label: str = "markov-daly",
    bid: float = 0.81,
    ckpt_cost_s: float = 300.0,
    redundant: bool = False,
    workers: int | None = None,
) -> list[SweepPoint]:
    """Cost vs. slack fraction — how much headroom buys how much.

    The paper's qualitative claim: more slack lowers worst-case costs
    (more time to ride out storms before the on-demand switch) but
    barely moves medians once availability is high.
    """
    runner = _with_workers(runner, workers)
    points = []
    for fraction in fractions:
        config = paper_experiment(slack_fraction=fraction,
                                  ckpt_cost_s=ckpt_cost_s)
        if redundant:
            records = runner.run_redundant(policy_label, config, bid)
        else:
            records = runner.run_single_zone(policy_label, config, bid)
        points.append(_point(fraction, records))
    return points


def sweep_ckpt_cost(
    runner: ExperimentRunner,
    costs_s: Sequence[float],
    policy_label: str = "markov-daly",
    bid: float = 0.81,
    slack_fraction: float = 0.15,
    redundant: bool = False,
    workers: int | None = None,
) -> list[SweepPoint]:
    """Cost vs. checkpoint cost t_c (the Tables 2→3 axis, densified)."""
    runner = _with_workers(runner, workers)
    points = []
    for tc in costs_s:
        config = paper_experiment(slack_fraction=slack_fraction,
                                  ckpt_cost_s=tc)
        if redundant:
            records = runner.run_redundant(policy_label, config, bid)
        else:
            records = runner.run_single_zone(policy_label, config, bid)
        points.append(_point(tc, records))
    return points


def sweep_bid(
    runner: ExperimentRunner,
    bids: Sequence[float],
    policy_label: str = "markov-daly",
    slack_fraction: float = 0.5,
    ckpt_cost_s: float = 300.0,
    redundant: bool = False,
    workers: int | None = None,
) -> list[SweepPoint]:
    """Cost vs. bid — the sweet-spot curve behind Section 6's summary
    ("higher bid prices (after a sweet-spot) generally increase the
    median cost for redundancy-based policies").

    The whole axis is one cube cell
    (:meth:`~repro.experiments.runner.ExperimentRunner.run_cube`):
    bid-invariant policies simulate once per availability-equivalence
    class per start instead of once per bid, with per-point records
    identical to per-bid runs.
    """
    runner = _with_workers(runner, workers)
    config = paper_experiment(slack_fraction=slack_fraction,
                              ckpt_cost_s=ckpt_cost_s)
    (axis,) = runner.run_cube(
        policy_label, [config], bids, redundant=redundant
    )
    return [_point(float(b), axis[float(b)]) for b in dict.fromkeys(bids)]


def sweep_zones(
    runner: ExperimentRunner,
    degrees: Sequence[int],
    policy_label: str = "markov-daly",
    bid: float = 0.81,
    slack_fraction: float = 0.15,
    ckpt_cost_s: float = 300.0,
    workers: int | None = None,
) -> list[SweepPoint]:
    """Cost vs. redundancy degree N (Section 6's diminishing returns)."""
    runner = _with_workers(runner, workers)
    config = paper_experiment(slack_fraction=slack_fraction,
                              ckpt_cost_s=ckpt_cost_s)
    points = []
    for n in degrees:
        records = runner.run_redundant(policy_label, config, bid, num_zones=n)
        points.append(_point(n, records))
    return points

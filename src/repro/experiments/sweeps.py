"""Parameter sweeps over the evaluation grid.

The paper fixes slack ∈ {15%, 50%} and t_c ∈ {300, 900}; these helpers
sweep any axis — slack, checkpoint cost, bid, redundancy degree — and
return per-point boxplot statistics, powering the ablation benchmarks
and letting users map their own experiment onto the cost landscape.
Each sweep runs on the runner it is given, so the runner's own
``workers`` and engine settings apply.
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


def _shape_axis(
    runner: ExperimentRunner,
    values: Sequence,
    configs: Sequence,
    policy_label: str,
    bid: float,
    redundant: bool,
) -> list[SweepPoint]:
    """One point per job shape, the whole axis one shape-ladder cube
    (:meth:`~repro.experiments.runner.ExperimentRunner.run_cube`):
    per-point records identical to one cell per shape."""
    (per_shape,) = runner.run_cube(
        [policy_label], configs, [bid], redundant=redundant
    )
    return [
        _point(value, per_bid[float(bid)])
        for value, per_bid in zip(values, per_shape)
    ]


def sweep_slack(
    runner: ExperimentRunner,
    fractions: Sequence[float],
    policy_label: str = "markov-daly",
    bid: float = 0.81,
    ckpt_cost_s: float = 300.0,
    redundant: bool = False,
) -> list[SweepPoint]:
    """Cost vs. slack fraction — how much headroom buys how much.

    The paper's qualitative claim: more slack lowers worst-case costs
    (more time to ride out storms before the on-demand switch) but
    barely moves medians once availability is high.
    """
    configs = [paper_experiment(slack_fraction=f, ckpt_cost_s=ckpt_cost_s)
               for f in fractions]
    return _shape_axis(runner, fractions, configs, policy_label,
                       bid, redundant)


def sweep_ckpt_cost(
    runner: ExperimentRunner,
    costs_s: Sequence[float],
    policy_label: str = "markov-daly",
    bid: float = 0.81,
    slack_fraction: float = 0.15,
    redundant: bool = False,
) -> list[SweepPoint]:
    """Cost vs. checkpoint cost t_c (the Tables 2→3 axis, densified)."""
    configs = [paper_experiment(slack_fraction=slack_fraction, ckpt_cost_s=tc)
               for tc in costs_s]
    return _shape_axis(runner, costs_s, configs, policy_label,
                       bid, redundant)


def sweep_bid(
    runner: ExperimentRunner,
    bids: Sequence[float],
    policy_label: str = "markov-daly",
    slack_fraction: float = 0.5,
    ckpt_cost_s: float = 300.0,
    redundant: bool = False,
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
    config = paper_experiment(slack_fraction=slack_fraction,
                              ckpt_cost_s=ckpt_cost_s)
    ((axis,),) = runner.run_cube(
        [policy_label], [config], bids, redundant=redundant
    )
    return [_point(float(b), axis[float(b)]) for b in dict.fromkeys(bids)]


def sweep_zones(
    runner: ExperimentRunner,
    degrees: Sequence[int],
    policy_label: str = "markov-daly",
    bid: float = 0.81,
    slack_fraction: float = 0.15,
    ckpt_cost_s: float = 300.0,
) -> list[SweepPoint]:
    """Cost vs. redundancy degree N (Section 6's diminishing returns)."""
    config = paper_experiment(slack_fraction=slack_fraction,
                              ckpt_cost_s=ckpt_cost_s)
    points = []
    for n in degrees:
        records = runner.run_redundant(policy_label, config, bid, num_zones=n)
        points.append(_point(n, records))
    return points

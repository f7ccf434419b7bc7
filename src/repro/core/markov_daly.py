"""Markov-Daly policy — predicted up time drives the checkpoint interval.

Section 4.2 / Algorithm 2: ``ScheduleNextCheckpoint()`` asks the
Markov model (Appendix B) for the expected up time ``E[T_u]`` at the
current bid, then arms the next checkpoint Daly's optimal interval
into the future (``T_s = T + opt_ckpt(E[T_u], t_c)``).

For redundant configurations the combined ``E[T_u]`` is the *sum* of
the per-zone expected up times (price movements across zones being
near-independent, Section 3.1), so the interval stretches — fewer
checkpoints — as N grows.
"""

from __future__ import annotations

from typing import Callable

from repro.app.workload import ExperimentConfig
from repro.core.policy import CheckpointPolicy, PolicyContext
from repro.market.instance import ZoneInstance
from repro.stats.daly import daly_interval


def markov_daly_interval(
    config: ExperimentConfig,
    remaining_time_s: float,
    committed_s: float,
    uptime: Callable[[], float],
) -> float:
    """Daly's interval on E[T_u] = ``uptime()``, clamped into the
    deadline-feasible band of a ``config`` job.

    The engine guarantees D on *committed* progress, so two deadline
    constraints bound the usable interval beyond Daly's market-driven
    optimum:

    * **Afford-all-commits floor** — each commit burns ``t_c`` of
      slack; finishing the remaining computation within the slack
      budget needs intervals of at least ``C_r * t_c / budget``.
      Checkpointing more often than that spends slack faster than it
      buys safety, which degenerates into an early switch to on-demand.
    * **Committed-lag ceiling** — the committed margin decays one second
      per second between commits, so an interval longer than the
      current margin (minus the engine's forced-commit reserve) would
      trip the forced-commit floor anyway.

    When the band is empty (the experiment cannot afford Daly-rate
    commits *and* has little margin), the ceiling wins: commit as late
    as the margin allows and maximize spot progress before the
    inevitable on-demand switch.  ``uptime`` is called only when its
    value can change the result.
    """
    ckpt_cost_s = config.ckpt_cost_s
    remaining_compute = max(config.compute_s - committed_s, 0.0)
    margin = (
        remaining_time_s - remaining_compute - ckpt_cost_s
        - config.restart_cost_s
    )
    reserve = ckpt_cost_s + 4.0 * 300.0  # forced-commit window + ticks
    budget = margin - reserve
    if budget > 0:
        afford_floor = remaining_compute * ckpt_cost_s / budget
        ceiling = max(budget, ckpt_cost_s)
        if afford_floor >= ceiling:
            return ceiling
        interval = daly_interval(uptime(), ckpt_cost_s)
        return min(max(interval, afford_floor), ceiling)
    return max(margin, ckpt_cost_s)


class MarkovDalyPolicy(CheckpointPolicy):
    """Expected-uptime-driven checkpoint scheduling (single or multi zone)."""

    name = "markov-daly"
    # the vector engine carries the re-arm clock T_s as a batch column
    # and schedules it through markov_daly_interval per run
    vector_kind = "markov-daly"

    def __init__(self) -> None:
        self._next_checkpoint_at: float | None = None

    def reset(self, ctx: PolicyContext) -> None:
        self._next_checkpoint_at = None

    @property
    def scheduled_at(self) -> float | None:
        """The currently armed T_s (None before the first schedule)."""
        return self._next_checkpoint_at

    def schedule_next_checkpoint(self, ctx: PolicyContext) -> None:
        """Arm T_s one :func:`markov_daly_interval` from now, on the
        configuration's combined E[T_u]."""
        self._next_checkpoint_at = ctx.now + markov_daly_interval(
            ctx.config,
            ctx.run.remaining_time_s(ctx.now),
            ctx.run.committed_progress_s(),
            lambda: ctx.oracle.combined_expected_uptime(
                ctx.zones, ctx.now, ctx.bid
            ),
        )

    def checkpoint_due(self, ctx: PolicyContext, leader: ZoneInstance) -> bool:
        if self._next_checkpoint_at is None:
            # engine always schedules at start; be safe if driven manually
            self.schedule_next_checkpoint(ctx)
        if ctx.now + 1e-6 < self._next_checkpoint_at:
            return False
        # Nothing new to commit: push the schedule instead of writing a
        # no-progress checkpoint.
        if leader.local_progress_s <= ctx.run.committed_progress_s() + 1e-9:
            self.schedule_next_checkpoint(ctx)
            return False
        return True

    def fast_forward_until(self, ctx: PolicyContext) -> float:
        """The armed T_s: :meth:`checkpoint_due` is False (and performs
        no oracle queries) strictly before it."""
        if self._next_checkpoint_at is None:
            return ctx.now
        return self._next_checkpoint_at - 1e-6

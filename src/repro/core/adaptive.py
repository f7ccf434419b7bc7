"""Adaptive policy selection (Section 7).

Adaptive bootstraps from the spot-price history prior to the
experiment, then at each decision point evaluates every permutation of
bid price B (the $0.27–$3.07 grid), zone count N (1, 2 or 3 — every
zone subset), and checkpoint policy (Periodic or Markov-Daly; Edge and
Threshold are excluded after Section 6, and Large-bid offers no cost
bound so it is not a candidate either).  Per permutation it predicts
the remaining cost and switches to the cheapest — but only when the
spot market's rules make a switch free:

1. the configuration's zones have all been terminated (nothing is
   running, so nothing paid-for is abandoned);
2. a running zone's billing hour has just ended (the committed hour
   was fully used); or
3. the new configuration does not change any running zone or the bid
   in the current billing hour (pure policy change / zone addition).

Cost prediction (Section 7.1).  For a permutation, the Markov model of
each zone's trailing history yields the stationary availability
``a_z(B)``, the expected charged rate ``E[S | S <= B, up]`` and the
expected up time ``E[T_u]``; the policy determines the checkpoint
interval (hourly for Periodic, Daly's interval on the combined
``E[T_u]`` for Markov-Daly), from which a useful-work fraction and
hence a progress rate ``P/T`` follows.  Inequality (1),
``C_r - T_r * (P/T) > 0``, decides whether a switch to on-demand will
eventually occur; solving the guard condition linearly splits the
remaining time into a spot phase and an on-demand phase, each costed
at its expected rate.  The permutation with the least predicted
remaining cost wins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import Controller, SwitchDecision
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.policy import CheckpointPolicy, PolicyContext
from repro.market.constants import ON_DEMAND_PRICE, bid_grid
from repro.stats.daly import (
    daly_interval,
    daly_interval_batch,
    expected_useful_fraction,
    expected_useful_fraction_batch,
)

#: Cost-comparison epsilon shared by the candidate tie-break, the
#: rule-3 same-bid guard, and the guard-branch denominator clamp of the
#: cost estimators.  Two predicted costs within this of each other are
#: "the same cost" and tie-break toward fewer zones, then lower bid.
COST_EPS: float = 1e-9

#: Width of the band above the cheapest predicted cost whose cells the
#: selection's comparator loop visits; orders of magnitude above the
#: worst drift of the loop's running best (``2 * 210 * COST_EPS``), so
#: every cell that could win *or tie* under COST_EPS is visited.
SELECT_MARGIN: float = 1e-6


@dataclass(frozen=True)
class CandidateEstimate:
    """Predicted remaining cost of one (bid, zones, policy) permutation."""

    bid: float
    zones: tuple[str, ...]
    policy_kind: str
    progress_rate: float
    spot_hours: float
    ondemand_hours: float
    predicted_cost: float


def make_policy(kind: str) -> CheckpointPolicy:
    """Fresh policy instance for a candidate kind."""
    if kind == "periodic":
        return PeriodicPolicy()
    if kind == "markov-daly":
        return MarkovDalyPolicy()
    raise ValueError(f"unknown candidate policy kind {kind!r}")


class SelectionMemo:
    """One controller's decision matrices for the current bucket.

    Within a statistics bucket every zone's statistics are frozen at the
    bucket's first decision (:meth:`AdaptiveController._zone_stats`), so
    the (zone set x bid) availability, expected-uptime and spot-rate
    matrices and the per-kind progress-rate grids are a function of the
    bucket alone.  :meth:`first_visit` fetches them at a bucket's first
    decision (a miss) from the oracle's
    :meth:`~repro.market.spot_market.PriceOracle.zone_set_stats`, which
    builds them once per (bucket, per-zone price levels, bids, zone
    sets) for every controller on the oracle, and seeds the
    controller's ``_stats_cache`` with the zones' statistics, so
    :meth:`AdaptiveController.estimate` sees the same frozen values.
    The progress grids are built once per such key and checkpoint cost.
    :meth:`select` prices only the deadline-clock half of the estimator
    over the matrices at every decision (a hit when an earlier decision
    fetched them).  A run's clock only moves forward, so only the
    current bucket's matrices are kept.
    """

    __slots__ = ("hits", "misses", "bucket", "matrices")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.clear()

    def clear(self) -> None:
        """Forget the matrices (the counters keep counting)."""
        self.bucket = None
        #: (avail, uptime, rate, progress, progress parts) — ``rate``
        #: has a unit kind axis, ``progress`` is the (zone set, bid,
        #: kind) stack of progress-rate grids and ``progress parts``
        #: its :meth:`AdaptiveController._rate_parts`.
        self.matrices = None

    def first_visit(
        self, controller: "AdaptiveController", ctx: PolicyContext, bucket
    ) -> None:
        """Fetch the bucket's matrices and freeze its zone statistics."""
        stats = ctx.oracle.zone_set_stats(
            controller._zone_sets, ctx.now, controller.bids
        )
        frozen = controller._stats_cache
        shared = True
        for zone, zone_stats in stats.zones.items():
            shared &= frozen.setdefault((zone, bucket), zone_stats) is zone_stats
        config = ctx.config
        if shared:
            avail, uptime, rate = stats.avail, stats.uptime, stats.rate
            key = (config.ckpt_cost_s, controller.policy_kinds)
            progress = stats.derived.get(key)
            if progress is None:
                progress = controller._progress_stack(config, avail, uptime)
                stats.derived[key] = progress
        else:
            # An estimate() earlier in this bucket froze a zone at
            # another price level: assemble from the frozen statistics.
            avail, uptime, rate = controller._stat_matrices(ctx)
            progress = controller._progress_stack(config, avail, uptime)
        self.bucket = bucket
        self.matrices = (avail, uptime, rate[:, :, None], *progress)
        self.misses += 1

    def select(
        self, controller: "AdaptiveController", ctx: PolicyContext, hit: bool
    ) -> CandidateEstimate | None:
        """Price the run's deadline clock over the current matrices."""
        if hit:
            self.hits += 1
        return controller._select_dense(ctx, self.matrices)


@dataclass
class AdaptiveController(Controller):
    """The paper's Adaptive scheme, as an engine controller.

    Each decision prices all (zone set, bid, policy) permutations from
    per-zone statistics frozen at the statistics bucket's first
    decision: the bucket's matrices are built once
    (:class:`SelectionMemo`) and every decision in the bucket reprices
    only the deadline-clock half of the estimator over them.
    :meth:`_best_candidate_full` is the exhaustive reference loop the
    selection is held to.

    Parameters
    ----------
    bids:
        Candidate bid prices (default: the paper's grid).
    policy_kinds:
        Candidate checkpoint policies.
    max_zones:
        Largest redundancy degree to consider.
    improvement_margin:
        Relative predicted-cost improvement a switch must offer
        (damps flapping between near-tied candidates).
    reevaluate_every_s:
        How often to consider "compatible" switches (rule 3) outside
        of terminations and hour boundaries.
    """

    bids: tuple[float, ...] = tuple(bid_grid())
    policy_kinds: tuple[str, ...] = ("periodic", "markov-daly")
    max_zones: int = 3
    improvement_margin: float = 0.08
    reevaluate_every_s: float = 3600.0
    _zone_sets: tuple[tuple[str, ...], ...] = ()
    _last_eval_at: float = -math.inf
    _applied: tuple[float, tuple[str, ...], str] | None = None
    #: (zone, bucket) -> the zone's statistics, frozen at the run's
    #: first query in that bucket.
    _stats_cache: dict = field(default_factory=dict, repr=False)
    #: The run's decision matrices for the current bucket.
    selection_memo: SelectionMemo = field(
        default_factory=SelectionMemo, repr=False, compare=False
    )

    #: The display name used in figures.
    name: str = "adaptive"

    def reset(self, ctx: PolicyContext) -> None:
        names = ctx.oracle.zone_names
        sets: list[tuple[str, ...]] = []
        for n in range(1, min(self.max_zones, len(names)) + 1):
            sets.extend(itertools.combinations(names, n))
        self._zone_sets = tuple(sets)
        self._last_eval_at = -math.inf
        self._applied = None
        self._stats_cache.clear()
        self.selection_memo.clear()

    # -- controller hook -----------------------------------------------------

    def next_decision_time(self, now: float) -> float | None:
        """Next periodic re-check; terminations and hour boundaries are
        separate decision triggers the engine's fast path already stops
        at, so between them :meth:`decide` is a pure no-op until the
        re-evaluation timer expires."""
        if math.isinf(self._last_eval_at):
            return None
        return self._last_eval_at + self.reevaluate_every_s

    def canonical_params(self) -> dict:
        """Run-cache identity: the public tuning knobs.

        Sound because :meth:`reset` rebuilds every piece of internal
        state from the oracle (which the cache key covers through the
        trace fingerprint and oracle configuration) and clears the
        per-run statistic and matrix caches.  Those caches freeze each
        (zone, bucket)'s statistics at the run's first query in the
        bucket, so they depend on the run's own decision instants —
        which is why they must not outlive a run.  Decisions after a
        reset are a deterministic function of these parameters and the
        run's other hashed inputs.
        """
        return {
            "name": self.name,
            "bids": self.bids,
            "policy_kinds": self.policy_kinds,
            "max_zones": self.max_zones,
            "improvement_margin": self.improvement_margin,
            "reevaluate_every_s": self.reevaluate_every_s,
        }

    def decide(self, ctx: PolicyContext) -> SwitchDecision | None:
        if not self.decision_due(ctx):
            return None
        return self.decide_at_epoch(ctx)

    def decision_due(self, ctx: PolicyContext) -> bool:
        """Is ``ctx.now`` a decision epoch?  (Rules 1/2 plus the
        periodic re-check timer.)  Pure query — mutates nothing, so the
        vector engine can evaluate it column-wise and call
        :meth:`decide_at_epoch` only for triggered rows."""
        running = [z for z in ctx.zones if ctx.instances[z].is_running]
        none_running = not running
        at_hour_boundary = any(
            ctx.instances[z].billing.is_open
            and abs(ctx.instances[z].billing.hour_start - ctx.now) < 1e-6
            for z in running
        )
        periodic_recheck = ctx.now - self._last_eval_at >= self.reevaluate_every_s
        return none_running or at_hour_boundary or periodic_recheck

    def decide_at_epoch(self, ctx: PolicyContext) -> SwitchDecision | None:
        """The decision body, given that ``ctx.now`` is an epoch.

        ``decide()`` is exactly ``decision_due() and decide_at_epoch()``;
        the split lets the vector engine evaluate the epoch trigger
        across a column of runs.
        """
        running = [z for z in ctx.zones if ctx.instances[z].is_running]
        none_running = not running
        at_hour_boundary = any(
            ctx.instances[z].billing.is_open
            and abs(ctx.instances[z].billing.hour_start - ctx.now) < 1e-6
            for z in running
        )
        self._last_eval_at = ctx.now

        best = self.best_candidate(ctx)
        if best is None:
            return None
        best_key = (best.bid, tuple(sorted(best.zones)), best.policy_kind)
        if self._applied == best_key:
            return None  # already running the winner

        # Rule 3 guard: outside rules 1 and 2, a switch may not change
        # a running zone's participation or the bid mid-hour.
        if not (none_running or at_hour_boundary):
            keeps_running_zones = set(running) <= set(best.zones)
            same_bid = abs(best.bid - ctx.bid) < COST_EPS
            if not (keeps_running_zones and same_bid):
                return None

        # Require a real improvement over the applied configuration's
        # own predicted cost to avoid flapping on estimator noise, and
        # charge candidates for the speculative progress they would
        # destroy by dropping a running zone: that progress must be
        # recomputed, which (conservatively) costs on-demand rate.
        if self._applied is not None:
            bid0, zones0, kind0 = self._applied
            current_now = self.estimate(ctx, bid0, zones0, kind0)
            drop_penalty = 0.0
            best_zone_set = set(best.zones)
            for z in running:
                if z in best_zone_set:
                    continue
                inst = ctx.instances[z]
                speculative = max(
                    inst.local_progress_s - ctx.run.committed_progress_s(), 0.0
                )
                drop_penalty = max(
                    drop_penalty, speculative / 3600.0 * ON_DEMAND_PRICE
                )
            if best.predicted_cost + drop_penalty > current_now.predicted_cost * (
                1.0 - self.improvement_margin
            ):
                return None

        self._applied = best_key
        return SwitchDecision(
            bid=best.bid,
            zones=best.zones,
            policy=make_policy(best.policy_kind),
        )

    # -- the estimator ---------------------------------------------------------

    def _zone_stats(
        self, ctx: PolicyContext, zone: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(availability, expected charged rate, E[T_u]) over the bid grid.

        One call into the oracle's vectorized :meth:`~repro.market.
        spot_market.PriceOracle.zone_stats` — the Markov fit, the
        stationary eigenvector, and the absorbing-chain solves are all
        shared across the grid instead of recomputed per (bid, stat)
        pair.  A thin per-controller cache keyed by (zone, stats
        bucket) avoids even the oracle's dictionary lookups in the hot
        loop; the bucket comes from the oracle so a reference oracle
        with ``bucket_s=None`` is never served a stale hourly entry.
        """
        key = (zone, ctx.oracle.stats_bucket(ctx.now))
        cached = self._stats_cache.get(key)
        if cached is None:
            cached = ctx.oracle.zone_stats(zone, ctx.now, self.bids)
            self._stats_cache[key] = cached
        return cached

    def estimate(
        self,
        ctx: PolicyContext,
        bid: float,
        zones: tuple[str, ...],
        policy_kind: str,
    ) -> CandidateEstimate:
        """Predict the remaining cost of one permutation."""
        bid_idx = int(np.abs(np.asarray(self.bids) - bid).argmin())
        avail = np.empty(len(zones))
        rate = np.empty(len(zones))
        uptime = np.empty(len(zones))
        for j, z in enumerate(zones):
            a, r, u = self._zone_stats(ctx, z)
            avail[j], rate[j], uptime[j] = a[bid_idx], r[bid_idx], u[bid_idx]
        return self._estimate_from_stats(
            ctx, float(self.bids[bid_idx]), zones, policy_kind, avail, rate, uptime
        )

    def _estimate_from_stats(
        self,
        ctx: PolicyContext,
        bid: float,
        zones: tuple[str, ...],
        policy_kind: str,
        avail: np.ndarray,
        rate: np.ndarray,
        uptime: np.ndarray,
    ) -> CandidateEstimate:
        return self._estimate_from_combined(
            ctx, bid, zones, policy_kind,
            combined_avail=1.0 - float(np.multiply.reduce(1.0 - avail)),
            combined_uptime=float(uptime.sum()),
            spot_rate=float((avail * rate).sum()),
        )

    def _estimate_from_combined(
        self,
        ctx: PolicyContext,
        bid: float,
        zones: tuple[str, ...],
        policy_kind: str,
        combined_avail: float,
        combined_uptime: float,
        spot_rate: float,
    ) -> CandidateEstimate:
        """Section 7.1's cost prediction from pre-combined zone stats."""
        config = ctx.config
        if policy_kind == "periodic":
            interval = 3600.0 - config.ckpt_cost_s
        else:
            interval = daly_interval(combined_uptime, config.ckpt_cost_s)
        useful = expected_useful_fraction(
            combined_uptime, config.ckpt_cost_s, interval
        )
        progress_rate = combined_avail * useful  # P/T while on spot

        committed = ctx.run.committed_progress_s()
        remaining_compute = max(config.compute_s - committed, 0.0)
        remaining_time = max(ctx.run.remaining_time_s(ctx.now), 0.0)
        overhead = config.ckpt_cost_s + config.restart_cost_s

        # spot_rate: $/hour while on the spot market — every up zone
        # is charged its expected rate.

        if remaining_compute <= 0:
            return CandidateEstimate(bid, zones, policy_kind, progress_rate,
                                     0.0, 0.0, 0.0)
        budget = remaining_time - overhead
        if budget <= 0:
            od_hours = (remaining_compute + config.restart_cost_s) / 3600.0
            return CandidateEstimate(
                bid, zones, policy_kind, progress_rate, 0.0, od_hours,
                od_hours * ON_DEMAND_PRICE,
            )

        # Inequality (1): does this permutation finish on spot alone?
        if progress_rate * budget >= remaining_compute and progress_rate > 0:
            spot_s = remaining_compute / progress_rate
            od_s = 0.0
        elif progress_rate >= 1.0:  # cannot happen, kept for safety
            spot_s = remaining_compute
            od_s = 0.0
        else:
            # Guard fires when remaining time equals remaining compute
            # plus overhead: T_r - t = (C_r - r t) + overhead.
            spot_s = max(
                (remaining_time - remaining_compute - overhead)
                / max(1.0 - progress_rate, COST_EPS),
                0.0,
            )
            od_s = remaining_compute - progress_rate * spot_s + config.restart_cost_s
        spot_hours = spot_s / 3600.0
        od_hours = max(od_s, 0.0) / 3600.0
        cost = spot_hours * spot_rate + od_hours * ON_DEMAND_PRICE
        return CandidateEstimate(
            bid=bid,
            zones=zones,
            policy_kind=policy_kind,
            progress_rate=progress_rate,
            spot_hours=spot_hours,
            ondemand_hours=od_hours,
            predicted_cost=cost,
        )

    def _cost_grid(
        self,
        ctx: PolicyContext,
        policy_kind: str,
        combined_avail: np.ndarray,
        combined_uptime: np.ndarray,
        spot_rate: np.ndarray,
    ) -> np.ndarray:
        """Predicted remaining cost across the whole bid grid at once.

        The vector analogue of :meth:`_estimate_from_combined`: every
        branch of the scalar estimator becomes a mask, every arithmetic
        step keeps the scalar's operation order, so each element is
        bit-equal to the corresponding scalar call.
        """
        progress_rate = self._progress_grid(
            ctx.config, policy_kind, combined_avail, combined_uptime
        )
        return self._cost_from_rate(ctx, progress_rate, spot_rate)

    @staticmethod
    def _interval_grid(policy_kind: str, combined_uptime, ckpt_cost_s: float):
        """Checkpoint interval per cell: hourly for Periodic, Daly's
        interval on the combined expected up time for Markov-Daly."""
        if policy_kind == "periodic":
            return 3600.0 - ckpt_cost_s
        return daly_interval_batch(combined_uptime, ckpt_cost_s)

    @classmethod
    def _progress_grid(
        cls,
        config,
        policy_kind: str,
        combined_avail: np.ndarray,
        combined_uptime: np.ndarray,
    ) -> np.ndarray:
        """Expected progress rate per cell — the ``now``-free half of
        the cost grid, constant within a statistics bucket."""
        interval = cls._interval_grid(
            policy_kind, combined_uptime, config.ckpt_cost_s
        )
        useful = expected_useful_fraction_batch(
            combined_uptime, config.ckpt_cost_s, interval
        )
        return combined_avail * useful

    def _progress_stack(
        self, config, avail: np.ndarray, uptime: np.ndarray
    ) -> tuple:
        """Every kind's :meth:`_progress_grid` on a last axis, with its
        :meth:`_rate_parts`: (zone set, bid, kind) is the full loop's
        iteration order.  One element-wise useful-fraction pass over
        every kind's intervals, so each cell equals its per-kind
        grid's."""
        ckpt = config.ckpt_cost_s
        interval = np.empty(uptime.shape + (len(self.policy_kinds),))
        for ki, kind in enumerate(self.policy_kinds):
            interval[..., ki] = self._interval_grid(kind, uptime, ckpt)
        useful = expected_useful_fraction_batch(uptime[..., None], ckpt, interval)
        progress = avail[..., None] * useful
        return progress, self._rate_parts(progress)

    @staticmethod
    def _rate_parts(progress_rate: np.ndarray) -> tuple:
        """The ``now``-free masks and denominators of
        :meth:`_cost_from_rate`: (rate > 0, rate >= 1, the rate with
        zeros replaced by 1 — a divisor only read where the rate is
        positive — and the guard branch's clamped ``1 - rate``)."""
        positive = progress_rate > 0
        return (
            positive,
            progress_rate >= 1.0,
            np.where(positive, progress_rate, 1.0),
            np.maximum(1.0 - progress_rate, COST_EPS),
        )

    def _cost_from_rate(
        self,
        ctx: PolicyContext,
        progress_rate: np.ndarray,
        spot_rate: np.ndarray,
        parts: tuple | None = None,
    ) -> np.ndarray:
        """The deadline-clock half of :meth:`_cost_grid`; ``parts`` are
        ``progress_rate``'s :meth:`_rate_parts` when already known."""
        config = ctx.config
        committed = ctx.run.committed_progress_s()
        remaining_compute = max(config.compute_s - committed, 0.0)
        remaining_time = max(ctx.run.remaining_time_s(ctx.now), 0.0)
        overhead = config.ckpt_cost_s + config.restart_cost_s

        if remaining_compute <= 0:
            return np.zeros_like(progress_rate)
        budget = remaining_time - overhead
        if budget <= 0:
            od_hours = (remaining_compute + config.restart_cost_s) / 3600.0
            return np.full(progress_rate.shape, od_hours * ON_DEMAND_PRICE)

        positive, at_least_one, divisor, guard_denom = (
            self._rate_parts(progress_rate) if parts is None else parts
        )
        on_spot = (progress_rate * budget >= remaining_compute) & positive
        runaway = at_least_one & ~on_spot
        spot_guard = np.maximum(
            (remaining_time - remaining_compute - overhead) / guard_denom, 0.0
        )
        spot_s = np.where(
            on_spot,
            remaining_compute / divisor,
            np.where(runaway, remaining_compute, spot_guard),
        )
        od_s = np.where(
            on_spot | runaway,
            0.0,
            remaining_compute - progress_rate * spot_guard + config.restart_cost_s,
        )
        spot_hours = spot_s / 3600.0
        od_hours = np.maximum(od_s, 0.0) / 3600.0
        return spot_hours * spot_rate + od_hours * ON_DEMAND_PRICE

    def best_candidate(self, ctx: PolicyContext) -> CandidateEstimate | None:
        """Evaluate every permutation; return the cheapest.

        The bucket's (zone set x bid) matrices are built at its first
        decision (:meth:`SelectionMemo.first_visit`) and every decision
        prices all bids, zone sets and policy kinds in one stacked pass
        over them (:meth:`SelectionMemo.select`).  Ties break toward
        fewer zones, then lower bid — the cheaper configuration to be
        wrong about.  Winner-identical to :meth:`_best_candidate_full`.
        """
        if not self._zone_sets:
            return None
        memo = self.selection_memo
        bucket = ctx.oracle.stats_bucket(ctx.now)
        hit = memo.bucket == bucket
        if not hit:
            memo.first_visit(self, ctx, bucket)
        return memo.select(self, ctx, hit)

    def _stat_matrices(
        self, ctx: PolicyContext
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Combined availability, expected up time and spot rate per
        (zone set, bid) cell, reduced over each set's zones."""
        sets = self._zone_sets
        nbids = len(self.bids)
        avail = np.empty((len(sets), nbids))
        uptime = np.empty((len(sets), nbids))
        rate = np.empty((len(sets), nbids))
        for si, zones in enumerate(sets):
            stats = [self._zone_stats(ctx, z) for z in zones]
            one_minus = 1.0 - stats[0][0]
            combined_uptime = stats[0][2]
            spot_rate = stats[0][0] * stats[0][1]
            for a, r, u in stats[1:]:
                one_minus = one_minus * (1.0 - a)
                combined_uptime = combined_uptime + u
                spot_rate = spot_rate + a * r
            avail[si] = 1.0 - one_minus
            uptime[si] = combined_uptime
            rate[si] = spot_rate
        return avail, uptime, rate

    def _best_candidate_full(self, ctx: PolicyContext) -> CandidateEstimate | None:
        """The reference exhaustive evaluation of every permutation.

        :meth:`_cost_grid` prices all bids of a (zone set, policy) pair
        in one vector pass — bit-equal to the scalar estimator — and a
        pure-float loop visits every permutation in (zone set, bid,
        kind) order with the tie-breaking comparator.
        """
        sets = self._zone_sets
        avail, uptime, rate = self._stat_matrices(ctx)
        costs = [
            self._cost_grid(ctx, kind, avail, uptime, rate).tolist()
            for kind in self.policy_kinds
        ]
        best: tuple[float, int, float] | None = None  # (cost, |zones|, bid)
        winner: tuple[int, str, int] | None = None
        for si, zones in enumerate(sets):
            rows = [kind_costs[si] for kind_costs in costs]
            nz = len(zones)
            for i, bid in enumerate(self.bids):
                for kind, row in zip(self.policy_kinds, rows):
                    cost = row[i]
                    if best is None or cost < best[0] - COST_EPS or (
                        abs(cost - best[0]) <= COST_EPS
                        and (nz, bid) < (best[1], best[2])
                    ):
                        best = (cost, nz, bid)
                        winner = (si, kind, i)
        if winner is None:
            return None
        si, kind, i = winner
        return self._estimate_from_combined(
            ctx, float(self.bids[i]), sets[si], kind,
            combined_avail=float(avail[si, i]),
            combined_uptime=float(uptime[si, i]),
            spot_rate=float(rate[si, i]),
        )

    def _select_dense(self, ctx: PolicyContext, dense) -> CandidateEstimate | None:
        """:meth:`_best_candidate_full`'s selection over cached matrices.

        The costs of every kind are priced in one stacked
        :meth:`_cost_from_rate` call (element-wise arithmetic, so the
        stacking changes no value), and the comparator loop visits only
        cells within :data:`SELECT_MARGIN` of the global minimum — the
        comparator can accept a cell only when its cost is within
        ``COST_EPS`` of the running best, and the running best never
        drifts more than the accumulated tie-break bound (``2 * 210 *
        COST_EPS``, far under the margin) above the minimum, so every
        skipped cell is one the full loop would have rejected.  The
        visited cells keep the full loop's (zone set, bid, kind) order
        and its exact comparator.
        """
        sets = self._zone_sets
        avail, uptime, rate, progress, parts = dense
        # (zone set, bid, kind) layout: the flat index order is the full
        # loop's iteration order.
        flat = self._cost_from_rate(ctx, progress, rate, parts).ravel()
        if flat.size == 0:
            return None
        cand = (flat <= flat.min() + SELECT_MARGIN).nonzero()[0]
        nbids = len(self.bids)
        nkinds = len(self.policy_kinds)
        best: tuple[float, int, float] | None = None  # (cost, |zones|, bid)
        winner: tuple[int, str, int] | None = None
        for f in cand.tolist():
            cost = float(flat[f])
            si, rem = divmod(f, nbids * nkinds)
            i, ki = divmod(rem, nkinds)
            nz = len(sets[si])
            bid = self.bids[i]
            if best is None or cost < best[0] - COST_EPS or (
                abs(cost - best[0]) <= COST_EPS
                and (nz, bid) < (best[1], best[2])
            ):
                best = (cost, nz, bid)
                winner = (si, self.policy_kinds[ki], i)
        if winner is None:
            return None
        si, kind, i = winner
        return self._estimate_from_combined(
            ctx, float(self.bids[i]), sets[si], kind,
            combined_avail=float(avail[si, i]),
            combined_uptime=float(uptime[si, i]),
            spot_rate=float(rate[si, i, 0]),
        )

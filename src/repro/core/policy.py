"""Checkpoint-policy interface (Algorithm 1's two plug-in functions).

Algorithm 1 is generic over ``CheckpointCondition()`` and
``ScheduleNextCheckpoint()``; a policy object supplies both, plus two
optional hooks that let Large-bid express its cost-control behaviour
(release an overpriced zone at the hour boundary and gate its
re-acquisition on the control threshold rather than the bid).

Policies are *stateful per run*: the engine calls :meth:`reset` at
experiment start, then :meth:`schedule_next_checkpoint` at every
restart and after every committed checkpoint (the two call sites of
Algorithm 1), and queries :meth:`checkpoint_due` each tick.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from repro.app.application import ApplicationRun
from repro.app.workload import ExperimentConfig
from repro.market.instance import ZoneInstance
from repro.market.spot_market import PriceOracle


@dataclass
class PolicyContext:
    """Everything a policy may observe at a decision point.

    Mirrors the inputs of Algorithm 1: current time, bid and spot
    prices (through the oracle), checkpoint/restart costs (through the
    config), application progress (through the run), and per-zone
    instance state.
    """

    now: float
    bid: float
    zones: tuple[str, ...]
    oracle: PriceOracle
    config: ExperimentConfig
    run: ApplicationRun
    instances: dict[str, ZoneInstance]

    def price(self, zone: str) -> float:
        """Spot price of ``zone`` at the current tick."""
        return self.oracle.price(zone, self.now)

    def computing_instances(self) -> list[ZoneInstance]:
        """Instances currently making progress."""
        from repro.market.instance import ZoneState

        return [
            inst
            for inst in self.instances.values()
            if inst.state is ZoneState.COMPUTING
        ]

    def leader(self) -> ZoneInstance | None:
        """The computing instance with the most local progress."""
        computing = self.computing_instances()
        if not computing:
            return None
        return max(computing, key=lambda inst: inst.local_progress_s)


class CheckpointPolicy(abc.ABC):
    """Base class for all checkpoint-scheduling policies."""

    #: Short name used in figures and tables (e.g. ``"periodic"``).
    name: str = "abstract"

    #: When True, the engine's deadline guard counts a computing zone's
    #: *speculative* (uncommitted) progress toward the margin.  Only
    #: sound when provider termination is effectively impossible —
    #: Large-bid's B = $100 against a historical maximum of $20.02 —
    #: because a termination would destroy progress the guard already
    #: spent slack against.
    trust_speculative: bool = False

    #: Which native lockstep path of the struct-of-arrays engine
    #: (:mod:`repro.core.vector_engine`) can express this policy:
    #: ``"periodic"``, ``"edge"``, ``"never"``, ``"markov-daly"``,
    #: ``"threshold"`` or ``"large-bid"``, or ``None`` when the
    #: policy's decision state cannot be held as batch columns and
    #: vector batches must
    #: fall back to per-run scalar simulation.  Setting a kind asserts
    #: that ``checkpoint_due``/``fast_forward_until`` follow the exact
    #: decision rule of that kind — the vector engine re-implements the
    #: rule column-wise and :func:`~repro.audit.differential.differential_cube`
    #: holds both to the tick reference.
    vector_kind: str | None = None

    #: When True, the policy's decisions depend on the bid only through
    #: the availability pattern ``price <= bid`` (terminations, starts,
    #: eligibility) — never on the bid's numeric value.  Two bids whose
    #: patterns agree over a run's horizon then yield bit-identical
    #: trajectories, which is what lets the batched bid-axis engine
    #: (:mod:`repro.core.bid_batch`) run one representative per
    #: equivalence class and clone the rest.  Policies that feed the
    #: bid into a formula or an oracle query (Threshold's price target,
    #: Markov-Daly's MTBF) must leave this False — the batched path
    #: then falls back to per-bid execution automatically.
    bid_invariant: bool = False

    def canonical_params(self) -> dict:
        """The policy's identity for run-cache keying.

        Two policy instances whose canonical params are equal must be
        behaviourally interchangeable in the engine.  The default —
        the policy's ``name`` — suffices for parameterless policies;
        policies with tunables must include every one of them (see
        :class:`~repro.core.large_bid.LargeBidPolicy`).
        """
        return {"name": self.name}

    def reset(self, ctx: PolicyContext) -> None:
        """Forget all per-run state; called once at experiment start."""

    @abc.abstractmethod
    def checkpoint_due(self, ctx: PolicyContext, leader: ZoneInstance) -> bool:
        """``CheckpointCondition()`` — should the leader checkpoint now?"""

    #: True when :meth:`schedule_next_checkpoint` is a no-op.  The fast
    #: path then treats the tick after a commit as skippable (its only
    #: effect would be dropping the just-committed flag) whenever no
    #: zone is waiting to restart.  Policies that do real re-arming
    #: work (Markov-Daly) must leave this False so that work happens on
    #: a full tick at the exact post-commit instant.
    reschedule_is_noop: bool = False

    def schedule_next_checkpoint(self, ctx: PolicyContext) -> None:
        """``ScheduleNextCheckpoint()`` — (re)arm the policy's timer.

        Called after every restart and after every committed
        checkpoint.  Policies that react instantaneously to prices
        (Edge, Threshold) leave this a no-op.
        """

    # -- fast-path hooks ---------------------------------------------------

    def fast_forward_until(self, ctx: PolicyContext) -> float:
        """Earliest future time at which :meth:`checkpoint_due` could
        first return True, assuming no market, billing, guard or
        controller event occurs in between.

        The engine's segment-skipping fast path uses this to jump over
        ticks where the policy provably stays idle.  Returning
        ``ctx.now`` (the default) disables skipping for this policy —
        always safe; returning ``math.inf`` declares the policy will
        never fire on its own.  Implementations must be *no later* than
        the first possible trigger and must perform exactly the oracle
        queries the tick engine's ``checkpoint_due`` would perform at
        ``ctx.now`` (and no others), so time-bucketed statistic caches
        seed at identical instants under both engines.
        """
        return ctx.now

    def start_price_threshold(self, bid: float) -> float:
        """Price level at or below which :meth:`eligible_to_start`
        holds, as a pure threshold.

        The fast path derives "no market transition can occur" windows
        from crossings of ``min(bid, start_price_threshold(bid))``.  A
        policy that overrides :meth:`eligible_to_start` with anything
        richer than a price comparison must override this consistently
        (or leave :meth:`fast_forward_until` at its no-skip default).
        """
        return bid

    # -- Large-bid style hooks (default behaviour = plain Algorithm 1) ----

    def eligible_to_start(self, ctx: PolicyContext, zone: str, price: float) -> bool:
        """May a down zone enter WAITING at this price?

        Algorithm 1's condition is ``B >= S``; Large-bid re-acquires a
        self-released zone only once the price drops below its control
        threshold L.
        """
        return price <= ctx.bid

    def release_after_checkpoint(self, ctx: PolicyContext, leader: ZoneInstance) -> bool:
        """Should the engine user-terminate the leader once the
        checkpoint it just requested commits?  (Large-bid's manual
        termination near the hour boundary.)"""
        return False


class NeverCheckpoint(CheckpointPolicy):
    """Degenerate policy that never checkpoints.

    Useful as a baseline in tests and ablations: all fault tolerance
    comes from the deadline guard's switch to on-demand.
    """

    name = "never"
    reschedule_is_noop = True
    vector_kind = "never"
    # never consults the bid at all
    bid_invariant = True

    def checkpoint_due(self, ctx: PolicyContext, leader: ZoneInstance) -> bool:
        return False

    def fast_forward_until(self, ctx: PolicyContext) -> float:
        return math.inf

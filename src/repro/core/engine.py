"""Algorithm 1 — the multi-zone checkpoint-scheduling execution engine.

This is the paper's framework (Section 3.2) made executable against a
price trace:

* per-zone instance state driven by bid vs. spot price (lines 2–8 of
  Algorithm 1), including the *waiting* state that lets an eligible
  zone receive a checkpoint before starting;
* the deadline guard (line 11): when the remaining wall-clock time
  equals the remaining computation plus migration overhead, checkpoint
  and finish on the on-demand market — this is what turns a spot-market
  heuristic into a *guaranteed* time-constrained run;
* pluggable ``CheckpointCondition()`` / ``ScheduleNextCheckpoint()``
  via :class:`~repro.core.policy.CheckpointPolicy`;
* an optional :class:`Controller` hook that lets the Adaptive policy
  re-choose (bid, zone set, policy) at its decision points.

Time advances in 5-minute ticks (the price-sampling interval); timed
activities inside a tick (checkpoints, restarts, queuing remainders)
are accounted at seconds granularity by the per-zone state machine.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.app.application import ApplicationRun
from repro.app.checkpoint import CheckpointStore
from repro.app.dynamics import DeadlineSchedule, PerformanceProfile
from repro.app.workload import ExperimentConfig
from repro.core.policy import CheckpointPolicy, PolicyContext
from repro.market.constants import ON_DEMAND_PRICE, SAMPLE_INTERVAL_S
from repro.market.instance import ZoneInstance, ZoneState
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.auditor import RunAuditor


class EngineError(RuntimeError):
    """Raised when a run cannot be simulated (e.g. trace too short)."""


@dataclass(frozen=True)
class Event:
    """One notable simulation event, for narration and debugging."""

    time: float
    kind: str
    zone: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class TimelinePoint:
    """Per-tick snapshot for Figure 1/3-style timeline rendering."""

    time: float
    #: ``(zone, ZoneState.value)`` for every zone, in trace order.
    zone_states: tuple[tuple[str, str], ...]
    committed_progress_s: float
    leading_progress_s: float


@dataclass(frozen=True)
class SwitchDecision:
    """A controller's re-configuration: new bid, zone set, and policy."""

    bid: float
    zones: tuple[str, ...]
    policy: CheckpointPolicy


class Controller(abc.ABC):
    """Run-time re-configuration hook (the Adaptive scheme's seat)."""

    def reset(self, ctx: PolicyContext) -> None:
        """Called once at experiment start."""

    @abc.abstractmethod
    def decide(self, ctx: PolicyContext) -> SwitchDecision | None:
        """Return a new configuration, or ``None`` to keep the current one."""

    def next_decision_time(self, now: float) -> float | None:
        """Earliest future time :meth:`decide` could act or mutate state,
        assuming no zone terminates and no billing hour rolls before it.

        The fast path stops at termination and hour-boundary events
        anyway; this hook only needs to cover the controller's own
        timers.  ``None`` (the default) disables segment skipping while
        this controller is attached — always safe.
        """
        return None

    def canonical_params(self) -> dict | None:
        """The controller's identity for run-cache keying.

        ``None`` (the default) declares the controller *not*
        canonicalizable: runs it drives bypass the run cache.
        Returning a dict asserts that, after :meth:`reset`, the
        controller's decisions are a pure function of these parameters
        plus the run's other hashed inputs (trace, oracle config,
        config, start) — i.e. a replay would be bit-identical.
        """
        return None


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated experiment.

    Costs are *per instance* (one node per zone), exactly the unit of
    the paper's figures; multiply by ``config.num_nodes`` for a whole
    allocation.
    """

    policy_name: str
    bid: float
    zones: tuple[str, ...]
    start_time: float
    finish_time: float
    deadline: float
    completed_on: str  # "spot" or "ondemand"
    spot_cost: float
    ondemand_cost: float
    num_checkpoints: int
    num_restarts: int
    num_provider_terminations: int
    ondemand_switch_time: float | None = None
    #: committed spot billing hours across all zones
    spot_hours_charged: int = 0
    events: tuple[Event, ...] = ()
    timeline: tuple[TimelinePoint, ...] = ()

    @property
    def total_cost(self) -> float:
        return self.spot_cost + self.ondemand_cost

    @property
    def met_deadline(self) -> bool:
        return self.finish_time <= self.deadline + 1e-6

    @property
    def makespan_s(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class SpotSimulator:
    """Trace-driven simulator of Algorithm 1.

    Parameters
    ----------
    oracle:
        Price oracle over the evaluation trace (shared across runs so
        its statistical caches amortize over the 80 experiments).
    queue_model:
        Spot acquisition delay model.
    rng:
        Randomness source for queuing delays.  Each call of
        :meth:`run` consumes from it, so construct one per experiment
        stream for reproducibility.
    record_events:
        Keep the full event log on the result (off by default: the
        evaluation harness runs tens of thousands of experiments).
    engine_mode:
        ``"fast"`` (default) enables the segment-skipping scheduler:
        provably event-free stretches of ticks are applied in bulk,
        jumping straight to the next price crossing, scheduled
        checkpoint, billing boundary, deadline-guard trigger or
        controller decision point.  Results are bit-identical to
        ``"tick"``, the reference tick-by-tick loop kept for debugging
        and differential testing.
    """

    oracle: PriceOracle
    queue_model: QueueDelayModel
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    record_events: bool = False
    #: Record a per-tick state snapshot (for timeline rendering).
    record_timeline: bool = False
    engine_mode: str = "fast"
    #: Optional run auditor (:mod:`repro.audit`): streams structured
    #: events into its sink and validates the simulation invariants per
    #: tick/segment and at run end.  ``None`` (the default) costs only
    #: a few ``is None`` branches per tick.
    auditor: "RunAuditor | None" = None
    #: Optional content-addressed run cache
    #: (:class:`repro.experiments.cache.RunCache`).  When set, every
    #: cacheable run is looked up by the hash of its inputs before
    #: simulating and stored after; hits replay the queue-delay draws
    #: against ``rng`` so subsequent runs see an unchanged stream.
    #: Runs with an attached auditor, run-time dynamics callbacks or a
    #: non-canonicalizable controller bypass the cache.  Stores are
    #: buffered for the disk layer: the caller decides when a batch of
    #: runs is complete and calls the cache's ``flush()``.
    run_cache: "object | None" = None
    #: Queue-delay draws consumed by the current run (cache bookkeeping).
    _rng_draws: int = field(default=0, repr=False)

    # ------------------------------------------------------------------

    def run(
        self,
        config: ExperimentConfig,
        policy: CheckpointPolicy,
        bid: float,
        zones: tuple[str, ...],
        start_time: float,
        controller: Controller | None = None,
        deadline_schedule: "DeadlineSchedule | None" = None,
        performance: "PerformanceProfile | None" = None,
    ) -> RunResult:
        """Simulate one experiment; returns its :class:`RunResult`.

        ``deadline_schedule`` and ``performance`` realize Section 3.2's
        run-time dynamics: because the engine re-reads ``T_r`` and ``P``
        every tick, user deadline changes take effect at the next tick,
        and performance variation simply scales progress accrual.  A
        deadline *contraction* that is already infeasible when it
        arrives triggers an immediate migration; the result then
        reports ``met_deadline=False`` honestly (no scheduler can
        rewind wall-clock time).  The guard converts remaining compute
        to wall time with the *current* performance factor (capped at
        nominal), the strongest statement possible without foresight
        of future slowdowns.

        With a :attr:`run_cache` attached, runs whose inputs can be
        canonically hashed are served from the cache when present:
        the stored result is returned as-is (it is bit-identical to
        what simulating would produce — the key covers every input,
        the RNG state included) after burning the cold run's
        queue-delay draws from ``rng``.  Cache-ineligible runs (see
        :meth:`_cache_key`) simulate unconditionally.
        """
        cache = self.run_cache
        if cache is not None:
            key = self._cache_key(
                config, policy, bid, zones, start_time,
                controller, deadline_schedule, performance,
            )
            if key is not None:
                entry = cache.get(key)
                if entry is not None:
                    return entry.replay(self.queue_model, self.rng)
                self._rng_draws = 0
                result = self._simulate(
                    config, policy, bid, zones, start_time,
                    controller, deadline_schedule, performance,
                )
                from repro.experiments.cache import CachedRun

                cache.put(key, CachedRun(result=result, rng_draws=self._rng_draws))
                return result
        return self._simulate(
            config, policy, bid, zones, start_time,
            controller, deadline_schedule, performance,
        )

    def _cache_key(
        self,
        config: ExperimentConfig,
        policy: CheckpointPolicy,
        bid: float,
        zones: tuple[str, ...],
        start_time: float,
        controller: Controller | None,
        deadline_schedule: "DeadlineSchedule | None",
        performance: "PerformanceProfile | None",
    ) -> str | None:
        """Content address of this run, or ``None`` when not cacheable.

        Not cacheable: an attached auditor (a hit would silently skip
        the audited event stream), run-time dynamics callbacks (opaque
        callables), a controller without :meth:`Controller.canonical_params`,
        or any input the canonicalizer rejects.  The key covers the
        trace content, the oracle's statistical configuration, the
        engine mode and recording flags, all run parameters *and the
        RNG state* — so a hit stands in for a replay that would be
        bit-identical, queue delays included.
        """
        if (
            self.auditor is not None
            or deadline_schedule is not None
            or performance is not None
        ):
            return None
        controller_params = None
        if controller is not None:
            controller_params = controller.canonical_params()
            if controller_params is None:
                return None
        from repro.experiments.cache import shared_run_parts

        try:
            return self.run_cache.run_key({
                **shared_run_parts(
                    self.oracle, self.queue_model,
                    engine_mode=self.engine_mode,
                    record_events=self.record_events,
                    record_timeline=self.record_timeline,
                    zones=zones, controller=controller_params,
                ),
                "bid": float(bid),
                "config": config,
                "policy": policy.canonical_params(),
                "rng": self.rng.bit_generator.state,
                "start_time": float(start_time),
            })
        except TypeError:
            return None

    def _simulate(
        self,
        config: ExperimentConfig,
        policy: CheckpointPolicy,
        bid: float,
        zones: tuple[str, ...],
        start_time: float,
        controller: Controller | None = None,
        deadline_schedule: "DeadlineSchedule | None" = None,
        performance: "PerformanceProfile | None" = None,
    ) -> RunResult:
        """The uncached simulation loop behind :meth:`run`."""
        if self.engine_mode not in ("fast", "tick"):
            raise EngineError(
                f"engine_mode must be 'fast' or 'tick', got {self.engine_mode!r}"
            )
        if not zones:
            raise EngineError("at least one zone is required")
        for z in zones:
            if z not in self.oracle.zone_names:
                raise EngineError(f"zone {z!r} not in trace {self.oracle.zone_names}")
        if bid <= 0:
            raise EngineError(f"bid must be positive, got {bid}")
        deadline = start_time + config.deadline_s
        if deadline > self.oracle.trace.end_time:
            raise EngineError(
                f"trace ends at {self.oracle.trace.end_time}, before the "
                f"deadline {deadline}"
            )

        state = _RunState(
            config=config,
            policy=policy,
            bid=bid,
            active_zones=tuple(zones),
            start_time=start_time,
            deadline=deadline,
            store=CheckpointStore(),
            instances={z: ZoneInstance(zone=z) for z in self.oracle.zone_names},
            record=self.record_events,
        )
        state.run_view = ApplicationRun(
            config=config, start_time=start_time, store=state.store
        )
        ctx = self._make_ctx(state, start_time)
        policy.reset(ctx)
        policy.schedule_next_checkpoint(ctx)
        if controller is not None:
            controller.reset(ctx)
        state.zone_traces = {
            z: self.oracle.trace.zone(z) for z in self.oracle.zone_names
        }
        state.fast_ctx = self._make_ctx(state, start_time)

        state.deadline_schedule = deadline_schedule
        state.performance = performance

        aud = self.auditor
        if aud is not None:
            state.aud = aud
            aud.begin_run(
                policy_name=policy.name,
                bid=bid,
                zones=tuple(zones),
                start_time=start_time,
                deadline=deadline,
                engine_mode=self.engine_mode,
                config=config,
                store=state.store,
                instances=state.instances,
            )

        dt = float(SAMPLE_INTERVAL_S)
        t = float(start_time)
        # The fast path needs per-tick determinism it can reason about:
        # timeline snapshots want every tick, and run-time dynamics
        # (deadline edits, performance variation) re-read external
        # state each tick.  Fall back to the reference loop for those.
        fast = (
            self.engine_mode == "fast"
            and not self.record_timeline
            and deadline_schedule is None
            and performance is None
        )
        while True:
            if aud is not None:
                aud.tick(t)
            if deadline_schedule is not None:
                new_deadline = deadline_schedule.deadline_at(t, deadline)
                if new_deadline != state.deadline:
                    state.log(t, "deadline-updated", None,
                              f"D={new_deadline:.0f}")
                    if aud is not None:
                        aud.deadline_changed(t, state.deadline, new_deadline)
                    state.deadline = new_deadline
            self._roll_billing(state, t)
            self._market_transitions(state, t)
            if self.record_timeline:
                self._snapshot(state, t)

            result = self._deadline_guard(state, t, dt)
            if result is not None:
                return self._finalize(state, result)

            if controller is not None:
                if aud is not None:
                    started = aud.decision_begin()
                    decision = controller.decide(self._make_ctx(state, t))
                    aud.decision_end(started)
                else:
                    decision = controller.decide(self._make_ctx(state, t))
                if decision is not None:
                    self._apply_switch(state, t, decision)

            self._policy_actions(state, t)

            result = self._advance(state, t, dt)
            if result is not None:
                return self._finalize(state, result)
            t += dt

            if fast:
                k = self._quiescent_ticks(state, t, dt, controller)
                if k > 0:
                    t = self._bulk_advance(state, t, dt, k)
                    if aud is not None:
                        aud.segment(t, k)

    # -- tick phases -------------------------------------------------------

    def _roll_billing(self, state: "_RunState", t: float) -> None:
        """Commit billing hours whose boundary has been reached."""
        for inst in state.instances.values():
            if not inst.is_running:
                continue
            while inst.billing.hour_end() <= t + 1e-6:
                boundary = inst.billing.hour_end()
                inst.billing.roll_hour(self.oracle.price(inst.zone, boundary))
                state.log(boundary, "hour-rolled", inst.zone,
                          f"rate={inst.billing.rate:.3f}")

    def _market_transitions(self, state: "_RunState", t: float) -> None:
        """Lines 2–8: terminate out-of-bid zones, mark eligible ones."""
        ctx = None
        for zone in state.active_zones:
            inst = state.instances[zone]
            price = self.oracle.price(zone, t)
            if inst.is_running:
                if price > state.bid:
                    inst.provider_terminate()
                    state.release_on_commit.discard(zone)
                    state.log(t, "provider-terminated", zone, f"S={price:.3f}")
            else:
                if ctx is None:
                    ctx = self._make_ctx(state, t)
                if price <= state.bid and state.policy.eligible_to_start(
                    ctx, zone, price
                ):
                    if inst.state is ZoneState.DOWN:
                        inst.mark_waiting()
                        state.log(t, "waiting", zone, f"S={price:.3f}")
                elif inst.state is ZoneState.WAITING:
                    inst.mark_down()
        # zones outside the active set stay wherever they are (DOWN)

    def _deadline_guard(
        self, state: "_RunState", t: float, dt: float
    ) -> RunResult | None:
        """Line 11: switch to on-demand just in time to meet D.

        The guard evaluates the best achievable migration: checkpoint
        a computing leader (progress = its local run, overhead =
        ``t_c + t_r``), ride out an in-flight checkpoint (progress =
        its pending snapshot, overhead = remaining checkpoint time +
        ``t_r``), or restore the last committed checkpoint (overhead =
        ``t_r``).  Because a computing zone gains progress at wall
        speed, the guard margin never shrinks by more than one tick per
        tick, so checking with a one-tick cushion cannot overshoot.
        The final migration checkpoint is assumed to succeed (the same
        idealization the paper makes); its spot time is billed through
        the full final hour charged at user termination.
        """
        committed = state.store.committed_progress_s
        # The guard margin is measured on *committed* progress (the
        # paper's P): speculative progress can be destroyed by a
        # termination in the very next tick, so counting it could make
        # the trigger late.  Committed margin shrinks by at most one
        # tick per tick, so a one-tick cushion cannot be jumped over.
        # Policies that declare termination effectively impossible
        # (Large-bid) opt into counting speculative progress.
        guard_progress = committed
        if state.policy.trust_speculative:
            for inst in state.instances.values():
                if inst.state is ZoneState.COMPUTING:
                    guard_progress = max(guard_progress, inst.local_progress_s)
        def _wall_for(compute_s: float) -> float:
            if state.performance is None:
                return compute_s
            return state.performance.wall_time_for(compute_s, t)

        trigger_needed = (
            _wall_for(max(state.config.compute_s - guard_progress, 0.0))
            + state.config.ckpt_cost_s
            + state.config.restart_cost_s
        )
        remaining_time = state.deadline - t
        margin = remaining_time - trigger_needed

        # Forced commit: while speculative progress exists, burning the
        # last of the committed margin on an immediate checkpoint
        # converts it into guaranteed progress and restores the margin
        # — strictly better than migrating.  The window is wider than
        # one checkpoint duration, so the shrinking margin cannot skip
        # it, and even a termination mid-forced-checkpoint leaves one
        # tick of margin for the on-demand switch below.
        if margin > dt + 1e-6:
            if margin <= state.config.ckpt_cost_s + 3.0 * dt:
                self._force_commit(state, t)
            return None

        # Execute the cheapest migration actually available right now —
        # checkpoint a computing leader, ride out an in-flight
        # checkpoint, or restore the last committed checkpoint.  Every
        # candidate needs at most ``trigger_needed`` seconds, so the
        # deadline holds.  The second tuple element is the spot-side
        # overhead before the on-demand phase begins (a fresh start
        # with zero progress has no state to restore, so t_r applies
        # only when actual progress migrates).
        candidates: list[tuple[float, float]] = [(committed, 0.0)]
        for inst in state.instances.values():
            if inst.state is ZoneState.COMPUTING:
                candidates.append(
                    (inst.local_progress_s, state.config.ckpt_cost_s)
                )
            elif inst.state is ZoneState.CHECKPOINTING:
                candidates.append(
                    (inst.pending_checkpoint_progress_s, inst.phase_remaining_s)
                )
        def _restore_s(progress: float) -> float:
            return state.config.restart_cost_s if progress > 0 else 0.0

        progress, pre_od = min(
            candidates,
            key=lambda c: max(state.config.compute_s - c[0], 0.0)
            + c[1]
            + _restore_s(c[0]),
        )
        overhead = pre_od + _restore_s(progress)
        remaining_compute = _wall_for(max(state.config.compute_s - progress, 0.0))

        # Switch: checkpoint the leader (if computing), stop all spot
        # instances, finish the remainder on on-demand.
        state.log(t, "ondemand-switch", None,
                  f"C_r={remaining_compute:.0f}s T_r={remaining_time:.0f}s")
        for inst in state.instances.values():
            if inst.is_running:
                inst.user_release(t, reason="user")
        finish = t + overhead + remaining_compute
        od_seconds = _restore_s(progress) + remaining_compute
        od_cost = (
            math.ceil(od_seconds / 3600.0) * ON_DEMAND_PRICE if od_seconds > 0 else 0.0
        )
        return RunResult(
            policy_name=state.policy.name,
            bid=state.bid,
            zones=state.active_zones,
            start_time=state.start_time,
            finish_time=finish,
            deadline=state.deadline,
            completed_on="ondemand",
            spot_cost=0.0,  # filled by _finalize
            ondemand_cost=od_cost,
            num_checkpoints=state.store.num_checkpoints,
            num_restarts=0,
            num_provider_terminations=0,
            ondemand_switch_time=t,
        )

    def _policy_actions(self, state: "_RunState", t: float) -> None:
        """Checkpoint condition and waiting-zone restarts (lines 16–35)."""
        ctx = self._make_ctx(state, t)
        policy = state.policy

        # Line 23: a committed checkpoint re-arms the schedule for the
        # zones that keep running.
        if state.checkpoint_just_committed:
            policy.schedule_next_checkpoint(ctx)

        # One checkpoint in flight at a time, taken by the leader.
        leader = ctx.leader()
        any_checkpointing = any(
            i.state is ZoneState.CHECKPOINTING for i in state.instances.values()
        )
        # Join-commit: an eligible zone in WAITING can only start from a
        # checkpoint (Algorithm 1 lines 19-24), so redundancy is real
        # only if checkpoints actually happen while it waits.  When the
        # computation is thin (fewer than two zones carrying it) and the
        # leader has accumulated at least one checkpoint's worth of
        # uncommitted progress, commit now to bring a waiting replica
        # in.  With two or more zones already computing, waiting zones
        # join at the policy's own cadence — rejoining on every price
        # dip would buy little safety and pay for extra instance-hours.
        waiting_exists = any(
            state.instances[z].state is ZoneState.WAITING
            for z in state.active_zones
        )
        running_count = sum(
            1 for z in state.active_zones if state.instances[z].is_running
        )
        join_due = (
            waiting_exists
            and running_count < 2
            and leader is not None
            and leader.local_progress_s
            >= state.store.committed_progress_s + state.config.ckpt_cost_s
        )
        if (
            leader is not None
            and not any_checkpointing
            and (join_due or policy.checkpoint_due(ctx, leader))
        ):
            leader.begin_checkpoint(t, state.config.ckpt_cost_s)
            state.log(t, "checkpoint-started", leader.zone,
                      f"P={leader.pending_checkpoint_progress_s:.0f}s")
            if policy.release_after_checkpoint(ctx, leader):
                state.release_on_commit.add(leader.zone)

        waiting = [
            i
            for z, i in state.instances.items()
            if z in state.active_zones and i.state is ZoneState.WAITING
        ]
        if not waiting:
            state.checkpoint_just_committed = False
            return
        any_running = any(
            i.is_running
            for z, i in state.instances.items()
            if z in state.active_zones
        )
        if not any_running or state.checkpoint_just_committed:
            source = "recent" if state.checkpoint_just_committed else "previous"
            for inst in waiting:
                self._start_instance(state, inst, t)
                state.log(t, "restarted", inst.zone,
                          f"from-{source}-ckpt P={state.store.committed_progress_s:.0f}s")
            policy.schedule_next_checkpoint(self._make_ctx(state, t))
        state.checkpoint_just_committed = False

    def _advance(self, state: "_RunState", t: float, dt: float) -> RunResult | None:
        """Advance all running zones one tick; handle commits/completion."""
        finish: float | None = None
        rate = 1.0
        if state.performance is not None:
            rate = state.performance.rate_at(t)
        for inst in state.instances.values():
            if not inst.is_running:
                continue
            committed, completion = inst.advance(
                t, dt, state.config.compute_s, compute_rate=rate
            )
            if committed >= 0.0:
                state.store.commit(t + dt, committed, inst.zone)
                state.checkpoint_just_committed = True
                state.log(t + dt, "checkpoint-committed", inst.zone,
                          f"P={committed:.0f}s")
                if inst.zone in state.release_on_commit:
                    state.release_on_commit.discard(inst.zone)
                    inst.user_release(t + dt, reason="user")
                    state.log(t + dt, "user-released", inst.zone, "cost-control")
            if completion is not None:
                finish = t + completion if finish is None else min(finish, t + completion)
        if finish is None:
            return None
        for inst in state.instances.values():
            if inst.is_running:
                inst.user_release(finish, reason="complete")
        state.log(finish, "completed", None, "on spot")
        return RunResult(
            policy_name=state.policy.name,
            bid=state.bid,
            zones=state.active_zones,
            start_time=state.start_time,
            finish_time=finish,
            deadline=state.deadline,
            completed_on="spot",
            spot_cost=0.0,  # filled by _finalize
            ondemand_cost=0.0,
            num_checkpoints=state.store.num_checkpoints,
            num_restarts=0,
            num_provider_terminations=0,
        )

    # -- segment-skipping fast path ----------------------------------------

    def _quiescent_ticks(
        self, state: "_RunState", t: float, dt: float, controller: Controller | None
    ) -> int:
        """Number of upcoming ticks, starting with the one at ``t``,
        that are provably no-ops except for compute-progress accrual
        and deterministic billing rolls.

        A tick is quiescent when no market transition, checkpoint
        start/commit, restart, deadline-guard action, completion or
        controller evaluation can occur at it.  Each hazard yields an
        upper bound on the skippable stretch:

        * next crossing of ``price <= threshold`` in any active zone
          (bid for running zones, the policy's start threshold for
          down/waiting ones), from the trace's shared crossing index;
        * the deadline guard's forced-commit window, approached at most
          one tick of margin per tick;
        * the leader reaching C (completion) or the join-commit
          progress threshold;
        * the policy's own ``fast_forward_until`` schedule;
        * with a controller attached: the next billing-hour boundary
          (a decision point) and the controller's re-evaluation timer.

        Every bound is conservative — stopping early only costs a full
        tick that then behaves exactly like the reference engine — so
        the fast path's results are bit-identical to ``"tick"`` mode.
        """
        instances = state.instances
        active = state.active_zones
        computing: list[ZoneInstance] = []
        transient: list[ZoneInstance] = []
        running_count = 0
        waiting = False
        for zone, inst in instances.items():
            s = inst.state
            if s is ZoneState.COMPUTING:
                computing.append(inst)
                running_count += 1
            elif s is ZoneState.WAITING:
                waiting = True
            elif s is ZoneState.QUEUING or s is ZoneState.RESTARTING:
                # timed countdown: quiescent until the phase runs out
                transient.append(inst)
                running_count += 1
            elif s is not ZoneState.DOWN:
                return 0  # a checkpoint is in flight: commits next tick
        drop_commit_flag = False
        if state.checkpoint_just_committed:
            if waiting or not state.policy.reschedule_is_noop:
                return 0  # restarts / re-arming need the post-commit tick
            # The post-commit tick's only remaining effect would be
            # dropping this flag (reschedule is a no-op and nothing is
            # waiting to restart) — if every other hazard clears too,
            # drop it on the way out and keep skipping.  Any early
            # ``return 0`` below leaves the flag for the full tick.
            drop_commit_flag = True
        if running_count == 0 and (waiting or controller is not None):
            return 0  # restarts fire now / controller evaluates every tick

        k = 1 << 30
        config = state.config
        bid = state.bid
        zone_traces = state.zone_traces
        crossing = state.next_crossing
        aud = self.auditor
        start_theta = -1.0  # computed lazily; prices are positive

        # market transitions: stop at the next availability crossing.
        # All zone traces share one grid, so the index is computed once.
        ref = zone_traces[active[0]]
        i = int((t - ref.start_time) // ref.interval_s)
        for zone in active:
            inst = instances[zone]
            z = zone_traces[zone]
            if inst.is_running:  # computing / queuing / restarting
                theta = bid
                if z.prices[i] > theta:
                    return 0  # termination due this tick
            else:
                if start_theta < 0.0:
                    start_theta = min(
                        bid, state.policy.start_price_threshold(bid)
                    )
                theta = start_theta
                if bool(z.prices[i] <= theta) != (
                    inst.state is ZoneState.WAITING
                ):
                    return 0  # down/waiting flip due this tick
            key = (zone, theta)
            nc = crossing.get(key)
            if aud is not None:
                aud.crossing_cache(nc is not None and nc > i)
            if nc is None or nc <= i:
                nc = z.next_threshold_crossing(i, theta)
                crossing[key] = nc
            if nc - i < k:
                k = nc - i
                if k <= 0:
                    return 0

        # queue / restore countdowns: stop before a phase runs out (the
        # 1e-6 cushion keeps the remainder clear of advance()'s 1e-9
        # exhaustion tolerance, repeated-subtraction drift included)
        for inst in transient:
            n = int((inst.phase_remaining_s - 1e-6) // dt)
            if n < 1:
                return 0
            if n < k:
                k = n

        # deadline guard: margin shrinks at most one tick per tick
        committed = state.store.committed_progress_s
        guard_progress = committed
        if state.policy.trust_speculative:
            for inst in computing:
                local = inst.base_progress_s + inst.computed_s
                if local > guard_progress:
                    guard_progress = local
        margin = (
            (state.deadline - t)
            - max(config.compute_s - guard_progress, 0.0)
            - config.ckpt_cost_s
            - config.restart_cost_s
        )
        k = min(k, math.floor((margin - config.ckpt_cost_s - 3.0 * dt) / dt) - 1)
        if k <= 0:
            return 0

        if computing:
            # completion: the leader gains exactly dt per quiescent tick
            max_local = max(
                inst.base_progress_s + inst.computed_s for inst in computing
            )
            k = min(k, math.floor((config.compute_s - max_local) / dt) - 2)
            if k <= 0:
                return 0
            # join-commit: fires once the leader is t_c ahead of the store
            if waiting and running_count < 2:
                k = min(
                    k,
                    math.floor(
                        (committed + config.ckpt_cost_s - max_local) / dt
                    )
                    - 1,
                )
                if k <= 0:
                    return 0
            # the policy's own checkpoint schedule, via the reusable ctx
            ctx = state.fast_ctx
            ctx.now = t
            ctx.bid = bid
            ctx.zones = active
            horizon = state.policy.fast_forward_until(ctx)
            if not math.isinf(horizon):
                k = min(k, int(math.ceil((horizon - t - 1e-6) / dt)))
                if k <= 0:
                    return 0

        if controller is not None:
            horizon = controller.next_decision_time(t)
            if horizon is None:
                return 0
            k = min(k, int(math.ceil((horizon - t - 1e-6) / dt)))
            if k <= 0:
                return 0
            # hour boundaries are decision points (rule 2): stop on them
            for inst in computing + transient:
                k = min(k, int(round((inst.billing.hour_end() - t) / dt)))
                if k <= 0:
                    return 0

        if drop_commit_flag:
            state.checkpoint_just_committed = False
        return k

    def _bulk_advance(
        self, state: "_RunState", t: float, dt: float, k: int
    ) -> float:
        """Apply ``k`` quiescent ticks in bulk; returns the new clock.

        Replays exactly what the reference loop would have done on
        these ticks — billing hours roll at their boundaries (same
        instance order, same price lookups, same event log entries),
        each computing zone's ``computed_s`` accrues ``dt`` per tick as
        a repeated float addition, and queue/restore countdowns shed
        ``dt`` per tick — so state after the jump is bit-identical to
        ticking through.
        """
        accruing: list[tuple[ZoneInstance, bool]] = []  # (inst, computing?)
        for inst in state.instances.values():
            s = inst.state
            if s is ZoneState.COMPUTING:
                accruing.append((inst, True))
            elif s is ZoneState.QUEUING or s is ZoneState.RESTARTING:
                accruing.append((inst, False))
        if not accruing:
            # nothing running: nothing rolls, nothing accrues
            if t.is_integer():  # grid times are integral: closed form is exact
                return t + k * dt
            for _ in range(k):
                t += dt
            return t
        last = t + (k - 1) * dt
        if t.is_integer():  # grid times are integral: closed forms are exact
            # Billing hours roll at their exact boundary times, per
            # instance; when recording, log entries are re-merged into
            # the reference loop's (tick, instance) emission order.
            # Progress accrues in closed form when the accumulator is
            # integral (exact below 2**53); fractional accumulators
            # (queue-delay remainders) replay the float ops on a local.
            entries = []
            recording = state.record or state.aud is not None
            for idx, (inst, is_computing) in enumerate(accruing):
                while inst.billing.hour_end() <= last + 1e-6:
                    boundary = inst.billing.hour_end()
                    inst.billing.roll_hour(self.oracle.price(inst.zone, boundary))
                    if recording:
                        tick = int(math.ceil((boundary - t - 1e-6) / dt))
                        entries.append(
                            (max(tick, 0), idx, boundary, inst.zone,
                             f"rate={inst.billing.rate:.3f}")
                        )
                if is_computing:
                    cs = inst.computed_s
                    if cs.is_integer():
                        inst.computed_s = cs + k * dt
                    else:
                        for _ in range(k):
                            cs += dt
                        inst.computed_s = cs
                else:
                    ph = inst.phase_remaining_s
                    if ph.is_integer():
                        inst.phase_remaining_s = ph - k * dt
                    else:
                        for _ in range(k):
                            ph -= dt
                        inst.phase_remaining_s = ph
            if entries:
                entries.sort(key=lambda e: (e[0], e[1]))
                for _, _, boundary, zone, detail in entries:
                    state.log(boundary, "hour-rolled", zone, detail)
            return t + k * dt
        for _ in range(k):
            for inst, is_computing in accruing:
                while inst.billing.hour_end() <= t + 1e-6:
                    boundary = inst.billing.hour_end()
                    inst.billing.roll_hour(self.oracle.price(inst.zone, boundary))
                    state.log(boundary, "hour-rolled", inst.zone,
                              f"rate={inst.billing.rate:.3f}")
                if is_computing:
                    inst.computed_s += dt
                else:
                    inst.phase_remaining_s -= dt
            t += dt
        return t

    # -- helpers -----------------------------------------------------------

    def _snapshot(self, state: "_RunState", t: float) -> None:
        committed = state.store.committed_progress_s
        leading = committed
        for inst in state.instances.values():
            if inst.state in (ZoneState.COMPUTING, ZoneState.CHECKPOINTING):
                leading = max(leading, inst.local_progress_s)
        state.timeline.append(
            TimelinePoint(
                time=t,
                zone_states=tuple(
                    (z, state.instances[z].state.value)
                    for z in self.oracle.zone_names
                ),
                committed_progress_s=committed,
                leading_progress_s=leading,
            )
        )

    def _force_commit(self, state: "_RunState", t: float) -> None:
        """Deadline-pressure checkpoint of the leading computing zone.

        No-op when a checkpoint is already in flight (its commit will
        restore the margin) or no zone holds uncommitted progress.
        """
        if any(
            i.state is ZoneState.CHECKPOINTING for i in state.instances.values()
        ):
            return
        computing = [
            i
            for i in state.instances.values()
            if i.state is ZoneState.COMPUTING
        ]
        if not computing:
            return
        leader = max(computing, key=lambda i: i.local_progress_s)
        if leader.local_progress_s <= state.store.committed_progress_s + 1e-9:
            return
        leader.begin_checkpoint(t, state.config.ckpt_cost_s)
        state.log(t, "checkpoint-started", leader.zone,
                  f"forced P={leader.pending_checkpoint_progress_s:.0f}s")

    def _start_instance(self, state: "_RunState", inst: ZoneInstance, t: float) -> None:
        delay = self.queue_model.sample(self.rng)
        self._rng_draws += 1
        committed = state.store.committed_progress_s
        # a fresh start (no checkpoint yet) has no state to restore
        restore = state.config.restart_cost_s if committed > 0 else 0.0
        inst.start(
            now=t,
            spot_price=self.oracle.price(inst.zone, t),
            queue_delay_s=delay,
            restart_cost_s=restore,
            from_progress_s=committed,
        )
        if state.aud is not None:
            state.aud.restore(inst.zone, t, committed)

    def _apply_switch(self, state: "_RunState", t: float, decision: SwitchDecision) -> None:
        """Apply a controller's (bid, zones, policy) re-configuration."""
        for z in decision.zones:
            if z not in self.oracle.zone_names:
                raise EngineError(f"controller chose unknown zone {z!r}")
        dropped = set(state.active_zones) - set(decision.zones)
        for z in dropped:
            inst = state.instances[z]
            if inst.is_running:
                inst.user_release(t, reason="user")
                state.log(t, "user-released", z, "config-switch")
            elif inst.state is ZoneState.WAITING:
                inst.mark_down()
        state.bid = decision.bid
        state.active_zones = tuple(decision.zones)
        state.policy = decision.policy
        ctx = self._make_ctx(state, t)
        state.policy.reset(ctx)
        state.policy.schedule_next_checkpoint(ctx)
        state.log(
            t,
            "config-switch",
            None,
            f"policy={decision.policy.name} B={decision.bid:.2f} "
            f"N={len(decision.zones)}",
        )

    def _make_ctx(self, state: "_RunState", t: float) -> PolicyContext:
        return PolicyContext(
            now=t,
            bid=state.bid,
            zones=state.active_zones,
            oracle=self.oracle,
            config=state.config,
            run=state.run_view,
            instances=state.instances,
        )

    def _finalize(self, state: "_RunState", result: RunResult) -> RunResult:
        spot_cost = sum(i.billing.total_cost for i in state.instances.values())
        open_meters = [
            i.zone for i in state.instances.values() if i.billing.is_open
        ]
        if open_meters:  # pragma: no cover - internal invariant
            raise EngineError(f"billing meters left open: {open_meters}")
        result = replace(
            result,
            spot_cost=spot_cost,
            spot_hours_charged=sum(
                i.billing.hours_charged for i in state.instances.values()
            ),
            num_restarts=sum(i.num_restarts for i in state.instances.values()),
            num_provider_terminations=sum(
                i.num_provider_terminations for i in state.instances.values()
            ),
            events=tuple(state.events) if self.record_events else (),
            timeline=tuple(state.timeline) if self.record_timeline else (),
        )
        if state.aud is not None:
            return state.aud.finish_run(result)
        return result


@dataclass
class _RunState:
    """Mutable state of one run (internal)."""

    config: ExperimentConfig
    policy: CheckpointPolicy
    bid: float
    active_zones: tuple[str, ...]
    start_time: float
    deadline: float
    store: CheckpointStore
    instances: dict[str, ZoneInstance]
    run_view: ApplicationRun | None = None  # set right after construction
    checkpoint_just_committed: bool = False
    release_on_commit: set[str] = field(default_factory=set)
    record: bool = False
    events: list[Event] = field(default_factory=list)
    timeline: list[TimelinePoint] = field(default_factory=list)
    deadline_schedule: DeadlineSchedule | None = None
    performance: PerformanceProfile | None = None
    # fast-path scratch: per-zone trace objects (shared grid), a cache of
    # next-crossing indices keyed (zone, threshold), and a reusable
    # PolicyContext for the per-stretch fast_forward_until hook.
    zone_traces: dict = field(default_factory=dict)
    next_crossing: dict = field(default_factory=dict)
    fast_ctx: PolicyContext | None = None
    #: Attached run auditor, or None (audit off).
    aud: "RunAuditor | None" = None

    def log(self, time: float, kind: str, zone: str | None, detail: str = "") -> None:
        if self.record:
            self.events.append(Event(time=time, kind=kind, zone=zone, detail=detail))
        if self.aud is not None:
            self.aud.event(time, kind, zone, detail)

"""Struct-of-arrays batched engine — (policy × shape × bid × start) cubes in lockstep.

Every figure aggregates hundreds of (start, seed) runs per grid cell;
after the segment-skipping fast path, the remaining cost is the
one-run-at-a-time Python loop around it.  This module batches that
loop away: a :class:`VectorSimulator` advances a whole *grid* of runs
simultaneously, holding each scalar of the engine's per-run state
(clock, zone states, phase countdowns, progress, billing meters, the
checkpoint store, policy decision state) as a NumPy column over the
batch.  Multi-zone cells store per-zone state as per-zone column
blocks (one ``(zones, runs)`` array per field), and the bid axis is
folded into the same batch: every run carries its own bid column, so
one lockstep pass serves an entire (bid × start) grid per zone set.
The job-shape and policy axes fold in the same way
(:meth:`VectorSimulator.run_cube`): every run also carries its own
(compute, checkpoint-cost, restart-cost, deadline) columns and its own
installed policy kind, so one pass advances a whole (policy × shape ×
bid × start) cube — a deadline ladder under every checkpoint policy
shares the zone-dynamics column work (price lookups, crossing
searches, the round loop itself) while each row keeps its own
progress, billing, checkpoint, deadline and policy decision state and
its own RNG stream, preserving bit-exactness row by row.  Large-bid,
whose control threshold gates the whole pass, runs alone.
Bid-invariant policies compose with
:mod:`repro.core.bid_batch`'s equivalence classes — one representative
row simulates per class and the engine clones the rest inside the
batch, rewriting only the bid.

One lockstep *round* executes, for every live run, exactly one full
tick of Algorithm 1 — billing rolls, market transitions, the deadline
guard, policy actions, one ``advance`` step — followed by the same
vectorized quiescence analysis the scalar fast engine performs and a
bulk skip of the provably event-free stretch.  Runs sit at different
clocks (each skips at its own pace); the lockstep is over rounds, not
over time.  Zone price-crossing and rising-edge indices are shared
across the whole batch through the trace's memoized caches, and the
per-event "which runs does this tick affect" step is a vectorized min
over hazard bounds instead of a per-run heap.

Bit-exactness is the contract: every float operation replays the
scalar engine's arithmetic in the same order (left-associative sums,
``min``-tie-breaking, the repeated-addition accrual wherever a closed
form would round differently), every RNG draw comes from the same per-run
``numpy.random.Generator`` in the same sequence, and the event log —
when recorded — matches entry for entry.  The differential harness
(:func:`repro.audit.differential.differential_cube`) holds the engine
to it, row by row against the tick reference.

Scope: the native vectorized path covers runs at any start time
(fractional starts replay the scalar engine's per-tick accrual loop
inside the bulk skip) under policies that declare a ``vector_kind``
("periodic", "edge", "never", "markov-daly", "threshold",
"large-bid"), over any zone set, each run at its own bid.
Markov-Daly's re-arm clock (re-armed at the end of the committing
tick, which reads the same clock, progress and plan as the tick after
it, so a commit costs no extra round), Periodic's per-(zone, hour)
latch and Large-bid's released-hour latch plus deferred manual
termination ride along as decision-state columns; Threshold's price
and execution-time guards evaluate per run against the oracle's
memoized statistics.
Adaptive-controller runs (:meth:`VectorSimulator.run_adaptive_cube`)
ride the same lockstep simulator: the installed policy kind is a
per-row column in every batch, and under a controller the rest of the
plan (bid, active-zone mask, re-plan clock) is too, with zone blocks
over every oracle zone the controller may switch onto.  A
decision-epoch hook detects the controller's rules column-wise, and
only triggered rows call their own controller's decision.  Anything
else — unknown policies, non-adaptive controllers, run-time dynamics —
automatically falls back to a per-run scalar fast engine sharing the
same RNG stream and run cache, so callers never need to know which path
served them; the :attr:`VectorSimulator.stats` counters say which one
did (fallback reasons come from the closed :data:`FALLBACK_REASONS`
enum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, repeat

import numpy as np

from repro.core.engine import EngineError, Event, RunResult, SpotSimulator
from repro.core.markov_daly import markov_daly_interval
from repro.core.policy import PolicyContext
from repro.core.threshold import guards_fire, time_guard_bound
from repro.market.constants import ON_DEMAND_PRICE, SAMPLE_INTERVAL_S
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle

# Integer codes of the ZoneState machine, in lifecycle order.  The
# ordering carries meaning: ``state >= QUEUING`` is "running" (an open
# billing hour), mirroring ``RUNNING_STATES``.
DOWN, WAITING, QUEUING, RESTARTING, COMPUTING, CHECKPOINTING = range(6)

#: Policy ``vector_kind`` values the native path can express.
NATIVE_KINDS = frozenset(
    {"periodic", "edge", "never", "markov-daly", "threshold", "large-bid"}
)
#: Policy kinds an :class:`~repro.core.adaptive.AdaptiveController` may
#: install (:func:`~repro.core.adaptive.make_policy`).
CONTROLLER_KINDS = ("periodic", "markov-daly")

# -- fallback reasons ---------------------------------------------------
#
# The closed set of reason strings :class:`BatchStats` may count a
# fallback under.  These labels are an external contract: the CLI's
# stderr stats line prints them, tests pin them, and operators grep for
# them — add a constant here (and to FALLBACK_REASONS) before inventing
# a new string.

#: The policy declares no ``vector_kind`` the native path understands.
FALLBACK_POLICY = "policy"
#: A controller other than :class:`~repro.core.adaptive.AdaptiveController`
#: drives the run, so its decisions cannot be batched as columns.
FALLBACK_CONTROLLER = "controller"
#: Every reason string the vector engine may emit.
FALLBACK_REASONS = frozenset({FALLBACK_POLICY, FALLBACK_CONTROLLER})


def native_batch_kind(policy, zones: tuple[str, ...]) -> str | None:
    """The native vector kind serving this (policy, zones) cell, or
    ``None`` when every run must fall back to the scalar engine."""
    kind = getattr(type(policy), "vector_kind", None)
    if kind in NATIVE_KINDS:
        return kind
    return None


# -- column-backed context views ----------------------------------------
#
# The Adaptive controller's decision body is plain Python; at an epoch
# the batched path hands it a real PolicyContext whose run/instance
# objects are thin snapshots of one run's columns.  The controller only
# reads the attributes below (committed/remaining clocks, running
# flags, billing-hour anchors, local progress), so the views stay tiny.

class _ColRun:
    """Column snapshot standing in for
    :class:`~repro.app.application.ApplicationRun`."""

    __slots__ = ("_committed", "_deadline")

    def __init__(self, committed: float, deadline: float) -> None:
        self._committed = committed
        self._deadline = deadline

    def committed_progress_s(self) -> float:
        return self._committed

    def remaining_time_s(self, now: float) -> float:
        return max(self._deadline - now, 0.0)


class _ColBilling:
    """Column snapshot of a zone instance's billing meter."""

    __slots__ = ("is_open", "hour_start")

    def __init__(self, is_open: bool, hour_start: float) -> None:
        self.is_open = is_open
        self.hour_start = hour_start


class _ColInstance:
    """Column snapshot of one zone's instance state."""

    __slots__ = ("is_running", "local_progress_s", "billing")

    def __init__(
        self, is_running: bool, local_progress_s: float,
        billing: _ColBilling,
    ) -> None:
        self.is_running = is_running
        self.local_progress_s = local_progress_s
        self.billing = billing


@dataclass
class BatchStats:
    """Where a batch's runs were served: native columns, the run cache,
    in-batch bid clones, or the per-run scalar fallback (and why)."""

    native: int = 0
    cloned: int = 0
    fallback: dict[str, int] = field(default_factory=dict)
    #: Rows of the native scope served from the run cache, not simulated.
    cached: int = 0

    @property
    def total(self) -> int:
        return (
            self.native + self.cached + self.cloned
            + sum(self.fallback.values())
        )

    def count_fallback(self, reason: str, n: int = 1) -> None:
        self.fallback[reason] = self.fallback.get(reason, 0) + n

    def merge(self, other: "BatchStats") -> None:
        self.native += other.native
        self.cached += other.cached
        self.cloned += other.cloned
        for reason, count in other.fallback.items():
            self.count_fallback(reason, count)

    def line(self) -> str:
        """One-line summary for the CLI's stderr stats report."""
        total_fb = sum(self.fallback.values())
        msg = (
            f"vector-engine: native={self.native} cloned={self.cloned} "
            f"fallback={total_fb}"
        )
        if total_fb:
            detail = " ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.fallback.items())
            )
            msg += f" ({detail})"
        return f"{msg} cached={self.cached}"


@dataclass
class VectorSimulator:
    """Batched grid engine over one oracle.

    Parameters mirror :class:`~repro.core.engine.SpotSimulator` minus
    the per-run ``rng`` — each run of a batch brings its own generator,
    so queue-delay draws match the scalar engine draw for draw.
    """

    oracle: PriceOracle
    queue_model: QueueDelayModel
    record_events: bool = False
    #: Optional :class:`repro.experiments.cache.RunCache`.  Vector runs
    #: compute the *same* content addresses as the scalar fast engine
    #: (``engine_mode="fast"`` in the key), so entries interoperate in
    #: both directions: a vector batch hits entries a scalar run stored
    #: and vice versa.  Each batch flushes the runs it stored, so they
    #: reach the disk layer as one segment.
    run_cache: object | None = None
    #: Running native/cached/cloned/fallback counters across every batch
    #: this simulator served; drained by the runner for the CLI stats line.
    stats: BatchStats = field(default_factory=BatchStats)

    def drain_stats(self) -> BatchStats:
        """Return the accumulated counters and reset them."""
        out = self.stats
        self.stats = BatchStats()
        return out

    # ------------------------------------------------------------------

    def run_cube(
        self,
        configs,
        policy_factories,
        zones: tuple[str, ...],
        shape_idx,
        bids,
        starts,
        rngs,
        clone_of=None,
        *,
        policy_idx,
    ) -> list[RunResult]:
        """Simulate one run per (policy, shape, bid, start, rng) row; in
        order.

        ``configs`` is the job-shape ladder (typically one compute /
        checkpoint configuration at several deadlines) and
        ``shape_idx[i]`` names row ``i``'s shape; ``policy_factories``
        is the policy axis and ``policy_idx[i]`` names row ``i``'s
        policy.
        Every row is bit-identical — RunResult, event log, RNG draw
        sequence, cache address — to ``SpotSimulator(
        engine_mode="fast").run(configs[shape_idx[i]],
        policy_factories[policy_idx[i]](), bids[i], zones, starts[i])``
        with generator ``rngs[i]``: policy and shape rows share the
        lockstep round loop and the per-(zone, bid) crossing arrays,
        never each other's arithmetic.  A Large-bid policy must be the
        only policy of its batch: its control threshold gates the
        whole pass.

        ``clone_of`` optionally maps row ``i`` to a representative row
        with the same availability signature (from
        :func:`repro.core.bid_batch.bid_equivalence_classes`); for
        bid-invariant policies such a row is served by cloning the
        representative's result with only the bid rewritten, consuming
        no RNG draws and writing no cache entries.  Clones are honored
        only within a (policy, shape) pair (a clone must share its
        representative's policy and deadline as well); a ``clone_of``
        list of the wrong length or naming a row outside the batch
        raises :class:`EngineError`.  Rows whose policy lies outside
        the native scope fall back to per-run scalar fast simulation
        under :data:`FALLBACK_POLICY` at their own shape.
        """
        zones = tuple(zones)
        configs, shape_idx, starts = self._validate(
            configs, zones, shape_idx, starts, rngs, bids
        )
        n = len(starts)
        factories = list(policy_factories)
        if not factories:
            raise EngineError("at least one policy is required")
        policy_idx = [int(p) for p in policy_idx]
        if len(policy_idx) != n:
            raise EngineError(
                f"{n} starts but {len(policy_idx)} policy rows"
            )
        for p in policy_idx:
            if not 0 <= p < len(factories):
                raise EngineError(
                    f"policy index {p} outside 0..{len(factories) - 1}"
                )
        if clone_of is not None:
            if len(clone_of) != n:
                raise EngineError(
                    f"clone_of has {len(clone_of)} entries for {n} rows"
                )
            for rep in clone_of:
                if rep is not None and not 0 <= int(rep) < n:
                    raise EngineError(
                        f"clone_of representative {rep} outside 0..{n - 1}"
                    )

        probes = [factory() for factory in factories]
        native = [native_batch_kind(p, zones) is not None for p in probes]
        if len(probes) > 1 and any(
            p.vector_kind == "large-bid" for p in probes
        ):
            raise EngineError(
                "a large-bid policy must be the only policy of its batch"
            )
        results: list[RunResult | None] = [None] * n
        fallback_rows = [i for i in range(n) if not native[policy_idx[i]]]
        for i in fallback_rows:
            results[i] = self._fallback(
                FALLBACK_POLICY, configs[shape_idx[i]],
                factories[policy_idx[i]](), bids[i], zones, starts[i],
                rngs[i],
            )
        if fallback_rows:
            self._flush_cache()

        # Bid-equivalence clone plan: honored only for bid-invariant
        # policies and only within one (policy, job shape) pair (the
        # deadline guard makes trajectories shape-dependent even when
        # availability matches).
        plan: dict[int, int] = {}
        if clone_of is not None:
            for i, rep in enumerate(clone_of):
                if rep is None or int(rep) == i:
                    continue
                rep = int(rep)
                p = policy_idx[i]
                if (
                    native[p]
                    and getattr(type(probes[p]), "bid_invariant", False)
                    and policy_idx[rep] == p
                    and shape_idx[rep] == shape_idx[i]
                ):
                    plan[i] = rep
            for i in list(plan):  # follow chains to their root rows
                rep = plan[i]
                seen = {i}
                while rep in plan and rep not in seen:
                    seen.add(rep)
                    rep = plan[rep]
                plan[i] = rep

        sim_rows = [
            i for i in range(n) if native[policy_idx[i]] and i not in plan
        ]
        if sim_rows:
            hits = self._serve_rows(
                configs, probes, zones, shape_idx, policy_idx, bids, starts,
                rngs, sim_rows, results,
            )
            self.stats.native += len(sim_rows) - hits
            self.stats.cached += hits
        for i, rep in sorted(plan.items()):
            results[i] = replace(results[rep], bid=float(bids[i]))
        self.stats.cloned += len(plan)
        return results

    def run_adaptive_cube(
        self,
        configs,
        controller_factory,
        shape_idx,
        starts,
        rngs,
    ) -> list[RunResult]:
        """Simulate one controller-driven run per (shape, start, rng) row.

        Row ``i`` is bit-identical to ``SpotSimulator(
        engine_mode="fast").run(configs[shape_idx[i]], PeriodicPolicy(),
        ctrl.bids[0], oracle.zone_names[:1], starts[i],
        controller=ctrl)`` with a fresh ``ctrl = controller_factory()``
        and generator ``rngs[i]`` — the bootstrap configuration the
        experiment runner uses for Adaptive cells.  The native path
        batches :class:`~repro.core.adaptive.AdaptiveController`
        exactly (a subclass may override decision rules the columns
        hard-code); any other controller falls back to per-run scalar
        fast simulation under :data:`FALLBACK_CONTROLLER`.

        As in :meth:`run_cube`, the deadline ladder shares the round
        loop and the crossing caches; every row keeps its own
        controller, built by ``controller_factory``.
        """
        from repro.core.adaptive import AdaptiveController
        from repro.core.periodic import PeriodicPolicy

        init_zones = tuple(self.oracle.zone_names[:1])
        configs, shape_idx, starts = self._validate(
            configs, init_zones, shape_idx, starts, rngs
        )
        n = len(starts)
        probe = controller_factory()
        results: list[RunResult | None] = [None] * n
        if type(probe) is not AdaptiveController:
            for i in range(n):
                ctrl = controller_factory()
                results[i] = self._fallback(
                    FALLBACK_CONTROLLER, configs[shape_idx[i]],
                    PeriodicPolicy(), ctrl.bids[0], init_zones, starts[i],
                    rngs[i], ctrl,
                )
            self._flush_cache()
            return results
        hits = self._serve_rows(
            configs, [PeriodicPolicy()], init_zones, shape_idx, [0] * n,
            [float(probe.bids[0])] * n, starts, rngs, range(n), results,
            controller_factory, probe.canonical_params(),
        )
        self.stats.native += n - hits
        self.stats.cached += hits
        return results

    # -- shared front end --------------------------------------------------

    def _validate(self, configs, zones, shape_idx, starts, rngs, bids=None):
        """Check a batch's row columns; ``(configs, shape_idx, starts)``
        come back as lists of their canonical types."""
        configs = list(configs)
        shape_idx = [int(s) for s in shape_idx]
        starts = [float(s) for s in starts]
        if not configs:
            raise EngineError("at least one job shape is required")
        if len(shape_idx) != len(starts):
            raise EngineError(
                f"{len(starts)} starts but {len(shape_idx)} shape rows"
            )
        for s in shape_idx:
            if not 0 <= s < len(configs):
                raise EngineError(
                    f"shape index {s} outside 0..{len(configs) - 1}"
                )
        if len(rngs) != len(starts):
            raise EngineError(
                f"{len(starts)} starts but {len(rngs)} rng streams"
            )
        if bids is not None and len(bids) != len(starts):
            raise EngineError(
                f"{len(starts)} starts but {len(bids)} bids"
            )
        if not zones:
            raise EngineError("at least one zone is required")
        for z in zones:
            if z not in self.oracle.zone_names:
                raise EngineError(
                    f"zone {z!r} not in trace {self.oracle.zone_names}"
                )
        for b in () if bids is None else bids:
            if b <= 0:
                raise EngineError(f"bid must be positive, got {b}")
        return configs, shape_idx, starts

    def _fallback(
        self, reason, config, policy, bid, zones, start, rng, controller=None
    ) -> RunResult:
        """One run on the per-run scalar fast engine, counted under
        ``reason``; it shares this batch's RNG stream and run cache."""
        self.stats.count_fallback(reason)
        sim = SpotSimulator(
            oracle=self.oracle, queue_model=self.queue_model,
            rng=rng, record_events=self.record_events,
            engine_mode="fast", run_cache=self.run_cache,
        )
        return sim.run(config, policy, bid, zones, start,
                       controller=controller)

    def _flush_cache(self) -> None:
        """Publish this batch's stored runs as one run-cache segment."""
        if self.run_cache is not None:
            self.run_cache.flush()

    def _serve_rows(
        self, configs, policies, zones, shape_idx, policy_idx, bids, starts,
        rngs, idxs, results, controller_factory=None, controller_params=None,
    ) -> int:
        """Serve rows ``idxs`` from the run cache where possible and
        simulate the rest in one lockstep batch; returns the number of
        rows the cache served.

        Row ``i`` runs ``policies[policy_idx[i]]`` (under
        ``controller_factory``, the bootstrap policy its controller
        replaces).  Vector results are bit-identical to scalar fast
        runs, so they share the fast engine's addresses: every row
        lands on exactly the entry its own-shape, own-policy scalar
        fast run would read or write.  The parts every row shares —
        trace, oracle, engine, queue model, zones, controller — are
        encoded once per batch, and each policy's and shape's once per
        batch too (:class:`~repro.experiments.cache.RunKeyTemplate`);
        a controller without canonical params makes the batch
        uncacheable, as it does a scalar run.
        """
        cache = self.run_cache
        keys: dict[int, str] = {}
        todo = list(idxs)
        if cache is not None and (
            controller_factory is None or controller_params is not None
        ):
            todo = self._cache_lookup(
                configs, policies, zones, shape_idx, policy_idx, bids,
                starts, rngs, idxs, results, controller_params, keys,
            )
        hits = len(idxs) - len(todo)
        if not todo:
            return hits
        batch, draws = self._simulate_rows(
            configs, policies, zones,
            [shape_idx[i] for i in todo],
            [policy_idx[i] for i in todo],
            [float(bids[i]) for i in todo],
            [starts[i] for i in todo],
            [rngs[i] for i in todo],
            controller_factory,
        )
        if keys:
            from repro.experiments.cache import CachedRun
        for j, i in enumerate(todo):
            results[i] = batch[j]
            if i in keys:
                cache.put(
                    keys[i],
                    CachedRun(result=batch[j], rng_draws=int(draws[j])),
                )
        if keys:
            cache.flush()
        return hits

    def _cache_lookup(
        self, configs, policies, zones, shape_idx, policy_idx, bids, starts,
        rngs, idxs, results, controller_params, keys,
    ) -> list[int]:
        """Serve rows ``idxs`` that hit the run cache (burning each
        hit's RNG draws); returns the rows left to simulate and records
        each miss's address in ``keys``."""
        from repro.experiments.cache import (
            RunKeyTemplate, canonical_json, shared_run_parts,
        )

        cache = self.run_cache
        try:
            template = RunKeyTemplate(shared_run_parts(
                self.oracle, self.queue_model,
                engine_mode="fast", record_events=self.record_events,
                record_timeline=False, zones=zones,
                controller=controller_params,
            ))
            config_json = [canonical_json(cfg) for cfg in configs]
            policy_json = [
                canonical_json(p.canonical_params()) for p in policies
            ]
        except TypeError:
            return list(idxs)
        todo = []
        for i in idxs:
            try:
                key = template.key(
                    canonical_json(float(bids[i])),
                    config_json[shape_idx[i]],
                    policy_json[policy_idx[i]],
                    canonical_json(rngs[i].bit_generator.state),
                    canonical_json(starts[i]),
                )
            except TypeError:
                todo.append(i)
                continue
            entry = cache.get(key)
            if entry is not None:
                results[i] = entry.replay(self.queue_model, rngs[i])
            else:
                keys[i] = key
                todo.append(i)
        return todo

    # -- the lockstep core -------------------------------------------------

    def _simulate_rows(
        self, configs, policies, zones, shape_idx, policy_idx, bids, starts,
        rngs, controller_factory=None,
    ) -> tuple[list[RunResult], np.ndarray]:
        """Advance ``len(starts)`` native rows to completion in lockstep.

        Row ``i`` runs at job shape ``configs[shape_idx[i]]``: the
        shape scalars (compute, checkpoint cost, restart cost,
        deadline) become per-row float64 columns, and every expression
        that read them stays elementwise — identical IEEE arithmetic to
        the scalar broadcast wherever rows share a shape, per-row exact
        everywhere else.

        Every row starts with its own ``policies[policy_idx[i]]``
        installed, at its own bid, over ``zones``.  Large-bid's control
        threshold is read from the batch's large-bid policy, which must
        be its only one.  With ``controller_factory`` every row is
        driven by its own
        :class:`~repro.core.adaptive.AdaptiveController`, whose plan —
        bid, active-zone mask, policy kind, re-evaluation clock — lives
        in columns too, so one pass serves rows whose controllers have
        diverged onto different plans.
        """
        b = _Lockstep(
            self, configs, policies, zones, shape_idx, policy_idx, bids,
            starts, rngs, controller_factory,
        )
        if b.md is not None:  # policy reset + schedule at start
            b.md_schedule(b.md.nonzero()[0])
        for _round in range(b.max_rounds):
            if not b.alive.any():
                break
            # one full tick for every live run, at its own clock
            b.roll_billing()
            b.market_transitions()
            b.deadline_guard()
            if b.ctrl:
                b.controller_epoch()
            waiting_any = b.policy_actions()
            b.restarts(waiting_any)
            commits = b.advance()
            b.rearm(commits)
            # then the event-free stretch each row may skip
            b.bulk_skip(*b.quiescence())
        else:  # pragma: no cover - loop guard
            raise EngineError(
                f"vector engine exceeded {b.max_rounds} rounds; "
                f"{int(b.alive.sum())} runs still live"
            )
        return b.finalize()


_DT = float(SAMPLE_INTERVAL_S)


def _grid_index(t: np.ndarray, z0: float, length: int) -> np.ndarray:
    """Sample index of every clock in ``t`` on a zone grid starting at
    ``z0``, clipped into the zone's ``length`` samples."""
    return np.minimum(np.maximum(((t - z0) // _DT).astype(np.int64), 0), length - 1)


def _repeated_sums(x: float, step: float, k: int) -> list[float]:
    """``x`` and its ``k`` successive sums with ``step``, one float
    addition each (``accumulate`` adds in sequence): the scalar
    engine's per-tick accrual, which a closed form ``x + k * step``
    can round differently when a fractional accumulator climbs into a
    coarser binade (see :func:`_accrue`)."""
    return list(accumulate(repeat(step, k), initial=x))


def _accrue(col: np.ndarray, rows: np.ndarray, k: np.ndarray, step: float) -> None:
    """Add ``k[i]`` ticks of ``step`` to ``col[i]`` for ``rows``, as
    :func:`_repeated_sums` would.  ``k[i] * step`` must be exact (it is
    for the engine's whole-second ``±_DT`` steps).

    Where ``col[i]`` and ``step`` are multiples of ``u``, the spacing
    of doubles at the larger of ``|col[i]|`` and ``|col[i] + k[i] *
    step|``, every partial sum is a multiple of ``u`` no larger in
    magnitude, hence exact, and the closed form ``col[i] + k[i] * step``
    equals the repeated sums.  That covers integral accumulators and
    every countdown; only sums that climb into a coarser binade from a
    fractional start take the per-row path."""
    if not rows.any():
        return
    kstep = k * step
    u = np.spacing(np.maximum(np.abs(col), np.abs(col + kstep)))
    exact = rows & (np.fmod(col, u) == 0.0) & (np.fmod(step, u) == 0.0)
    col[exact] += kstep[exact]
    for i in (rows & ~exact).nonzero()[0]:
        col[i] = _repeated_sums(float(col[i]), step, int(k[i]))[-1]


def _next_mark(marks, iz):
    """The first of a zone's sorted sample indices ``marks`` (an array
    and its copy extended by the zone's length) strictly after each
    grid index ``iz``; the zone's length where none is."""
    idx, ext = marks
    return ext[idx.searchsorted(iz, side="right")]


def _class_marks(marks: list, length: int) -> tuple[np.ndarray, np.ndarray]:
    """One search table over per-class ``marks`` (each as
    :func:`_next_mark` takes them) on a zone of ``length`` samples.

    Class ``c``'s extended marks (its sorted indices, then ``length``)
    are offset by ``c * (length + 1)``: each class's block of keys is
    sorted and lies below the next class's, so the blocks concatenate
    into one sorted array.  Returns ``(keys, extended marks)``."""
    exts = [ext for _, ext in marks]
    keys = np.concatenate(
        [ext + c * (length + 1) for c, ext in enumerate(exts)]
    )
    return keys, np.concatenate(exts)


def _class_next_mark(table, cls: np.ndarray, iz: np.ndarray, length: int):
    """``_next_mark(marks[cls[i]], iz[i])`` for every ``i`` with one
    ``searchsorted`` over the :func:`_class_marks` table.  A query key
    ``c * (length + 1) + min(iz, length - 1)`` stays below class ``c``'s
    closing ``length`` key (an index at or past the last sample has no
    mark after it either way), so it lands inside class ``c``'s block."""
    keys, ext = table
    q = cls * (length + 1) + np.minimum(iz, length - 1)
    return ext[keys.searchsorted(q, side="right")]


def _tighten(bound: np.ndarray, rows: np.ndarray, cap) -> np.ndarray:
    """``bound`` lowered to ``cap`` on ``rows`` where that is smaller."""
    return np.where(rows, np.minimum(bound, cap), bound)


def _countdown(phase: np.ndarray, m: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """Spend rows ``m``'s remaining tick time on one zone block's timed
    activity (queue delay, restore or checkpoint); returns the rows
    whose activity ran out."""
    used = np.minimum(phase, remaining)
    phase[m] -= used[m]
    remaining[m] -= used[m]
    return m & (phase <= 1e-9)


def _enter_computing(st, csince, done, t, remaining) -> None:
    """Rows ``done`` of one zone block start computing at the instant
    of the tick their timed activity ended."""
    st[done] = COMPUTING
    csince[done] = t[done] + (_DT - remaining[done])


class _Lockstep:
    """The column state of one lockstep batch and its event sites.

    Per-row state is an ``(n,)`` column and per-zone state a ``(Z, n)``
    block laid out in *oracle* zone order (the scalar engine's
    ``instances`` dict order), while market transitions walk the
    *given* zone order — both orders matter for bit-exact event streams
    and RNG draw sequences.  A fixed policy only ever occupies the
    cell's zones.  Under a controller the scalar engine creates an
    instance for every oracle zone up front (the controller may switch
    onto any of them), so the blocks cover the full trace and a per-row
    mask marks the active ones; the controller only picks oracle-order
    zone subsequences (itertools.combinations over oracle.zone_names),
    so block order is every row's active order.  The event sites
    mutate the columns in place; ``_simulate_rows`` runs them once per
    round, in the scalar tick's order.
    """

    def __init__(
        self, sim, configs, policies, zones, shape_idx, policy_idx, bids,
        starts, rngs, controller_factory,
    ) -> None:
        self.oracle = oracle = sim.oracle
        self.queue_model = sim.queue_model
        self.rngs = rngs
        self.configs = configs
        self.n = n = len(starts)
        self.zones = zones = tuple(zones)
        self.ctrl = ctrl = controller_factory is not None

        # zone geometry (see the class docstring)
        self.zorder = zorder = tuple(
            z for z in oracle.zone_names if ctrl or z in zones
        )
        self.Z = Z = len(zorder)
        self.zidx = zidx = {z: zi for zi, z in enumerate(zorder)}
        self.walk = range(Z) if ctrl else [zidx[z] for z in zones]
        self.ztr = ztr = [oracle.trace.zone(z) for z in zorder]
        self.zprices = [zt.prices for zt in ztr]
        self.zz0 = [float(zt.start_time) for zt in ztr]
        self.zlen = zlen = [len(zt.prices) for zt in ztr]
        # the scalar quiescence scan indexes every zone's prices with
        # the *first given* zone's grid index — replicated verbatim
        ref = oracle.trace.zone(zones[0])
        self.ref_z0 = float(ref.start_time)
        self.ref_len = len(ref.prices)

        self.start_arr = start_arr = np.asarray(starts, dtype=np.float64)
        self.bid_arr = np.asarray(bids, dtype=np.float64)
        self.shape_arr = shape_arr = np.asarray(shape_idx, dtype=np.int64)
        dls = np.asarray([cfg.deadline_s for cfg in configs], dtype=np.float64)
        self.deadline = deadline = start_arr + dls[shape_arr]
        end_time = float(oracle.trace.end_time)
        if np.any(deadline > end_time):
            bad = float(deadline[deadline > end_time][0])
            raise EngineError(
                f"trace ends at {end_time}, before the deadline {bad}"
            )
        self.max_rounds = int(float(dls.max()) // _DT) + 16
        # per-row shape columns (see _simulate_rows)
        self.C, self.tc, self.tr = (
            np.asarray([getattr(cfg, f) for cfg in configs],
                       dtype=np.float64)[shape_arr]
            for f in ("compute_s", "ckpt_cost_s", "restart_cost_s")
        )

        # the installed policy kind: one row mask per kind this batch
        # may hold, updated in place when a controller re-plans
        row_kind = np.asarray(
            [policies[p].vector_kind for p in policy_idx], dtype=object
        )
        self.kinds = CONTROLLER_KINDS if ctrl else tuple(
            dict.fromkeys(row_kind.tolist())
        )
        self.on = on = {k: row_kind == k for k in self.kinds}
        self.md = on.get("markov-daly")
        # Large-bid: the control threshold L gates re-acquisition and
        # the hour-end release checkpoint; non-running zones flip on
        # crossings of min(bid, L) (start_price_threshold), and the
        # fast-forward bound tracks crossings of L itself.
        self.lb = lb = "large-bid" in on
        self.L = (
            float(policies[policy_idx[0]].control_threshold) if lb
            else math.inf
        )
        if "edge" in on or "threshold" in on:
            self.edges = []
            self.zrising = []
            for zi in range(Z):
                e = ztr[zi].rising_edges()
                self.edges.append((e, np.concatenate([e, [zlen[zi]]])))
                mask = np.zeros(zlen[zi], dtype=bool)
                mask[e] = True
                self.zrising.append(mask)

        # crossing arrays per (zone block, threshold), fetched lazily
        # and memoized on the ZoneTrace, so repeats are shared across
        # batches too; the fused bid axis groups rows into bid classes
        # for the quiescence bound (next_crossings), regrouped at the
        # first search after a controller re-plans a bid
        self.cross_cache: dict = {}
        self.ubids = self.bclass = None
        self.class_marks: dict = {}
        # combined expected uptimes are memoized here: the oracle's
        # level-conditioned models make the value a pure function of
        # (zone set, stats bucket, per-zone price levels, bid), and
        # staggered runs revisit the same key constantly
        self.upt_memo: dict = {}

        self._init_columns(sim.record_events)
        # the plan each row reports: its policy name and zone tuple
        self.pol_name = [policies[p].name for p in policy_idx]
        self.cur_zones: list[tuple[str, ...]] = [zones] * n
        self.zact = None
        if not ctrl:
            return
        # a controller's plan beyond bid and kind: the active-zone mask
        # and the rule-3 re-evaluation clock
        self.zact = np.zeros((Z, n), dtype=bool)
        for z in zones:
            self.zact[zidx[z]] = True
        self.last_eval = np.full(n, -np.inf)
        self.controllers = [controller_factory() for _ in range(n)]
        self.reeval = np.array(
            [float(c.reevaluate_every_s) for c in self.controllers]
        )
        boot = PolicyContext(
            now=0.0, bid=float(self.bid_arr[0]), zones=zones, oracle=oracle,
            config=configs[0], run=None, instances={},
        )
        for c in self.controllers:
            c.reset(boot)  # reads only the oracle's zone list

    def _init_columns(self, record_events: bool) -> None:
        """The struct-of-arrays run state: per-run columns and per-zone
        blocks."""
        n, Z = self.n, self.Z
        self.t = self.start_arr.copy()
        self.alive = np.ones(n, dtype=bool)
        self.zst = np.full((Z, n), DOWN, dtype=np.int8)
        self.phase = np.zeros((Z, n))     # remaining seconds of timed activity
        self.pendr = np.zeros((Z, n))     # restore time owed after QUEUING
        self.zbase = np.zeros((Z, n))     # committed progress restarted from
        self.zcomp = np.zeros((Z, n))     # compute seconds since the restart
        self.pendc = np.zeros((Z, n))     # progress snapshotted by in-flight ckpt
        self.csince = np.full((Z, n), np.nan)  # COMPUTING entry timestamp
        self.hourst = np.full((Z, n), np.nan)  # NaN = no billing hour open
        self.zrate = np.zeros((Z, n))
        self.zspot = np.zeros((Z, n))
        self.zhours = np.zeros((Z, n), dtype=np.int64)
        self.zrest = np.zeros((Z, n), dtype=np.int64)
        self.zterm = np.zeros((Z, n), dtype=np.int64)
        self.latch = np.full((Z, n), np.nan)  # per-(zone, hour) checkpoint latch
        self.committed = np.zeros(n)          # checkpoint store
        self.ncomm = np.zeros(n, dtype=np.int64)
        self.ckpt_flag = np.zeros(n, dtype=bool)  # checkpoint_just_committed
        self.finish = np.full(n, np.nan)
        self.od_cost = np.zeros(n)
        self.switch_t = np.full(n, np.nan)
        self.completed_on = np.zeros(n, dtype=np.int8)  # 1 = spot, 2 = ondemand
        self.draws = np.zeros(n, dtype=np.int64)
        self.md_next = np.full(n, np.nan)  # markov-daly re-arm clocks
        # large-bid deferred manual termination (release_on_commit):
        # at most one checkpoint is in flight per run, so a pending
        # release is one (flag, zone block) pair per run
        self.rel_pending = np.zeros(n, dtype=bool)
        self.rel_zi = np.zeros(n, dtype=np.int64)
        self.rows = np.arange(n)
        self.events: list[list[Event]] | None = (
            [[] for _ in range(n)] if record_events else None
        )

    # -- shared mechanics --------------------------------------------------

    def crossings(self, zi: int, b: float):
        got = self.cross_cache.get((zi, b))
        if got is None:
            cr = self.ztr[zi].threshold_crossings(b)
            got = (cr, np.concatenate([cr, [self.zlen[zi]]]))
            self.cross_cache[(zi, b)] = got
        return got

    def regroup(self) -> None:
        """Group rows into bid classes: the distinct bids ``ubids``
        (ascending) and each row's class ``bclass``.  The class-keyed
        crossing tables of :meth:`next_crossings` depend only on
        ``ubids`` and are dropped when those change."""
        ubids, self.bclass = np.unique(self.bid_arr, return_inverse=True)
        if not np.array_equal(ubids, self.ubids):
            self.ubids = ubids
            self.class_marks = {}

    def next_crossings(self, zi: int, iz: np.ndarray, cap: float = math.inf):
        """Per row, the first crossing of zone block ``zi`` at
        ``min(row's bid, cap)`` strictly after grid index ``iz``; the
        zone's length where none is.  One search over every bid class
        at once (:func:`_class_next_mark`)."""
        if self.bclass is None:
            self.regroup()
        table = self.class_marks.get((zi, cap))
        if table is None:
            table = self.class_marks[(zi, cap)] = _class_marks(
                [self.crossings(zi, min(float(ub), cap)) for ub in self.ubids],
                self.zlen[zi],
            )
        return _class_next_mark(table, self.bclass, iz, self.zlen[zi])

    def log(self, i, time, kind, zone, detail) -> None:
        """Append one event to row ``i``'s log; callers check that
        events are recorded before formatting details."""
        self.events[i].append(
            Event(time=float(time), kind=kind, zone=zone, detail=detail)
        )

    def emit(self, idx_arr, times, kind, zone, details) -> None:
        for j, i in enumerate(idx_arr):
            self.log(i, times[j], kind, zone, details[j])

    def roll_hours(self, zi, mask, upto):
        """Roll zone block ``zi``'s billing hours whose boundary is
        reached by ``upto`` for ``mask`` rows, one boundary per row
        per pass; yields each pass's (rows, boundaries, new rates)."""
        hourst, zrate, zspot = self.hourst[zi], self.zrate[zi], self.zspot[zi]
        zhours, prices, z0 = self.zhours[zi], self.zprices[zi], self.zz0[zi]
        while True:
            idx = (mask & (hourst + 3600.0 <= upto + 1e-6)).nonzero()[0]
            if idx.size == 0:
                return
            boundary = hourst[idx] + 3600.0
            zspot[idx] += zrate[idx]
            zhours[idx] += 1
            new_rate = prices[((boundary - z0) // _DT).astype(np.int64)]
            zrate[idx] = new_rate
            hourst[idx] = boundary
            yield idx, boundary, new_rate

    def close(self, zi, idx, end) -> None:
        """user_close of zone block ``zi`` for rows ``idx`` at ``end``:
        the open hour is charged unless < 1 s was used; the zone goes
        DOWN."""
        used = end - self.hourst[zi, idx]
        if np.any(used > 3600.0 + 1e-6):  # pragma: no cover
            raise EngineError("open billing hour overran its boundary")
        charge = idx[used >= 1.0]
        self.zspot[zi, charge] += self.zrate[zi, charge]
        self.zhours[zi, charge] += 1
        self.reset_zone(zi, idx)

    def reset_zone(
        self, zi, idx, state=DOWN, delay=0.0, restore=0.0, base=0.0,
        hour_start=np.nan, rate=0.0,
    ) -> None:
        """Zone block ``zi`` of rows ``idx`` enters ``state`` afresh:
        DOWN (an open hour is forfeited), or QUEUING for ``delay`` with
        ``restore`` owed from ``base``, its hour opened at ``hour_start``."""
        self.zst[zi, idx] = state
        self.phase[zi, idx] = delay
        self.pendr[zi, idx] = restore
        self.zbase[zi, idx] = base
        self.zcomp[zi, idx] = 0.0
        self.pendc[zi, idx] = 0.0
        self.csince[zi, idx] = np.nan
        self.hourst[zi, idx] = hour_start
        self.zrate[zi, idx] = rate

    def release(self, i, zi, end, detail) -> None:
        """user_release of row ``i``'s zone block ``zi`` at ``end``."""
        self.close(zi, np.array([i]), end)
        if self.events is not None:
            self.log(i, end, "user-released", self.zorder[zi], detail)

    def start_checkpoints(self, fi, lz, prog, prefix) -> None:
        """Rows ``fi`` start checkpointing ``prog`` on blocks ``lz``."""
        self.pendc[lz, fi] = prog[fi]
        self.zst[lz, fi] = CHECKPOINTING
        self.phase[lz, fi] = self.tc[fi]
        if self.events is not None:
            for j, i in enumerate(fi):
                self.log(i, self.t[i], "checkpoint-started",
                         self.zorder[lz[j]], f"{prefix}P={prog[i]:.0f}s")

    def retire(self, mask, close_at, finish, how) -> None:
        """Rows ``mask`` end at ``finish``, on spot (``how`` 1) or on
        demand (2), every running zone closed at ``close_at``."""
        zst = self.zst
        for zi in range(self.Z):
            idx = (mask & (zst[zi] >= QUEUING)).nonzero()[0]
            if idx.size:
                self.close(zi, idx, close_at[idx])
        ri = mask.nonzero()[0]
        zst[:, ri] = DOWN
        self.finish[ri] = finish[ri]
        self.completed_on[ri] = how
        self.alive &= ~mask

    def leader(self):
        """Every row's leader: the computing block with the most local
        progress, first-wins in block order like Python's max().
        Returns ``(computing mask, local progress, leader block, leader
        progress (-inf if none), leader progress uncommitted, any
        computing, any checkpointing)``."""
        zst = self.zst
        comp_mask = zst == COMPUTING
        loc = self.zbase + self.zcomp
        loc_masked = np.where(comp_mask, loc, -np.inf)
        lead_zi = loc_masked.argmax(axis=0)
        lead_local = loc_masked[lead_zi, self.rows]
        return (
            comp_mask, loc, lead_zi, lead_local,
            lead_local > self.committed + 1e-9, comp_mask.any(axis=0),
            (zst == CHECKPOINTING).any(axis=0),
        )

    def guard_progress(self, has_comp, lead_local):
        """The progress the deadline guard counts: the committed one, or
        the leader's if larger under Large-bid's trust_speculative."""
        committed = self.committed
        if not self.lb:
            return committed
        return np.where(has_comp, np.maximum(committed, lead_local), committed)

    def uptime(self, i: int, now: float) -> float:
        """Row ``i``'s combined E[T_u] at ``now`` on its current plan.
        Price levels come from the engine's own price columns (the
        sample ``oracle.price`` returns)."""
        zones_i = self.cur_zones[i]
        bid_i = float(self.bid_arr[i])
        zidx, zprices, zz0 = self.zidx, self.zprices, self.zz0
        key = (
            zones_i, bid_i, self.oracle.stats_bucket(now),
            tuple(
                float(zprices[zidx[z]][int((now - zz0[zidx[z]]) // _DT)])
                for z in zones_i
            ),
        )
        value = self.upt_memo.get(key)
        if value is None:
            value = self.upt_memo[key] = self.oracle.combined_expected_uptime(
                zones_i, now, bid_i
            )
        return value

    def md_schedule(self, idx: np.ndarray) -> None:
        """MarkovDalyPolicy.schedule_next_checkpoint for rows ``idx``
        against each row's own job shape and current plan."""
        t, deadline, committed = self.t, self.deadline, self.committed
        configs, shape_arr = self.configs, self.shape_arr
        for i in idx.tolist():
            now = float(t[i])
            self.md_next[i] = now + markov_daly_interval(
                configs[shape_arr[i]], max(float(deadline[i]) - now, 0.0),
                float(committed[i]), partial(self.uptime, i, now),
            )

    def threshold_fires(self, i, zi, now, bid_i, iz) -> tuple[bool, float]:
        """:func:`~repro.core.threshold.guards_fire` on row ``i``'s
        computing zone block ``zi`` at ``now`` (grid index ``iz``)."""
        cs = self.csince[zi, i]
        return guards_fire(
            self.oracle, self.zorder[zi], now, bid_i, self.zrising[zi][iz],
            float(self.zprices[zi][iz]),
            max(now - float(cs), 0.0) if not math.isnan(cs) else 0.0,
        )

    # -- Adaptive controller plumbing --------------------------------------

    def make_ctx(self, i: int):
        """A decision context over column snapshots of row ``i``."""
        zst, zbase, zcomp, hourst = self.zst, self.zbase, self.zcomp, self.hourst
        insts = {}
        for z in self.cur_zones[i]:
            zi = self.zidx[z]
            insts[z] = _ColInstance(
                is_running=bool(zst[zi, i] >= QUEUING),
                local_progress_s=float(zbase[zi, i] + zcomp[zi, i]),
                billing=_ColBilling(
                    is_open=not math.isnan(hourst[zi, i]),
                    hour_start=float(hourst[zi, i]),
                ),
            )
        return PolicyContext(
            now=float(self.t[i]), bid=float(self.bid_arr[i]),
            zones=self.cur_zones[i], oracle=self.oracle,
            config=self.configs[int(self.shape_arr[i])],
            run=_ColRun(float(self.committed[i]), float(self.deadline[i])),
            instances=insts,
        )

    def switch(self, i: int, dec) -> None:
        """The scalar engine's _apply_switch, on row ``i``'s columns."""
        zidx, zst = self.zidx, self.zst
        new_zones = tuple(dec.zones)
        for z in new_zones:
            if z not in zidx:
                raise EngineError(f"controller chose unknown zone {z!r}")
        kind = dec.policy.vector_kind
        if kind not in self.on:
            raise EngineError(
                f"controller installed policy kind {kind!r}, "
                f"outside {self.kinds}"
            )
        for z in set(self.cur_zones[i]) - set(new_zones):
            zi = zidx[z]
            if zst[zi, i] >= QUEUING:  # user_release, reason="user"
                self.release(i, zi, float(self.t[i]), "config-switch")
            elif zst[zi, i] == WAITING:
                zst[zi, i] = DOWN
        self.bid_arr[i] = float(dec.bid)
        self.bclass = None  # regroup at the next crossing search
        self.zact[:, i] = False
        for z in new_zones:
            self.zact[zidx[z], i] = True
        self.cur_zones[i] = new_zones
        self.pol_name[i] = dec.policy.name
        for k, rows_k in self.on.items():
            rows_k[i] = k == kind
        self.latch[:, i] = np.nan  # the fresh policy's reset()
        if kind == "markov-daly":
            self.md_schedule(np.array([i]))  # schedule on the new plan
        else:
            self.md_next[i] = np.nan
        if self.events is not None:
            self.log(i, self.t[i], "config-switch", None,
                     f"policy={dec.policy.name} B={dec.bid:.2f} "
                     f"N={len(new_zones)}")

    # -- the event sites, in tick order ------------------------------------

    def roll_billing(self) -> None:
        """Roll every billing hour whose boundary a live row's clock has
        reached: all of one zone's boundaries before the next zone's,
        matching the scalar per-instance while loop."""
        events, zorder = self.events, self.zorder
        for zi in range(self.Z):
            for idx, boundary, new_rate in self.roll_hours(
                zi, self.alive, self.t
            ):
                if events is not None:
                    self.emit(idx, boundary, "hour-rolled", zorder[zi],
                              [f"rate={float(r):.3f}" for r in new_rate])

    def market_transitions(self) -> None:
        """Algorithm 1 lines 2-8, in the given zone order like the
        scalar loop over ``active_zones``.  Leaves this tick's per-zone
        grid indices and prices in ``znow_i`` / ``znow_p``."""
        t, alive, zact, bid_arr = self.t, self.alive, self.zact, self.bid_arr
        lb, L, events, zorder = self.lb, self.L, self.events, self.zorder
        self.znow_i = znow_i = [
            _grid_index(t, self.zz0[zi], self.zlen[zi]) for zi in range(self.Z)
        ]
        self.znow_p = znow_p = [
            self.zprices[zi][znow_i[zi]] for zi in range(self.Z)
        ]
        for zi in self.walk:
            a = alive if zact is None else alive & zact[zi]
            if not a.any():
                continue
            pz = znow_p[zi]
            st = self.zst[zi]
            run_z = a & (st >= QUEUING)
            term = run_z & (pz > bid_arr)
            if term.any():
                ti = term.nonzero()[0]
                self.reset_zone(zi, ti)  # partial hour forfeited
                self.zterm[zi][ti] += 1
                if lb:  # release_on_commit.discard(zone)
                    self.rel_pending[ti] &= self.rel_zi[ti] != zi
                if events is not None:
                    self.emit(ti, t[ti], "provider-terminated", zorder[zi],
                              [f"S={float(p):.3f}" for p in pz[ti]])
            notrun = a & ~run_z  # terminated zones wait a tick
            start_ok = (
                (pz <= bid_arr) & (pz <= L) if lb else pz <= bid_arr
            )  # eligible_to_start: Large-bid gates on L
            to_wait = notrun & start_ok & (st == DOWN)
            if to_wait.any():
                wi = to_wait.nonzero()[0]
                st[wi] = WAITING
                if events is not None:
                    self.emit(wi, t[wi], "waiting", zorder[zi],
                              [f"S={float(p):.3f}" for p in pz[wi]])
            to_down = notrun & ~start_ok & (st == WAITING)
            st[to_down] = DOWN

    def deadline_guard(self) -> None:
        """Algorithm 1 line 11 in exact scalar arithmetic: force a
        commit of the leader's progress while the margin still allows
        it, and switch rows whose margin is gone to on-demand."""
        t, alive, C, tc, tr = self.t, self.alive, self.C, self.tc, self.tr
        _, loc, lead_zi, lead_local, fresh, has_comp, any_ck = self.leader()
        guard_prog = self.guard_progress(has_comp, lead_local)
        trigger = (np.maximum(C - guard_prog, 0.0) + tc) + tr
        remaining_time = self.deadline - t
        margin = remaining_time - trigger
        safe = margin > _DT + 1e-6
        force = (
            alive & safe & (margin <= tc + 3.0 * _DT)
            & ~any_ck & has_comp & fresh
        )
        if force.any():
            fi = force.nonzero()[0]
            self.start_checkpoints(fi, lead_zi[fi], lead_local, "forced ")
        migrate = alive & ~safe
        if migrate.any():
            self._migrate(migrate, loc, remaining_time)

    def _migrate(self, migrate, loc, remaining_time) -> None:
        """The guard's on-demand switch for rows ``migrate``: finish on
        demand from the cheapest resumable progress."""
        t, committed, zst = self.t, self.committed, self.zst
        C, tc, tr = self.C, self.tc, self.tr
        pendc, phase = self.pendc, self.phase
        # candidate 0: restore the committed checkpoint; then one
        # candidate per zone block in order, taken on a strictly
        # better key (min()'s first-wins ties)
        best_prog = committed.copy()
        best_pre = np.zeros(self.n)
        best_key = np.maximum(C - committed, 0.0) + np.where(
            committed > 0, tr, 0.0
        )
        for zi in range(self.Z):
            for state, prog, pre in (
                (COMPUTING, loc[zi], tc), (CHECKPOINTING, pendc[zi], phase[zi])
            ):
                key = (np.maximum(C - prog, 0.0) + pre) + np.where(
                    prog > 0, tr, 0.0
                )
                use = migrate & (zst[zi] == state) & (key < best_key)
                best_prog[use] = prog[use]
                best_pre[use] = pre[use]
                best_key[use] = key[use]
        restore = np.where(best_prog > 0, tr, 0.0)
        overhead = best_pre + restore
        rem_comp = np.maximum(C - best_prog, 0.0)
        mi = migrate.nonzero()[0]
        if self.events is not None:
            self.emit(mi, t[mi], "ondemand-switch", None,
                      [f"C_r={float(c):.0f}s T_r={float(r):.0f}s"
                       for c, r in zip(rem_comp[mi], remaining_time[mi])])
        od_sec = restore + rem_comp
        self.od_cost[mi] = np.where(
            od_sec[mi] > 0,
            np.ceil(od_sec[mi] / 3600.0) * ON_DEMAND_PRICE,
            0.0,
        )
        self.switch_t[mi] = t[mi]
        self.retire(migrate, t, (t + overhead) + rem_comp, 2)

    def controller_epoch(self) -> None:
        """The controller's decision-epoch hook (between the guard and
        policy actions, like the scalar tick): rules 1-3, evaluated
        column-wise; only triggered rows pay a Python decide_at_epoch
        call."""
        t, zst, hourst = self.t, self.zst, self.hourst
        run_act = self.zact & (zst >= QUEUING)
        at_bound = (run_act & (np.abs(hourst - t) < 1e-6)).any(axis=0)
        trig = self.alive & (
            ~run_act.any(axis=0) | at_bound
            | ((t - self.last_eval) >= self.reeval)
        )
        for i in trig.nonzero()[0]:
            dec = self.controllers[i].decide_at_epoch(self.make_ctx(i))
            self.last_eval[i] = t[i]
            if dec is not None:
                self.switch(i, dec)

    def policy_actions(self) -> np.ndarray:
        """Algorithm 1 lines 16-35, per row on its installed kind: the
        join commit, then each kind's checkpoint_due.  Returns which
        rows have a waiting zone."""
        t, alive, committed, tc = self.t, self.alive, self.committed, self.tc
        zst, on, lb, md, n = self.zst, self.on, self.lb, self.md, self.n
        _, _, lead_zi, lead_local, fresh, has_leader, any_ck = self.leader()
        waiting_any = (zst == WAITING).any(axis=0)
        running_cnt = (zst >= QUEUING).sum(axis=0)
        join_due = (
            waiting_any & (running_cnt < 2) & has_leader
            & (lead_local >= committed + tc)
        )
        start_ck = alive & has_leader & ~any_ck
        elig = start_ck & ~join_due  # checkpoint_due evaluated here
        due = np.zeros(n, dtype=bool)
        if "periodic" in on or lb:
            # one checkpoint per latched (zone, billing hour), at most
            # t_c before the leader's hour ends; Large-bid's release
            # checkpoint also needs S > L on the leader
            rows = self.rows
            lhour = self.hourst[lead_zi, rows]
            left = np.maximum((lhour + 3600.0) - t, 0.0)
            hourly = on["large-bid" if lb else "periodic"] & elig
            hourly &= left <= tc + 1e-6
            hourly &= self.latch[lead_zi, rows] != lhour  # NaN: not latched
            hourly &= fresh
            if lb:
                hourly &= np.stack(self.znow_p, axis=0)[lead_zi, rows] > self.L
            di = hourly.nonzero()[0]
            self.latch[lead_zi[di], di] = lhour[di]
            due |= hourly
        if "edge" in on:
            rising_any = np.zeros(n, dtype=bool)
            for zi in range(self.Z):
                rising_any |= (zst[zi] == COMPUTING) & self.zrising[zi][
                    self.znow_i[zi]
                ]
            due |= on["edge"] & elig & fresh & rising_any
        if md is not None:
            timed = md & elig & (t + 1e-6 >= self.md_next)
            noprog = timed & ~fresh
            # push instead of a no-progress commit
            self.md_schedule(noprog.nonzero()[0])
            due |= timed & ~noprog
        if "threshold" in on:
            bid_arr, znow_i = self.bid_arr, self.znow_i
            for i in (on["threshold"] & elig & fresh).nonzero()[0]:
                now, bid_i = float(t[i]), float(bid_arr[i])
                if any(
                    self.threshold_fires(i, zi, now, bid_i, int(znow_i[zi][i]))[0]
                    for zi in range(self.Z) if zst[zi, i] == COMPUTING
                ):
                    due[i] = True
        # "never" declares nothing due
        fire = (start_ck & join_due) | due
        if fire.any():
            fi = fire.nonzero()[0]
            self.start_checkpoints(fi, lead_zi[fi], lead_local, "")
            if lb:  # release_after_checkpoint is always True
                self.rel_pending[fi] = True
                self.rel_zi[fi] = lead_zi[fi]
        return waiting_any

    def restarts(self, waiting_any: np.ndarray) -> None:
        """Waiting-zone restarts: every waiting zone of a run starts
        when nothing is running or a checkpoint just committed, drawing
        queue delays zone by zone in block order."""
        t, zst, committed, ckpt_flag = self.t, self.zst, self.committed, self.ckpt_flag
        any_running = (zst >= QUEUING).any(axis=0)
        go = self.alive & waiting_any & (~any_running | ckpt_flag)
        events, zorder = self.events, self.zorder
        for i in go.nonzero()[0]:
            source = "recent" if ckpt_flag[i] else "previous"
            com = float(committed[i])
            for zi in range(self.Z):
                if zst[zi, i] != WAITING:
                    continue
                self.reset_zone(
                    zi, i, QUEUING, self.queue_model.sample(self.rngs[i]),
                    float(self.tr[i]) if com > 0 else 0.0, com, t[i],
                    self.znow_p[zi][i],
                )
                self.draws[i] += 1
                self.zrest[zi, i] += 1
                if events is not None:
                    self.log(i, t[i], "restarted", zorder[zi],
                             f"from-{source}-ckpt P={com:.0f}s")
        if self.md is not None:  # one reschedule after each row's restarts
            self.md_schedule((go & self.md).nonzero()[0])
        ckpt_flag &= ~self.alive  # cleared every tick by _policy_actions

    def advance(self) -> np.ndarray:
        """instance.advance by one tick for every running zone: one
        masked sweep per state in QUEUING -> RESTARTING ->
        CHECKPOINTING -> COMPUTING order replays each intra-tick
        cascade of the scalar while loop; then commits, completions
        and the clock step.  Returns the rows that committed."""
        t, alive, zst, C, n = self.t, self.alive, self.zst, self.C, self.n
        phase, csince, zbase, zcomp = self.phase, self.csince, self.zbase, self.zcomp
        events = self.events
        dt = _DT
        fin_off = np.full((self.Z, n), np.nan)
        commit_val = np.full(n, -1.0)
        commit_zi = np.zeros(n, dtype=np.int64)
        has_commit = np.zeros(n, dtype=bool)
        for zi in range(self.Z):
            st, ph, cs = zst[zi], phase[zi], csince[zi]
            run_z = alive & (st >= QUEUING)
            remaining = np.where(run_z, dt, 0.0)

            m = run_z & (st == QUEUING)
            if m.any():
                done = _countdown(ph, m, remaining)
                st[done] = RESTARTING
                ph[done] = self.pendr[zi][done]
                # a fresh start owes no restore
                _enter_computing(st, cs, done & (ph <= 1e-9), t, remaining)

            m = run_z & (st == RESTARTING) & (remaining > 1e-9)
            if m.any():
                _enter_computing(st, cs, _countdown(ph, m, remaining), t, remaining)

            m = run_z & (st == CHECKPOINTING) & (remaining > 1e-9)
            if m.any():
                done = _countdown(ph, m, remaining)
                di = done.nonzero()[0]
                commit_val[di] = self.pendc[zi][di]
                commit_zi[di] = zi
                has_commit[di] = True
                _enter_computing(st, cs, done, t, remaining)

            m = run_z & (st == COMPUTING) & (remaining > 1e-9)
            if m.any():
                need = C - (zbase[zi] + zcomp[zi])
                done_pre = m & (need <= 1e-9)
                fin_off[zi][done_pre] = dt - remaining[done_pre]
                mm = m & ~done_pre
                used = np.minimum(need, remaining)
                zcomp[zi][mm] += used[mm]
                remaining[mm] -= used[mm]
                need = C - (zbase[zi] + zcomp[zi])
                done_post = mm & (need <= 1e-9)
                fin_off[zi][done_post] = dt - remaining[done_post]

        ci = has_commit.nonzero()[0]  # at most one ckpt per run
        if ci.size:
            self.committed[ci] = commit_val[ci]
            self.ncomm[ci] += 1
            self.ckpt_flag[ci] = True
            if events is not None:
                for i in ci:
                    self.log(i, t[i] + dt, "checkpoint-committed",
                             self.zorder[commit_zi[i]], f"P={commit_val[i]:.0f}s")
            if self.lb:
                # Large-bid's manual termination: user_release the zone
                # whose checkpoint just committed, at t + dt (the zone
                # computed the tick's remainder first, exactly like the
                # scalar advance loop)
                rel_pending = self.rel_pending
                for i in ci[rel_pending[ci]]:
                    self.release(i, int(commit_zi[i]), float(t[i] + dt),
                                 "cost-control")
                    rel_pending[i] = False

        fin = np.fmin.reduce(t[None, :] + fin_off, axis=0)
        done_r = alive & ~np.isnan(fin)
        if done_r.any():
            if events is not None:
                di = done_r.nonzero()[0]
                self.emit(di, fin[di], "completed", None,
                          ["on spot"] * di.size)
            self.retire(done_r, fin, fin, 1)
        t[alive] += dt
        return ci

    def rearm(self, ci: np.ndarray) -> None:
        """Line 23, the Markov-Daly re-arm after a commit, run eagerly:
        the next tick would read this same clock, progress, plan and
        bid (a controller's switch re-arms on its own)."""
        if self.md is not None and ci.size:
            self.md_schedule(ci[self.alive[ci] & self.md[ci]])

    def quiescence(self):
        """The vectorized ``_quiescent_ticks``: how many event-free
        ticks each live row may skip.  Returns ``(skip counts, computing
        mask, transient mask)`` for :meth:`bulk_skip`."""
        t, alive, zst, committed = self.t, self.alive, self.zst, self.committed
        C, tc, tr, ckpt_flag = self.C, self.tc, self.tr, self.ckpt_flag
        comp_mask, _, _, max_local, fresh, computing_any, ck_any = self.leader()
        trans_mask = (zst == QUEUING) | (zst == RESTARTING)
        wait_mask = zst == WAITING
        waiting_any = wait_mask.any(axis=0)
        running_cnt = (comp_mask | trans_mask).sum(axis=0)

        # a checkpoint commits next tick; a commit's restart is not a
        # no-op (Markov-Daly's post-commit re-arm already ran)
        zero = ck_any.copy()
        zero |= ckpt_flag & waiting_any
        dropc = ckpt_flag & ~waiting_any
        zero |= (running_cnt == 0) & waiting_any  # restarts fire now
        kq = self._market_bound(zero, comp_mask, trans_mask, wait_mask)

        # deadline guard: margin shrinks at most one tick per tick
        guard_q = self.guard_progress(computing_any, max_local)
        marginq = (
            (((self.deadline - t) - np.maximum(C - guard_q, 0.0)) - tc) - tr
        )
        kq = np.minimum(
            kq, np.floor(((marginq - tc) - 3.0 * _DT) / _DT) - 1.0
        )
        # completion / join-commit progress thresholds
        kq = _tighten(kq, computing_any, np.floor((C - max_local) / _DT) - 2.0)
        kq = _tighten(
            kq, computing_any & waiting_any & (running_cnt < 2),
            np.floor(((committed + tc) - max_local) / _DT) - 1.0,
        )
        horizon = self._policy_horizon(comp_mask)
        if "threshold" in self.on:
            self._threshold_horizon(
                horizon, self.on["threshold"] & alive & ~zero
                & computing_any & (kq > 0.0), fresh,
            )
        kq = _tighten(
            kq, computing_any & np.isfinite(horizon),
            np.ceil(((horizon - t) - 1e-6) / _DT),
        )
        if self.ctrl:
            kq = self._controller_bound(zero, kq, running_cnt,
                                        comp_mask | trans_mask)

        ks = np.where(alive & ~zero, kq, 0.0)
        ki = np.maximum(ks, 0.0).astype(np.int64)
        # the post-commit tick's only remaining effect would be
        # dropping the flag: do it on the way into the skip
        ckpt_flag &= ~(dropc & (ki > 0))
        return ki, comp_mask, trans_mask

    def _market_bound(self, zero, comp_mask, trans_mask, wait_mask):
        """Ticks until each row's next market transition or countdown
        expiry; sets ``zero`` where one is due now.  Availability
        crossings use the first given zone's shared grid index like the
        scalar scan."""
        t, alive, zact, bid_arr = self.t, self.alive, self.zact, self.bid_arr
        lb, L, zst, phase = self.lb, self.L, self.zst, self.phase
        i2 = _grid_index(t, self.ref_z0, self.ref_len)
        kq = np.full(self.n, float(1 << 30))
        theta_dn = np.minimum(bid_arr, L) if lb else bid_arr
        for zi in range(self.Z):
            a = alive if zact is None else alive & zact[zi]
            if not a.any():
                continue
            pz = self.zprices[zi][np.minimum(i2, self.zlen[zi] - 1)]
            run_z = comp_mask[zi] | trans_mask[zi]
            zero |= run_z & (pz > bid_arr)  # termination due
            off = a & ~run_z & (zst[zi] != CHECKPOINTING)
            # a non-running zone flips at min(bid, start threshold)
            zero |= off & ((pz <= theta_dn) != wait_mask[zi])
            nc = self.next_crossings(zi, i2)
            if lb and math.isfinite(L):
                # a non-running zone flips at min(bid, L)
                nc = np.where(
                    zst[zi] >= QUEUING, nc, self.next_crossings(zi, i2, L)
                )
            near = np.minimum(kq, (nc - i2).astype(np.float64))
            kq = near if zact is None else np.where(zact[zi], near, kq)
            # queue / restore countdowns: stop before one runs out
            nstep = np.floor_divide(phase[zi] - 1e-6, _DT)
            zero |= trans_mask[zi] & (nstep < 1.0)
            kq = _tighten(kq, trans_mask[zi], nstep)
        return kq

    def _policy_horizon(self, comp_mask) -> np.ndarray:
        """Each row's installed policy's own schedule
        (fast_forward_until) for the fixed-schedule kinds, evaluated
        only where something is computing, like the scalar path;
        ``inf`` where the kind sets no bound."""
        t, on, hourst, latch, tc = self.t, self.on, self.hourst, self.latch, self.tc
        n, L = self.n, self.L
        horizon = np.full(n, np.inf)
        if "periodic" in on:
            due_at = np.where(
                comp_mask & ~np.isnan(hourst),
                np.where(
                    latch == hourst,
                    ((hourst + 3600.0) - tc) + 3600.0,
                    (hourst + 3600.0) - tc,
                ),
                np.inf,
            )
            horizon = np.where(on["periodic"], due_at.min(axis=0), horizon)
        if self.lb and math.isfinite(L):
            # fast_forward_until: per computing zone, the later of "S
            # first exceeds L" and "<= t_c left in the hour"; a latched
            # hour cannot re-fire before it rolls.  Naive (L = inf)
            # never checkpoints: horizon stays inf.
            for zi in range(self.Z):
                cm = on["large-bid"] & comp_mask[zi] & ~np.isnan(hourst[zi])
                if not cm.any():
                    continue
                z0 = self.zz0[zi]
                hour_end = np.where(cm, hourst[zi] + 3600.0, np.inf)
                iz = _grid_index(t, z0, self.zlen[zi])
                nxt = _next_mark(self.crossings(zi, L), iz)
                over_at = np.where(self.zprices[zi][iz] > L, t, z0 + nxt * _DT)
                cand = np.where(
                    latch[zi] == hourst[zi],
                    hour_end,
                    np.maximum(over_at, hour_end - tc),
                )
                horizon = _tighten(horizon, cm, cand)
        if "edge" in on:
            now_edge = np.zeros(n, dtype=bool)
            for zi in range(self.Z):
                cm = on["edge"] & comp_mask[zi]
                iz = _grid_index(t, self.zz0[zi], self.zlen[zi])
                now_edge |= cm & self.zrising[zi][iz]
                cand = self.zz0[zi] + _next_mark(self.edges[zi], iz) * _DT
                horizon = _tighten(horizon, cm, cand)
            horizon = np.where(now_edge, t, horizon)
        if self.md is not None:
            horizon = np.where(self.md, self.md_next - 1e-6, horizon)
        return horizon

    def _threshold_horizon(self, horizon, rows, fresh) -> None:
        """ThresholdPolicy.fast_forward_until for ``rows``, into
        ``horizon``: now where a guard fires, else the earliest of each
        computing zone's next rising edge and time-threshold expiry."""
        t, zst, bid_arr = self.t, self.zst, self.bid_arr
        for i in rows.nonzero()[0]:
            now = float(t[i])
            if not fresh[i]:
                horizon[i] = now  # no uncommitted progress
                continue
            bid_i = float(bid_arr[i])
            bound = math.inf
            for zi in range(self.Z):
                if zst[zi, i] != COMPUTING:
                    continue
                z0 = self.zz0[zi]
                iz = int((now - z0) // _DT)
                fired, time_thresh = self.threshold_fires(i, zi, now, bid_i, iz)
                if fired:
                    bound = now
                    break
                edge_t = z0 + int(_next_mark(self.edges[zi], iz)) * _DT
                cs = self.csince[zi, i]
                bound = min(bound, edge_t if math.isnan(cs) else time_guard_bound(
                    self.oracle, self.zorder[zi], now, bid_i, float(cs),
                    time_thresh, edge_t,
                ))
            horizon[i] = bound

    def _controller_bound(self, zero, kq, running_cnt, run_mask):
        """Controller hazards: with nothing running the controller
        evaluates every tick (rule 1); before the first decision
        next_decision_time is None (no skip at all); afterwards the
        rule-3 timer bounds, and every computing/transient zone's hour
        boundary is a rule-2 decision point."""
        t, hourst, last_eval = self.t, self.hourst, self.last_eval
        zero |= running_cnt == 0
        zero |= np.isinf(last_eval)
        kq = np.minimum(
            kq, np.ceil((((last_eval + self.reeval) - t) - 1e-6) / _DT)
        )
        for zi in range(self.Z):
            m = run_mask[zi]
            if not m.any():
                continue
            steps = np.rint(((hourst[zi] + 3600.0) - t) / _DT)
            kq = _tighten(kq, m, steps)
        return kq

    def bulk_skip(self, ki, comp_mask, trans_mask) -> None:
        """Apply each row's ``ki`` skipped ticks in bulk: billing rolls
        at their exact boundaries (events re-merged into the per-tick
        loop's (tick, zone block) order), progress and countdowns
        accrued with :func:`_accrue`."""
        t, events, zorder = self.t, self.events, self.zorder
        skip = self.alive & (ki > 0)
        if not skip.any():
            return
        kf = ki.astype(np.float64)
        accr_z = comp_mask | trans_mask
        accr = skip & accr_z.any(axis=0)
        if accr.any():
            # the clock of each accruing row's last skipped tick: closed
            # form on integral clocks, the per-tick sums on fractional
            # ones (fractional starts), which also place each roll
            last = t + (kf - 1.0) * _DT
            clocks = {}
            for i in (accr & (t != np.floor(t))).nonzero()[0]:
                clocks[i] = _repeated_sums(float(t[i]), _DT, int(ki[i]))
                last[i] = clocks[i][-2]
            entries_by_run: dict[int, list] = {}
            for zi in range(self.Z):
                for idx, boundary, new_rate in self.roll_hours(
                    zi, accr & accr_z[zi], last
                ):
                    if events is None:
                        continue
                    for j, i in enumerate(idx):
                        b = float(boundary[j])
                        if i in clocks:  # the first tick that reached b
                            tick = next(
                                m for m, c in enumerate(clocks[i])
                                if b <= c + 1e-6
                            )
                        else:
                            tick = max(int(math.ceil(
                                (b - float(t[i]) - 1e-6) / _DT
                            )), 0)
                        entries_by_run.setdefault(int(i), []).append((
                            tick, zi, b, zorder[zi],
                            f"rate={float(new_rate[j]):.3f}",
                        ))
                _accrue(self.zcomp[zi], accr & comp_mask[zi], kf, _DT)
                _accrue(self.phase[zi], accr & trans_mask[zi], kf, -_DT)
            for i, ent in entries_by_run.items():
                # re-merge into the per-tick loop's emission order
                ent.sort(key=lambda e: (e[0], e[1]))
                for _, _, boundary_f, zname, detail in ent:
                    self.log(i, boundary_f, "hour-rolled", zname, detail)
        _accrue(t, skip, kf, _DT)

    def finalize(self) -> tuple[list[RunResult], np.ndarray]:
        """Per-run RunResults in scalar summation order, and each row's
        RNG draw count."""
        n, events = self.n, self.events
        spot_tot = np.zeros(n)
        for zi in range(self.Z):
            spot_tot = spot_tot + self.zspot[zi]
        hours_tot = self.zhours.sum(axis=0)
        rest_tot = self.zrest.sum(axis=0)
        term_tot = self.zterm.sum(axis=0)
        switch_t = self.switch_t
        return [
            RunResult(
                policy_name=self.pol_name[j],
                bid=float(self.bid_arr[j]),
                zones=self.cur_zones[j],
                start_time=float(self.start_arr[j]),
                finish_time=float(self.finish[j]),
                deadline=float(self.deadline[j]),
                completed_on=(
                    "spot" if self.completed_on[j] == 1 else "ondemand"
                ),
                spot_cost=float(spot_tot[j]),
                ondemand_cost=float(self.od_cost[j]),
                num_checkpoints=int(self.ncomm[j]),
                num_restarts=int(rest_tot[j]),
                num_provider_terminations=int(term_tot[j]),
                ondemand_switch_time=(
                    None if math.isnan(switch_t[j]) else float(switch_t[j])
                ),
                spot_hours_charged=int(hours_tot[j]),
                events=tuple(events[j]) if events is not None else (),
            )
            for j in range(n)
        ], self.draws

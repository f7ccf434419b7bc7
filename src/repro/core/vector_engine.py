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
``min``-tie-breaking, the repeated-addition accrual for fractional
accumulators), every RNG draw comes from the same per-run
``numpy.random.Generator`` in the same sequence, and the event log —
when recorded — matches entry for entry.  The differential suite
(:func:`repro.audit.differential.vector_differential_cube`) holds the
engine to it.

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

import numpy as np

from repro.core.engine import EngineError, Event, RunResult, SpotSimulator
from repro.market.constants import ON_DEMAND_PRICE, SAMPLE_INTERVAL_S
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle
from repro.stats.daly import daly_interval

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
                for _ in range(entry.rng_draws):
                    self.queue_model.sample(rngs[i])
                results[i] = entry.result
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
        installed, at its own bid, over ``zones``.  The installed policy
        kind is a per-row column (one row mask per kind the batch may
        hold): fixed per row for a policy-axis batch, switched per row
        under a controller.  Large-bid's control threshold is read from
        the batch's large-bid policy, which must be its only one.  With
        ``controller_factory`` every row is driven by its own
        :class:`~repro.core.adaptive.AdaptiveController`, whose plan —
        bid, active-zone mask, policy kind, re-evaluation clock — lives
        in columns too, so one pass serves rows whose controllers have
        diverged onto different plans.  Decision epochs (rules 1–3 of
        :meth:`AdaptiveController.decision_due`) are detected
        column-wise; only triggered rows pay a Python
        :meth:`AdaptiveController.decide_at_epoch` call on its own
        controller against a column-snapshot context carrying the row's
        own :class:`ExperimentConfig`.
        """
        oracle = self.oracle
        dt = float(SAMPLE_INTERVAL_S)
        n = len(starts)
        zones = tuple(zones)
        ctrl = controller_factory is not None

        # Zone geometry: state blocks are laid out in *oracle* zone
        # order (the scalar engine's ``instances`` dict order), while
        # market transitions walk the *given* zone order — both orders
        # matter for bit-exact event streams and RNG draw sequences.
        # A fixed policy only ever occupies the cell's zones.  Under a
        # controller the scalar engine creates an instance for every
        # oracle zone up front (the controller may switch onto any of
        # them), so the blocks cover the full trace and a per-row mask
        # marks the active ones; the controller only picks oracle-order
        # zone subsequences (itertools.combinations over
        # oracle.zone_names), so block order is every row's active order.
        zorder = tuple(z for z in oracle.zone_names if ctrl or z in zones)
        Z = len(zorder)
        zidx = {z: zi for zi, z in enumerate(zorder)}
        walk = range(Z) if ctrl else [zidx[z] for z in zones]
        ztr = [oracle.trace.zone(z) for z in zorder]
        zprices = [zt.prices for zt in ztr]
        zz0 = [float(zt.start_time) for zt in ztr]
        zlen = [len(zt.prices) for zt in ztr]
        # the scalar quiescence scan indexes every zone's prices with
        # the *first given* zone's grid index — replicated verbatim
        ref = oracle.trace.zone(zones[0])
        ref_z0 = float(ref.start_time)
        ref_len = len(ref.prices)

        start_arr = np.asarray(starts, dtype=np.float64)
        bid_arr = np.asarray(bids, dtype=np.float64)
        shape_arr = np.asarray(shape_idx, dtype=np.int64)
        dls = np.asarray(
            [cfg.deadline_s for cfg in configs], dtype=np.float64
        )
        deadline = start_arr + dls[shape_arr]
        end_time = float(oracle.trace.end_time)
        if np.any(deadline > end_time):
            bad = float(deadline[deadline > end_time][0])
            raise EngineError(
                f"trace ends at {end_time}, before the deadline {bad}"
            )
        # per-row shape columns (see the docstring)
        C = np.asarray(
            [cfg.compute_s for cfg in configs], dtype=np.float64
        )[shape_arr]
        tc = np.asarray(
            [cfg.ckpt_cost_s for cfg in configs], dtype=np.float64
        )[shape_arr]
        tr = np.asarray(
            [cfg.restart_cost_s for cfg in configs], dtype=np.float64
        )[shape_arr]

        # the installed policy kind: one row mask per kind this batch
        # may hold, updated in place when a controller re-plans
        row_kind = np.asarray(
            [policies[p].vector_kind for p in policy_idx], dtype=object
        )
        kinds = CONTROLLER_KINDS if ctrl else tuple(
            dict.fromkeys(row_kind.tolist())
        )
        on = {k: row_kind == k for k in kinds}
        md = on.get("markov-daly")
        # Large-bid: the control threshold L gates re-acquisition and
        # the hour-end release checkpoint; non-running zones flip on
        # crossings of min(bid, L) (start_price_threshold), and the
        # fast-forward bound tracks crossings of L itself.
        lb = "large-bid" in on
        L = (
            float(policies[policy_idx[0]].control_threshold) if lb
            else math.inf
        )
        if "edge" in on or "threshold" in on:
            zedges = [zt.rising_edges() for zt in ztr]
            zedges_ext = [
                np.concatenate([zedges[zi], [zlen[zi]]]) for zi in range(Z)
            ]
            zrising = []
            for zi in range(Z):
                mask = np.zeros(zlen[zi], dtype=bool)
                mask[zedges[zi]] = True
                zrising.append(mask)

        # crossing arrays per (zone block, threshold), fetched lazily
        # and memoized on the ZoneTrace, so repeats are shared across
        # batches too; the fused bid axis groups rows into bid classes
        # for the quiescence bound, regrouped whenever a controller
        # re-plans a bid
        cross_cache: dict = {}

        def crossings(zi: int, b: float):
            got = cross_cache.get((zi, b))
            if got is None:
                cr = ztr[zi].threshold_crossings(b)
                got = (cr, np.concatenate([cr, [zlen[zi]]]))
                cross_cache[(zi, b)] = got
            return got

        def bid_classes():
            ubids, bclass = np.unique(bid_arr, return_inverse=True)
            return [
                (float(ub), np.flatnonzero(bclass == b))
                for b, ub in enumerate(ubids)
            ]

        classes = bid_classes()

        # struct-of-arrays run state: per-run columns, per-zone blocks
        t = start_arr.copy()
        alive = np.ones(n, dtype=bool)
        zst = np.full((Z, n), DOWN, dtype=np.int8)
        phase = np.zeros((Z, n))     # remaining seconds of timed activity
        pendr = np.zeros((Z, n))     # restore time owed after QUEUING
        zbase = np.zeros((Z, n))     # committed progress restarted from
        zcomp = np.zeros((Z, n))     # compute seconds since the restart
        pendc = np.zeros((Z, n))     # progress snapshotted by in-flight ckpt
        csince = np.full((Z, n), np.nan)  # COMPUTING entry timestamp
        hourst = np.full((Z, n), np.nan)  # NaN = no billing hour open
        zrate = np.zeros((Z, n))
        zspot = np.zeros((Z, n))
        zhours = np.zeros((Z, n), dtype=np.int64)
        zrest = np.zeros((Z, n), dtype=np.int64)
        zterm = np.zeros((Z, n), dtype=np.int64)
        latch = np.full((Z, n), np.nan)  # per-(zone, hour) checkpoint latch
        committed = np.zeros(n)          # checkpoint store
        ncomm = np.zeros(n, dtype=np.int64)
        ckpt_flag = np.zeros(n, dtype=bool)  # checkpoint_just_committed
        finish = np.full(n, np.nan)
        od_cost = np.zeros(n)
        switch_t = np.full(n, np.nan)
        completed_on = np.zeros(n, dtype=np.int8)  # 1 = spot, 2 = ondemand
        draws = np.zeros(n, dtype=np.int64)
        md_next = np.full(n, np.nan)  # markov-daly re-arm clocks
        # large-bid deferred manual termination (release_on_commit):
        # at most one checkpoint is in flight per run, so a pending
        # release is one (flag, zone block) pair per run
        rel_pending = np.zeros(n, dtype=bool)
        rel_zi = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        events: list[list[Event]] | None = (
            [[] for _ in range(n)] if self.record_events else None
        )
        # the plan each row reports: its policy name and zone tuple
        pol_name = [policies[p].name for p in policy_idx]
        cur_zones: list[tuple[str, ...]] = [zones] * n

        # a controller's plan beyond bid and kind: the active-zone mask
        # and the rule-3 re-evaluation clock
        zact = None
        if ctrl:
            from repro.core.policy import PolicyContext

            zact = np.zeros((Z, n), dtype=bool)
            for z in zones:
                zact[zidx[z]] = True
            last_eval = np.full(n, -np.inf)
            controllers = [controller_factory() for _ in range(n)]
            reeval = np.array(
                [float(c.reevaluate_every_s) for c in controllers]
            )
            boot = PolicyContext(
                now=0.0, bid=float(bid_arr[0]), zones=zones, oracle=oracle,
                config=configs[0], run=None, instances={},
            )
            for c in controllers:
                c.reset(boot)  # reads only the oracle's zone list

        def emit(idx_arr, times, ekind, ezone, details):
            for j, i in enumerate(idx_arr):
                events[i].append(Event(
                    time=float(times[j]), kind=ekind, zone=ezone,
                    detail=details[j],
                ))

        def roll_hours(zi, mask, upto):
            """Roll zone block ``zi``'s billing hours whose boundary is
            reached by ``upto`` for ``mask`` rows, one boundary per row
            per pass; yields each pass's (rows, boundaries, new rates)."""
            while True:
                idx = np.flatnonzero(
                    mask & (hourst[zi] + 3600.0 <= upto + 1e-6)
                )
                if idx.size == 0:
                    return
                boundary = hourst[zi][idx] + 3600.0
                zspot[zi][idx] += zrate[zi][idx]
                zhours[zi][idx] += 1
                new_rate = zprices[zi][
                    ((boundary - zz0[zi]) // dt).astype(np.int64)
                ]
                zrate[zi][idx] = new_rate
                hourst[zi][idx] = boundary
                yield idx, boundary, new_rate

        def close(zi, idx, end):
            """user_close of zone block ``zi`` for rows ``idx`` at
            ``end``: the open hour is charged unless < 1 s was used."""
            used = end - hourst[zi, idx]
            if np.any(used > 3600.0 + 1e-6):  # pragma: no cover
                raise EngineError("open billing hour overran its boundary")
            charge = idx[used >= 1.0]
            zspot[zi, charge] += zrate[zi, charge]
            zhours[zi, charge] += 1
            hourst[zi, idx] = np.nan
            zrate[zi, idx] = 0.0

        def drop(zi, idx):
            """Zone block ``zi`` of rows ``idx`` goes DOWN, state reset
            (its open hour is forfeited unless closed first)."""
            hourst[zi, idx] = np.nan
            zrate[zi, idx] = 0.0
            phase[zi, idx] = 0.0
            pendr[zi, idx] = 0.0
            zbase[zi, idx] = 0.0
            zcomp[zi, idx] = 0.0
            pendc[zi, idx] = 0.0
            csince[zi, idx] = np.nan
            zst[zi, idx] = DOWN

        def release(i, zi, end, detail):
            """user_release of row ``i``'s zone block ``zi`` at ``end``."""
            close(zi, np.array([i]), end)
            drop(zi, i)
            if events is not None:
                events[i].append(Event(
                    time=end, kind="user-released", zone=zorder[zi],
                    detail=detail,
                ))

        def start_checkpoints(fi, lz, prog, prefix):
            """Rows ``fi`` start checkpointing ``prog`` on blocks ``lz``."""
            pendc[lz, fi] = prog[fi]
            zst[lz, fi] = CHECKPOINTING
            phase[lz, fi] = tc[fi]
            if events is not None:
                for j, i in enumerate(fi):
                    events[i].append(Event(
                        time=float(t[i]), kind="checkpoint-started",
                        zone=zorder[lz[j]], detail=f"{prefix}P={prog[i]:.0f}s",
                    ))

        # combined expected uptimes are memoized here: the oracle's
        # level-conditioned models make the value a pure function of
        # (zone set, stats bucket, per-zone price levels, bid), and
        # staggered runs revisit the same key constantly
        upt_memo: dict = {}

        def md_schedule(idx: np.ndarray) -> None:
            """MarkovDalyPolicy.schedule_next_checkpoint for rows ``idx``
            in Python floats — identical arithmetic, identical oracle
            values — against each row's own job shape and current plan.
            Price levels come from the engine's own price columns (the
            sample ``oracle.price`` returns).  Per-row floats, not array
            ops: call sites hold one or two rows under a controller,
            where NumPy's per-call overhead outweighs the arithmetic."""
            for i in idx.tolist():
                now = float(t[i])
                zones_i = cur_zones[i]
                bid_i = float(bid_arr[i])
                key = (
                    zones_i, bid_i, oracle.stats_bucket(now),
                    tuple(
                        float(zprices[zidx[z]][int((now - zz0[zidx[z]]) // dt)])
                        for z in zones_i
                    ),
                )
                uptime = upt_memo.get(key)
                if uptime is None:
                    uptime = upt_memo[key] = float(
                        oracle.combined_uptimes(zones_i, now, (bid_i,))[0]
                    )
                tc_i = float(tc[i])
                interval = daly_interval(uptime, tc_i)
                remaining_compute = max(
                    float(C[i]) - float(committed[i]), 0.0
                )
                margin = (
                    max(float(deadline[i]) - now, 0.0)
                    - remaining_compute
                    - tc_i
                    - float(tr[i])
                )
                reserve = tc_i + 4.0 * 300.0  # forced-commit window + ticks
                budget = margin - reserve
                if budget > 0:
                    interval = max(interval, remaining_compute * tc_i / budget)
                    interval = min(interval, max(budget, tc_i))
                else:
                    interval = max(margin, tc_i)
                md_next[i] = now + interval

        def make_ctx(i: int):
            """A decision context over column snapshots of row ``i``."""
            insts = {}
            for z in cur_zones[i]:
                zi = zidx[z]
                insts[z] = _ColInstance(
                    is_running=bool(zst[zi, i] >= QUEUING),
                    local_progress_s=float(zbase[zi, i] + zcomp[zi, i]),
                    billing=_ColBilling(
                        is_open=not math.isnan(hourst[zi, i]),
                        hour_start=float(hourst[zi, i]),
                    ),
                )
            return PolicyContext(
                now=float(t[i]), bid=float(bid_arr[i]),
                zones=cur_zones[i], oracle=oracle,
                config=configs[int(shape_arr[i])],
                run=_ColRun(float(committed[i]), float(deadline[i])),
                instances=insts,
            )

        def switch(i: int, dec) -> None:
            """The scalar engine's _apply_switch, on row ``i``'s columns."""
            new_zones = tuple(dec.zones)
            for z in new_zones:
                if z not in zidx:
                    raise EngineError(f"controller chose unknown zone {z!r}")
            kind = dec.policy.vector_kind
            if kind not in on:
                raise EngineError(
                    f"controller installed policy kind {kind!r}, "
                    f"outside {kinds}"
                )
            for z in set(cur_zones[i]) - set(new_zones):
                zi = zidx[z]
                if zst[zi, i] >= QUEUING:  # user_release, reason="user"
                    release(i, zi, float(t[i]), "config-switch")
                elif zst[zi, i] == WAITING:
                    zst[zi, i] = DOWN
            bid_arr[i] = float(dec.bid)
            zact[:, i] = False
            for z in new_zones:
                zact[zidx[z], i] = True
            cur_zones[i] = new_zones
            pol_name[i] = dec.policy.name
            for k, rows_k in on.items():
                rows_k[i] = k == kind
            latch[:, i] = np.nan  # the fresh policy's reset()
            if kind == "markov-daly":
                md_schedule(np.array([i]))  # schedule on the new plan
            else:
                md_next[i] = np.nan
            if events is not None:
                events[i].append(Event(
                    time=float(t[i]), kind="config-switch", zone=None,
                    detail=(
                        f"policy={dec.policy.name} B={dec.bid:.2f} "
                        f"N={len(new_zones)}"
                    ),
                ))

        if md is not None:  # policy reset + schedule at start
            md_schedule(np.flatnonzero(md))

        max_rounds = int(float(dls.max()) // dt) + 16
        for _round in range(max_rounds):
            if not alive.any():
                break

            # -- one full tick for every live run (at its own clock) ------

            # billing hours whose boundary has been reached: all of one
            # zone's boundaries roll before the next zone's, matching
            # the scalar per-instance while loop
            for zi in range(Z):
                for idx, boundary, new_rate in roll_hours(zi, alive, t):
                    if events is not None:
                        emit(idx, boundary, "hour-rolled", zorder[zi],
                             [f"rate={float(r):.3f}" for r in new_rate])

            # market transitions (Algorithm 1 lines 2-8), in the given
            # zone order like the scalar loop over ``active_zones``
            znow_i = [
                np.clip(((t - zz0[zi]) // dt).astype(np.int64),
                        0, zlen[zi] - 1)
                for zi in range(Z)
            ]
            znow_p = [zprices[zi][znow_i[zi]] for zi in range(Z)]
            for zi in walk:
                a = alive if zact is None else alive & zact[zi]
                if not a.any():
                    continue
                pz = znow_p[zi]
                st = zst[zi]
                run_z = a & (st >= QUEUING)
                term = run_z & (pz > bid_arr)
                if term.any():
                    ti = np.flatnonzero(term)
                    drop(zi, ti)  # partial hour forfeited
                    zterm[zi][ti] += 1
                    if lb:  # release_on_commit.discard(zone)
                        rel_pending[ti] &= rel_zi[ti] != zi
                    if events is not None:
                        emit(ti, t[ti], "provider-terminated", zorder[zi],
                             [f"S={float(p):.3f}" for p in pz[ti]])
                notrun = a & ~run_z  # terminated zones wait a tick
                start_ok = (
                    (pz <= bid_arr) & (pz <= L) if lb else pz <= bid_arr
                )  # eligible_to_start: Large-bid gates on L
                to_wait = notrun & start_ok & (st == DOWN)
                if to_wait.any():
                    wi = np.flatnonzero(to_wait)
                    st[wi] = WAITING
                    if events is not None:
                        emit(wi, t[wi], "waiting", zorder[zi],
                             [f"S={float(p):.3f}" for p in pz[wi]])
                to_down = notrun & ~start_ok & (st == WAITING)
                st[to_down] = DOWN

            # deadline guard (line 11) — exact scalar arithmetic.  The
            # leader is the argmax over -inf-masked progress, which
            # replays Python max()'s first-wins tie-breaking in zone
            # block order.
            loc = zbase + zcomp
            comp_mask = zst == COMPUTING
            loc_masked = np.where(comp_mask, loc, -np.inf)
            lead_zi = np.argmax(loc_masked, axis=0)
            lead_local = loc_masked[lead_zi, rows]
            has_comp = comp_mask.any(axis=0)
            any_ck = (zst == CHECKPOINTING).any(axis=0)

            if lb:  # trust_speculative: count the leader's local work
                guard_prog = np.where(
                    has_comp, np.maximum(committed, lead_local), committed
                )
            else:
                guard_prog = committed
            trigger = (np.maximum(C - guard_prog, 0.0) + tc) + tr
            remaining_time = deadline - t
            margin = remaining_time - trigger
            safe = margin > dt + 1e-6
            force = (
                alive & safe & (margin <= tc + 3.0 * dt)
                & ~any_ck & has_comp & (lead_local > committed + 1e-9)
            )
            if force.any():
                fi = np.flatnonzero(force)
                start_checkpoints(fi, lead_zi[fi], lead_local, "forced ")
            migrate = alive & ~safe
            if migrate.any():
                # candidate 0: restore the committed checkpoint; then
                # one candidate per zone block in order, taken on a
                # strictly better key (min()'s first-wins ties)
                best_prog = committed.copy()
                best_pre = np.zeros(n)
                best_key = np.maximum(C - committed, 0.0) + np.where(
                    committed > 0, tr, 0.0
                )
                for zi in range(Z):
                    key2 = (np.maximum(C - loc[zi], 0.0) + tc) + np.where(
                        loc[zi] > 0, tr, 0.0
                    )
                    use2 = migrate & (zst[zi] == COMPUTING) & (
                        key2 < best_key
                    )
                    best_prog[use2] = loc[zi][use2]
                    best_pre[use2] = tc[use2]
                    best_key[use2] = key2[use2]
                    key3 = (
                        np.maximum(C - pendc[zi], 0.0) + phase[zi]
                    ) + np.where(pendc[zi] > 0, tr, 0.0)
                    use3 = migrate & (zst[zi] == CHECKPOINTING) & (
                        key3 < best_key
                    )
                    best_prog[use3] = pendc[zi][use3]
                    best_pre[use3] = phase[zi][use3]
                    best_key[use3] = key3[use3]
                restore = np.where(best_prog > 0, tr, 0.0)
                overhead = best_pre + restore
                rem_comp = np.maximum(C - best_prog, 0.0)
                mi = np.flatnonzero(migrate)
                if events is not None:
                    emit(mi, t[mi], "ondemand-switch", None,
                         [f"C_r={float(c):.0f}s T_r={float(r):.0f}s"
                          for c, r in zip(rem_comp[mi], remaining_time[mi])])
                for zi in range(Z):  # user_close at t, reason="user"
                    idx = np.flatnonzero(migrate & (zst[zi] >= QUEUING))
                    if idx.size:
                        close(zi, idx, t[idx])
                zst[:, mi] = DOWN
                finish[mi] = (t[mi] + overhead[mi]) + rem_comp[mi]
                od_sec = restore + rem_comp
                od_cost[mi] = np.where(
                    od_sec[mi] > 0,
                    np.ceil(od_sec[mi] / 3600.0) * ON_DEMAND_PRICE,
                    0.0,
                )
                switch_t[mi] = t[mi]
                completed_on[mi] = 2
                alive &= ~migrate

            # the controller's decision-epoch hook (between the guard
            # and policy actions, like the scalar tick): rules 1-3,
            # evaluated column-wise; only triggered rows pay a Python
            # decide_at_epoch call
            if ctrl:
                run_act = zact & (zst >= QUEUING)
                at_bound = (
                    run_act & (np.abs(hourst - t) < 1e-6)
                ).any(axis=0)
                trig = alive & (
                    ~run_act.any(axis=0) | at_bound
                    | ((t - last_eval) >= reeval)
                )
                replanned = False
                for i in np.flatnonzero(trig):
                    dec = controllers[i].decide_at_epoch(make_ctx(i))
                    last_eval[i] = t[i]
                    if dec is not None:
                        switch(i, dec)
                        replanned = True
                if replanned:
                    classes = bid_classes()

            # policy actions (lines 16-35), per row on its installed kind
            comp_mask = zst == COMPUTING
            loc = zbase + zcomp
            loc_masked = np.where(comp_mask, loc, -np.inf)
            lead_zi = np.argmax(loc_masked, axis=0)
            lead_local = loc_masked[lead_zi, rows]
            has_leader = comp_mask.any(axis=0)
            any_ck = (zst == CHECKPOINTING).any(axis=0)
            wait_mask = zst == WAITING
            waiting_any = wait_mask.any(axis=0)
            running_cnt = (zst >= QUEUING).sum(axis=0)
            join_due = (
                waiting_any & (running_cnt < 2) & has_leader
                & (lead_local >= committed + tc)
            )
            start_ck = alive & has_leader & ~any_ck
            elig = start_ck & ~join_due  # checkpoint_due evaluated here
            due = np.zeros(n, dtype=bool)
            if "periodic" in on or lb:
                # one checkpoint per latched (zone, billing hour), at
                # most t_c before the leader's hour ends; Large-bid's
                # release checkpoint also needs S > L on the leader
                lhour = hourst[lead_zi, rows]
                left = np.maximum((lhour + 3600.0) - t, 0.0)
                hourly = on["large-bid" if lb else "periodic"] & elig
                hourly &= left <= tc + 1e-6
                hourly &= latch[lead_zi, rows] != lhour  # NaN: not latched
                hourly &= lead_local > committed + 1e-9
                if lb:
                    hourly &= np.stack(znow_p, axis=0)[lead_zi, rows] > L
                di = np.flatnonzero(hourly)
                latch[lead_zi[di], di] = lhour[di]
                due |= hourly
            if "edge" in on:
                rising_any = np.zeros(n, dtype=bool)
                for zi in range(Z):
                    rising_any |= (zst[zi] == COMPUTING) & zrising[zi][
                        znow_i[zi]
                    ]
                due |= (
                    on["edge"] & elig & (lead_local > committed + 1e-9)
                    & rising_any
                )
            if md is not None:
                timed = md & elig & (t + 1e-6 >= md_next)
                noprog = timed & (lead_local <= committed + 1e-9)
                # push instead of a no-progress commit
                md_schedule(np.flatnonzero(noprog))
                due |= timed & ~noprog
            if "threshold" in on:
                for i in np.flatnonzero(
                    on["threshold"] & elig & (lead_local > committed + 1e-9)
                ):
                    now = float(t[i])
                    bid_i = float(bid_arr[i])
                    for zi in range(Z):
                        if zst[zi, i] != COMPUTING:
                            continue
                        s_min, time_thresh = oracle.threshold_stats(
                            zorder[zi], now, bid_i
                        )
                        iz = int(znow_i[zi][i])
                        if zrising[zi][iz] and float(
                            zprices[zi][iz]
                        ) >= 0.5 * (s_min + bid_i):
                            due[i] = True
                            break
                        cs = csince[zi, i]
                        exec_time = (
                            max(now - float(cs), 0.0)
                            if not math.isnan(cs) else 0.0
                        )
                        if time_thresh > 0 and exec_time > time_thresh:
                            due[i] = True
                            break
            # "never" declares nothing due
            fire = (start_ck & join_due) | due
            if fire.any():
                fi = np.flatnonzero(fire)
                start_checkpoints(fi, lead_zi[fi], lead_local, "")
                if lb:  # release_after_checkpoint is always True
                    rel_pending[fi] = True
                    rel_zi[fi] = lead_zi[fi]

            # waiting-zone restarts: every waiting zone of a run starts
            # when nothing is running or a checkpoint just committed,
            # drawing queue delays zone by zone in block order
            any_running = (zst >= QUEUING).any(axis=0)
            go = alive & waiting_any & (~any_running | ckpt_flag)
            for i in np.flatnonzero(go):
                source = "recent" if ckpt_flag[i] else "previous"
                com = float(committed[i])
                for zi in range(Z):
                    if zst[zi, i] != WAITING:
                        continue
                    delay = self.queue_model.sample(rngs[i])
                    draws[i] += 1
                    zst[zi, i] = QUEUING
                    phase[zi, i] = delay
                    pendr[zi, i] = float(tr[i]) if com > 0 else 0.0
                    zbase[zi, i] = com
                    zcomp[zi, i] = 0.0
                    csince[zi, i] = np.nan
                    hourst[zi, i] = t[i]
                    zrate[zi, i] = znow_p[zi][i]
                    zrest[zi, i] += 1
                    if events is not None:
                        events[i].append(Event(
                            time=float(t[i]), kind="restarted",
                            zone=zorder[zi],
                            detail=f"from-{source}-ckpt P={com:.0f}s",
                        ))
            if md is not None:  # one reschedule after each row's restarts
                md_schedule(np.flatnonzero(go & md))
            ckpt_flag &= ~alive  # cleared every tick by _policy_actions

            # advance every running zone by dt (instance.advance): one
            # masked sweep per state in QUEUING -> RESTARTING ->
            # CHECKPOINTING -> COMPUTING order replays each intra-tick
            # cascade of the scalar while loop
            fin_off = np.full((Z, n), np.nan)
            commit_val = np.full(n, -1.0)
            commit_zi = np.zeros(n, dtype=np.int64)
            has_commit = np.zeros(n, dtype=bool)
            for zi in range(Z):
                st = zst[zi]
                run_z = alive & (st >= QUEUING)
                remaining = np.where(run_z, dt, 0.0)

                m = run_z & (st == QUEUING)
                if m.any():
                    used = np.minimum(phase[zi], remaining)
                    phase[zi][m] -= used[m]
                    remaining[m] -= used[m]
                    done = m & (phase[zi] <= 1e-9)
                    st[done] = RESTARTING
                    phase[zi][done] = pendr[zi][done]
                    straight = done & (phase[zi] <= 1e-9)
                    st[straight] = COMPUTING  # fresh start: no restore
                    csince[zi][straight] = t[straight] + (
                        dt - remaining[straight]
                    )

                m = run_z & (st == RESTARTING) & (remaining > 1e-9)
                if m.any():
                    used = np.minimum(phase[zi], remaining)
                    phase[zi][m] -= used[m]
                    remaining[m] -= used[m]
                    done = m & (phase[zi] <= 1e-9)
                    st[done] = COMPUTING
                    csince[zi][done] = t[done] + (dt - remaining[done])

                m = run_z & (st == CHECKPOINTING) & (remaining > 1e-9)
                if m.any():
                    used = np.minimum(phase[zi], remaining)
                    phase[zi][m] -= used[m]
                    remaining[m] -= used[m]
                    done = m & (phase[zi] <= 1e-9)
                    di = np.flatnonzero(done)
                    commit_val[di] = pendc[zi][di]
                    commit_zi[di] = zi
                    has_commit[di] = True
                    st[done] = COMPUTING
                    csince[zi][done] = t[done] + (dt - remaining[done])

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

            ci = np.flatnonzero(has_commit)  # at most one ckpt per run
            if ci.size:
                committed[ci] = commit_val[ci]
                ncomm[ci] += 1
                ckpt_flag[ci] = True
                if events is not None:
                    for i in ci:
                        events[i].append(Event(
                            time=float(t[i] + dt),
                            kind="checkpoint-committed",
                            zone=zorder[commit_zi[i]],
                            detail=f"P={commit_val[i]:.0f}s",
                        ))
                if lb:
                    # Large-bid's manual termination: user_release the
                    # zone whose checkpoint just committed, at t + dt
                    # (the zone computed the tick's remainder first,
                    # exactly like the scalar advance loop)
                    for i in ci[rel_pending[ci]]:
                        release(i, int(commit_zi[i]), float(t[i] + dt),
                                "cost-control")
                        rel_pending[i] = False

            fin = np.fmin.reduce(t[None, :] + fin_off, axis=0)
            done_r = alive & ~np.isnan(fin)
            if done_r.any():
                di = np.flatnonzero(done_r)
                for zi in range(Z):  # user_close at finish, "complete"
                    idx = np.flatnonzero(done_r & (zst[zi] >= QUEUING))
                    if idx.size:
                        close(zi, idx, fin[idx])
                zst[:, di] = DOWN
                if events is not None:
                    emit(di, fin[di], "completed", None,
                         ["on spot"] * di.size)
                finish[di] = fin[di]
                completed_on[di] = 1
                alive &= ~done_r
            t[alive] += dt
            if md is not None and ci.size:
                # line 23, the re-arm after a commit, run eagerly: the
                # next tick would read this same clock, progress, plan
                # and bid (a controller's switch re-arms on its own)
                md_schedule(ci[alive[ci] & md[ci]])

            # -- vectorized _quiescent_ticks + bulk skip ------------------
            comp_mask = zst == COMPUTING
            trans_mask = (zst == QUEUING) | (zst == RESTARTING)
            wait_mask = zst == WAITING
            ck_any = (zst == CHECKPOINTING).any(axis=0)
            computing_any = comp_mask.any(axis=0)
            waiting_any = wait_mask.any(axis=0)
            running_cnt = (comp_mask | trans_mask).sum(axis=0)

            # a checkpoint commits next tick; a commit's restart is not a
            # no-op (Markov-Daly's post-commit re-arm already ran)
            zero = ck_any.copy()
            zero |= ckpt_flag & waiting_any
            dropc = ckpt_flag & ~waiting_any
            zero |= (running_cnt == 0) & waiting_any  # restarts fire now

            # market transitions: next availability crossing, using the
            # first given zone's shared grid index like the scalar scan
            i2 = np.clip(
                ((t - ref_z0) // dt).astype(np.int64), 0, ref_len - 1
            )
            kq = np.full(n, float(1 << 30))
            loc = zbase + zcomp
            theta_dn = np.minimum(bid_arr, L) if lb else bid_arr
            for zi in range(Z):
                a = alive if zact is None else alive & zact[zi]
                if not a.any():
                    continue
                pz = zprices[zi][np.minimum(i2, zlen[zi] - 1)]
                run_z = comp_mask[zi] | trans_mask[zi]
                zero |= run_z & (pz > bid_arr)  # termination due
                off = a & ~run_z & (zst[zi] != CHECKPOINTING)
                # a non-running zone flips at min(bid, start threshold)
                zero |= off & ((pz <= theta_dn) != wait_mask[zi])
                nonrun = ~(zst[zi] >= QUEUING)
                for ub, rows_b in classes:
                    if zact is not None:
                        rows_b = rows_b[zact[zi, rows_b]]
                        if rows_b.size == 0:
                            continue
                    cr, cr_ext = crossings(zi, ub)
                    nc = cr_ext[np.searchsorted(cr, i2[rows_b], side="right")]
                    if lb and math.isfinite(L):
                        cr, cr_ext = crossings(zi, min(ub, L))
                        nc = np.where(nonrun[rows_b], cr_ext[np.searchsorted(
                            cr, i2[rows_b], side="right"
                        )], nc)
                    kq[rows_b] = np.minimum(
                        kq[rows_b], (nc - i2[rows_b]).astype(np.float64)
                    )
                # queue / restore countdowns: stop before one runs out
                nstep = np.floor_divide(phase[zi] - 1e-6, dt)
                zero |= trans_mask[zi] & (nstep < 1.0)
                kq = np.where(trans_mask[zi], np.minimum(kq, nstep), kq)

            # deadline guard: margin shrinks at most one tick per tick
            max_local = np.where(comp_mask, loc, -np.inf).max(axis=0)
            if lb:  # trust_speculative, as in the scalar quiescence scan
                guard_q = np.where(
                    computing_any, np.maximum(committed, max_local), committed
                )
            else:
                guard_q = committed
            marginq = (
                (((deadline - t) - np.maximum(C - guard_q, 0.0)) - tc)
                - tr
            )
            kq = np.minimum(
                kq, np.floor(((marginq - tc) - 3.0 * dt) / dt) - 1.0
            )

            # completion / join-commit progress thresholds
            kq = np.where(
                computing_any,
                np.minimum(kq, np.floor((C - max_local) / dt) - 2.0),
                kq,
            )
            kq = np.where(
                computing_any & waiting_any & (running_cnt < 2),
                np.minimum(
                    kq,
                    np.floor(((committed + tc) - max_local) / dt) - 1.0,
                ),
                kq,
            )

            # the installed policy's own schedule (fast_forward_until),
            # evaluated only where something is computing, like the
            # scalar path
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
                horizon = np.where(on["periodic"], due_at.min(axis=0),
                                   horizon)
            if lb and math.isfinite(L):
                # fast_forward_until: per computing zone, the later of
                # "S first exceeds L" and "<= t_c left in the hour";
                # a latched hour cannot re-fire before it rolls.
                # Naive (L = inf) never checkpoints: horizon stays inf.
                for zi in range(Z):
                    cm = on["large-bid"] & comp_mask[zi] & ~np.isnan(
                        hourst[zi]
                    )
                    if not cm.any():
                        continue
                    hour_end = np.where(cm, hourst[zi] + 3600.0, np.inf)
                    iz = np.clip(
                        ((t - zz0[zi]) // dt).astype(np.int64),
                        0, zlen[zi] - 1,
                    )
                    cr, cr_ext = crossings(zi, L)
                    nxt = cr_ext[np.searchsorted(cr, iz, side="right")]
                    over_at = np.where(
                        zprices[zi][iz] > L, t, zz0[zi] + nxt * dt
                    )
                    cand = np.where(
                        latch[zi] == hourst[zi],
                        hour_end,
                        np.maximum(over_at, hour_end - tc),
                    )
                    horizon = np.where(
                        cm, np.minimum(horizon, cand), horizon
                    )
            if "edge" in on:
                now_edge = np.zeros(n, dtype=bool)
                for zi in range(Z):
                    cm = on["edge"] & comp_mask[zi]
                    iz = np.clip(
                        ((t - zz0[zi]) // dt).astype(np.int64),
                        0, zlen[zi] - 1,
                    )
                    now_edge |= cm & zrising[zi][iz]
                    nxt = zedges_ext[zi][
                        np.searchsorted(zedges[zi], iz, side="right")
                    ]
                    cand = zz0[zi] + nxt * dt
                    horizon = np.where(
                        cm, np.minimum(horizon, cand), horizon
                    )
                horizon = np.where(now_edge, t, horizon)
            if md is not None:
                horizon = np.where(md, md_next - 1e-6, horizon)
            if "threshold" in on:
                for i in np.flatnonzero(
                    on["threshold"] & alive & ~zero & computing_any
                    & (kq > 0.0)
                ):
                    now = float(t[i])
                    if max_local[i] <= committed[i] + 1e-9:
                        horizon[i] = now  # no uncommitted progress
                        continue
                    bid_i = float(bid_arr[i])
                    bound = math.inf
                    hit = False
                    for zi in range(Z):
                        if zst[zi, i] != COMPUTING:
                            continue
                        zname = zorder[zi]
                        s_min, time_thresh = oracle.threshold_stats(
                            zname, now, bid_i
                        )
                        iz = int((now - zz0[zi]) // dt)
                        if zrising[zi][iz] and float(
                            zprices[zi][iz]
                        ) >= 0.5 * (s_min + bid_i):
                            hit = True
                            break
                        cs = csince[zi, i]
                        exec_time = (
                            max(now - float(cs), 0.0)
                            if not math.isnan(cs) else 0.0
                        )
                        if time_thresh > 0 and exec_time > time_thresh:
                            hit = True
                            break
                        j = int(zedges_ext[zi][np.searchsorted(
                            zedges[zi], iz, side="right"
                        )])
                        edge_t = zz0[zi] + j * dt
                        zone_bound = edge_t
                        if not math.isnan(cs):
                            # walk hourly buckets: the exec-time test
                            # can fire between rising edges once the
                            # bucket's mean up-run elapses
                            cs_f = float(cs)
                            bucket_start = (
                                math.floor(now / 3600.0) * 3600.0
                            )
                            thresh = time_thresh
                            while True:
                                bucket_end = bucket_start + 3600.0
                                if thresh > 0 and cs_f + thresh < min(
                                    bucket_end, edge_t
                                ):
                                    zone_bound = max(
                                        cs_f + thresh, bucket_start
                                    )
                                    break
                                if bucket_end >= edge_t:
                                    break
                                bucket_start = bucket_end
                                thresh = oracle.mean_up_run(
                                    zname, bucket_start, bid_i
                                )
                        bound = min(bound, zone_bound)
                    horizon[i] = now if hit else bound
            kq = np.where(
                computing_any & np.isfinite(horizon),
                np.minimum(kq, np.ceil(((horizon - t) - 1e-6) / dt)),
                kq,
            )

            if ctrl:
                # controller hazards: with nothing running the controller
                # evaluates every tick (rule 1); before the first
                # decision next_decision_time is None (no skip at all);
                # afterwards the rule-3 timer bounds, and every
                # computing/transient zone's hour boundary is a rule-2
                # decision point
                zero |= running_cnt == 0
                zero |= np.isinf(last_eval)
                kq = np.minimum(
                    kq, np.ceil((((last_eval + reeval) - t) - 1e-6) / dt)
                )
                for zi in range(Z):
                    m = comp_mask[zi] | trans_mask[zi]
                    if not m.any():
                        continue
                    steps = np.round(((hourst[zi] + 3600.0) - t) / dt)
                    kq = np.where(m, np.minimum(kq, steps), kq)

            ks = np.where(alive & ~zero, kq, 0.0)
            ki = np.maximum(ks, 0.0).astype(np.int64)
            # the post-commit tick's only remaining effect would be
            # dropping the flag: do it on the way into the skip
            ckpt_flag &= ~(dropc & (ki > 0))
            skip = alive & (ki > 0)
            if not skip.any():
                continue

            # bulk-apply the skipped ticks: billing rolls at their exact
            # boundaries, progress/countdowns accrue in closed form when
            # the accumulator is integral (repeated addition otherwise)
            kf = ki.astype(np.float64)
            accr_z = comp_mask | trans_mask
            accr_any = accr_z.any(axis=0)
            # fractional clocks (fractional starts) replay the scalar
            # bulk advance's non-integral branch: closed forms are not
            # exact there, so every tick is a repeated float addition,
            # hour rolls interleaved with accrual in zone block order
            frac = t != np.floor(t)
            plain = skip & ~accr_any
            pint = plain & ~frac
            t[pint] += kf[pint] * dt
            for i in np.flatnonzero(plain & frac):
                t_i = float(t[i])
                for _ in range(int(ki[i])):
                    t_i += dt
                t[i] = t_i
            for i in np.flatnonzero(skip & accr_any & frac):
                zis = [zi for zi in range(Z) if accr_z[zi, i]]
                t_i = float(t[i])
                for _ in range(int(ki[i])):
                    for zi in zis:
                        while hourst[zi, i] + 3600.0 <= t_i + 1e-6:
                            boundary = float(hourst[zi, i]) + 3600.0
                            zspot[zi, i] += zrate[zi, i]
                            zhours[zi, i] += 1
                            new_rate = float(zprices[zi][
                                int((boundary - zz0[zi]) // dt)
                            ])
                            zrate[zi, i] = new_rate
                            hourst[zi, i] = boundary
                            if events is not None:
                                events[i].append(Event(
                                    time=boundary, kind="hour-rolled",
                                    zone=zorder[zi],
                                    detail=f"rate={new_rate:.3f}",
                                ))
                        if comp_mask[zi, i]:
                            zcomp[zi, i] += dt
                        else:
                            phase[zi, i] -= dt
                    t_i += dt
                t[i] = t_i
            accr = skip & accr_any & ~frac
            if not accr.any():
                continue
            last = t + (kf - 1.0) * dt
            entries_by_run: dict[int, list] = {}
            for zi in range(Z):
                for idx, boundary, new_rate in roll_hours(
                    zi, accr & accr_z[zi], last
                ):
                    if events is None:
                        continue
                    for j, i in enumerate(idx):
                        tick = int(math.ceil(
                            (float(boundary[j]) - float(t[i]) - 1e-6) / dt
                        ))
                        entries_by_run.setdefault(int(i), []).append((
                            max(tick, 0), zi, float(boundary[j]),
                            zorder[zi], f"rate={float(new_rate[j]):.3f}",
                        ))
                cm = accr & comp_mask[zi]
                if cm.any():
                    whole = cm & (zcomp[zi] == np.floor(zcomp[zi]))
                    zcomp[zi][whole] += kf[whole] * dt
                    for i in np.flatnonzero(cm & ~whole):
                        cs_acc = float(zcomp[zi][i])
                        for _ in range(int(ki[i])):
                            cs_acc += dt
                        zcomp[zi][i] = cs_acc
                tm = accr & trans_mask[zi]
                if tm.any():
                    whole = tm & (phase[zi] == np.floor(phase[zi]))
                    phase[zi][whole] -= kf[whole] * dt
                    for i in np.flatnonzero(tm & ~whole):
                        ph_acc = float(phase[zi][i])
                        for _ in range(int(ki[i])):
                            ph_acc -= dt
                        phase[zi][i] = ph_acc
            if events is not None:
                for i, ent in entries_by_run.items():
                    # re-merge into the reference loop's (tick, zone
                    # block) emission order
                    ent.sort(key=lambda e: (e[0], e[1]))
                    for _, _, boundary_f, zname, detail in ent:
                        events[i].append(Event(
                            time=boundary_f, kind="hour-rolled",
                            zone=zname, detail=detail,
                        ))
            t[accr] += kf[accr] * dt
        else:  # pragma: no cover - loop guard
            raise EngineError(
                f"vector engine exceeded {max_rounds} rounds; "
                f"{int(alive.sum())} runs still live"
            )

        # -- finalize: per-run RunResults in scalar summation order ------
        spot_tot = np.zeros(n)
        for zi in range(Z):
            spot_tot = spot_tot + zspot[zi]
        hours_tot = zhours.sum(axis=0)
        rest_tot = zrest.sum(axis=0)
        term_tot = zterm.sum(axis=0)
        results: list[RunResult] = []
        for j in range(n):
            results.append(RunResult(
                policy_name=pol_name[j],
                bid=float(bid_arr[j]),
                zones=cur_zones[j],
                start_time=float(start_arr[j]),
                finish_time=float(finish[j]),
                deadline=float(deadline[j]),
                completed_on="spot" if completed_on[j] == 1 else "ondemand",
                spot_cost=float(spot_tot[j]),
                ondemand_cost=float(od_cost[j]),
                num_checkpoints=int(ncomm[j]),
                num_restarts=int(rest_tot[j]),
                num_provider_terminations=int(term_tot[j]),
                ondemand_switch_time=(
                    None if math.isnan(switch_t[j]) else float(switch_t[j])
                ),
                spot_hours_charged=int(hours_tot[j]),
                events=tuple(events[j]) if events is not None else (),
            ))
        return results, draws

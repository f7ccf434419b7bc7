"""Experiment grids over the evaluation windows (Section 5's protocol).

The paper runs 80 experiments over partially overlapping chunks of
each volatility window, for each combination of policy, bid, slack and
checkpoint cost.  :class:`ExperimentRunner` owns one window's trace
and oracle (so Markov caches amortize across the whole grid) and
exposes the run shapes the figures need:

* single-zone policy sweeps, merged over the three zones (one boxplot
  per policy in Figure 4);
* redundancy-based sweeps over all three zones;
* Adaptive (controller-driven) sweeps;
* Large-bid sweeps over the control threshold L.

Every grid cell decomposes into independent per-start units of work —
a :class:`CellTask` plus one start offset — which is both the serial
execution order and the unit the parallel sweep executor
(:mod:`repro.experiments.parallel`) fans out over worker processes.
Per-start seeding is derived from the start offset alone, so the two
paths produce identical records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.app.workload import ExperimentConfig
from repro.core.adaptive import AdaptiveController
from repro.core.bid_batch import bid_equivalence_classes
from repro.core.edge import RisingEdgePolicy
from repro.core.engine import SpotSimulator
from repro.core.large_bid import LargeBidPolicy
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.policy import CheckpointPolicy
from repro.core.threshold import ThresholdPolicy
from repro.core.large_bid import naive_policy
from repro.experiments.cache import CacheStats, RunCache
from repro.experiments.metrics import RunRecord, best_case_per_start
from repro.market.constants import LARGE_BID, SAMPLE_INTERVAL_S
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle
from repro.traces.library import DEFAULT_SEED, evaluation_window
from repro.traces.model import SpotPriceTrace, overlapping_starts

#: Paper default: 80 partially overlapping chunks per window.
DEFAULT_NUM_EXPERIMENTS: int = 80

#: Factories for the four Algorithm-1 policies by label.
POLICY_FACTORIES: dict[str, Callable[[], CheckpointPolicy]] = {
    "periodic": PeriodicPolicy,
    "markov-daly": MarkovDalyPolicy,
    "edge": RisingEdgePolicy,
    "threshold": ThresholdPolicy,
}

#: Policies the paper keeps after Section 6 (Edge and Threshold are
#: dropped for high recovery costs).
RETAINED_POLICIES: tuple[str, ...] = ("periodic", "markov-daly")


def _rebid(record: RunRecord, bid: float) -> RunRecord:
    """``record`` as an independent run at ``bid`` would report it.

    Valid only for a bid in the same availability-equivalence class as
    the record's (under a bid-invariant policy): the trajectory — and
    hence every other field, the event log included — is bit-identical
    by construction, so only the recorded bid differs.  Event details
    embed prices, never the bid, which is what keeps the log clone-safe.
    """
    return replace(record, bid=bid, result=replace(record.result, bid=bid))


@dataclass(frozen=True)
class CellTask:
    """One grid cell's work, minus the start offset.

    The (task, start) pair is the atomic unit of the evaluation grid:
    serial runs iterate starts in order, the parallel executor ships
    the same pairs to worker processes.  Tasks must therefore be
    picklable; ``controller_factory`` must be a module-level callable
    (the default :class:`AdaptiveController` is) when a parallel run
    is intended.
    """

    kind: str  # "single-zone" | "redundant" | "adaptive" | "large-bid"
    config: ExperimentConfig
    policy_label: str | None = None
    bid: float | None = None
    zones: tuple[str, ...] | None = None
    num_zones: int = 3
    threshold: float | None = None
    controller_factory: Callable[[], AdaptiveController] | None = None


@dataclass
class ExperimentRunner:
    """Runs experiment grids against one evaluation window.

    Parameters
    ----------
    window:
        ``"low"`` or ``"high"`` — the Section 5 volatility windows.
    num_experiments:
        Overlapping start offsets per grid cell (paper: 80).
    seed:
        Seeds both the trace archive and the queuing-delay draws.
    workers:
        Worker processes for grid execution.  1 (default) runs
        serially in-process; N > 1 fans the per-start cells out over a
        process pool (see :mod:`repro.experiments.parallel`) with
        bit-identical results.
    engine_mode:
        ``"fast"`` (default) uses the engine's segment-skipping
        scheduler; ``"tick"`` forces the reference tick-by-tick loop
        (for debugging); ``"vector"`` batches each single-zone cell's
        whole start axis through the struct-of-arrays engine
        (:mod:`repro.core.vector_engine`), falling back to per-run
        fast simulation for everything the vector path can't express.
        Results are bit-identical across all three.
    audit:
        Attach a :class:`~repro.audit.auditor.RunAuditor` to every
        simulator: invariants are checked on each run and violations
        aggregate into :meth:`drain_audit`'s report.
    audit_out:
        JSONL path for the structured event stream (implies ``audit``).
        Under workers > 1 each worker appends to its own
        ``<audit_out>.w<pid>`` file, so the stream needs no locking.
    trace, eval_start:
        Prebuilt evaluation window.  Defaults to
        :func:`~repro.traces.library.evaluation_window` on
        ``window``/``seed``; sweep workers attached to a shared-memory
        arena pass the mapped (zero-copy) trace instead so each process
        skips regenerating the archive.  The arrays must equal the
        generated window's — results are bit-identical either way.
    cache_dir, cache:
        Cross-run memoization (:mod:`repro.experiments.cache`).
        ``cache_dir`` adds a persistent on-disk layer so warm figure
        reruns skip simulation entirely; ``cache`` injects a prebuilt
        :class:`~repro.experiments.cache.RunCache` (in-memory when its
        ``cache_dir`` is None).  With neither, no caching happens.
        Audited runs always simulate cold — the engine bypasses the
        cache whenever an auditor is attached — so ``audit=True`` and
        caching compose safely.
    """

    window: str
    num_experiments: int = DEFAULT_NUM_EXPERIMENTS
    seed: int = DEFAULT_SEED
    queue_model: QueueDelayModel = field(default_factory=QueueDelayModel)
    workers: int = 1
    engine_mode: str = "fast"
    audit: bool = False
    audit_out: str | None = None
    trace: "SpotPriceTrace | None" = None
    eval_start: float | None = None
    cache_dir: str | None = None
    cache: "RunCache | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.audit_out is not None:
            self.audit = True
        if self.trace is None:
            self.trace, self.eval_start = evaluation_window(self.window, self.seed)
        elif self.eval_start is None:
            raise ValueError("eval_start is required with an explicit trace")
        if self.cache is None and self.cache_dir is not None:
            self.cache = RunCache(self.cache_dir)
        self.oracle = PriceOracle(self.trace)
        self._executor = None
        self._auditor = None
        self._vector = None

    @property
    def auditor(self):
        """The lazily created in-process auditor (``None`` if ``audit``
        is off; workers > 1 audit inside the worker processes instead)."""
        if not self.audit:
            return None
        if self._auditor is None:
            from repro.audit.auditor import RunAuditor
            from repro.audit.sink import JsonlSink

            sink = JsonlSink(self.audit_out) if self.audit_out else None
            self._auditor = RunAuditor(sink=sink)
        return self._auditor

    def drain_audit(self):
        """Collect (and clear) the audit outcome of everything run so
        far — both in-process runs and, for workers > 1, the reports
        the worker processes shipped back with their records."""
        from repro.audit.auditor import AuditReport

        report = AuditReport()
        if self._auditor is not None:
            report.merge(self._auditor.drain())
        if self._executor is not None:
            report.merge(self._executor.drain_audit())
        return report

    def drain_cache_stats(self) -> CacheStats | None:
        """Collect (and clear) run-cache counters — the in-process
        cache's own plus whatever the sweep workers shipped back with
        their results.  ``None`` when no cache is configured at all, so
        callers can distinguish "cache off" from "cache cold" instead
        of printing a zero-hit stats line on uncached commands."""
        if self.cache is None:
            # no cache here means none in the workers either — they
            # inherit this runner's cache_dir, which must be unset
            return None
        stats = CacheStats()
        stats.merge(self.cache.drain_stats())
        if self._executor is not None:
            # the executor reports None when it was built without a
            # cache_dir (e.g. this runner's cache is in-memory only)
            worker_stats = self._executor.drain_cache_stats()
            if worker_stats is not None:
                stats.merge(worker_stats)
        return stats

    @property
    def vector(self):
        """The lazily created batch engine.  All vector-served cells
        share one simulator so its native/cloned/fallback counters
        accumulate across the whole sweep for :meth:`drain_vector_stats`."""
        if self._vector is None:
            from repro.core.vector_engine import VectorSimulator

            self._vector = VectorSimulator(
                oracle=self.oracle, queue_model=self.queue_model,
                run_cache=self.cache,
            )
        return self._vector

    def drain_vector_stats(self):
        """Collect (and clear) the batch engine's native/cloned/fallback
        counters — the in-process simulator's own plus whatever the
        sweep workers shipped back with their results.  ``None`` when
        no batch ran at all, so the CLI only prints the vector summary
        line on commands that actually exercised the engine."""
        from repro.core.vector_engine import BatchStats

        stats = BatchStats()
        if self._vector is not None:
            stats.merge(self._vector.drain_stats())
        if self._executor is not None:
            stats.merge(self._executor.drain_vector_stats())
        return stats if stats.total else None

    # -- parallel execution ------------------------------------------------

    def with_workers(self, workers: int) -> "ExperimentRunner":
        """A runner over the same window/seed with a different degree of
        parallelism (the window trace is cached, so this is cheap)."""
        if workers == self.workers:
            return self
        return ExperimentRunner(
            self.window,
            num_experiments=self.num_experiments,
            seed=self.seed,
            queue_model=self.queue_model,
            workers=workers,
            engine_mode=self.engine_mode,
            audit=self.audit,
            audit_out=self.audit_out,
            cache_dir=self.cache_dir,
        )

    @property
    def executor(self):
        """The lazily created process-pool executor (workers > 1)."""
        if self._executor is None:
            from repro.experiments.parallel import SweepExecutor

            self._executor = SweepExecutor(
                window=self.window,
                num_experiments=self.num_experiments,
                seed=self.seed,
                workers=self.workers,
                queue_model=self.queue_model,
                engine_mode=self.engine_mode,
                audit=self.audit,
                audit_out=self.audit_out,
                cache_dir=self.cache_dir,
            )
        return self._executor

    def flush_cache(self) -> None:
        """Publish the run cache's buffered stores as one segment (a
        no-op without a cache or with nothing pending)."""
        if self.cache is not None:
            self.cache.flush()

    def close(self) -> None:
        """Flush the run cache; shut down the worker pool and audit
        sink, if started."""
        self.flush_cache()
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self._auditor is not None:
            self._auditor.close()
            self._auditor = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- experiment geometry ----------------------------------------------

    def starts(self, config: ExperimentConfig) -> np.ndarray:
        """Absolute start times of the overlapping experiment chunks.

        Deduplicated: when the feasible span is narrower than
        ``num_experiments`` grid steps, several raw offsets snap to the
        same 5-minute tick — identical seed, identical trajectory — so
        each colliding grid point is simulated once, not repeatedly.
        ``overlapping_starts`` is non-decreasing, so dropping
        duplicates preserves order.
        """
        eval_span = self.trace.end_time - self.eval_start
        # keep one tick of headroom at the trace end for the last tick's
        # price lookup
        usable = eval_span - SAMPLE_INTERVAL_S
        offsets = overlapping_starts(
            usable, config.deadline_s, self.num_experiments
        )
        return self.eval_start + np.unique(offsets)

    def _start_rng(self, start_time: float) -> np.random.Generator:
        """The per-start queue-delay stream, derived from the start
        offset alone — identical for every (policy, bid) cell and for
        the batched and per-run execution paths."""
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(int(start_time),)
            )
        )

    def simulator(self, start_time: float) -> SpotSimulator:
        """A simulator whose queue-delay stream is derived from the
        experiment's start offset, so every (policy, bid) cell sees the
        same acquisition delays at the same start.  Under
        ``engine_mode="vector"`` per-run simulators (cells the batch
        path doesn't serve) degrade to the bit-identical fast engine."""
        engine = "fast" if self.engine_mode == "vector" else self.engine_mode
        return SpotSimulator(
            oracle=self.oracle, queue_model=self.queue_model,
            rng=self._start_rng(start_time),
            engine_mode=engine, auditor=self.auditor,
            run_cache=self.cache,
        )

    # -- cell execution ----------------------------------------------------

    def _record(
        self,
        label: str,
        config: ExperimentConfig,
        bid: float,
        start: float,
        result,
    ) -> RunRecord:
        return RunRecord(
            label=label,
            window=self.window,
            slack_fraction=config.slack_fraction,
            ckpt_cost_s=config.ckpt_cost_s,
            bid=bid,
            start_time=start,
            result=result,
        )

    def run_cell(self, task: CellTask, start: float) -> list[RunRecord]:
        """Execute one (task, start) unit; the parallel worker entry point.

        One simulator per start: within a cell, every zone of a merged
        single-zone (or Large-bid) run draws from the same queue-delay
        stream, exactly as the serial loops always did.
        """
        sim = self.simulator(start)
        config = task.config
        if task.kind == "single-zone":
            factory = POLICY_FACTORIES[task.policy_label]
            records = []
            for zone in task.zones:
                result = sim.run(config, factory(), task.bid, (zone,), start)
                records.append(
                    self._record(task.policy_label, config, task.bid, start, result)
                )
            return records
        if task.kind == "redundant":
            factory = POLICY_FACTORIES[task.policy_label]
            zones = self.trace.zone_names[: task.num_zones]
            label = f"{task.policy_label}-r{task.num_zones}"
            result = sim.run(config, factory(), task.bid, zones, start)
            return [self._record(label, config, task.bid, start, result)]
        if task.kind == "adaptive":
            controller = (task.controller_factory or AdaptiveController)()
            result = sim.run(
                config,
                PeriodicPolicy(),
                bid=controller.bids[0],
                zones=self.trace.zone_names[:1],
                start_time=start,
                controller=controller,
            )
            return [self._record("adaptive", config, result.bid, start, result)]
        if task.kind == "large-bid":
            records = []
            for zone in task.zones:
                policy = (
                    naive_policy()
                    if task.threshold is None
                    else LargeBidPolicy(task.threshold)
                )
                result = sim.run(config, policy, LARGE_BID, (zone,), start)
                records.append(
                    self._record(policy.name, config, LARGE_BID, start, result)
                )
            return records
        raise ValueError(f"unknown cell task kind {task.kind!r}")

    def run_start_axis_cells(
        self, task: CellTask, starts: Sequence[float]
    ) -> list[RunRecord]:
        """Batch one cell's ``starts`` through the struct-of-arrays
        engine; the parallel chunk entry point.

        One RNG per start (the same :meth:`_start_rng` stream the
        per-run path uses) shared across the cell's zone waves, so a
        merged three-zone cell draws queue delays in exactly the order
        the serial ``run_cell`` loop would.  Single-zone and Large-bid
        records come back start-major, zone-minor — the serial order;
        redundant cells run all their zones as one multi-zone batch;
        Adaptive cells batch the whole axis through
        :meth:`~repro.core.vector_engine.VectorSimulator.run_adaptive_batch`.
        """
        if task.kind not in ("single-zone", "redundant", "adaptive",
                             "large-bid"):
            raise ValueError(
                f"start-axis batching is undefined for cell kind {task.kind!r}"
            )
        config = task.config
        starts = [float(s) for s in starts]
        rngs = [self._start_rng(s) for s in starts]
        vec = self.vector
        if task.kind == "adaptive":
            controller_factory = task.controller_factory or AdaptiveController
            results = vec.run_adaptive_batch(
                config, controller_factory, starts, rngs
            )
            return [
                self._record("adaptive", config, results[i].bid, start,
                             results[i])
                for i, start in enumerate(starts)
            ]
        if task.kind == "large-bid":
            if task.threshold is None:
                policy_factory = naive_policy
            else:
                policy_factory = lambda: LargeBidPolicy(task.threshold)  # noqa: E731
            label = policy_factory().name
            per_zone = [
                vec.run_batch(config, policy_factory, LARGE_BID, (zone,),
                              starts, rngs)
                for zone in task.zones
            ]
            records = []
            for i, start in enumerate(starts):
                for results in per_zone:
                    records.append(
                        self._record(label, config, LARGE_BID, start,
                                     results[i])
                    )
            return records
        factory = POLICY_FACTORIES[task.policy_label]
        if task.kind == "single-zone":
            per_zone = [
                vec.run_batch(config, factory, task.bid, (zone,), starts, rngs)
                for zone in task.zones
            ]
            records = []
            for i, start in enumerate(starts):
                for results in per_zone:
                    records.append(
                        self._record(task.policy_label, config, task.bid,
                                     start, results[i])
                    )
            return records
        zones = tuple(self.trace.zone_names[: task.num_zones])
        label = f"{task.policy_label}-r{task.num_zones}"
        results = vec.run_batch(config, factory, task.bid, zones,
                                starts, rngs)
        return [
            self._record(label, config, task.bid, start, results[i])
            for i, start in enumerate(starts)
        ]

    def run_start_axis(
        self,
        policy_label: str,
        config: ExperimentConfig,
        bid: float,
        zones: Sequence[str] | None = None,
    ) -> list[RunRecord]:
        """One single-zone cell over the full start grid, batched.

        Same records — values and order — as :meth:`run_single_zone`;
        the start axis is served by the struct-of-arrays engine (with
        per-run scalar fallback where the vector path doesn't apply)
        regardless of ``engine_mode``.  Audited runners fall back to
        per-run simulation so the auditor observes every run.
        """
        zones = tuple(zones) if zones is not None else self.trace.zone_names
        task = CellTask(kind="single-zone", config=config,
                        policy_label=policy_label, bid=bid, zones=zones)
        if self.audit:
            return self._run_grid(task)
        starts = [float(s) for s in self.starts(config)]
        if self.workers > 1 and len(starts) > 1:
            return self.executor.map_start_axis(task, starts)
        return self.run_start_axis_cells(task, starts)

    def _run_grid(self, task: CellTask) -> list[RunRecord]:
        """All starts of one cell — serial, or fanned out over workers.

        The parallel path merges worker results in start order, so the
        returned records are identical (values and order) to a serial
        run.  Under ``engine_mode="vector"`` single-zone, redundant,
        Adaptive and Large-bid cells route through the start-axis batch
        engine instead of the per-start loop (audited runners excepted
        — the vector path has no audit hooks, so those runs stay
        per-run on the fast engine).
        """
        starts = [float(s) for s in self.starts(task.config)]
        if (
            self.engine_mode == "vector"
            and task.kind in ("single-zone", "redundant", "adaptive",
                              "large-bid")
            and not self.audit
        ):
            if self.workers > 1 and len(starts) > 1:
                return self.executor.map_start_axis(task, starts)
            return self.run_start_axis_cells(task, starts)
        if self.workers > 1 and len(starts) > 1:
            return self.executor.map_cells(task, starts)
        records = []
        for start in starts:
            records.extend(self.run_cell(task, start))
        self.flush_cache()
        return records

    # -- batched bid axis --------------------------------------------------

    def run_bid_axis_cell(
        self, task: CellTask, bids: Sequence[float], start: float
    ) -> list[tuple[float, list[RunRecord]]]:
        """One start's worth of a batched bid axis; worker entry point.

        Partitions ``bids`` into availability-equivalence classes over
        this start's run horizon (:mod:`repro.core.bid_batch`), runs
        one representative per class and clones its records — bid
        field rewritten — for the other members.  Under a
        bid-invariant policy the clones are bit-identical to what
        independent runs at those bids would produce (trajectory,
        costs, event log, queue-delay draws — the differential tests
        in ``tests/experiments/test_bid_axis.py`` prove it), so one
        pass over the trace serves the whole axis.  Returns ``(bid,
        records)`` pairs in ascending-bid order.
        """
        if task.kind == "single-zone":
            cell_zones = task.zones
        elif task.kind == "redundant":
            cell_zones = self.trace.zone_names[: task.num_zones]
        else:
            raise ValueError(
                f"bid axis is undefined for cell kind {task.kind!r}"
            )
        classes = bid_equivalence_classes(
            self.trace, cell_zones, bids, start, task.config.deadline_s
        )
        pairs: list[tuple[float, list[RunRecord]]] = []
        for cls in classes:
            rep_records = self.run_cell(
                replace(task, bid=cls.representative), start
            )
            for bid in cls.members:
                if bid == cls.representative:
                    pairs.append((bid, rep_records))
                else:
                    pairs.append(
                        (bid, [_rebid(r, bid) for r in rep_records])
                    )
        return pairs

    def run_bid_axis(
        self,
        policy_label: str,
        config: ExperimentConfig,
        bids: Sequence[float],
        zones: Sequence[str] | None = None,
        redundant: bool = False,
        num_zones: int = 3,
        batched: bool = True,
    ) -> dict[float, list[RunRecord]]:
        """All bid levels of one sweep cell, sharing work across bids.

        For bid-invariant policies the batched engine runs one
        representative per equivalence class and clones the rest (see
        :meth:`run_bid_axis_cell`); the per-bid record lists — values
        *and* order — are identical to ``run_single_zone`` /
        ``run_redundant`` called once per bid.  Policies whose
        decisions consume the bid numerically (Markov-Daly's MTBF,
        Threshold's price target) fall back to exactly those per-bid
        runs automatically, as does ``batched=False`` (the benchmark
        baseline).  Returns ``{bid: records}`` over the unique bids.
        """
        bids = [float(b) for b in dict.fromkeys(float(b) for b in bids)]
        if batched and self.engine_mode == "vector" and not self.audit:
            # one fused (bid x start) lockstep tile per cell; identical
            # records, bid-equivalence clones included
            return self.run_grid(policy_label, config, bids, zones=zones,
                                 redundant=redundant, num_zones=num_zones)
        if redundant:
            task = CellTask(kind="redundant", config=config,
                            policy_label=policy_label, num_zones=num_zones)
        else:
            cell_zones = tuple(zones) if zones is not None else self.trace.zone_names
            task = CellTask(kind="single-zone", config=config,
                            policy_label=policy_label, zones=cell_zones)
        if not (batched and POLICY_FACTORIES[policy_label]().bid_invariant):
            return {
                bid: self._run_grid(replace(task, bid=bid)) for bid in bids
            }
        starts = [float(s) for s in self.starts(config)]
        if self.workers > 1 and len(starts) > 1:
            return self.executor.map_bid_axis(task, bids, starts)
        out: dict[float, list[RunRecord]] = {bid: [] for bid in bids}
        for start in starts:
            for bid, records in self.run_bid_axis_cell(task, bids, start):
                out[bid].extend(records)
        self.flush_cache()
        return out

    # -- fused (bid x start) grid ------------------------------------------

    def run_grid_cell(
        self, task: CellTask, bids: Sequence[float], starts: Sequence[float]
    ) -> list[tuple[float, list[RunRecord]]]:
        """One contiguous start-chunk of a fused (bid x start) tile;
        the parallel grid-chunk entry point.

        The whole tile advances through the vector engine in lockstep:
        rows are laid out start-major over the bid grid, each row gets
        the fresh per-start RNG a per-(bid, start) ``run_cell`` would
        build, and — for bid-invariant policies — the availability
        equivalence classes of :mod:`repro.core.bid_batch` collapse to
        one simulated representative per (class, start) with the other
        rows cloned inside the engine, exactly as
        :meth:`run_bid_axis_cell` clones records.  Returns ``(bid,
        records)`` pairs over the given bids; per bid the records are
        start-major (and zone-minor for merged single-zone cells) —
        bit-identical, values and order, to per-bid scalar runs.
        """
        if task.kind == "single-zone":
            cell_zones = task.zones
            waves = [(task.policy_label, (zone,)) for zone in task.zones]
        elif task.kind == "redundant":
            cell_zones = tuple(self.trace.zone_names[: task.num_zones])
            waves = [(f"{task.policy_label}-r{task.num_zones}", cell_zones)]
        else:
            raise ValueError(
                f"grid batching is undefined for cell kind {task.kind!r}"
            )
        factory = POLICY_FACTORIES[task.policy_label]
        config = task.config
        bids = [float(b) for b in bids]
        starts = [float(s) for s in starts]
        nb = len(bids)
        bcol = {bid: j for j, bid in enumerate(bids)}
        row_bids = [bid for _ in starts for bid in bids]
        row_starts = [start for start in starts for _ in bids]
        rngs = [self._start_rng(start) for start in row_starts]
        clone_of = None
        if nb > 1 and factory().bid_invariant:
            clone_of = [None] * (nb * len(starts))
            for si, start in enumerate(starts):
                classes = bid_equivalence_classes(
                    self.trace, cell_zones, bids, start, config.deadline_s
                )
                for cls in classes:
                    rep_row = si * nb + bcol[cls.representative]
                    for bid in cls.members:
                        if bid != cls.representative:
                            clone_of[si * nb + bcol[bid]] = rep_row
        vec = self.vector
        per_wave = [
            vec.run_grid(config, factory, wave_zones, row_bids, row_starts,
                         rngs, clone_of=clone_of)
            for _, wave_zones in waves
        ]
        pairs: list[tuple[float, list[RunRecord]]] = []
        for bj, bid in enumerate(bids):
            records = []
            for si, start in enumerate(starts):
                for (label, _), results in zip(waves, per_wave):
                    records.append(
                        self._record(label, config, bid, start,
                                     results[si * nb + bj])
                    )
            pairs.append((bid, records))
        return pairs

    def run_grid(
        self,
        policy_label: str,
        config: ExperimentConfig,
        bids: Sequence[float],
        zones: Sequence[str] | None = None,
        redundant: bool = False,
        num_zones: int = 3,
    ) -> dict[float, list[RunRecord]]:
        """One (policy, zone-set) cell over the full (bid x start) grid,
        fused through the vector engine.

        Same per-bid record lists — values *and* order — as
        :meth:`run_single_zone` / :meth:`run_redundant` called once per
        bid, regardless of ``engine_mode``; the whole grid advances in
        lockstep instead (with per-run scalar fallback inside the
        engine wherever the native path doesn't apply).  Audited
        runners fall back to per-run simulation so the auditor
        observes every run.  Returns ``{bid: records}`` over the
        unique bids.
        """
        bids = [float(b) for b in dict.fromkeys(float(b) for b in bids)]
        if redundant:
            task = CellTask(kind="redundant", config=config,
                            policy_label=policy_label, num_zones=num_zones)
        else:
            cell_zones = tuple(zones) if zones is not None else self.trace.zone_names
            task = CellTask(kind="single-zone", config=config,
                            policy_label=policy_label, zones=cell_zones)
        if self.audit:
            return {
                bid: self._run_grid(replace(task, bid=bid)) for bid in bids
            }
        starts = [float(s) for s in self.starts(config)]
        if self.workers > 1 and len(starts) > 1:
            return self.executor.map_grid(task, bids, starts)
        out: dict[float, list[RunRecord]] = {bid: [] for bid in bids}
        for bid, records in self.run_grid_cell(task, bids, starts):
            out[bid].extend(records)
        return out

    # -- fused (shape x bid x start) cube ----------------------------------

    def run_cube_cell(
        self,
        task: CellTask,
        configs: Sequence[ExperimentConfig],
        bids: Sequence[float],
        starts_per_shape: Sequence[Sequence[float]],
    ) -> list[list[tuple[float, list[RunRecord]]]]:
        """One contiguous start-chunk of a fused (shape x bid x start)
        cube; the parallel cube-chunk entry point.

        Each job shape brings its own start list (the overlapping-start
        grid depends on the deadline), laid out shape-major over the
        per-shape (bid x start) tiles of :meth:`run_grid_cell`; the
        whole cube advances through the vector engine in one lockstep
        pass, with bid-equivalence clones resolved per (shape, start)
        so clones never cross shapes.  Returns, per shape, the same
        ``(bid, records)`` pairs ``run_grid_cell`` would produce for
        that shape alone — bit-identical, values and order.
        """
        if task.kind == "single-zone":
            cell_zones = task.zones
            waves = [(task.policy_label, (zone,)) for zone in task.zones]
        elif task.kind == "redundant":
            cell_zones = tuple(self.trace.zone_names[: task.num_zones])
            waves = [(f"{task.policy_label}-r{task.num_zones}", cell_zones)]
        else:
            raise ValueError(
                f"cube batching is undefined for cell kind {task.kind!r}"
            )
        factory = POLICY_FACTORIES[task.policy_label]
        configs = list(configs)
        bids = [float(b) for b in bids]
        nb = len(bids)
        bcol = {bid: j for j, bid in enumerate(bids)}
        shape_idx: list[int] = []
        row_bids: list[float] = []
        row_starts: list[float] = []
        row0: list[int] = []  # first row of each shape's tile
        for k, shape_starts in enumerate(starts_per_shape):
            row0.append(len(row_bids))
            for start in shape_starts:
                for bid in bids:
                    shape_idx.append(k)
                    row_bids.append(bid)
                    row_starts.append(float(start))
        rngs = [self._start_rng(start) for start in row_starts]
        clone_of = None
        if nb > 1 and factory().bid_invariant:
            clone_of = [None] * len(row_bids)
            for k, shape_starts in enumerate(starts_per_shape):
                base = row0[k]
                for si, start in enumerate(shape_starts):
                    classes = bid_equivalence_classes(
                        self.trace, cell_zones, bids, float(start),
                        configs[k].deadline_s
                    )
                    for cls in classes:
                        rep_row = base + si * nb + bcol[cls.representative]
                        for bid in cls.members:
                            if bid != cls.representative:
                                clone_of[base + si * nb + bcol[bid]] = rep_row
        vec = self.vector
        per_wave = [
            vec.run_cube(configs, factory, wave_zones, shape_idx, row_bids,
                         row_starts, rngs, clone_of=clone_of)
            for _, wave_zones in waves
        ]
        out: list[list[tuple[float, list[RunRecord]]]] = []
        for k, shape_starts in enumerate(starts_per_shape):
            base = row0[k]
            pairs: list[tuple[float, list[RunRecord]]] = []
            for bj, bid in enumerate(bids):
                records = []
                for si, start in enumerate(shape_starts):
                    for (label, _), results in zip(waves, per_wave):
                        records.append(
                            self._record(label, configs[k], bid, float(start),
                                         results[base + si * nb + bj])
                        )
                pairs.append((bid, records))
            out.append(pairs)
        return out

    def run_cube(
        self,
        policy_label: str,
        configs: Sequence[ExperimentConfig],
        bids: Sequence[float],
        zones: Sequence[str] | None = None,
        redundant: bool = False,
        num_zones: int = 3,
    ) -> list[dict[float, list[RunRecord]]]:
        """One (policy, zone-set) cell over a whole (shape x bid x
        start) cube — a deadline ladder in one lockstep pass.

        Per shape, same ``{bid: records}`` — values *and* order — as
        :meth:`run_grid` called once per shape, regardless of
        ``engine_mode``; the shape rows share the zone-dynamics column
        work inside the vector engine instead.  Audited runners fall
        back to per-run simulation so the auditor observes every run.
        Returns one ``{bid: records}`` dict per shape, in ``configs``
        order.
        """
        configs = list(configs)
        if not configs:
            raise ValueError("at least one job shape is required")
        bids = [float(b) for b in dict.fromkeys(float(b) for b in bids)]
        if redundant:
            task = CellTask(kind="redundant", config=configs[0],
                            policy_label=policy_label, num_zones=num_zones)
        else:
            cell_zones = tuple(zones) if zones is not None else self.trace.zone_names
            task = CellTask(kind="single-zone", config=configs[0],
                            policy_label=policy_label, zones=cell_zones)
        if self.audit:
            return [
                {bid: self._run_grid(replace(task, config=config, bid=bid))
                 for bid in bids}
                for config in configs
            ]
        starts_per_shape = [
            [float(s) for s in self.starts(config)] for config in configs
        ]
        if self.workers > 1 and max(len(s) for s in starts_per_shape) > 1:
            return self.executor.map_cube(task, configs, bids,
                                          starts_per_shape)
        out: list[dict[float, list[RunRecord]]] = [
            {bid: [] for bid in bids} for _ in configs
        ]
        cell = self.run_cube_cell(task, configs, bids, starts_per_shape)
        for k, pairs in enumerate(cell):
            for bid, records in pairs:
                out[k][bid].extend(records)
        return out

    # -- grid cells -------------------------------------------------------

    def run_single_zone(
        self,
        policy_label: str,
        config: ExperimentConfig,
        bid: float,
        zones: Sequence[str] | None = None,
    ) -> list[RunRecord]:
        """One single-zone policy, merged over zones (paper's boxplots).

        Runs every (zone, start) pair; the returned records pool all
        zones, matching "we merge the results from all three individual
        zones ... to generate one boxplot".
        """
        zones = tuple(zones) if zones is not None else self.trace.zone_names
        return self._run_grid(
            CellTask(kind="single-zone", config=config,
                     policy_label=policy_label, bid=bid, zones=zones)
        )

    def run_redundant(
        self,
        policy_label: str,
        config: ExperimentConfig,
        bid: float,
        num_zones: int = 3,
    ) -> list[RunRecord]:
        """One redundancy-based policy over the first ``num_zones`` zones."""
        return self._run_grid(
            CellTask(kind="redundant", config=config,
                     policy_label=policy_label, bid=bid, num_zones=num_zones)
        )

    def run_best_redundant(
        self,
        config: ExperimentConfig,
        bid: float,
        policy_labels: Sequence[str] = RETAINED_POLICIES + ("edge", "threshold"),
        num_zones: int = 3,
    ) -> list[RunRecord]:
        """Best-case redundancy per experiment (Figure 4's "R" boxes)."""
        groups = [
            self.run_redundant(label, config, bid, num_zones)
            for label in policy_labels
        ]
        return best_case_per_start(groups)

    def run_adaptive(
        self,
        config: ExperimentConfig,
        controller_factory: Callable[[], AdaptiveController] = AdaptiveController,
    ) -> list[RunRecord]:
        """The Adaptive scheme: the controller picks bid/zones/policy.

        The initial configuration is a placeholder — the controller's
        first decision (before anything runs) replaces it.
        """
        return self._run_grid(
            CellTask(kind="adaptive", config=config,
                     controller_factory=controller_factory)
        )

    def run_large_bid(
        self,
        config: ExperimentConfig,
        threshold: float | None,
        zone: str | None = None,
    ) -> list[RunRecord]:
        """Large-bid at control threshold L (None = Naive), merged zones."""
        zones = (zone,) if zone is not None else self.trace.zone_names
        return self._run_grid(
            CellTask(kind="large-bid", config=config,
                     threshold=threshold, zones=zones)
        )

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

Every grid cell is a (policy x shape x bid x start) cube with some
axes of length 1, and runs through one cube-chunk body
(:meth:`ExperimentRunner.run_cube_cell`), serially or as contiguous
start-chunks over worker processes
(:meth:`~repro.experiments.parallel.SweepExecutor.map_cube`).  One
rule picks the engine for a chunk: audited runners and the reference
tick engine run it one simulation at a time (:meth:`run_cell` per
(policy, shape, bid, start) unit), ``engine_mode="vector"`` batches it,
and ``"fast"`` batches cubes of more than one (policy, shape, bid)
cell.  Per-start seeding is derived from the start offset alone, so
every path produces identical records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.app.workload import ExperimentConfig
from repro.core.adaptive import AdaptiveController
from repro.core.bid_batch import cube_rows
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


@dataclass(frozen=True)
class CellTask:
    """One grid cell's work, minus the start offset.

    A single-zone or redundant task runs each of its ``policies``; the
    other kinds bring their own policy (a Large-bid threshold, an
    Adaptive controller).

    The (task, start) pair is the per-run unit of the evaluation grid
    (:meth:`ExperimentRunner.run_cell`); the parallel executor ships a
    task with contiguous chunks of its starts to worker processes.
    Tasks must therefore be picklable; ``controller_factory`` must be a
    module-level callable (the default :class:`AdaptiveController` is)
    when a parallel run is intended.
    """

    kind: str  # "single-zone" | "redundant" | "adaptive" | "large-bid"
    config: ExperimentConfig
    #: The policy axis of a single-zone or redundant cell, by label.
    policies: tuple[str, ...] = ()
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
        serially in-process; N > 1 splits every cube's start axis into
        contiguous chunks over a process pool (see
        :mod:`repro.experiments.parallel`) with bit-identical results.
    engine_mode:
        ``"fast"`` (default) uses the engine's segment-skipping
        scheduler for a lone (policy, shape, bid) cell and the
        struct-of-arrays engine (:mod:`repro.core.vector_engine`) for
        cubes of more than one; ``"tick"`` forces the reference
        tick-by-tick loop everywhere; ``"vector"`` batches every cell,
        falling back to per-run fast simulation for everything the
        batch engine can't express.  Results are bit-identical across
        all three.
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
        ``window``/``seed``; pass one to run on a trace built
        elsewhere (a loaded or hand-made window).  An explicit trace
        requires ``workers=1``: pool workers rebuild the window from
        ``window``/``seed``, not from this trace.
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
        elif self.workers > 1:
            raise ValueError(
                "an explicit trace requires workers=1: pool workers "
                "regenerate the window from window/seed"
            )
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
        """Execute one (task, start) unit on the per-run engine.

        One simulator per start: within a cell, every zone of a merged
        single-zone (or Large-bid) run draws from the same queue-delay
        stream.  Single-zone and redundant tasks carry exactly one
        policy here; a per-run cube chunk (:meth:`_cube_cell`) splits
        its policy axis into one task per policy.
        """
        sim = self.simulator(start)
        config = task.config
        if task.kind == "single-zone":
            (label,) = task.policies
            factory = POLICY_FACTORIES[label]
            records = []
            for zone in task.zones:
                result = sim.run(config, factory(), task.bid, (zone,), start)
                records.append(
                    self._record(label, config, task.bid, start, result)
                )
            return records
        if task.kind == "redundant":
            (label,) = task.policies
            factory = POLICY_FACTORIES[label]
            zones = self.trace.zone_names[: task.num_zones]
            label = f"{label}-r{task.num_zones}"
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

    def _batches(self, task: CellTask, configs, bids) -> bool:
        """The engine rule: batch a cube chunk on the vector engine?
        Audited and tick runners run per run; ``"vector"`` always
        batches; ``"fast"`` batches more than one (policy, shape, bid)
        cell (the crossover is in EXPERIMENTS.md).  A chunk carries the
        cube's whole policy, shape and bid axes, so a worker decides as
        the parent would."""
        if self.audit or self.engine_mode == "tick":
            return False
        cells = max(len(task.policies), 1) * len(configs) * len(bids)
        return self.engine_mode == "vector" or cells > 1

    def _cube_cell(
        self,
        task: CellTask,
        configs: Sequence[ExperimentConfig],
        bids: Sequence,
        starts_per_shape: Sequence[Sequence[float]],
    ) -> list[list[list[tuple[float, list[RunRecord]]]]]:
        """One contiguous start-chunk of a (policy x shape x bid x
        start) cube: the only cell body, on the engine :meth:`_batches`
        picks.  Per run, it loops :meth:`run_cell` over its (policy,
        shape, bid, start) units in that order.  Batched, it advances
        through the vector engine in one lockstep pass per zone wave:
        rows and the clone plan come from
        :func:`~repro.core.bid_batch.cube_rows` (policy-major, then
        shape, start and bid; for bid-invariant policies one
        representative row per availability-equivalence class
        simulates and the engine clones the rest, never across
        policies or shapes); each row gets the fresh per-start RNG a
        per-(policy, bid, start) :meth:`run_cell` would build, and one
        RNG serves every zone wave of a merged single-zone or Large-bid
        cell, in the serial draw order — so the waves run one after
        another, each carrying every policy.  Large-bid cells run at
        ``LARGE_BID`` and Adaptive cells go through
        :meth:`~repro.core.vector_engine.VectorSimulator.run_adaptive_cube`;
        both take a policy axis and a bid axis of length 1, and every
        record keeps its run's own ``result.bid``.

        Returns, per policy and shape, ``(bid, records)`` pairs over
        ``bids``; per bid the records are start-major (zone-minor for
        merged cells) — bit-identical, values and order, on either
        engine.  Only lists and tuples: the benchmark's record count
        walks them.
        """
        kind = task.kind
        if kind in ("single-zone", "redundant"):
            factories = [POLICY_FACTORIES[label] for label in task.policies]
            if kind == "single-zone":
                labels = list(task.policies)
                waves = [(zone,) for zone in task.zones]
            else:
                labels = [f"{label}-r{task.num_zones}"
                          for label in task.policies]
                waves = [tuple(self.trace.zone_names[: task.num_zones])]
        elif kind == "large-bid":
            factory = (naive_policy if task.threshold is None
                       else partial(LargeBidPolicy, task.threshold))
            factories, labels = [factory], [factory().name]
            waves = [(zone,) for zone in task.zones]
        elif kind == "adaptive":
            factories, labels = [None], ["adaptive"]  # never clones
            waves = [()]
        else:
            raise ValueError(
                f"cube batching is undefined for cell kind {kind!r}"
            )
        configs = list(configs)
        bids = list(bids)
        if kind in ("large-bid", "adaptive") and len(bids) != 1:
            raise ValueError(
                f"a {kind} cell takes exactly one bid, got {len(bids)}"
            )
        if not self._batches(task, configs, bids):
            # one policy at a time; Large-bid and Adaptive tasks bring
            # their own (an empty policy axis)
            cell = [
                [
                    [(bid, [
                        r for start in starts
                        for r in self.run_cell(
                            replace(task, config=config, bid=bid,
                                    policies=policies),
                            start,
                        )
                    ]) for bid in bids]
                    for config, starts in zip(configs, starts_per_shape)
                ]
                for policies in [(p,) for p in task.policies] or [()]
            ]
            self.flush_cache()
            return cell
        rows = cube_rows(
            self.trace,
            tuple(z for zones in waves for z in zones),
            [LARGE_BID] if kind == "large-bid" else bids,
            starts_per_shape,
            [cfg.deadline_s for cfg in configs],
            factories,
        )
        rngs = [self._start_rng(start) for start in rows.starts]
        vec = self.vector
        if kind == "adaptive":
            per_wave = [vec.run_adaptive_cube(
                configs, task.controller_factory or AdaptiveController,
                rows.shape_idx, rows.starts, rngs,
            )]
        else:
            per_wave = [
                vec.run_cube(configs, factories, zones, rows.shape_idx,
                             rows.bids, rows.starts, rngs,
                             clone_of=rows.clone_of,
                             policy_idx=rows.policy_idx)
                for zones in waves
            ]
        out: list[list[list[tuple[float, list[RunRecord]]]]] = []
        for p, label in enumerate(labels):
            per_shape: list[list[tuple[float, list[RunRecord]]]] = []
            for k, shape_starts in enumerate(starts_per_shape):
                pairs: list[tuple[float, list[RunRecord]]] = []
                for bj, bid in enumerate(bids):
                    records = []
                    for si, start in enumerate(shape_starts):
                        row = rows.row(p, k, si, bj)
                        for results in per_wave:
                            records.append(self._record(
                                label, configs[k], results[row].bid,
                                float(start), results[row],
                            ))
                    pairs.append((bid, records))
                per_shape.append(pairs)
            out.append(per_shape)
        return out

    # perfbench/tracing.py patches the next three methods by name, one
    # ``runner.cell`` span each.  None may call another: nested spans
    # would count the same records twice.

    def run_cube_cell(self, task, configs, bids, starts_per_shape):
        """:meth:`_cube_cell`; the serial and parallel cube-chunk entry.
        perfbench patches this name."""
        return self._cube_cell(task, configs, bids, starts_per_shape)

    def run_grid_cell(self, task, bids, starts):
        """One shape's (bid x start) chunk: per policy, ``(bid,
        records)`` pairs.  perfbench patches this name."""
        cell = self._cube_cell(task, [task.config], bids, [starts])
        return [per_shape[0] for per_shape in cell]

    def run_start_axis_cells(self, task, starts):
        """One shape at ``task.bid``: per policy, the chunk's records,
        start-major.  perfbench patches this name."""
        cell = self._cube_cell(task, [task.config], [task.bid], [starts])
        return [per_shape[0][0][1] for per_shape in cell]

    def _run_cube(
        self,
        task: CellTask,
        configs: list[ExperimentConfig],
        bids: list,
    ) -> list[list[dict[float, list[RunRecord]]]]:
        """Every start of ``task`` at each (policy, shape, bid): per
        policy, one ``{bid: records}`` dict per shape, in ``configs``
        order; one :meth:`run_cube_cell`, or contiguous start-chunks
        over :meth:`~repro.experiments.parallel.SweepExecutor.map_cube`
        under workers > 1."""
        starts_per_shape = [
            [float(s) for s in self.starts(config)] for config in configs
        ]
        if self.workers > 1 and max(map(len, starts_per_shape)) > 1:
            return self.executor.map_cube(task, configs, bids,
                                          starts_per_shape)
        cell = self.run_cube_cell(task, configs, bids, starts_per_shape)
        return [[dict(pairs) for pairs in per_shape] for per_shape in cell]

    def run_cube(
        self,
        policies: Sequence[str],
        configs: Sequence[ExperimentConfig],
        bids: Sequence[float],
        zones: Sequence[str] | None = None,
        redundant: bool = False,
        num_zones: int = 3,
    ) -> list[list[dict[float, list[RunRecord]]]]:
        """A (policy x shape x bid x start) cube over one zone set — a
        policy axis, a bid axis, a deadline ladder, or all three, in
        one lockstep pass per zone wave on the vector engine.

        Per policy and shape, the same ``{bid: records}`` — values
        *and* order — as one per-run cell per (policy, shape, bid);
        batched rows share the zone-dynamics column work and the
        bid-equivalence clones inside the vector engine instead
        (:meth:`_batches` picks the engine).  Returns, per label of
        ``policies`` in order, one ``{bid: records}`` dict per shape,
        in ``configs`` order, over the unique bids.  Empty axes,
        unknown labels and a redundancy degree outside 1..(trace
        zones) raise ``ValueError``.
        """
        if isinstance(policies, str):
            raise TypeError(
                "policies is a sequence of policy labels, not one label"
            )
        policies = tuple(policies)
        configs = list(configs)
        if not policies:
            raise ValueError("at least one policy is required")
        for label in policies:
            if label not in POLICY_FACTORIES:
                raise ValueError(f"unknown policy label {label!r}")
        if not configs:
            raise ValueError("at least one job shape is required")
        bids = [float(b) for b in dict.fromkeys(float(b) for b in bids)]
        if not bids:
            raise ValueError("at least one bid is required")
        if redundant:
            available = len(self.trace.zone_names)
            if not 1 <= num_zones <= available:
                raise ValueError(f"redundancy degree must be in "
                                 f"1..{available}, got {num_zones}")
            task = CellTask(kind="redundant", config=configs[0],
                            policies=policies, num_zones=num_zones)
        else:
            cell_zones = tuple(zones) if zones is not None else self.trace.zone_names
            if not cell_zones:
                raise ValueError("at least one zone is required")
            task = CellTask(kind="single-zone", config=configs[0],
                            policies=policies, zones=cell_zones)
        return self._run_cube(task, configs, bids)

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
        return self.run_cube([policy_label], [config], [bid], zones)[0][0][float(bid)]

    def run_redundant(
        self,
        policy_label: str,
        config: ExperimentConfig,
        bid: float,
        num_zones: int = 3,
    ) -> list[RunRecord]:
        """One redundancy-based policy over the first ``num_zones`` zones."""
        return self.run_cube([policy_label], [config], [bid], redundant=True,
                             num_zones=num_zones)[0][0][float(bid)]

    def run_best_redundant(
        self,
        config: ExperimentConfig,
        bids: Sequence[float],
        policy_labels: Sequence[str] = RETAINED_POLICIES + ("edge", "threshold"),
        num_zones: int = 3,
    ) -> dict[float, list[RunRecord]]:
        """Best-case redundancy per experiment (Figure 4's "R" boxes),
        per unique bid: one redundant :meth:`run_cube` over
        ``policy_labels`` x ``bids``, then each start's cheapest run."""
        cube = self.run_cube(policy_labels, [config], bids,
                             redundant=True, num_zones=num_zones)
        return {
            bid: best_case_per_start([per_shape[0][bid] for per_shape in cube])
            for bid in cube[0][0]
        }

    def run_adaptive(
        self,
        config: ExperimentConfig,
        controller_factory: Callable[[], AdaptiveController] = AdaptiveController,
    ) -> list[RunRecord]:
        """The Adaptive scheme: the controller picks bid/zones/policy.

        The initial configuration is a placeholder — the controller's
        first decision (before anything runs) replaces it.
        """
        task = CellTask(kind="adaptive", config=config,
                        controller_factory=controller_factory)
        return self._run_cube(task, [config], [None])[0][0][None]

    def run_large_bid(
        self,
        config: ExperimentConfig,
        threshold: float | None,
        zone: str | None = None,
    ) -> list[RunRecord]:
        """Large-bid at control threshold L (None = Naive), merged zones."""
        zones = (zone,) if zone is not None else self.trace.zone_names
        task = CellTask(kind="large-bid", config=config,
                        threshold=threshold, zones=zones)
        return self._run_cube(task, [config], [None])[0][0][None]

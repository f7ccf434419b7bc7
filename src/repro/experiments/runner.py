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

Every grid cell is a (shape x bid x start) cube with some axes of
length 1.  Vectorised cells go through one cube-chunk body
(:meth:`ExperimentRunner.run_cube_cell`), serially or as contiguous
start-chunks over worker processes
(:meth:`~repro.experiments.parallel.SweepExecutor.map_cube`).  Cells
that must run one simulation at a time — audited runners, the
reference tick engine, ``engine_mode="fast"`` single-bid cells —
decompose into independent per-start units of work, a
:class:`CellTask` plus one start offset (:meth:`run_cell`, fanned out
by ``map_cells``).  Per-start seeding is derived from the start offset
alone, so every path produces identical records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
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
        everywhere, :meth:`run_cube` included; ``"vector"`` also
        batches the single-bid cells (:meth:`run_single_zone` and
        friends) through the struct-of-arrays engine
        (:mod:`repro.core.vector_engine`), which falls back to per-run
        fast simulation for everything it can't express.
        :meth:`run_cube` is vectorised under ``"fast"`` too.  Results
        are bit-identical across all three.
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
        An explicit trace requires ``workers=1``: pool workers rebuild
        the window from ``window``/``seed``, not from this trace.
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
        self._explicit_trace = self.trace is not None
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

    def with_workers(self, workers: int) -> "ExperimentRunner":
        """A runner over the same window, seed, trace and run cache with
        a different degree of parallelism (the window trace is cached,
        so this is cheap).  An explicit trace with ``workers > 1``
        raises ``ValueError``, as the constructor does."""
        if workers == self.workers:
            return self
        explicit = self._explicit_trace
        return ExperimentRunner(
            self.window,
            num_experiments=self.num_experiments,
            seed=self.seed,
            queue_model=self.queue_model,
            workers=workers,
            engine_mode=self.engine_mode,
            audit=self.audit,
            audit_out=self.audit_out,
            trace=self.trace if explicit else None,
            eval_start=self.eval_start if explicit else None,
            cache_dir=self.cache_dir,
            cache=self.cache,
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

    def _cube_cell(
        self,
        task: CellTask,
        configs: Sequence[ExperimentConfig],
        bids: Sequence,
        starts_per_shape: Sequence[Sequence[float]],
    ) -> list[list[tuple[float, list[RunRecord]]]]:
        """One contiguous start-chunk of a (shape x bid x start) cube,
        advanced through the vector engine in one lockstep pass.

        Rows are laid out shape-major, then start, then bid; each row
        gets the fresh per-start RNG a per-(bid, start) :meth:`run_cell`
        would build, and one RNG serves every zone wave of a merged
        single-zone or Large-bid cell, in the serial draw order.  For
        bid-invariant policies the availability-equivalence classes of
        :mod:`repro.core.bid_batch` are resolved per (shape, start):
        one representative row simulates per class and the engine
        clones the rest, so clones never cross shapes.  Large-bid cells
        run at ``LARGE_BID`` and Adaptive cells go through
        :meth:`~repro.core.vector_engine.VectorSimulator.run_adaptive_cube`;
        both take a bid axis of length 1, and every record keeps its
        run's own ``result.bid``.

        Returns, per shape, ``(bid, records)`` pairs over ``bids``; per
        bid the records are start-major (zone-minor for merged cells) —
        bit-identical, values and order, to per-start ``run_cell``
        loops.
        """
        kind = task.kind
        if kind == "single-zone":
            factory = POLICY_FACTORIES[task.policy_label]
            waves = [(task.policy_label, (zone,)) for zone in task.zones]
        elif kind == "redundant":
            factory = POLICY_FACTORIES[task.policy_label]
            waves = [(f"{task.policy_label}-r{task.num_zones}",
                      tuple(self.trace.zone_names[: task.num_zones]))]
        elif kind == "large-bid":
            factory = (naive_policy if task.threshold is None
                       else partial(LargeBidPolicy, task.threshold))
            waves = [(factory().name, (zone,)) for zone in task.zones]
        elif kind == "adaptive":
            waves = [("adaptive", None)]
        else:
            raise ValueError(
                f"cube batching is undefined for cell kind {kind!r}"
            )
        configs = list(configs)
        bids = list(bids)
        nb = len(bids)
        if kind in ("large-bid", "adaptive") and nb != 1:
            raise ValueError(f"a {kind} cell takes exactly one bid, got {nb}")
        shape_idx: list[int] = []
        row_bids: list[float] = []
        row_starts: list[float] = []
        row0: list[int] = []  # first row of each shape's tile
        for k, shape_starts in enumerate(starts_per_shape):
            row0.append(len(row_starts))
            for start in shape_starts:
                for bid in bids:
                    shape_idx.append(k)
                    row_bids.append(LARGE_BID if kind == "large-bid" else bid)
                    row_starts.append(float(start))
        rngs = [self._start_rng(start) for start in row_starts]
        vec = self.vector
        if kind == "adaptive":
            per_wave = [vec.run_adaptive_cube(
                configs, task.controller_factory or AdaptiveController,
                shape_idx, row_starts, rngs,
            )]
        else:
            clone_of = None
            if nb > 1 and factory().bid_invariant:
                cell_zones = tuple(z for _, zones in waves for z in zones)
                bcol = {bid: j for j, bid in enumerate(bids)}
                clone_of = [None] * len(row_bids)
                for k, shape_starts in enumerate(starts_per_shape):
                    for si, start in enumerate(shape_starts):
                        base = row0[k] + si * nb
                        for cls in bid_equivalence_classes(
                            self.trace, cell_zones, bids, float(start),
                            configs[k].deadline_s,
                        ):
                            rep_row = base + bcol[cls.representative]
                            for bid in cls.members:
                                if bid != cls.representative:
                                    clone_of[base + bcol[bid]] = rep_row
            per_wave = [
                vec.run_cube(configs, factory, zones, shape_idx, row_bids,
                             row_starts, rngs, clone_of=clone_of)
                for _, zones in waves
            ]
        out: list[list[tuple[float, list[RunRecord]]]] = []
        for k, shape_starts in enumerate(starts_per_shape):
            pairs: list[tuple[float, list[RunRecord]]] = []
            for bj, bid in enumerate(bids):
                records = []
                for si, start in enumerate(shape_starts):
                    row = row0[k] + si * nb + bj
                    for (label, _), results in zip(waves, per_wave):
                        records.append(self._record(
                            label, configs[k], results[row].bid,
                            float(start), results[row],
                        ))
                pairs.append((bid, records))
            out.append(pairs)
        return out

    # perfbench/tracing.py patches the next three methods by name, one
    # ``runner.cell`` span each.  None may call another: nested spans
    # would count the same records twice.

    def run_cube_cell(self, task, configs, bids, starts_per_shape):
        """:meth:`_cube_cell`; the serial and parallel cube-chunk entry.
        perfbench patches this name."""
        return self._cube_cell(task, configs, bids, starts_per_shape)

    def run_grid_cell(self, task, bids, starts):
        """One shape's (bid x start) chunk: ``(bid, records)`` pairs.
        perfbench patches this name."""
        return self._cube_cell(task, [task.config], bids, [starts])[0]

    def run_start_axis_cells(self, task, starts):
        """One shape at ``task.bid``: the chunk's records, start-major.
        perfbench patches this name."""
        return self._cube_cell(task, [task.config], [task.bid], [starts])[0][0][1]

    def _run_cube(
        self,
        task: CellTask,
        configs: list[ExperimentConfig],
        bids: list,
        vector: bool,
    ) -> list[dict[float, list[RunRecord]]]:
        """Every start of ``task`` at each (shape, bid): one ``{bid:
        records}`` dict per shape, in ``configs`` order.

        ``vector`` sends the whole cube through :meth:`run_cube_cell`
        (contiguous start-chunks via
        :meth:`~repro.experiments.parallel.SweepExecutor.map_cube` under
        workers > 1); otherwise every (shape, bid) runs start by start
        through :meth:`run_cell` (or ``map_cells``), which is what an
        attached auditor needs to observe each run.  Both paths return
        the same records, values and order.
        """
        starts_per_shape = [
            [float(s) for s in self.starts(config)] for config in configs
        ]
        if vector:
            if self.workers > 1 and max(map(len, starts_per_shape)) > 1:
                return self.executor.map_cube(task, configs, bids,
                                              starts_per_shape)
            cell = self.run_cube_cell(task, configs, bids, starts_per_shape)
            return [dict(pairs) for pairs in cell]
        out: list[dict[float, list[RunRecord]]] = []
        for config, starts in zip(configs, starts_per_shape):
            per_bid: dict[float, list[RunRecord]] = {}
            for bid in bids:
                cell = replace(task, config=config, bid=bid)
                if self.workers > 1 and len(starts) > 1:
                    per_bid[bid] = self.executor.map_cells(cell, starts)
                else:
                    per_bid[bid] = [
                        r for start in starts for r in self.run_cell(cell, start)
                    ]
            out.append(per_bid)
        self.flush_cache()
        return out

    def _run_task(self, task: CellTask) -> list[RunRecord]:
        """All starts of one single-shape cell at ``task.bid``; batched
        through the vector engine under ``engine_mode="vector"``
        (audited runners excepted), per run otherwise."""
        vector = self.engine_mode == "vector" and not self.audit
        return self._run_cube(task, [task.config], [task.bid], vector)[0][task.bid]

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
        start) cube — a bid axis, a deadline ladder, or both, in one
        lockstep pass.

        Per shape, the same ``{bid: records}`` — values *and* order —
        as :meth:`run_single_zone` / :meth:`run_redundant` called once
        per (shape, bid); the rows share the zone-dynamics column work
        and the bid-equivalence clones inside the vector engine
        instead.  Audited runners and ``engine_mode="tick"`` simulate
        per run, so the auditor observes every run and the reference
        engine stays the reference.  Returns one ``{bid: records}``
        dict per shape, in ``configs`` order, over the unique bids.
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
        vector = not (self.audit or self.engine_mode == "tick")
        return self._run_cube(task, configs, bids, vector)

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
        return self._run_task(
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
        return self._run_task(
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
        return self._run_task(
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
        return self._run_task(
            CellTask(kind="large-bid", config=config,
                     threshold=threshold, zones=zones)
        )

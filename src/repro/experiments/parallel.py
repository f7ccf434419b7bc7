"""Parallel sweep executor — grid cells over a process pool.

The evaluation protocol (Section 5) runs 80 overlapping experiments
per grid cell across policies x bids x zones x slack x checkpoint
costs — tens of thousands of tick-by-tick simulations that are
embarrassingly parallel across start offsets: per-start seeding is
derived from the start offset alone
(:meth:`~repro.experiments.runner.ExperimentRunner.simulator`), so no
work unit observes another's randomness.  There is one fan-out:
:meth:`SweepExecutor.map_cube` ships contiguous start-chunks of a
(policy x shape x bid x start) cube, each run by the worker's
:meth:`~repro.experiments.runner.ExperimentRunner.run_cube_cell` on
whichever engine the runner's rule picks.

Design:

* **Per-process window.**  Each worker builds its trace and oracle
  once, at pool start-up, through the process-wide
  :func:`~repro.traces.library.evaluation_window` cache; the pool's
  forked workers inherit any window the parent already generated, and
  every worker's oracle fits its Markov chains lazily for the buckets
  its own cells touch.
* **Ordered merge.**  Futures are collected in submission (= start)
  order, so the record list is identical — values and order — to the
  serial path.  ``RunRecord`` trees are plain frozen dataclasses of
  floats/strings/tuples; pickling them is exact, so parallel results
  are bit-identical to serial runs.
* **Pool reuse.**  The pool outlives a single ``map_cube`` call: one
  :class:`SweepExecutor` serves a whole figure's worth of cells, so
  process start-up and trace construction are paid once per sweep,
  not once per cell.

Use it through ``ExperimentRunner(..., workers=N)`` (or the CLI's
``--workers N``); instantiating :class:`SweepExecutor` directly is
only needed for custom grids.
"""

from __future__ import annotations

import glob
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.audit.auditor import AuditReport
from repro.core.vector_engine import BatchStats
from repro.experiments.cache import CacheStats
from repro.experiments.metrics import RunRecord
from repro.experiments.runner import CellTask, ExperimentRunner
from repro.market.queuing import QueueDelayModel
from repro.traces.library import DEFAULT_SEED

#: The per-process runner, created by :func:`_init_worker`.
_WORKER_RUNNER: ExperimentRunner | None = None


def _init_worker(
    window: str,
    num_experiments: int,
    seed: int,
    queue_model: QueueDelayModel,
    engine_mode: str = "fast",
    audit: bool = False,
    audit_out: str | None = None,
    cache_dir: str | None = None,
) -> None:
    """Build this worker's trace + oracle once; all cells share them.

    The window comes from :func:`~repro.traces.library.evaluation_window`
    (``lru_cache``d per process), exactly as a serial runner builds it,
    so results are bit-identical to the in-process path.

    An audited pool gives each worker its own ``<audit_out>.w<pid>``
    JSONL file — concurrent appends to one shared file would interleave
    partial lines, and per-process files need no locking.  The sidecar
    is truncated at worker start-up: the OS recycles pids, so a
    leftover file from an earlier pool must not silently receive this
    worker's appended stream on top of stale events.  Sidecars are
    merged into the main ``audit_out`` file (and removed) when the
    executor closes.

    A ``cache_dir`` gives every worker a run cache over the *same*
    on-disk layer (entry writes are atomic, so concurrent workers are
    safe).
    """
    global _WORKER_RUNNER
    if audit_out is not None:
        audit_out = f"{audit_out}.w{os.getpid()}"
        try:
            os.unlink(audit_out)  # pid reuse: never append to stale events
        except OSError:
            pass
    _WORKER_RUNNER = ExperimentRunner(
        window,
        num_experiments=num_experiments,
        seed=seed,
        queue_model=queue_model,
        workers=1,
        engine_mode=engine_mode,
        audit=audit,
        audit_out=audit_out,
        cache_dir=cache_dir,
    )


def _run_cube_chunk(
    task: CellTask, configs: tuple, bids: tuple, starts_per_shape: tuple
) -> tuple:
    """Worker entry point: one start-chunk of a (policy x shape x bid x
    start) cube on the shared runner
    (:meth:`~repro.experiments.runner.ExperimentRunner.run_cube_cell`).

    Returns the chunk plus the drained audit report, run-cache
    counters and vector-batch counters (``None`` when the respective
    feature is off), so violations and hit/miss/native tallies observed
    inside the worker travel back to the parent with the results they
    describe.  The worker's run cache is flushed first, so the chunk's
    stored runs are on disk (one segment) before its results arrive.
    """
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker pool used before initialization")
    cell = runner.run_cube_cell(
        task, list(configs), list(bids),
        [list(starts) for starts in starts_per_shape],
    )
    runner.flush_cache()
    report = runner.drain_audit() if runner.audit else None
    return cell, report, runner.drain_cache_stats(), runner.drain_vector_stats()


@dataclass
class SweepExecutor:
    """Fans grid cells out over a :class:`ProcessPoolExecutor`.

    Parameters mirror :class:`ExperimentRunner` — the worker processes
    rebuild the same runner from them, so a task executed remotely is
    indistinguishable from one executed in-process.
    """

    window: str
    num_experiments: int
    seed: int = DEFAULT_SEED
    workers: int = 2
    queue_model: QueueDelayModel = field(default_factory=QueueDelayModel)
    engine_mode: str = "fast"
    audit: bool = False
    audit_out: str | None = None
    #: Shared on-disk run-cache directory handed to every worker
    #: (``None`` disables worker-side caching).
    cache_dir: str | None = None
    _pool: ProcessPoolExecutor | None = field(default=None, repr=False)
    _audit_report: AuditReport = field(default_factory=AuditReport, repr=False)
    _cache_stats: CacheStats = field(default_factory=CacheStats, repr=False)
    _vector_stats: BatchStats = field(default_factory=BatchStats, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.audit_out is not None:
            self.audit = True

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.window,
                    self.num_experiments,
                    self.seed,
                    self.queue_model,
                    self.engine_mode,
                    self.audit,
                    self.audit_out,
                    self.cache_dir,
                ),
            )
        return self._pool

    def _absorb_extras(self, report, stats, vstats=None) -> None:
        if report is not None:
            self._audit_report.merge(report)
        if stats is not None:
            self._cache_stats.merge(stats)
        if vstats is not None:
            self._vector_stats.merge(vstats)

    def map_cube(
        self,
        task: CellTask,
        configs: Sequence,
        bids: Sequence[float],
        starts_per_shape: Sequence[Sequence[float]],
    ) -> list[list[dict[float, list[RunRecord]]]]:
        """Run a (policy x shape x bid x start) cube over the pool —
        every cell, a lone per-run cell included.

        Every shape's start grid splits into one contiguous chunk per
        worker (start order preserved); chunk w carries shape k's w-th
        slice for *all* shapes and all of the task's policies and bids,
        so each worker makes the parent's engine choice
        (:meth:`~repro.experiments.runner.ExperimentRunner.run_cube_cell`):
        a batched chunk advances the whole policy axis and shape ladder
        in one lockstep pass per zone wave, keeping the zone-dynamics
        column sharing across the fan-out, and a per-run chunk loops
        its units.  The ordered merge reproduces, per policy and shape,
        the serial records, values and order.
        """
        pool = self._ensure_pool()
        configs = tuple(configs)
        bids = tuple(bids)
        split_per_shape = [
            np.array_split(
                np.asarray([float(s) for s in starts]), self.workers
            )
            for starts in starts_per_shape
        ]
        chunks = []
        for w in range(self.workers):
            per_shape = tuple(
                tuple(float(s) for s in split_per_shape[k][w])
                for k in range(len(configs))
            )
            if any(per_shape):
                chunks.append(per_shape)
        futures = [
            pool.submit(_run_cube_chunk, task, configs, bids, per_shape)
            for per_shape in chunks
        ]
        out: list[list[dict[float, list[RunRecord]]]] = []
        for future in futures:
            cell, *extras = future.result()
            if not out:
                out = [[{bid: [] for bid in bids} for _ in configs]
                       for _ in cell]
            for p, per_shape in enumerate(cell):
                for k, pairs in enumerate(per_shape):
                    for bid, records in pairs:
                        out[p][k][bid].extend(records)
            self._absorb_extras(*extras)
        return out

    def drain_audit(self) -> AuditReport:
        """Hand off (and clear) the audit reports workers shipped back."""
        report = self._audit_report
        self._audit_report = AuditReport()
        return report

    def drain_cache_stats(self) -> CacheStats | None:
        """Hand off (and clear) the run-cache counters workers shipped
        back with their results.

        ``None`` when no ``cache_dir`` is configured — the workers
        cannot have counted anything, and the contract matches
        :meth:`ExperimentRunner.drain_cache_stats` so direct executor
        callers can distinguish "cache off" from "cache cold" instead
        of printing a zero-hit stats line for uncached commands.
        """
        if self.cache_dir is None:
            return None
        stats = self._cache_stats
        self._cache_stats = CacheStats()
        return stats

    def drain_vector_stats(self) -> BatchStats:
        """Hand off (and clear) the vector-batch counters workers
        shipped back with their results (all-zero when no worker ran a
        vector batch)."""
        stats = self._vector_stats
        self._vector_stats = BatchStats()
        return stats

    def _merge_audit_sidecars(self) -> None:
        """Fold the workers' ``.w<pid>`` JSONL sidecars into the main
        ``audit_out`` stream and remove them.

        Runs after the pool has shut down, so every sidecar is complete
        (worker streams flush at run-end boundaries and on process
        exit).  Merge order is sorted by filename for determinism; the
        main file may already hold the parent's own in-process events —
        the sidecars are appended after them.
        """
        if self.audit_out is None:
            return
        main = Path(self.audit_out)
        sidecars = sorted(main.parent.glob(glob.escape(main.name) + ".w*"))
        if not sidecars:
            return
        with main.open("a") as out:
            for sidecar in sidecars:
                try:
                    out.write(sidecar.read_text())
                    sidecar.unlink()
                except OSError:  # pragma: no cover - concurrent removal
                    continue

    def close(self) -> None:
        """Shut the pool down and merge audit sidecars (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._merge_audit_sidecars()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

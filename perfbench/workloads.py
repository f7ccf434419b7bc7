"""The benchmark's two workloads.

Each workload builds its inputs from the seed alone: the seed drives the
trace archive (both evaluation windows) and, for ``advisor-ladder``, the
query stream.  A repetition has three parts:

* :meth:`Workload.setup` regenerates the trace archive and builds every
  per-run object (runners, oracles, store), so no repetition inherits
  another's warm state;
* :meth:`Workload.measure` runs the measured phase, timing each chunk
  under a label through the ``timer`` it is given;
* :meth:`Workload.counts` returns the exact counts of that phase, which
  must repeat across repetitions.

:meth:`Workload.check` then verifies the last repetition's outputs,
untimed, against references the measured path does not use.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.app.workload import ExperimentConfig, paper_experiment
from repro.core.vector_engine import BatchStats
from repro.experiments.cache import CacheStats
from repro.experiments.runner import CellTask, ExperimentRunner
from repro.market.constants import (
    BASE_COMPUTE_HOURS,
    CKPT_COST_HIGH_S,
    CKPT_COST_LOW_S,
    SLACK_HIGH,
    SLACK_LOW,
)
from repro.service.advisor import AdvisorService, JobSpec
from repro.service.surface import SurfaceBuilder, SurfaceSpec, SurfaceStore
from repro.traces import library

WINDOWS = ("low", "high")
SLACKS = (SLACK_LOW, SLACK_HIGH)
CKPT_COSTS = (CKPT_COST_LOW_S, CKPT_COST_HIGH_S)

#: Spawn keys separating the benchmark's own random streams from the
#: archive's, which uses the seed with (year, month) keys.
CHECK_STREAM = (0xC4EC,)
QUERY_STREAM = (0xA5C,)


def fresh_archive() -> None:
    """Drop the process-wide trace archive so the next window request
    regenerates it from the seed."""
    for fn in (library.evaluation_window, library.month_trace):
        while not hasattr(fn, "cache_clear"):  # under a tracing wrapper
            fn = fn.__wrapped__
        fn.cache_clear()


def shapes():
    """Every (window, job shape) of Figures 4/5: windows x slacks x t_c."""
    for window in WINDOWS:
        for slack in SLACKS:
            for tc in CKPT_COSTS:
                yield window, paper_experiment(slack_fraction=slack, ckpt_cost_s=tc)


def shape_label(window: str, config: ExperimentConfig) -> str:
    return f"{window}/s{config.slack_fraction:.2f}/tc{config.ckpt_cost_s:.0f}"


@dataclass
class CheckLog:
    """Units attempted and the ones that failed an output check."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def unit(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)


class Workload:
    """One benchmark workload; see the module docstring."""

    name = ""
    #: A one-line statement of the scale, printed in the report.
    scale = ""

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, timer) -> None:
        raise NotImplementedError

    def counts(self) -> dict:
        raise NotImplementedError

    def extra(self) -> dict:
        """Per-repetition values that are not exact counts."""
        return {}

    def engine_runs(self, best: dict[str, float]) -> tuple[int, float]:
        """Engine runs of the phase and the seconds they took, given
        the per-chunk best times."""
        return self._rows, sum(best.values())

    def check(self) -> CheckLog:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the last repetition still holds."""

    def _drain_instances(self, cls_name: str) -> list:
        return self.tracer.instances.pop(cls_name, [])


def _vector_counts(stats: BatchStats) -> dict:
    return {
        "vector.rows_native": stats.native,
        "vector.rows_cloned": stats.cloned,
        "vector.rows_fallback": sum(stats.fallback.values()),
    }


def _memo_counts(memos) -> dict:
    return {
        "adaptive.memo_hits": sum(m.hits for m in memos),
        "adaptive.memo_misses": sum(m.misses for m in memos),
    }


class Fig5Adaptive(Workload):
    """The Adaptive cells of Figure 5 on the vector engine."""

    name = "fig5-adaptive"
    num_experiments = 8
    scale = (
        "2 windows x 2 slacks x 2 t_c = 8 Adaptive cells (run_adaptive); "
        f"num_experiments={num_experiments}"
    )

    def setup(self) -> None:
        fresh_archive()
        self.tracer.instances.clear()
        self.runners = {
            w: ExperimentRunner(w, num_experiments=self.num_experiments,
                                seed=self.seed, engine_mode="vector")
            for w in WINDOWS
        }
        self.out: dict[str, list] = {}

    def counts(self) -> dict:
        stats = BatchStats()
        for runner in self.runners.values():
            drained = runner.drain_vector_stats()
            if drained is not None:
                stats.merge(drained)
        self._rows = stats.total
        counts = {
            "runner.records": sum(len(r) for r in self.out.values()),
            **_vector_counts(stats),
            **_memo_counts(self._drain_instances("SelectionMemo")),
        }
        self._drain_instances("RunCache")
        return counts

    def _reference(self, window: str) -> ExperimentRunner:
        """A per-run fast-engine runner over the same trace."""
        runner = self.runners[window]
        return ExperimentRunner(
            window, num_experiments=self.num_experiments, seed=self.seed,
            engine_mode="fast", trace=runner.trace,
            eval_start=runner.eval_start,
        )

    def measure(self, timer) -> None:
        for window, config in shapes():
            label = shape_label(window, config)
            with timer(label):
                self.out[label] = self.runners[window].run_adaptive(config)

    def check(self) -> CheckLog:
        """Every cell meets its deadlines; one sampled start per cell is
        bit-identical to a per-run fast-engine controller run."""
        log = CheckLog()
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=CHECK_STREAM)
        )
        for window, config in shapes():
            ref = self._reference(window)
            label = shape_label(window, config)
            records = self.out[label]
            starts = [float(s) for s in ref.starts(config)]
            start = starts[int(rng.integers(len(starts)))]
            want = ref.run_cell(CellTask(kind="adaptive", config=config), start)
            got = [r for r in records if r.start_time == start]
            ok = bool(records) and all(r.met_deadline for r in records)
            log.unit(label, ok and got == want)
        return log


class AdvisorLadder(Workload):
    """Offline ladder builds, then an online query stream."""

    name = "advisor-ladder"
    num_experiments = 6
    compute_s = BASE_COMPUTE_HOURS * 3600.0
    ckpt_cost_s = CKPT_COST_LOW_S
    rungs_h = (22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0, 36.0)
    num_batches = 32
    batch_size = 64  # the ``serve`` default
    max_hot = 8  # half the catalog
    scale = (
        f"2 windows x {len(rungs_h)}-rung deadline ladders = "
        f"{2 * len(rungs_h)} surfaces (2 policies x 3 bids x zone counts 1,3), "
        f"num_experiments={num_experiments}; {num_batches} batches x "
        f"{batch_size} queries, max_hot={max_hot}"
    )

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        super().__init__(seed, tracer, workdir)
        self.batches = self._query_stream()
        self.root: str | None = None

    # -- inputs ----------------------------------------------------------

    def _query_stream(self) -> list[list[JobSpec]]:
        """Batches of queries, skewed toward a few hot surfaces: exact
        rungs, deadlines between rungs, optional budgets and in-batch
        duplicates."""
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=QUERY_STREAM)
        )
        surfaces = [(w, i) for w in WINDOWS for i in range(len(self.rungs_h))]
        hot = rng.permutation(len(surfaces))
        weights = 1.0 / np.arange(1, len(surfaces) + 1)
        weights /= weights.sum()
        batches = []
        for _ in range(self.num_batches):
            batch: list[JobSpec] = []
            while len(batch) < self.batch_size:
                if batch and rng.random() < 0.15:
                    batch.append(batch[int(rng.integers(len(batch)))])
                    continue
                window, i = surfaces[hot[rng.choice(len(surfaces), p=weights)]]
                deadline_h = self.rungs_h[i]
                if i + 1 < len(self.rungs_h) and rng.random() < 0.4:
                    gap = self.rungs_h[i + 1] - deadline_h
                    deadline_h += gap * rng.uniform(0.05, 0.95)
                budget = None
                if rng.random() < 0.4:
                    budget = float(np.round(rng.uniform(4.0, 40.0), 2))
                batch.append(JobSpec(
                    compute_s=self.compute_s, deadline_s=deadline_h * 3600.0,
                    ckpt_cost_s=self.ckpt_cost_s, budget=budget, window=window,
                ))
            batches.append(batch)
        return batches

    def _ladder(self, window: str) -> list[SurfaceSpec]:
        return [
            SurfaceSpec.for_config(
                window,
                ExperimentConfig(
                    compute_s=self.compute_s, deadline_s=h * 3600.0,
                    ckpt_cost_s=self.ckpt_cost_s,
                    restart_cost_s=self.ckpt_cost_s,
                ),
                num_experiments=self.num_experiments, seed=self.seed,
            )
            for h in self.rungs_h
        ]

    # -- repetition ------------------------------------------------------

    def setup(self) -> None:
        self.close()
        fresh_archive()
        self.tracer.instances.clear()
        for window in WINDOWS:
            library.evaluation_window(window, self.seed)
        self.root = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.store = SurfaceStore(self.root)
        self.ladders = {w: self._ladder(w) for w in WINDOWS}
        self.cold: dict[str, list] = {}
        self.warm: dict[str, list] = {}
        self.phase_counts: dict = {}
        self.answers: list = []
        self.latencies_s: list[float] = []

    def _cache_counts(self, phase: str) -> dict:
        stats = CacheStats()
        for cache in self._drain_instances("RunCache"):
            stats.merge(cache.stats)
        return {
            f"cache.{phase}.gets": stats.lookups,
            f"cache.{phase}.hits": stats.hits,
            f"cache.{phase}.disk_hits": stats.disk_hits,
            f"cache.{phase}.misses": stats.misses,
            f"cache.{phase}.stores": stats.stores,
        }

    def _build(self, phase: str, timer, out: dict) -> None:
        builder = SurfaceBuilder(store=self.store)
        for window in WINDOWS:
            with timer(f"{phase}/{window}"):
                out[window] = builder.build_family(self.ladders[window])
        stats = builder.drain_vector_stats() or BatchStats()
        self.phase_counts.update(self._cache_counts(phase))
        self.phase_counts.update({
            f"{k}.{phase}": v for k, v in _vector_counts(stats).items()
        })
        if phase == "cold":
            self._rows = stats.total

    def measure(self, timer) -> None:
        self._build("cold", timer, self.cold)
        self._build("warm", timer, self.warm)
        with timer("serve/catalog"):
            self.service = AdvisorService(self.store, max_hot=self.max_hot)
        asyncio.run(self._serve(timer))

    async def _serve(self, timer) -> None:
        service = self.service
        latencies = self.latencies_s

        async def ask(job: JobSpec, t0: float):
            advice = await service.advise(job)
            latencies.append(perf_counter() - t0)
            return advice

        for b, batch in enumerate(self.batches):
            with timer(f"serve/batch{b:02d}"):
                t0 = perf_counter()
                self.answers.extend(
                    await asyncio.gather(*(ask(job, t0) for job in batch))
                )

    def counts(self) -> dict:
        s = self.service.stats
        return {
            **self.phase_counts,
            "advisor.queries": s.queries,
            "advisor.interpolated": s.interpolated,
            "advisor.coalesced": s.coalesced,
            "advisor.cold_builds": s.cold_builds,
        }

    def extra(self) -> dict:
        """Query latency percentiles, and the counts that depend on the
        order in which worker-thread loads finish."""
        s = self.service.stats
        p50, p99 = np.percentile(self.latencies_s, [50, 99]) * 1e3
        return {"advisor.hot_hits": s.hot_hits,
                "advisor.disk_loads": s.disk_loads,
                "p50_ms": float(p50), "p99_ms": float(p99)}

    def engine_runs(self, best: dict[str, float]) -> tuple[int, float]:
        cold = sum(v for k, v in best.items() if k.startswith("cold/"))
        return self._rows, cold

    # -- checks ----------------------------------------------------------

    def check(self) -> CheckLog:
        """Warm surfaces equal cold ones with zero cache misses, no cell
        misses a deadline, exact answers equal their surface's
        ``best(budget)``, interpolated costs lie inside their bracket,
        and nothing was built cold."""
        log = CheckLog()
        warm_misses = self.phase_counts.get("cache.warm.misses", -1)
        by_key = {}
        for window in WINDOWS:
            for cold, warm in zip(self.cold[window], self.warm[window]):
                by_key[cold.key] = cold
                ok = (
                    cold.key == warm.key and cold.cells == warm.cells
                    and warm_misses == 0
                    and all(c.miss_risk == 0.0 for c in cold.cells)
                )
                log.unit(f"surface/{window}/{cold.spec.deadline_s / 3600:g}h", ok)
        jobs = [job for batch in self.batches for job in batch]
        for n, (job, advice) in enumerate(zip(jobs, self.answers)):
            log.unit(f"query/{n}", self._answer_ok(job, advice, by_key))
        log.unit("advisor.cold_builds", self.service.stats.cold_builds == 0)
        return log

    def _answer_ok(self, job: JobSpec, advice, by_key: dict) -> bool:
        ladder = self.cold[job.window]
        exact = [s for s in ladder if s.spec.covers(
            job.compute_s, job.deadline_s, job.ckpt_cost_s)]
        if exact:
            surface = exact[0]
            best = surface.best(job.budget)
            within = best is not None
            best = best or surface.best()
            return (
                advice.source == "surface"
                and advice.surface_key == surface.key
                and (advice.policy, advice.zones, advice.bid) ==
                (best.policy, best.zones, best.bid)
                and advice.expected_cost == best.expected_cost
                and advice.worst_cost == best.worst_cost
                and advice.within_budget == within
            )
        lo = max((s for s in ladder if s.spec.deadline_s <= job.deadline_s),
                 key=lambda s: s.spec.deadline_s)
        hi = min((s for s in ladder if s.spec.deadline_s >= job.deadline_s),
                 key=lambda s: s.spec.deadline_s)
        costs = [
            (s.best(job.budget) or s.best()).expected_cost for s in (lo, hi)
        ]
        return (
            advice.source == "interpolated"
            and advice.surface_key in (lo.key, hi.key)
            and min(costs) <= advice.expected_cost <= max(costs)
            and by_key.get(advice.surface_key) is not None
        )

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


WORKLOADS = {w.name: w for w in (Fig5Adaptive, AdvisorLadder)}

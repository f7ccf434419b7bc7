"""Parallel sweep execution must be invisible in the results.

A 4-worker run of any grid cell returns the exact record list — values
and order — of the serial path: per-start seeding depends only on the
start offset, and the executor merges futures in submission order.
"""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.vector_engine import FALLBACK_CONTROLLER, FALLBACK_REASONS
from repro.experiments.parallel import SweepExecutor
from repro.experiments.runner import CellTask, ExperimentRunner


class TweakedController(AdaptiveController):
    """Module-level (picklable) controller subclass: exercises the
    vector engine's controller fallback through worker processes."""


@pytest.fixture(scope="module")
def serial():
    return ExperimentRunner("low", num_experiments=5)


@pytest.fixture(scope="module")
def parallel():
    with ExperimentRunner("low", num_experiments=5, workers=4) as runner:
        yield runner


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)


class TestIdenticalRecords:
    def test_single_zone(self, serial, parallel, config):
        a = serial.run_single_zone("markov-daly", config, 0.81)
        b = parallel.run_single_zone("markov-daly", config, 0.81)
        assert a == b

    def test_redundant(self, serial, parallel, config):
        a = serial.run_redundant("periodic", config, 0.81)
        b = parallel.run_redundant("periodic", config, 0.81)
        assert a == b

    def test_adaptive(self, serial, parallel, config):
        a = serial.run_adaptive(config)
        b = parallel.run_adaptive(config)
        assert a == b

    def test_large_bid(self, serial, parallel, config):
        a = serial.run_large_bid(config, 0.81)
        b = parallel.run_large_bid(config, 0.81)
        assert a == b


class TestExecutor:
    def test_map_cube_per_run_chunks_order_by_start(self, serial, config):
        """A lone fast-engine cell runs per run in every worker; the
        ordered merge puts the chunks back in start order."""
        task = CellTask(kind="redundant", config=config,
                        policies=("periodic",))
        starts = [float(s) for s in serial.starts(config)]
        with SweepExecutor("low", num_experiments=5, workers=2) as ex:
            ((per_bid,),) = ex.map_cube(task, [config], [0.81], [starts])
            assert ex.drain_vector_stats().total == 0
        records = per_bid[0.81]
        assert [r.start_time for r in records] == starts
        assert records == serial.run_redundant("periodic", config, 0.81)

    @pytest.mark.parametrize("kwargs", [
        {"audit": True}, {"engine_mode": "tick"},
    ], ids=["audited", "tick"])
    def test_per_run_runners_match_serial_over_the_pool(
        self, serial, config, kwargs
    ):
        """Audited and tick runners run every cube per run; with two
        workers their chunks still give the serial fast runner's
        records, and no chunk touches the vector engine."""
        bids = [0.27, 0.81]
        want = serial.run_cube(["periodic"], [config], bids)
        with ExperimentRunner("low", num_experiments=5, workers=2,
                              **kwargs) as runner:
            got = runner.run_cube(["periodic"], [config], bids)
            assert runner.drain_vector_stats() is None
            report = runner.drain_audit()
        assert got == want
        if runner.audit:
            assert report.ok
            assert report.counters.runs == sum(map(len, want[0][0].values()))

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ExperimentRunner("low", num_experiments=5, workers=0)
        with pytest.raises(ValueError):
            SweepExecutor("low", num_experiments=5, workers=0)

    def test_worker_init_builds_the_cached_window(self):
        """A pool worker's runner holds the process's cached evaluation
        window, exactly the trace a serial runner builds."""
        from repro.experiments import parallel
        from repro.market.queuing import QueueDelayModel
        from repro.traces.library import DEFAULT_SEED, evaluation_window

        saved = parallel._WORKER_RUNNER
        try:
            parallel._init_worker("low", 4, DEFAULT_SEED, QueueDelayModel())
            runner = parallel._WORKER_RUNNER
            trace, eval_start = evaluation_window("low", DEFAULT_SEED)
            assert runner.trace is trace
            assert runner.eval_start == eval_start
        finally:
            parallel._WORKER_RUNNER = saved

    def test_close_is_idempotent(self):
        runner = ExperimentRunner("low", num_experiments=5, workers=2)
        config = paper_experiment()
        runner.run_redundant("periodic", config, 0.81)
        runner.close()
        runner.close()
        # After close, the pool is rebuilt on demand.
        records = runner.run_redundant("periodic", config, 0.81)
        assert records
        runner.close()


class TestDrainCacheStatsContract:
    """Both drain paths agree: ``None`` when no cache is configured, so
    no caller can print a zero-hit stats line for an uncached command."""

    def test_executor_none_without_cache_dir(self, serial, config):
        starts = [float(serial.starts(config)[0])]
        with SweepExecutor("low", num_experiments=3, workers=2) as ex:
            task = CellTask(kind="redundant", config=config,
                            policies=("periodic",))
            ex.map_cube(task, [config], [0.81], [starts])
            assert ex.drain_cache_stats() is None

    def test_executor_stats_with_cache_dir(self, serial, config, tmp_path):
        starts = [float(serial.starts(config)[0])]
        with SweepExecutor("low", num_experiments=3, workers=2,
                           cache_dir=str(tmp_path)) as ex:
            task = CellTask(kind="redundant", config=config,
                            policies=("periodic",))
            ex.map_cube(task, [config], [0.81], [starts])
            stats = ex.drain_cache_stats()
            assert stats is not None
            assert stats.lookups > 0

    def test_runner_and_executor_agree(self, config):
        with ExperimentRunner("low", num_experiments=3, workers=2) as runner:
            runner.run_redundant("periodic", config, 0.81)
            assert runner.drain_cache_stats() is None
            assert runner.executor.drain_cache_stats() is None

    def test_vector_stats_native_counts_survive_worker_merge(self, config):
        """BatchStats ride the worker-extras channel; the ordered merge
        must add up to the whole cell, all native for Adaptive."""
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              engine_mode="vector") as runner:
            records = runner.run_adaptive(config)
            stats = runner.drain_vector_stats()
        assert stats is not None
        assert stats.native == len(records)
        assert stats.cloned == 0 and stats.fallback == {}

    def test_vector_stats_fallback_reasons_survive_worker_merge(self, config):
        """The per-reason fallback breakdown is preserved end to end —
        workers count under the closed enum, the merge keeps the keys."""
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              engine_mode="vector") as runner:
            records = runner.run_adaptive(config, TweakedController)
            stats = runner.drain_vector_stats()
        assert stats is not None
        assert stats.native == 0
        assert stats.fallback == {FALLBACK_CONTROLLER: len(records)}
        assert set(stats.fallback) <= FALLBACK_REASONS

    def test_runner_memory_cache_with_uncached_workers(self, config):
        """An injected in-memory cache (no cache_dir) must not crash the
        merge with the executor's None."""
        from repro.experiments.cache import RunCache

        with ExperimentRunner("low", num_experiments=3, workers=2,
                              cache=RunCache()) as runner:
            runner.run_redundant("periodic", config, 0.81)
            stats = runner.drain_cache_stats()
            assert stats is not None

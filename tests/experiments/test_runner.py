"""Integration tests for the experiment runner (small grids)."""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.experiments.metrics import deadline_violations
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner("low", num_experiments=4)


class TestGeometry:
    def test_starts_fit_inside_window(self, runner):
        config = paper_experiment(slack_fraction=0.5)
        starts = runner.starts(config)
        assert len(starts) == 4
        assert starts[0] >= runner.eval_start
        assert starts[-1] + config.deadline_s <= runner.trace.end_time

    def test_starts_on_sample_grid(self, runner):
        config = paper_experiment()
        for s in runner.starts(config):
            assert (s - runner.eval_start) % 300 == 0

    def test_simulators_reproducible_per_start(self, runner):
        config = paper_experiment()
        start = runner.starts(config)[0]
        a = runner.simulator(start).rng.random()
        b = runner.simulator(start).rng.random()
        assert a == b


class TestGridShapes:
    def test_single_zone_merges_zones(self, runner):
        config = paper_experiment(slack_fraction=0.5)
        records = runner.run_single_zone("periodic", config, 0.81)
        # 4 starts x 3 zones
        assert len(records) == 12
        assert all(r.label == "periodic" for r in records)
        assert not deadline_violations(records)

    def test_redundant_labels(self, runner):
        config = paper_experiment(slack_fraction=0.5)
        records = runner.run_redundant("markov-daly", config, 0.81)
        assert len(records) == 4
        assert all(r.label == "markov-daly-r3" for r in records)

    def test_redundant_degree(self, runner):
        config = paper_experiment(slack_fraction=0.5)
        records = runner.run_redundant("periodic", config, 0.81, num_zones=2)
        assert all(len(r.result.zones) == 2 for r in records)

    def test_best_redundant_covers_starts(self, runner):
        config = paper_experiment(slack_fraction=0.5)
        best = runner.run_best_redundant(
            config, 0.81, policy_labels=("periodic", "markov-daly")
        )
        assert len(best) == 4
        explicit = runner.run_redundant("periodic", config, 0.81)
        by_start = {r.start_time: r.cost for r in explicit}
        for record in best:
            assert record.cost <= by_start[record.start_time] + 1e-9

    def test_large_bid_naive_label(self, runner):
        config = paper_experiment(slack_fraction=0.5)
        records = runner.run_large_bid(config, None, zone="us-east-1a")
        assert len(records) == 4
        assert all(r.label == "large-bid-naive" for r in records)

    def test_adaptive_runs(self, runner):
        config = paper_experiment(slack_fraction=0.5)
        records = runner.run_adaptive(config)
        assert len(records) == 4
        assert all(r.label == "adaptive" for r in records)
        assert not deadline_violations(records)

    def test_same_start_same_delays_across_policies(self, runner):
        """Paired experiments: each (policy, bid) cell sees identical
        queue-delay draws at the same start offset."""
        config = paper_experiment(slack_fraction=0.5)
        a = runner.run_single_zone("periodic", config, 0.81,
                                   zones=("us-east-1a",))
        b = runner.run_single_zone("periodic", config, 0.81,
                                   zones=("us-east-1a",))
        assert [r.cost for r in a] == [r.cost for r in b]


class TestWorkerConfiguration:
    def test_explicit_trace_refuses_workers(self):
        """Pool workers rebuild the window from window/seed, so an
        explicit trace under workers > 1 would silently simulate a
        different trace: refuse it."""
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window("high", 7)
        with pytest.raises(ValueError, match="explicit trace"):
            ExperimentRunner("high", num_experiments=2, seed=0, trace=trace,
                             eval_start=eval_start, workers=2)
        one = ExperimentRunner("high", num_experiments=2, seed=0,
                               trace=trace, eval_start=eval_start)
        assert one.trace is trace

    def test_explicit_trace_requires_eval_start(self):
        from repro.traces.library import evaluation_window

        trace, _ = evaluation_window("low")
        with pytest.raises(ValueError):
            ExperimentRunner("low", num_experiments=4, trace=trace)

    def test_with_workers_keeps_trace_and_cache(self):
        from repro.experiments.cache import RunCache
        from repro.traces.library import evaluation_window

        cache = RunCache(None)
        own = ExperimentRunner("low", num_experiments=2, cache=cache)
        with own.with_workers(2) as par:
            assert par.cache is cache and par.workers == 2
            assert par.trace is own.trace
        trace, eval_start = evaluation_window("low", 7)
        explicit = ExperimentRunner("low", num_experiments=2, trace=trace,
                                    eval_start=eval_start, cache=cache)
        with pytest.raises(ValueError, match="explicit trace"):
            explicit.with_workers(2)
        assert explicit.with_workers(1) is explicit

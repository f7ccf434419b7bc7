"""Fused (bid x start) grid: a one-shape cube, runner-level equivalence.

:meth:`ExperimentRunner.run_cube` over one job shape must return
per-bid record lists identical — values *and* order — to
:meth:`run_single_zone` / :meth:`run_redundant` called once per bid,
whatever the engine mode; audited runners fall back to per-run
simulation with the same results.
"""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.experiments.runner import POLICY_FACTORIES, ExperimentRunner

BIDS = (0.27, 0.35, 0.81)


@pytest.fixture(scope="module")
def fast_runner():
    return ExperimentRunner("low", num_experiments=3)


@pytest.fixture(scope="module")
def vector_runner():
    return ExperimentRunner("low", num_experiments=3, engine_mode="vector")


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.5)


class TestRunGridEquivalence:
    @pytest.mark.parametrize("label", sorted(POLICY_FACTORIES))
    def test_single_zone_matches_per_bid(
        self, vector_runner, fast_runner, config, label
    ):
        (grid,) = vector_runner.run_cube(label, [config], BIDS)
        for bid in BIDS:
            assert grid[bid] == fast_runner.run_single_zone(
                label, config, bid
            )

    @pytest.mark.parametrize("label", ["periodic", "markov-daly"])
    def test_redundant_matches_per_bid(
        self, vector_runner, fast_runner, config, label
    ):
        (grid,) = vector_runner.run_cube(
            label, [config], BIDS, redundant=True, num_zones=2
        )
        for bid in BIDS:
            assert grid[bid] == fast_runner.run_redundant(
                label, config, bid, num_zones=2
            )

    def test_duplicate_bids_collapse(self, vector_runner, config):
        (grid,) = vector_runner.run_cube(
            "periodic", [config], (0.81, 0.81, 0.27)
        )
        assert set(grid) == {0.81, 0.27}

    def test_parallel_single_shape_cube_identical(self, vector_runner,
                                                  config):
        with ExperimentRunner(
            "low", num_experiments=3, engine_mode="vector", workers=2
        ) as par:
            assert par.run_cube("markov-daly", [config], BIDS) == \
                vector_runner.run_cube("markov-daly", [config], BIDS)


class TestFallbacks:
    def test_adaptive_runs_natively(self, fast_runner, config):
        """The controller now has native columns; the vector runner
        must serve it without fallback and match the fast engine."""
        vec = ExperimentRunner("low", num_experiments=3,
                               engine_mode="vector")
        assert vec.run_adaptive(config) == fast_runner.run_adaptive(config)
        stats = vec.drain_vector_stats()
        assert stats is not None and stats.native == 3
        assert stats.fallback == {}

    def test_audited_runner_routes_per_run(self, config):
        audited = ExperimentRunner(
            "low", num_experiments=2, engine_mode="vector", audit=True,
        )
        plain = ExperimentRunner("low", num_experiments=2)
        (grid,) = audited.run_cube("periodic", [config], (0.27, 0.81))
        for bid in (0.27, 0.81):
            assert grid[bid] == plain.run_single_zone(
                "periodic", config, bid
            )
        report = audited.drain_audit()
        assert report.ok and report.counters.runs > 0
        assert audited.drain_vector_stats() is None


class TestVectorStats:
    def test_drain_reports_and_resets(self, config):
        runner = ExperimentRunner("low", num_experiments=3,
                                  engine_mode="vector")
        runner.run_cube("periodic", [config], BIDS)
        stats = runner.drain_vector_stats()
        assert stats is not None and stats.total > 0
        assert stats.native > 0
        assert "vector-engine: native=" in stats.line()
        assert runner.drain_vector_stats() is None

    def test_fast_runner_reports_none(self, fast_runner, config):
        fast_runner.run_single_zone("periodic", config, 0.27)
        assert fast_runner.drain_vector_stats() is None

"""End-to-end integration: a miniature of the paper's whole evaluation.

One small grid over both volatility windows, all retained policies,
redundancy, Adaptive and Large-bid — asserting the global invariants
that every figure in the paper rests on.  This is the test to run
first when touching the engine.
"""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.experiments.metrics import box, deadline_violations
from repro.experiments.runner import ExperimentRunner
from repro.core.ondemand import on_demand_cost


@pytest.fixture(scope="module")
def runners():
    return {
        "low": ExperimentRunner("low", num_experiments=5),
        "high": ExperimentRunner("high", num_experiments=5),
    }


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.5, ckpt_cost_s=300.0)


class TestGlobalInvariants:
    def test_no_deadline_violation_anywhere(self, runners, config):
        for runner in runners.values():
            for label in ("periodic", "markov-daly", "edge", "threshold"):
                assert not deadline_violations(
                    runner.run_single_zone(label, config, 0.81)
                )
            assert not deadline_violations(
                runner.run_redundant("markov-daly", config, 0.81)
            )
            assert not deadline_violations(runner.run_adaptive(config))
            assert not deadline_violations(runner.run_large_bid(config, 0.81))

    def test_costs_positive_and_sane(self, runners, config):
        od = on_demand_cost(config)
        for runner in runners.values():
            for label in ("periodic", "markov-daly"):
                records = runner.run_single_zone(label, config, 0.81)
                for record in records:
                    assert record.cost > 0
                    # bounded: on-demand plus at most a few spot hours
                    # of overlap around the switch
                    assert record.cost < od * 1.3

    def test_calm_market_beats_on_demand_severalfold(self, runners, config):
        stats = box(runners["low"].run_single_zone("markov-daly", config, 0.81))
        assert stats.median < on_demand_cost(config) / 4

    def test_redundancy_pays_off_when_it_should(self, runners):
        # the paper's central claim, in one assertion: volatile window,
        # low slack -> redundancy beats every single-zone policy
        tight = paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)
        runner = runners["high"]
        redundant = box(runner.run_best_redundant(tight, [0.81])[0.81]).median
        singles = min(
            box(runner.run_single_zone(label, tight, 0.81)).median
            for label in ("periodic", "markov-daly")
        )
        assert redundant < singles

    def test_adaptive_is_never_catastrophic(self, runners):
        od = on_demand_cost(paper_experiment())
        for window, runner in runners.items():
            for slack in (0.15, 0.5):
                cfg = paper_experiment(slack_fraction=slack)
                stats = box(runner.run_adaptive(cfg))
                assert stats.maximum <= od * 1.2 + 1.0, (
                    f"adaptive blow-up in {window}/{slack}"
                )

    def test_reproducibility_across_runner_instances(self, config):
        a = ExperimentRunner("low", num_experiments=3)
        b = ExperimentRunner("low", num_experiments=3)
        costs_a = [r.cost for r in a.run_single_zone("periodic", config, 0.81)]
        costs_b = [r.cost for r in b.run_single_zone("periodic", config, 0.81)]
        assert costs_a == costs_b

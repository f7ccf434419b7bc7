"""Unit tests for the parameter-sweep utilities."""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.experiments import sweeps
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweeps import (
    SweepPoint,
    _point,
    sweep_bid,
    sweep_ckpt_cost,
    sweep_slack,
    sweep_zones,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner("low", num_experiments=3)


class TestSweepShapes:
    def test_slack_sweep(self, runner):
        points = sweep_slack(runner, (0.25, 0.5))
        assert [p.value for p in points] == [0.25, 0.5]
        assert all(isinstance(p, SweepPoint) for p in points)
        assert all(p.violations == 0 for p in points)

    def test_ckpt_sweep(self, runner):
        points = sweep_ckpt_cost(runner, (300.0, 900.0), slack_fraction=0.5)
        assert [p.value for p in points] == [300.0, 900.0]
        # costlier checkpoints never make the run cheaper (calm window)
        assert points[1].stats.median >= points[0].stats.median * 0.9

    def test_bid_sweep(self, runner):
        points = sweep_bid(runner, (0.27, 0.81))
        assert len(points) == 2
        # in the calm window a $0.81 bid dominates a floor bid
        assert points[1].stats.median <= points[0].stats.median

    def test_zone_sweep(self, runner):
        points = sweep_zones(runner, (1, 3), slack_fraction=0.5)
        assert [p.value for p in points] == [1, 3]
        # three calm zones cost roughly three singles
        assert points[1].stats.median > points[0].stats.median

    def test_redundant_flag(self, runner):
        single = sweep_slack(runner, (0.5,))[0]
        redundant = sweep_slack(runner, (0.5,), redundant=True)[0]
        # redundancy pays for extra zones in the calm window
        assert redundant.stats.median > single.stats.median

    def test_row_format(self, runner):
        point = sweep_slack(runner, (0.5,))[0]
        row = point.row()
        assert row[0] == 0.5
        assert len(row) == 5



class TestShapeAxisCube:
    """Slack and t_c sweeps run their axis as one shape-ladder cube;
    every point's records equal a one-shape cell of its own."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The (value, records) pairs each sweep point is built from."""
        pairs = []

        def point(value, records):
            pairs.append((value, records))
            return _point(value, records)

        monkeypatch.setattr(sweeps, "_point", point)
        return pairs

    @pytest.mark.parametrize("redundant", [False, True])
    def test_slack_points_equal_per_point_cells(self, seen, redundant):
        runner = ExperimentRunner("low", num_experiments=4)
        fractions = (0.10, 0.15, 0.25, 0.50, 1.00)
        sweep_slack(runner, fractions, redundant=redundant)
        run = runner.run_redundant if redundant else runner.run_single_zone
        assert seen == [
            (f, run("markov-daly",
                    paper_experiment(slack_fraction=f, ckpt_cost_s=300.0),
                    0.81))
            for f in fractions
        ]

    @pytest.mark.parametrize("redundant", [False, True])
    def test_ckpt_points_equal_per_point_cells(self, seen, redundant):
        runner = ExperimentRunner("low", num_experiments=4)
        costs = (60.0, 300.0, 900.0)
        sweep_ckpt_cost(runner, costs, redundant=redundant)
        run = runner.run_redundant if redundant else runner.run_single_zone
        assert seen == [
            (tc, run("markov-daly",
                     paper_experiment(slack_fraction=0.15, ckpt_cost_s=tc),
                     0.81))
            for tc in costs
        ]

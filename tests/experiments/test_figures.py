"""Small-scale integration tests for figure/table assembly."""

from __future__ import annotations

import math

import pytest

from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def low_runner():
    return ExperimentRunner("low", num_experiments=3)


class TestFig2:
    def test_fields(self):
        data = figures.fig2_availability()
        assert set(data) == {"bid", "window_hours", "per_zone", "combined",
                             "redundancy_gain"}
        assert len(data["per_zone"]) == 3
        assert 0.0 <= data["combined"] <= 1.0

    def test_combined_dominates(self):
        data = figures.fig2_availability()
        assert data["combined"] >= max(data["per_zone"].values())


class TestVarAndQueuing:
    def test_var_report(self):
        report = figures.sec31_var_analysis(months=1, max_order=3)
        assert report["ratio"] > 1.0

    def test_queuing_stats(self):
        stats = figures.sec5_queuing_stats()
        assert stats["num_probes"] == 120
        assert 143.0 <= stats["min_s"] <= stats["max_s"] <= 880.0


class TestFig4:
    def test_cells_cover_policies_and_bids(self, low_runner):
        cells = figures.fig4_quadrant(low_runner, slack_fraction=0.5,
                                      bids=(0.81,),
                                      policies=("periodic",))
        labels = [(c.label, c.bid) for c in cells]
        assert ("periodic", 0.81) in labels
        assert ("redundant-best", 0.81) in labels

    def test_reference_lines(self):
        refs = figures.fig4_reference_lines()
        assert refs["on_demand"] == pytest.approx(48.0)
        assert refs["lowest_spot"] == pytest.approx(5.40)


class TestTables:
    def test_optimal_table_rows(self):
        runners = {w: ExperimentRunner(w, num_experiments=2)
                   for w in ("low", "high")}
        rows = figures.optimal_policy_table(runners, 300.0, bids=(0.81,))
        assert len(rows) == 4
        for row in rows:
            assert row["winner"] in row["medians"] or any(
                row["winner"] == k for k in row["medians"]
            )
            assert row["winner_median"] == min(row["medians"].values())


class TestFig5AndFig6:
    def test_fig5_quadrant_cells(self, low_runner):
        cells = figures.fig5_quadrant(low_runner, 0.5, 300.0)
        labels = [c.label for c in cells]
        assert labels == ["periodic", "markov-daly", "redundant-best",
                          "adaptive"]
        assert math.isnan(cells[-1].bid)

    def test_fig6_panel_cells(self, low_runner):
        cells = figures.fig6_panel(low_runner, 0.5, 300.0,
                                   thresholds=(0.81, None))
        labels = [c.label for c in cells]
        assert labels == ["L=0.81", "naive", "adaptive"]

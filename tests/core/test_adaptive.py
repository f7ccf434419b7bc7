"""Unit tests for the Adaptive controller (Section 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.application import ApplicationRun
from repro.app.checkpoint import CheckpointStore
from repro.core.adaptive import AdaptiveController, make_policy
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.policy import PolicyContext
from repro.market.instance import ZoneInstance
from repro.market.spot_market import PriceOracle

from tests.conftest import (
    FullEvaluation,
    make_sim,
    multi_step_trace,
    small_config,
)


def make_ctx(trace, now=None, bid=0.47, zones=None, config=None):
    config = config or small_config(compute_h=2.0, slack_fraction=1.0)
    now = now if now is not None else trace.start_time + 86400.0
    zones = zones or trace.zone_names[:1]
    run = ApplicationRun(config=config, start_time=now, store=CheckpointStore())
    instances = {z: ZoneInstance(zone=z) for z in trace.zone_names}
    return PolicyContext(now=now, bid=bid, zones=zones,
                         oracle=PriceOracle(trace), config=config, run=run,
                         instances=instances)


def market_trace(cheap_zone_price=0.30, pricey_zone_price=2.0):
    per_zone = {
        "za": [(3, cheap_zone_price), (1, 1.0)] * 160,
        "zb": [(2, pricey_zone_price), (2, 2.5)] * 160,
    }
    return multi_step_trace(per_zone)


class TestMakePolicy:
    def test_kinds(self):
        assert isinstance(make_policy("periodic"), PeriodicPolicy)
        assert isinstance(make_policy("markov-daly"), MarkovDalyPolicy)
        with pytest.raises(ValueError):
            make_policy("edge")  # excluded after Section 6


class TestEstimator:
    def test_candidate_space_covers_all_zone_subsets(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace)
        ctrl.reset(ctx)
        assert len(ctrl._zone_sets) == 3  # {a}, {b}, {a,b}

    def test_estimates_cheaper_zone_cheaper(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace)
        ctrl.reset(ctx)
        cheap = ctrl.estimate(ctx, 1.07, ("za",), "periodic")
        pricey = ctrl.estimate(ctx, 1.07, ("zb",), "periodic")
        assert cheap.predicted_cost < pricey.predicted_cost

    def test_unaffordable_bid_predicts_on_demand(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace)
        ctrl.reset(ctx)
        est = ctrl.estimate(ctx, 0.27, ("zb",), "periodic")
        # zone zb never at/below $0.27: all compute lands on on-demand
        assert est.progress_rate == pytest.approx(0.0, abs=0.05)
        assert est.ondemand_hours > 0

    def test_best_candidate_prefers_viable_config(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace)
        ctrl.reset(ctx)
        best = ctrl.best_candidate(ctx)
        assert "za" in best.zones
        assert best.predicted_cost < 4.80  # beats pure on-demand

    def test_completed_run_costs_zero(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace)
        ctrl.reset(ctx)
        ctx.run.store.commit(ctx.now, ctx.config.compute_s, "za")
        est = ctrl.estimate(ctx, 0.47, ("za",), "periodic")
        assert est.predicted_cost == 0.0


class TestDecisionRules:
    def test_first_decision_when_nothing_running(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace)
        ctrl.reset(ctx)
        decision = ctrl.decide(ctx)
        assert decision is not None
        assert decision.bid > 0

    def test_no_flapping_to_same_config(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace)
        ctrl.reset(ctx)
        first = ctrl.decide(ctx)
        ctx2 = make_ctx(trace, now=ctx.now, bid=first.bid,
                        zones=first.zones)
        assert ctrl.decide(ctx2) is None

    def test_mid_hour_switch_blocked_for_running_zone(self):
        trace = market_trace()
        ctrl = AdaptiveController()
        ctx = make_ctx(trace, zones=("zb",), bid=2.67)
        ctrl.reset(ctx)
        # pretend zb is mid-billing-hour
        inst = ctx.instances["zb"]
        inst.mark_waiting()
        inst.start(now=ctx.now - 1800.0, spot_price=2.0, queue_delay_s=0.0,
                   restart_cost_s=0.0, from_progress_s=0.0)
        ctrl._applied = (2.67, ("zb",), "periodic")
        ctrl._last_eval_at = -float("inf")
        decision = ctrl.decide(ctx)
        # the better config (za) would drop running zb mid-hour: deferred
        assert decision is None


class TestEndToEnd:
    def test_adaptive_run_meets_deadline_and_beats_on_demand(self):
        trace = market_trace()
        sim = make_sim(trace)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        ctrl = AdaptiveController()
        result = sim.run(config, PeriodicPolicy(), 0.47,
                         trace.zone_names[:1], trace.start_time + 86400.0,
                         controller=ctrl)
        assert result.met_deadline
        assert result.total_cost < 4.80  # on-demand for 2 h

    def test_adaptive_switches_are_logged(self):
        trace = market_trace()
        sim = make_sim(trace, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        result = sim.run(config, PeriodicPolicy(), 0.47,
                         trace.zone_names[:1], trace.start_time + 86400.0,
                         controller=AdaptiveController())
        switches = [e for e in result.events if e.kind == "config-switch"]
        assert switches, "controller never configured the run"


def ctx_at(trace, oracle, config, start, now):
    run = ApplicationRun(config=config, start_time=start,
                         store=CheckpointStore())
    instances = {z: ZoneInstance(zone=z) for z in trace.zone_names}
    return PolicyContext(now=now, bid=0.47, zones=trace.zone_names[:1],
                         oracle=oracle, config=config, run=run,
                         instances=instances)


def assert_matches_full(ctrl, ctx):
    """Production ``best_candidate`` picks the exhaustive loop's winner."""
    got = ctrl.best_candidate(ctx)
    assert got == ctrl._best_candidate_full(ctx)
    return got


class TestPruning:
    """The SELECT_MARGIN band of the comparator must keep the full
    loop's winner."""

    def test_synthetic_market(self):
        trace = market_trace()
        ctx = make_ctx(trace)
        ctrl = AdaptiveController()
        ctrl.reset(ctx)
        assert_matches_full(ctrl, ctx)

    @pytest.mark.parametrize("window", ["low", "high"])
    def test_evaluation_windows_across_decision_times(self, window):
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window(window)
        for hours in (0, 7, 25, 73, 140):
            for slack in (0.15, 1.0):
                config = small_config(compute_h=12.0, slack_fraction=slack)
                ctx = make_ctx(
                    trace, now=eval_start + hours * 3600.0, config=config
                )
                ctrl = AdaptiveController()
                ctrl.reset(ctx)
                assert_matches_full(ctrl, ctx)


class TestBatchedFrontEnd:
    """The per-bucket selection memo must be invisible in the decisions.

    A bucket's first decision builds its matrices (a miss) and every
    later decision in the bucket is priced over them (a hit); each must
    return the winner of the exhaustive loop at the same epoch.
    """

    @pytest.mark.parametrize("window", ["low", "high"])
    def test_winner_identity_at_every_epoch(self, window):
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window(window)
        oracle = PriceOracle(trace)
        # Staggered deadline clocks queried at shared absolute epochs;
        # offsets 0 and 0.5 h (and 2 h and 2.5 h) share an hourly
        # bucket, so the second decision of each pair is served from
        # the matrices the first one built.
        offsets = [0.0, 1800.0, 7200.0, 9000.0, 7 * 3600.0, 25 * 3600.0,
                   73 * 3600.0, 140 * 3600.0]
        buckets = {oracle.stats_bucket(eval_start + off) for off in offsets}
        for slack in (0.15, 0.5, 1.0):
            config = small_config(compute_h=12.0, slack_fraction=slack)
            for k in range(3):
                start = eval_start - k * 900.0
                ctrl = AdaptiveController()
                ctrl.reset(ctx_at(trace, oracle, config, start, eval_start))
                for off in offsets:
                    assert_matches_full(
                        ctrl,
                        ctx_at(trace, oracle, config, start, eval_start + off),
                    )
                memo = ctrl.selection_memo
                assert memo.misses == len(buckets)
                assert memo.hits == len(offsets) - len(buckets)


class TestSharedMatrices:
    """The oracle's shared (zone set x bid) matrices and the stacked
    progress grids equal the controller's own per-set assembly and
    per-kind grids, element for element."""

    def assert_matches_reference(self, ctrl, ctx):
        ctrl.best_candidate(ctx)
        avail, uptime, rate, progress, _ = ctrl.selection_memo.matrices
        ref_avail, ref_uptime, ref_rate = ctrl._stat_matrices(ctx)
        np.testing.assert_array_equal(avail, ref_avail)
        np.testing.assert_array_equal(uptime, ref_uptime)
        np.testing.assert_array_equal(rate[:, :, 0], ref_rate)
        for ki, kind in enumerate(ctrl.policy_kinds):
            np.testing.assert_array_equal(
                progress[..., ki],
                ctrl._progress_grid(ctx.config, kind, ref_avail, ref_uptime),
            )

    @pytest.mark.parametrize("window", ["low", "high"])
    def test_equal_to_reference_assembly_and_shared(self, window):
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window(window)
        oracle = PriceOracle(trace)
        for hours in (0.0, 7.25, 25.5, 73.0, 140.75):
            now = eval_start + hours * 3600.0
            controllers = []
            for ckpt in (300.0, 900.0, 300.0):
                config = small_config(compute_h=12.0, ckpt_cost_s=ckpt)
                ctrl = AdaptiveController()
                ctx = ctx_at(trace, oracle, config, eval_start, now)
                ctrl.reset(ctx)
                self.assert_matches_reference(ctrl, ctx)
                controllers.append(ctrl)
            a, b, c = (ctrl.selection_memo.matrices for ctrl in controllers)
            assert a[0] is b[0] is c[0]  # one build per key
            assert a[3] is c[3] and a[3] is not b[3]  # per checkpoint cost

    def test_estimate_before_first_decision_keeps_its_frozen_stats(self):
        # estimate() freezes a zone at the bucket's first query; a first
        # decision later in the bucket at another price level must price
        # those frozen statistics, not the oracle's at the new level.
        trace = market_trace()
        oracle = PriceOracle(trace)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        start = trace.start_time + 86400.0
        first = ctx_at(trace, oracle, config, start, start)
        later = ctx_at(trace, oracle, config, start, start + 900.0)
        assert oracle.stats_bucket(first.now) == oracle.stats_bucket(later.now)
        assert oracle.price("za", first.now) != oracle.price("za", later.now)
        ctrl = AdaptiveController()
        ctrl.reset(first)
        ctrl.estimate(first, 0.47, ("za",), "periodic")
        self.assert_matches_reference(ctrl, later)
        assert ctrl.best_candidate(later) == ctrl._best_candidate_full(later)


class TestWholeRuns:
    """Whole runs through the experiment runner's Adaptive cells."""

    def test_production_run_equals_full_evaluation_run(self):
        from repro.app.workload import paper_experiment
        from repro.experiments.runner import CellTask, ExperimentRunner

        runner = ExperimentRunner("high", num_experiments=80, seed=1)
        config = paper_experiment(slack_fraction=0.5, ckpt_cost_s=300.0)
        start = 1357030800.0
        got = runner.run_cell(CellTask(kind="adaptive", config=config), start)
        want = runner.run_cell(
            CellTask(kind="adaptive", config=config,
                     controller_factory=FullEvaluation),
            start,
        )
        assert got == want
        assert got[0].cost == pytest.approx(26.20)

    def test_reused_controller_matches_fresh_ones(self):
        """reset() must drop every statistic and matrix the previous
        run froze, so one controller over overlapping starts decides
        exactly like a fresh controller per start."""
        from repro.app.workload import paper_experiment
        from repro.experiments.runner import CellTask, ExperimentRunner

        runner = ExperimentRunner("high", num_experiments=80, seed=1)
        config = paper_experiment(slack_fraction=0.5, ckpt_cost_s=300.0)
        shared = AdaptiveController()
        reused = CellTask(kind="adaptive", config=config,
                          controller_factory=lambda: shared)
        fresh = CellTask(kind="adaptive", config=config)
        for start in runner.starts(config)[:4]:
            start = float(start)
            assert runner.run_cell(reused, start) == runner.run_cell(fresh, start)


class TestTieBreak:
    """Near-ties resolve toward fewer zones, then lower bid (COST_EPS)."""

    def expired_budget_ctx(self, trace):
        """All candidates predict the identical on-demand fallback cost."""
        config = small_config(compute_h=2.0, slack_fraction=0.1)
        start = trace.start_time + 86400.0
        now = start + config.deadline_s  # budget exhausted: exact tie
        run = ApplicationRun(config=config, start_time=start,
                             store=CheckpointStore())
        instances = {z: ZoneInstance(zone=z) for z in trace.zone_names}
        return PolicyContext(now=now, bid=0.47, zones=trace.zone_names[:1],
                             oracle=PriceOracle(trace), config=config, run=run,
                             instances=instances)

    @pytest.mark.parametrize("full", [True, False])
    def test_exact_tie_takes_fewest_zones_then_lowest_bid(self, full):
        trace = market_trace()
        ctx = self.expired_budget_ctx(trace)
        ctrl = FullEvaluation() if full else AdaptiveController()
        ctrl.reset(ctx)
        best = assert_matches_full(ctrl, ctx)
        assert len(best.zones) == 1
        assert best.bid == min(ctrl.bids)
        assert best.policy_kind == ctrl.policy_kinds[0]

    def test_tie_constant_shared_with_cost_grid(self):
        from repro.core import adaptive

        assert adaptive.COST_EPS == 1e-9
        assert adaptive.SELECT_MARGIN > 2 * 210 * adaptive.COST_EPS

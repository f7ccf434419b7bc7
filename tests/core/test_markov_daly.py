"""Unit tests for the Markov-Daly policy."""

from __future__ import annotations

from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.policy import PolicyContext
from repro.app.application import ApplicationRun
from repro.app.checkpoint import CheckpointStore
from repro.market.instance import ZoneInstance, ZoneState
from repro.market.spot_market import PriceOracle
from repro.stats.daly import daly_interval

from tests.conftest import flat_trace, make_sim, multi_step_trace, small_config


def make_ctx(trace, now=86400.0 + 600.0, bid=0.5, zones=("za",),
             config=None, committed=0.0):
    config = config or small_config(compute_h=2.0, slack_fraction=1.0)
    oracle = PriceOracle(trace)
    store = CheckpointStore()
    if committed:
        store.commit(now - 100.0, committed, "za")
    run = ApplicationRun(config=config, start_time=now - 600.0, store=store)
    instances = {z: ZoneInstance(zone=z) for z in trace.zone_names}
    return PolicyContext(now=now, bid=bid, zones=zones, oracle=oracle,
                         config=config, run=run, instances=instances)


def cycling_trace(zones=("za",)):
    # 3 cheap + 1 expensive, repeated: MTBF at bid 0.5 is finite
    per_zone = {z: [(3, 0.30), (1, 1.00)] * 150 for z in zones}
    return multi_step_trace(per_zone)


class TestScheduling:
    def test_schedule_arms_future_checkpoint(self):
        trace = cycling_trace()
        ctx = make_ctx(trace)
        policy = MarkovDalyPolicy()
        policy.reset(ctx)
        policy.schedule_next_checkpoint(ctx)
        assert policy.scheduled_at is not None
        assert policy.scheduled_at > ctx.now

    def test_interval_uses_combined_uptime(self):
        trace = cycling_trace(zones=("za", "zb"))
        config = small_config(compute_h=2.0, slack_fraction=6.0)
        single = make_ctx(trace, zones=("za",), config=config)
        double = make_ctx(trace, zones=("za", "zb"), config=config)
        p1, p2 = MarkovDalyPolicy(), MarkovDalyPolicy()
        p1.schedule_next_checkpoint(single)
        p2.schedule_next_checkpoint(double)
        # more zones -> longer combined E[T_u] -> longer interval
        assert p2.scheduled_at > p1.scheduled_at

    def test_interval_matches_daly_when_slack_ample(self):
        trace = cycling_trace()
        config = small_config(compute_h=2.0, slack_fraction=8.0)
        ctx = make_ctx(trace, config=config)
        policy = MarkovDalyPolicy()
        policy.schedule_next_checkpoint(ctx)
        uptime = ctx.oracle.expected_uptime("za", ctx.now, ctx.bid)
        expected = daly_interval(uptime, config.ckpt_cost_s)
        got = policy.scheduled_at - ctx.now
        # the afford-floor may lift it slightly; never below Daly
        assert got >= expected - 1e-6

    def test_interval_capped_by_margin(self):
        trace = flat_trace(price=0.30, num_samples=600)
        config = small_config(compute_h=2.0, slack_fraction=0.25)  # 30 min
        ctx = make_ctx(trace, config=config)
        policy = MarkovDalyPolicy()
        policy.schedule_next_checkpoint(ctx)
        # margin ~ 1800s - overheads; interval must fit inside it
        assert policy.scheduled_at - ctx.now <= 1800.0

    def test_due_only_after_schedule_time(self):
        trace = cycling_trace()
        ctx = make_ctx(trace)
        policy = MarkovDalyPolicy()
        policy.schedule_next_checkpoint(ctx)
        leader = ZoneInstance(zone="za")
        leader.state = ZoneState.COMPUTING
        leader.computed_s = 500.0
        assert not policy.checkpoint_due(ctx, leader)
        late = make_ctx(trace, now=policy.scheduled_at + 1.0)
        assert policy.checkpoint_due(late, leader)

    def test_no_progress_postpones(self):
        trace = cycling_trace()
        ctx = make_ctx(trace, committed=500.0)
        policy = MarkovDalyPolicy()
        policy.schedule_next_checkpoint(ctx)
        leader = ZoneInstance(zone="za")
        leader.state = ZoneState.COMPUTING
        leader.base_progress_s = 500.0  # == committed, nothing new
        late = make_ctx(trace, now=policy.scheduled_at + 1.0, committed=500.0)
        armed_before = policy.scheduled_at
        assert not policy.checkpoint_due(late, leader)
        assert policy.scheduled_at > armed_before  # re-armed


class TestEndToEnd:
    def test_calm_run_checkpoints_sparsely(self):
        # start one day in so the Markov model has real history (the
        # fit-window cap otherwise forces a tiny E[T_u] early on)
        trace = flat_trace(price=0.30, num_samples=600)
        sim = make_sim(trace)
        config = small_config(compute_h=3.0, slack_fraction=2.0)
        result = sim.run(config, MarkovDalyPolicy(), 0.81, ("za",), 86400.0)
        assert result.completed_on == "spot"
        # with no terminations and long E[T_u], fewer checkpoints than
        # hourly periodic would take
        assert result.num_checkpoints <= 3

    def test_volatile_run_meets_deadline(self):
        trace = cycling_trace()
        sim = make_sim(trace)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        result = sim.run(config, MarkovDalyPolicy(), 0.50, ("za",), 0.0)
        assert result.met_deadline

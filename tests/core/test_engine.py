"""Engine correctness on hand-built traces: costs computed by hand.

These are the load-bearing tests of the whole reproduction: every
billing rule, the waiting-zone protocol, and the deadline guard are
exercised against tiny piecewise-constant traces where the expected
dollar amounts and timelines can be derived on paper.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineError
from repro.core.periodic import PeriodicPolicy
from repro.core.policy import NeverCheckpoint

from tests.conftest import flat_trace, make_sim, multi_step_trace, small_config


class TestCalmCompletion:
    """Flat $0.30 market, bid $0.81: C=2h in D=4h, t_c=t_r=300s."""

    def _run(self):
        trace = flat_trace(price=0.30, num_samples=288)
        sim = make_sim(trace, queue_delay_s=300.0, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        return sim.run(config, PeriodicPolicy(), 0.81, ("za",), 0.0)

    def test_exact_cost(self):
        # three billing hours at $0.30 (the third user-closed in full)
        result = self._run()
        assert result.spot_cost == pytest.approx(0.90)
        assert result.ondemand_cost == 0.0

    def test_exact_timeline(self):
        # 300 s queue + 7200 s compute + 2 checkpoints x 300 s = 8100 s
        result = self._run()
        assert result.finish_time == pytest.approx(8100.0)
        assert result.completed_on == "spot"
        assert result.met_deadline

    def test_checkpoint_count(self):
        # hourly checkpoints at t=3300 and t=6900; none needed after
        result = self._run()
        assert result.num_checkpoints == 2

    def test_single_restart_no_terminations(self):
        result = self._run()
        assert result.num_restarts == 1
        assert result.num_provider_terminations == 0

    def test_events_ordered(self):
        result = self._run()
        times = [e.time for e in result.events]
        assert times == sorted(times)


class TestTerminationAndRecovery:
    """Price spikes above bid mid-run: partial hour free, work lost."""

    def _trace(self):
        # 0-3000s: $0.30; 3000-4200s: $1.00; then $0.30 again
        return multi_step_trace(
            {"za": [(10, 0.30), (4, 1.00), (58, 0.30)]}
        )

    def _run(self):
        sim = make_sim(self._trace(), queue_delay_s=300.0, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=2.0)  # D=6h
        return sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0)

    def test_terminated_stint_is_free(self):
        # the first stint (0-3000 s) died inside its first hour: $0
        result = self._run()
        assert result.num_provider_terminations == 1
        # total: three charged hours of the second stint only
        assert result.spot_cost == pytest.approx(0.90)

    def test_work_lost_and_redone(self):
        result = self._run()
        # first stint computed 2700 s that were never committed;
        # completion = 4200 (restart) + 300 queue + 7200 compute +
        # 2 x 300 checkpoints = 12300 s
        assert result.finish_time == pytest.approx(12300.0)
        assert result.completed_on == "spot"

    def test_restart_counts(self):
        result = self._run()
        assert result.num_restarts == 2

    def test_fresh_start_has_no_restore_cost(self):
        # no checkpoint existed when the zone restarted: QUEUING leads
        # straight to COMPUTING
        result = self._run()
        restart_events = [e for e in result.events if e.kind == "restarted"]
        assert len(restart_events) == 2
        assert all("P=0s" in e.detail for e in restart_events)


class TestDeadlineGuard:
    """Market never below bid: the guard must finish on on-demand."""

    def _run(self, slack_fraction=0.5):
        trace = flat_trace(price=1.0, num_samples=288)
        sim = make_sim(trace, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=slack_fraction)
        return sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0)

    def test_switches_exactly_in_time(self):
        result = self._run()
        # guard trigger: remaining <= C_r + t_c + t_r + dt
        # => t = D - (7200 + 600 + 300) = 10800 - 8100 = 2700
        assert result.ondemand_switch_time == pytest.approx(2700.0)
        assert result.finish_time == pytest.approx(2700.0 + 7200.0)
        assert result.met_deadline

    def test_on_demand_cost_exact(self):
        result = self._run()
        # 7200 s on-demand, no restore (no checkpoint): 2 hours x $2.40
        assert result.ondemand_cost == pytest.approx(4.80)
        assert result.spot_cost == 0.0
        assert result.completed_on == "ondemand"

    def test_no_spot_instances_ever_started(self):
        result = self._run()
        assert result.num_restarts == 0
        assert result.num_checkpoints == 0


class TestDeadlineGuardWithProgress:
    """Guard migrates the leader's speculative progress via a final
    checkpoint."""

    def test_migration_keeps_speculative_work(self):
        # cheap for 1.5 h, then unaffordable forever
        trace = multi_step_trace({"za": [(18, 0.30), (70, 5.0)]})
        sim = make_sim(trace, queue_delay_s=300.0, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=0.5)
        result = sim.run(config, NeverCheckpoint(), 0.50, ("za",), 0.0)
        assert result.met_deadline
        assert result.completed_on == "ondemand"
        # the run made spot progress (one charged spot hour at least)
        assert result.spot_cost > 0.0
        # and the progress was not thrown away: less than the full
        # 2 hours were bought on-demand... unless the forced commit
        # already preserved it, in which case od time is even smaller.
        assert result.ondemand_cost <= 2 * 2.40


class TestRedundantExecution:
    """Two complementary zones: checkpoint relay keeps progress alive."""

    def _run(self):
        # za cheap for 75 min, then expensive; zb the complement
        trace = multi_step_trace(
            {
                "za": [(15, 0.30), (129, 5.00)],
                "zb": [(15, 5.00), (129, 0.30)],
            }
        )
        sim = make_sim(trace, queue_delay_s=300.0, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=1.5)
        return sim.run(config, PeriodicPolicy(), 0.50, ("za", "zb"), 0.0)

    def test_completes_on_spot_via_relay(self):
        result = self._run()
        assert result.completed_on == "spot"
        assert result.met_deadline

    def test_checkpoint_relay_restarts_zb_from_progress(self):
        result = self._run()
        relay = [
            e for e in result.events
            if e.kind == "restarted" and e.zone == "zb"
        ]
        assert relay, "zb never joined"
        # zb restarted from committed progress, not from scratch
        assert any("P=0s" not in e.detail for e in relay)

    def test_total_cost_below_serial_redo(self):
        # with the relay, total work ~ 2 h + overheads; without it the
        # second zone would redo everything (2 h each = 4+ spot hours)
        result = self._run()
        assert result.spot_cost <= 4 * 0.30


class TestValidation:
    def test_unknown_zone_rejected(self):
        sim = make_sim(flat_trace())
        with pytest.raises(EngineError):
            sim.run(small_config(), PeriodicPolicy(), 0.5, ("nope",), 0.0)

    def test_empty_zones_rejected(self):
        sim = make_sim(flat_trace())
        with pytest.raises(EngineError):
            sim.run(small_config(), PeriodicPolicy(), 0.5, (), 0.0)

    def test_nonpositive_bid_rejected(self):
        sim = make_sim(flat_trace())
        with pytest.raises(EngineError):
            sim.run(small_config(), PeriodicPolicy(), 0.0, ("za",), 0.0)

    def test_trace_must_cover_deadline(self):
        trace = flat_trace(num_samples=12)  # one hour only
        sim = make_sim(trace)
        with pytest.raises(EngineError):
            sim.run(small_config(compute_h=2.0), PeriodicPolicy(), 0.5,
                    ("za",), 0.0)

    def test_events_empty_unless_recorded(self):
        sim = make_sim(flat_trace(num_samples=288), record_events=False)
        result = sim.run(small_config(compute_h=1.0, slack_fraction=1.0),
                         PeriodicPolicy(), 0.81, ("za",), 0.0)
        assert result.events == ()


class TestRunResultProperties:
    def test_total_cost_is_sum(self):
        sim = make_sim(flat_trace(num_samples=288))
        result = sim.run(small_config(compute_h=1.0, slack_fraction=1.0),
                         PeriodicPolicy(), 0.81, ("za",), 0.0)
        assert result.total_cost == result.spot_cost + result.ondemand_cost

    def test_makespan(self):
        sim = make_sim(flat_trace(num_samples=288))
        result = sim.run(small_config(compute_h=1.0, slack_fraction=1.0),
                         PeriodicPolicy(), 0.81, ("za",), 100 * 300.0)
        assert result.makespan_s == result.finish_time - result.start_time


class TestChargedHours:
    def test_spot_hours_counted(self):
        sim = make_sim(flat_trace(price=0.30, num_samples=288))
        result = sim.run(small_config(compute_h=2.0, slack_fraction=1.0),
                         PeriodicPolicy(), 0.81, ("za",), 0.0)
        # $0.90 at $0.30/hour = 3 charged hours
        assert result.spot_hours_charged == 3
        assert result.spot_cost == pytest.approx(
            0.30 * result.spot_hours_charged
        )

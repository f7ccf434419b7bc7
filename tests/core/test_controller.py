"""Engine-level tests for the controller (configuration switching)."""

from __future__ import annotations

import pytest

from repro.core.engine import Controller, EngineError, SwitchDecision
from repro.core.periodic import PeriodicPolicy
from repro.core.markov_daly import MarkovDalyPolicy

from tests.conftest import make_sim, multi_step_trace, small_config


class OneShotController(Controller):
    """Applies one fixed switch at (or after) a given time."""

    def __init__(self, at: float, decision: SwitchDecision):
        self.at = at
        self.decision = decision
        self.fired = False

    def decide(self, ctx):
        if not self.fired and ctx.now >= self.at:
            self.fired = True
            return self.decision
        return None


def two_zone_trace():
    return multi_step_trace(
        {"za": [(200, 0.30)], "zb": [(200, 0.30)]}
    )


class TestSwitching:
    def test_switch_changes_policy_and_bid(self):
        trace = two_zone_trace()
        sim = make_sim(trace, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        controller = OneShotController(
            at=3600.0,
            decision=SwitchDecision(bid=1.50, zones=("za",),
                                    policy=MarkovDalyPolicy()),
        )
        result = sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0,
                         controller=controller)
        switches = [e for e in result.events if e.kind == "config-switch"]
        assert len(switches) == 1
        assert "markov-daly" in switches[0].detail
        assert "B=1.50" in switches[0].detail
        # the result reports the final configuration
        assert result.policy_name == "markov-daly"
        assert result.bid == 1.50

    def test_switch_to_other_zone_releases_running_one(self):
        trace = two_zone_trace()
        sim = make_sim(trace, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        controller = OneShotController(
            at=3600.0,
            decision=SwitchDecision(bid=0.50, zones=("zb",),
                                    policy=PeriodicPolicy()),
        )
        result = sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0,
                         controller=controller)
        released = [e for e in result.events
                    if e.kind == "user-released" and e.zone == "za"]
        assert released
        restarted_zb = [e for e in result.events
                        if e.kind == "restarted" and e.zone == "zb"]
        assert restarted_zb
        assert result.met_deadline

    def test_zone_addition_keeps_running_zone(self):
        trace = two_zone_trace()
        sim = make_sim(trace, record_events=True)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        controller = OneShotController(
            at=3600.0,
            decision=SwitchDecision(bid=0.50, zones=("za", "zb"),
                                    policy=PeriodicPolicy()),
        )
        result = sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0,
                         controller=controller)
        # za never released by the switch
        released_za = [e for e in result.events
                       if e.kind == "user-released" and e.zone == "za"
                       and "config-switch" in e.detail]
        assert released_za == []
        assert result.met_deadline

    def test_unknown_zone_in_decision_rejected(self):
        trace = two_zone_trace()
        sim = make_sim(trace)
        config = small_config(compute_h=2.0, slack_fraction=1.0)
        controller = OneShotController(
            at=0.0,
            decision=SwitchDecision(bid=0.50, zones=("nope",),
                                    policy=PeriodicPolicy()),
        )
        with pytest.raises(EngineError):
            sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0,
                    controller=controller)

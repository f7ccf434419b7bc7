"""Property-based audit coverage: every invariant holds across
policy x window x bid in both engine modes.

The hypothesis half samples random piecewise price traces, bids and
policies and replays each configuration differentially (both engine
modes, audited); the parametrized half pins the paper's evaluation
windows and bid grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import RunAuditor, differential_run
from repro.core.engine import SpotSimulator
from repro.experiments.runner import POLICY_FACTORIES
from repro.market.queuing import FixedQueueDelay
from repro.market.spot_market import PriceOracle

from tests.conftest import multi_step_trace, small_config

#: Total samples per generated zone (25 h of 5-min ticks — room for a
#: 2 h compute + 50% slack run to finish or switch to on-demand).
TRACE_SAMPLES = 300

prices = st.floats(min_value=0.05, max_value=3.0)


@st.composite
def price_traces(draw, zones=("za", "zb")):
    """Piecewise-constant traces of equal length over ``zones``."""
    per_zone = {}
    for zone in zones:
        segments = []
        remaining = TRACE_SAMPLES
        for _ in range(draw(st.integers(1, 5))):
            if remaining <= 10:
                break
            n = draw(st.integers(10, max(10, remaining // 2)))
            segments.append((min(n, remaining), draw(prices)))
            remaining -= segments[-1][0]
        if remaining > 0:
            segments.append((remaining, draw(prices)))
        per_zone[zone] = segments
    return multi_step_trace(per_zone)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=price_traces(),
    bid=st.floats(min_value=0.15, max_value=2.5),
    policy_label=st.sampled_from(sorted(POLICY_FACTORIES)),
    num_zones=st.integers(1, 2),
)
def test_no_invariant_violations_and_engines_agree(trace, bid, policy_label,
                                                   num_zones):
    report = differential_run(
        trace,
        small_config(),
        POLICY_FACTORIES[policy_label],
        bid,
        ("za", "zb")[:num_zones],
        0.0,
        queue_model=FixedQueueDelay(300.0),
    )
    assert report.fast_audit.ok, report.summary_lines()
    assert report.tick_audit.ok, report.summary_lines()
    assert report.identical, report.summary_lines()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=price_traces(),
    bid=st.floats(min_value=0.15, max_value=2.5),
    ckpt_cost_s=st.sampled_from((300.0, 900.0)),
    mode=st.sampled_from(("fast", "tick")),
)
def test_audited_run_invariants_hold_per_mode(trace, bid, ckpt_cost_s, mode):
    auditor = RunAuditor()
    sim = SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=FixedQueueDelay(300.0),
        rng=np.random.default_rng(3),
        engine_mode=mode,
        auditor=auditor,
    )
    sim.run(small_config(ckpt_cost_s=ckpt_cost_s),
            POLICY_FACTORIES["markov-daly"](), bid, ("za", "zb"), 0.0)
    report = auditor.drain()
    assert report.ok, report.summary_lines()


@pytest.mark.parametrize("policy_label", sorted(POLICY_FACTORIES))
@pytest.mark.parametrize("mode", ("fast", "tick"))
def test_low_window_policies_audit_clean(low_window, policy_label, mode):
    trace, eval_start = low_window
    auditor = RunAuditor()
    sim = SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=FixedQueueDelay(300.0),
        rng=np.random.default_rng(11),
        engine_mode=mode,
        auditor=auditor,
    )
    sim.run(small_config(), POLICY_FACTORIES[policy_label](), 0.81,
            trace.zone_names[:1], eval_start)
    report = auditor.drain()
    assert report.ok, report.summary_lines()


@pytest.mark.parametrize("bid", (0.27, 0.81, 2.40))
@pytest.mark.parametrize("mode", ("fast", "tick"))
def test_high_window_bids_audit_clean(high_window, bid, mode):
    trace, eval_start = high_window
    auditor = RunAuditor()
    sim = SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=FixedQueueDelay(300.0),
        rng=np.random.default_rng(5),
        engine_mode=mode,
        auditor=auditor,
    )
    sim.run(small_config(), POLICY_FACTORIES["markov-daly"](), bid,
            trace.zone_names, eval_start)
    report = auditor.drain()
    assert report.ok, report.summary_lines()

"""Property-based audit coverage: every invariant holds across
policy x window x bid in both engine modes.

The hypothesis half audits random piecewise price traces
(:func:`~tests.audit.test_differential.price_traces`) and holds random
single runs on fast and vector to tick; the parametrized half pins the
paper's evaluation windows and bid grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import RunAuditor
from repro.core.engine import SpotSimulator
from repro.experiments.runner import POLICY_FACTORIES
from repro.market.queuing import FixedQueueDelay
from repro.market.spot_market import PriceOracle

from tests.audit.test_differential import (
    agree_on_random_cube,
    cubes,
    price_traces,
)
from tests.conftest import small_config


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cube=cubes(families=("run",)))
def test_no_invariant_violations_and_engines_agree(cube):
    """Hypothesis, the ``run`` family: one run at a random bid over one
    or two zones — fast and vector match tick, both audits clean."""
    agree_on_random_cube(cube)


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

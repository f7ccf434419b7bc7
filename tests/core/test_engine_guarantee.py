"""Property-based deadline-guarantee tests (hypothesis).

The central claim of Algorithm 1: *whatever the spot market does*, the
run finishes by the user deadline D.  Random piecewise-constant traces
play the adversary; every policy must hold the line.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge import RisingEdgePolicy
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.policy import NeverCheckpoint
from repro.core.threshold import ThresholdPolicy

from tests.conftest import make_sim, multi_step_trace, small_config

#: Adversarial price segments: runs of 1-20 samples at cheap or
#: expensive levels around a $0.50 bid.
segments = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=20),
        st.sampled_from([0.30, 0.40, 0.60, 1.50, 3.00]),
    ),
    min_size=3,
    max_size=25,
)

policies = st.sampled_from(
    [PeriodicPolicy, MarkovDalyPolicy, RisingEdgePolicy, ThresholdPolicy,
     NeverCheckpoint]
)


def _pad(segs, min_samples):
    total = sum(n for n, _ in segs)
    if total < min_samples:
        segs = segs + [(min_samples - total, 0.30)]
    return segs


@given(segs=segments, policy_cls=policies,
       queue_delay=st.floats(min_value=0.0, max_value=880.0))
@settings(max_examples=60, deadline=None)
def test_deadline_always_met_single_zone(segs, policy_cls, queue_delay):
    config = small_config(compute_h=2.0, slack_fraction=0.75)
    needed = int(config.deadline_s / 300) + 4
    trace = multi_step_trace({"za": _pad(segs, needed)})
    sim = make_sim(trace, queue_delay_s=queue_delay)
    result = sim.run(config, policy_cls(), 0.50, ("za",), 0.0)

    assert result.met_deadline, (
        f"{policy_cls.__name__} missed D: finish={result.finish_time}, "
        f"deadline={result.deadline}"
    )
    assert result.total_cost >= 0.0
    assert result.finish_time > result.start_time


@given(
    segs_a=segments, segs_b=segments,
    policy_cls=st.sampled_from([PeriodicPolicy, MarkovDalyPolicy]),
)
@settings(max_examples=40, deadline=None)
def test_deadline_always_met_redundant(segs_a, segs_b, policy_cls):
    config = small_config(compute_h=2.0, slack_fraction=0.75)
    needed = max(
        int(config.deadline_s / 300) + 4,
        sum(n for n, _ in segs_a),
        sum(n for n, _ in segs_b),
    )
    trace = multi_step_trace(
        {"za": _pad(segs_a, needed), "zb": _pad(segs_b, needed)}
    )
    sim = make_sim(trace)
    result = sim.run(config, policy_cls(), 0.50, ("za", "zb"), 0.0)
    assert result.met_deadline
    assert result.total_cost >= 0.0


@given(segs=segments)
@settings(max_examples=40, deadline=None)
def test_cost_never_negative_and_bounded(segs):
    """Spot cost is bounded by (hours elapsed) x (max price seen)."""
    config = small_config(compute_h=1.0, slack_fraction=1.0)
    needed = int(config.deadline_s / 300) + 4
    segs = _pad(segs, needed)
    trace = multi_step_trace({"za": segs})
    sim = make_sim(trace)
    result = sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0)
    max_price = max(p for _, p in segs)
    elapsed_hours = np.ceil(result.makespan_s / 3600.0)
    assert 0.0 <= result.spot_cost <= elapsed_hours * min(max_price, 0.50) + 1e-9


@given(segs=segments, bid=st.sampled_from([0.35, 0.50, 2.0]))
@settings(max_examples=40, deadline=None)
def test_spot_completion_implies_full_compute(segs, bid):
    """If the run reports finishing on spot, the committed + local
    progress actually covered C."""
    config = small_config(compute_h=1.0, slack_fraction=1.0)
    needed = int(config.deadline_s / 300) + 4
    trace = multi_step_trace({"za": _pad(segs, needed)})
    sim = make_sim(trace)
    result = sim.run(config, PeriodicPolicy(), bid, ("za",), 0.0)
    if result.completed_on == "spot":
        # the application computed for at least C seconds of wall time
        assert result.makespan_s >= config.compute_s - 1e-6

"""Property-based engine invariants beyond the deadline guarantee."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy

from tests.conftest import make_sim, multi_step_trace, small_config

segments = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=15),
        st.sampled_from([0.30, 0.45, 0.70, 1.20]),
    ),
    min_size=3,
    max_size=20,
)


def _trace(segs, min_samples):
    total = sum(n for n, _ in segs)
    if total < min_samples:
        segs = segs + [(min_samples - total, 0.30)]
    return multi_step_trace({"za": segs})


@given(segs=segments)
@settings(max_examples=40, deadline=None)
def test_spot_cost_conserved_with_charged_hours(segs):
    """Total spot cost equals the sum of committed hourly rates, every
    one of which is an actually observed price at an hour start."""
    config = small_config(compute_h=1.5, slack_fraction=1.0)
    trace = _trace(segs, int(config.deadline_s / 300) + 4)
    sim = make_sim(trace)
    result = sim.run(config, PeriodicPolicy(), 0.50, ("za",), 0.0)
    observed_prices = set(np.unique(trace.zone("za").prices))
    # cost decomposes into charged hours at observed prices <= bid
    assert result.spot_hours_charged >= 0
    if result.spot_hours_charged:
        mean_rate = result.spot_cost / result.spot_hours_charged
        assert 0 < mean_rate <= 0.50 + 1e-9
        assert min(observed_prices) - 1e-9 <= mean_rate


@given(segs=segments, bid=st.sampled_from([0.35, 0.5, 1.5]))
@settings(max_examples=40, deadline=None)
def test_checkpoint_count_consistency(segs, bid):
    """Committed checkpoints never exceed started checkpoints, and the
    store's progress never exceeds C."""
    config = small_config(compute_h=1.0, slack_fraction=1.0)
    trace = _trace(segs, int(config.deadline_s / 300) + 4)
    sim = make_sim(trace, record_events=True)
    result = sim.run(config, MarkovDalyPolicy(), bid, ("za",), 0.0)
    started = sum(1 for e in result.events if e.kind == "checkpoint-started")
    committed = sum(
        1 for e in result.events if e.kind == "checkpoint-committed"
    )
    assert committed <= started
    assert result.num_checkpoints == committed


@given(segs=segments)
@settings(max_examples=30, deadline=None)
def test_identical_runs_are_identical(segs):
    """Same trace + same seed => bit-identical results."""
    config = small_config(compute_h=1.0, slack_fraction=1.0)
    trace = _trace(segs, int(config.deadline_s / 300) + 4)
    a = make_sim(trace, seed=9).run(config, PeriodicPolicy(), 0.5, ("za",), 0.0)
    b = make_sim(trace, seed=9).run(config, PeriodicPolicy(), 0.5, ("za",), 0.0)
    assert a.total_cost == b.total_cost
    assert a.finish_time == b.finish_time
    assert a.num_checkpoints == b.num_checkpoints


@given(
    segs=segments,
    slack=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_more_slack_never_hurts_much(segs, slack):
    """Loosening the deadline cannot make the run meaningfully more
    expensive (the guard fires later or not at all)."""
    trace = _trace(segs, int((1.0 + 2 * 2.0) * 3600 / 300) + 40)
    tight = small_config(compute_h=1.0, slack_fraction=slack)
    loose = small_config(compute_h=1.0, slack_fraction=slack + 0.5)
    cost_tight = make_sim(trace, seed=3).run(
        tight, PeriodicPolicy(), 0.5, ("za",), 0.0
    ).total_cost
    cost_loose = make_sim(trace, seed=3).run(
        loose, PeriodicPolicy(), 0.5, ("za",), 0.0
    ).total_cost
    # allow one spot/on-demand hour of slop for boundary effects
    assert cost_loose <= cost_tight + 2.40 + 1e-9

"""Vector-vs-fast differential: the acceptance gate for the batch engine.

One start axis — or a fused (bid x start) grid, both one-shape cubes —
runs through the struct-of-arrays engine and through per-run *audited* fast
simulations; everything is diffed — RunResult fields (event logs ride
along) and the vector log against the audited stream the invariant
checker certified.  All five paper policies plus the Adaptive
controller are covered on both volatility windows, every one on the
native lockstep columns (single- and multi-zone; Large-bid/Naive and
fractional starts included).  The hypothesis half replays the same
contract over random piecewise traces so the native shapes are not
merely calibrated-window-correct.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.workload import paper_experiment
from repro.audit.differential import (
    VectorDifferentialReport,
    diff_log_vs_audit_stream,
    vector_differential_adaptive,
    vector_differential_cube,
)
from repro.core.adaptive import AdaptiveController
from repro.core.edge import RisingEdgePolicy
from repro.core.large_bid import LargeBidPolicy, naive_policy
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.threshold import ThresholdPolicy
from repro.experiments.runner import POLICY_FACTORIES
from repro.market.constants import LARGE_BID
from repro.market.queuing import FixedQueueDelay

from tests.audit.test_properties import price_traces
from tests.conftest import small_config

#: The paper's five policy schemes with representative bids.
PAPER_POLICIES = [
    ("periodic", PeriodicPolicy, 0.27),
    ("edge", RisingEdgePolicy, 0.81),
    ("markov-daly", MarkovDalyPolicy, 0.40),
    ("threshold", ThresholdPolicy, 0.35),
    ("naive", naive_policy, LARGE_BID),
]


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)


@pytest.mark.parametrize("window_name", ["low", "high"])
@pytest.mark.parametrize(
    "label,factory,bid", PAPER_POLICIES, ids=[p[0] for p in PAPER_POLICIES]
)
def test_vector_differential_identical(
    window_name, label, factory, bid, config, low_window, high_window
):
    trace, eval_start = low_window if window_name == "low" else high_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 7200.0 for k in range(4)]
    report = vector_differential_cube(
        trace, [config], [factory], [bid], (zone,), [starts]
    )
    assert report.ok, "\n".join(report.summary_lines())
    assert len(report.vector_results) == len(starts)
    # the audited-stream comparison must have had real content
    assert any(r.events for r in report.fast_results)


def test_vector_differential_over_bid_grid(low_window, config):
    """Policy × bid grid on the calm window, per the acceptance bar."""
    trace, eval_start = low_window
    zone = trace.zone_names[1]
    starts = [eval_start, eval_start + 10800.0]
    for factory in (PeriodicPolicy, RisingEdgePolicy):
        for bid in (0.27, 0.35, 0.81, 2.40):
            report = vector_differential_cube(
                trace, [config], [factory], [bid], (zone,), [starts]
            )
            assert report.ok, "\n".join(report.summary_lines())


@pytest.mark.parametrize("window_name", ["low", "high"])
@pytest.mark.parametrize("label", sorted(POLICY_FACTORIES))
def test_vector_differential_multi_zone(
    window_name, label, config, low_window, high_window
):
    """Merged multi-zone cells: per-zone column blocks, all four
    native kinds, both calibrated windows."""
    trace, eval_start = low_window if window_name == "low" else high_window
    zones = trace.zone_names[:3]
    starts = [eval_start, eval_start + 10800.0]
    report = vector_differential_cube(
        trace, [config], [POLICY_FACTORIES[label]], [0.40], zones,
        [starts]
    )
    assert report.ok, "\n".join(report.summary_lines())
    assert all(r.zones == tuple(zones) for r in report.vector_results)


@pytest.mark.parametrize("window_name", ["low", "high"])
@pytest.mark.parametrize(
    "label,factory",
    [("periodic", PeriodicPolicy), ("markov-daly", MarkovDalyPolicy),
     ("threshold", ThresholdPolicy)],
    ids=["periodic", "markov-daly", "threshold"],
)
def test_vector_differential_fused_grid(
    window_name, label, factory, config, low_window, high_window
):
    """Fused (bid x start) tiles — clone rows (Periodic) and per-row
    native bid columns (Markov-Daly, Threshold) alike are bit-identical
    to independent audited runs at their own bid."""
    trace, eval_start = low_window if window_name == "low" else high_window
    zone = trace.zone_names[0]
    bids = [0.27, 0.35, 0.81]
    starts = [eval_start, eval_start + 14400.0]
    report = vector_differential_cube(
        trace, [config], [factory], bids, (zone,), [starts]
    )
    assert report.ok, "\n".join(report.summary_lines())
    assert len(report.vector_results) == len(bids) * len(starts)


def test_vector_differential_grid_multi_zone(low_window, config):
    """A fused tile over a merged two-zone cell."""
    trace, eval_start = low_window
    zones = trace.zone_names[:2]
    report = vector_differential_cube(
        trace, [config], [PeriodicPolicy], [0.27, 0.81], zones,
        [[eval_start, eval_start + 7200.0]],
    )
    assert report.ok, "\n".join(report.summary_lines())


def test_vector_differential_grid_fractional_starts(low_window, config):
    """Rows with non-integral starts stay on the native columns inside
    a fused tile and still match the audited scalar runs bit for bit
    (the lockstep accrual replays the per-tick loop for fractional
    clocks)."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    report = vector_differential_cube(
        trace, [config], [MarkovDalyPolicy], [0.40, 0.81], (zone,),
        [[eval_start, eval_start + 150.5]],
    )
    assert report.ok, "\n".join(report.summary_lines())


def test_vector_differential_fractional_start_axis(low_window, config):
    """A plain start axis with fractional starts: native columns,
    audited-stream identical."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    report = vector_differential_cube(
        trace, [config], [PeriodicPolicy], [0.27], (zone,),
        [[eval_start + 0.5, eval_start + 150.5, eval_start + 7200.0]],
    )
    assert report.ok, "\n".join(report.summary_lines())


@pytest.mark.parametrize("window_name", ["low", "high"])
@pytest.mark.parametrize("threshold", [None, 0.50], ids=["naive", "L=0.50"])
def test_vector_differential_large_bid(
    window_name, threshold, config, low_window, high_window
):
    """Large-bid's native columns (threshold releases included) are
    bit-identical to audited per-run fast simulation."""
    trace, eval_start = low_window if window_name == "low" else high_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 7200.0 for k in range(3)]
    report = vector_differential_cube(
        trace, [config],
        [lambda: LargeBidPolicy(threshold)],
        [LARGE_BID], (zone,), [starts],
    )
    assert report.ok, "\n".join(report.summary_lines())


@pytest.mark.parametrize("window_name", ["low", "high"])
def test_vector_differential_adaptive(
    window_name, config, low_window, high_window
):
    """Adaptive's batched decision columns on both calibrated windows:
    RunResult fields, event logs and audited streams all identical —
    config-switch events carry (policy, bid, zone count), so identical
    streams certify winner-identical controller decisions."""
    trace, eval_start = low_window if window_name == "low" else high_window
    starts = [eval_start + k * 7200.0 for k in range(4)]
    report = vector_differential_adaptive(
        trace, config, AdaptiveController, starts
    )
    assert report.ok, "\n".join(report.summary_lines())
    assert len(report.vector_results) == len(starts)
    assert any(r.events for r in report.fast_results)


def test_vector_differential_adaptive_custom_bid_grid(low_window, config):
    """A narrowed candidate bid grid changes the shape of every
    controller's decision matrices; the contract holds regardless."""
    trace, eval_start = low_window
    starts = [eval_start, eval_start + 10800.0]
    report = vector_differential_adaptive(
        trace, config,
        lambda: AdaptiveController(bids=(0.27, 0.40, 0.81)),
        starts,
    )
    assert report.ok, "\n".join(report.summary_lines())


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=price_traces(),
    bid=st.floats(min_value=0.15, max_value=2.5),
    policy_label=st.sampled_from(sorted(POLICY_FACTORIES)),
    num_zones=st.integers(1, 2),
)
def test_native_shapes_hold_on_random_traces(trace, bid, policy_label,
                                             num_zones):
    """Hypothesis: every native shape (all four vector kinds, single-
    and two-zone cells) matches audited per-run fast simulation on
    random piecewise traces."""
    report = vector_differential_cube(
        trace, [small_config()], [POLICY_FACTORIES[policy_label]], [bid],
        ("za", "zb")[:num_zones], [[0.0, 7200.0]],
        queue_model=FixedQueueDelay(300.0),
    )
    assert report.ok, "\n".join(report.summary_lines())


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=price_traces(),
    policy_label=st.sampled_from(sorted(POLICY_FACTORIES)),
    num_zones=st.integers(1, 2),
)
def test_fused_grid_holds_on_random_traces(trace, policy_label, num_zones):
    """Hypothesis: fused (bid x start) tiles — clone plans included —
    match independent audited runs on random piecewise traces."""
    report = vector_differential_cube(
        trace, [small_config()], [POLICY_FACTORIES[policy_label]],
        [0.27, 0.5, 0.81], ("za", "zb")[:num_zones], [[0.0, 3600.0]],
        queue_model=FixedQueueDelay(300.0),
    )
    assert report.ok, "\n".join(report.summary_lines())


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=price_traces(),
    bids=st.sampled_from([
        (0.27, 0.40, 0.81),
        (0.15, 0.35, 0.50, 1.20),
        (0.30, 2.40),
    ]),
)
def test_adaptive_columns_hold_on_random_traces(trace, bids):
    """Hypothesis: the Adaptive native columns match audited per-run
    fast simulation on random piecewise traces across candidate bid
    grids — every field, every event, every controller decision."""
    report = vector_differential_adaptive(
        trace, small_config(),
        lambda: AdaptiveController(bids=bids),
        [0.0, 7200.0],
        queue_model=FixedQueueDelay(300.0),
    )
    assert report.ok, "\n".join(report.summary_lines())


def test_report_flags_divergence(low_window, config):
    """A doctored result is caught by both comparison layers."""
    from dataclasses import replace

    trace, eval_start = low_window
    zone = trace.zone_names[0]
    report = vector_differential_cube(
        trace, [config], [PeriodicPolicy], [0.27], (zone,), [[eval_start]]
    )
    assert report.identical
    good = report.vector_results[0]
    forged = replace(good, spot_cost=good.spot_cost + 1.0)
    from repro.audit.differential import diff_results

    diffs = diff_results(forged, report.fast_results[0])
    assert [d.field for d in diffs] == ["spot_cost"]
    # event-stream layer: drop one event from the log
    stream_diffs = diff_log_vs_audit_stream(
        good.events[:-1],
        [e for e in _audited_stream(report)],
        where="row[0].event",
    )
    assert any(d.field == "length" for d in stream_diffs)
    bad = VectorDifferentialReport(audit_stream_diffs=stream_diffs)
    assert not bad.identical
    assert any("event" in line for line in bad.summary_lines())


def _audited_stream(report):
    """Reconstruct the scalar side's audited events from the comparison
    baseline: identical runs means the engine log *is* the stream's
    log-kind projection, which is all the helper consumes."""
    return list(report.fast_results[0].events)

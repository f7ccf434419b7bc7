"""One-shape cubes on the calibrated windows: every engine against tick.

One start axis — or a fused (bid x start) grid — runs through
:func:`~repro.audit.differential.differential_cube`: audited per-run
``tick`` (the reference) and ``fast`` simulations and one ``vector``
pass, every fast and vector row diffed against its tick row on
RunResult fields, events and RNG state.  All five paper policies plus
the Adaptive controller are covered on both volatility windows, every
one on the native lockstep columns (single- and multi-zone;
Large-bid/Naive and exact and inexact fractional starts included).
Three hypothesis tests draw the ``start-axis``, ``bid-grid`` and
``adaptive`` families of ``test_differential.py::cubes`` on random
piecewise traces.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.edge import RisingEdgePolicy
from repro.core.large_bid import LargeBidPolicy, naive_policy
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.threshold import ThresholdPolicy
from repro.experiments.runner import POLICY_FACTORIES
from repro.market.constants import LARGE_BID

from tests.audit.test_differential import (
    agree,
    agree_on_random_cube,
    cubes,
)

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
    starts = [eval_start + k * 7200.0 for k in range(4)]
    report = agree(trace, [config], [starts], policies=[factory],
                   bids=[bid], zones=trace.zone_names[:1])
    assert len(report.results["vector"]) == len(starts)
    # the event comparison must have had real content
    assert any(r.events for r in report.results["tick"])


def test_vector_differential_over_bid_grid(low_window, config):
    """Policy × bid grid on the calm window, one cell at a time."""
    trace, eval_start = low_window
    starts = [eval_start, eval_start + 10800.0]
    for factory in (PeriodicPolicy, RisingEdgePolicy):
        for bid in (0.27, 0.35, 0.81, 2.40):
            agree(trace, [config], [starts], policies=[factory],
                  bids=[bid], zones=trace.zone_names[1:2])


@pytest.mark.parametrize("window_name", ["low", "high"])
@pytest.mark.parametrize("label", sorted(POLICY_FACTORIES))
def test_vector_differential_multi_zone(
    window_name, label, config, low_window, high_window
):
    """Merged multi-zone cells: per-zone column blocks, all four
    native kinds, both calibrated windows."""
    trace, eval_start = low_window if window_name == "low" else high_window
    zones = tuple(trace.zone_names[:3])
    report = agree(trace, [config], [[eval_start, eval_start + 10800.0]],
                   policies=[POLICY_FACTORIES[label]], bids=[0.40],
                   zones=zones)
    assert all(r.zones == zones for r in report.results["vector"])


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
    to independent tick runs at their own bid."""
    trace, eval_start = low_window if window_name == "low" else high_window
    bids = [0.27, 0.35, 0.81]
    starts = [eval_start, eval_start + 14400.0]
    report = agree(trace, [config], [starts], policies=[factory],
                   bids=bids, zones=trace.zone_names[:1])
    assert len(report.results["vector"]) == len(bids) * len(starts)


def test_vector_differential_grid_multi_zone(low_window, config):
    """A fused tile over a merged two-zone cell."""
    trace, eval_start = low_window
    agree(trace, [config], [[eval_start, eval_start + 7200.0]],
          policies=[PeriodicPolicy], bids=[0.27, 0.81],
          zones=trace.zone_names[:2])


def test_vector_differential_grid_fractional_starts(low_window, config):
    """Rows with non-integral starts stay on the native columns inside
    a fused tile and still match the tick runs bit for bit (the
    lockstep accrual replays the per-tick loop for fractional
    clocks)."""
    trace, eval_start = low_window
    agree(trace, [config], [[eval_start, eval_start + 150.5]],
          policies=[MarkovDalyPolicy], bids=[0.40, 0.81],
          zones=trace.zone_names[:1])


def test_vector_differential_fractional_start_axis(low_window, config):
    """A plain start axis with fractional starts: native columns,
    event-identical."""
    trace, eval_start = low_window
    agree(trace, [config],
          [[eval_start + 0.5, eval_start + 150.5, eval_start + 7200.0]],
          policies=[PeriodicPolicy], bids=[0.27],
          zones=trace.zone_names[:1])


@pytest.mark.parametrize("window_name", ["low", "high"])
@pytest.mark.parametrize("threshold", [None, 0.50], ids=["naive", "L=0.50"])
def test_vector_differential_large_bid(
    window_name, threshold, config, low_window, high_window
):
    """Large-bid's native columns (threshold releases included) are
    bit-identical to the tick runs."""
    trace, eval_start = low_window if window_name == "low" else high_window
    starts = [eval_start + k * 7200.0 for k in range(3)]
    agree(trace, [config], [starts],
          policies=[lambda: LargeBidPolicy(threshold)], bids=[LARGE_BID],
          zones=trace.zone_names[:1])


@pytest.mark.parametrize("window_name", ["low", "high"])
def test_adaptive_differential_identical(
    window_name, config, low_window, high_window
):
    """Adaptive's batched decision columns on both calibrated windows:
    RunResult fields, event logs and audited streams all identical —
    config-switch events carry (policy, bid, zone count), so identical
    streams certify winner-identical controller decisions."""
    trace, eval_start = low_window if window_name == "low" else high_window
    starts = [eval_start + k * 7200.0 for k in range(4)]
    report = agree(trace, [config], [starts],
                   controller_factory=AdaptiveController)
    assert len(report.results["vector"]) == len(starts)
    assert any(r.events for r in report.results["tick"])


def test_adaptive_differential_custom_bid_grid(low_window, config):
    """A narrowed candidate bid grid changes the shape of every
    controller's decision matrices; the contract holds regardless."""
    trace, eval_start = low_window
    agree(trace, [config], [[eval_start, eval_start + 10800.0]],
          controller_factory=lambda: AdaptiveController(
              bids=(0.27, 0.40, 0.81)))


@pytest.mark.parametrize(
    "label,factory,bid", PAPER_POLICIES[:4], ids=[p[0] for p in PAPER_POLICIES[:4]]
)
def test_vector_differential_inexact_fractional_starts(
    label, factory, bid, low_window, config
):
    """Starts whose clock sums round (0.1 s is not a binary fraction):
    bulk skips must add the tick one float addition at a time, as the
    tick engine does, and place every hour roll of a two-zone cell at
    the tick that crossed it."""
    trace, eval_start = low_window
    agree(trace, [config],
          [[eval_start + 0.1, eval_start + 3600.3, eval_start + 1234.567]],
          policies=[factory], bids=[bid], zones=trace.zone_names[:2])


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cube=cubes(families=("start-axis",)))
def test_native_shapes_hold_on_random_traces(cube):
    """Hypothesis, the ``start-axis`` family: every native shape (all
    vector kinds, single- and two-zone cells) at a random bid over
    starts 0 and 7200 — fast and vector rows match tick."""
    agree_on_random_cube(cube)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cube=cubes(families=("bid-grid",)))
def test_fused_grid_holds_on_random_traces(cube):
    """Hypothesis, the ``bid-grid`` family: fused (bid x start) tiles —
    clone plans included — match tick row for row."""
    agree_on_random_cube(cube)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cube=cubes(families=("adaptive",)))
def test_adaptive_columns_hold_on_random_traces(cube):
    """Hypothesis, the ``adaptive`` family: the Adaptive native columns
    match tick across candidate bid grids and re-evaluation periods —
    every field, every event, every controller decision."""
    agree_on_random_cube(cube)

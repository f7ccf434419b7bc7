"""Fast-path equivalence: the segment-skipping engine must reproduce
the reference tick-by-tick loop *bit for bit*.

Every test here runs the same experiment twice — ``engine_mode="fast"``
and ``engine_mode="tick"`` — with identically seeded RNGs, fresh policy
instances, and fresh oracles (so each engine seeds the oracle's
hour-bucket caches through its own query pattern), then asserts full
:class:`RunResult` equality including the event log.  Any divergence in
skipped-segment accounting, billing rolls, oracle cache seeding, or RNG
consumption shows up as a field or event mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.engine import EngineError, SpotSimulator
from repro.core.large_bid import LargeBidPolicy, naive_policy
from repro.core.policy import NeverCheckpoint
from repro.experiments.runner import (
    POLICY_FACTORIES,
    CellTask,
    ExperimentRunner,
)
from repro.market.constants import LARGE_BID
from repro.market.queuing import FixedQueueDelay, QueueDelayModel
from repro.market.spot_market import PriceOracle

from tests.conftest import multi_step_trace, small_config

#: The figure bid grid: below/at/above typical prices.
BIDS = (0.27, 0.81, 2.40)


def _run_mode(
    mode,
    trace,
    make_policy,
    bid,
    zones,
    start,
    config,
    *,
    controller_factory=None,
    queue_model=None,
    seed=7,
):
    """One run in the given engine mode with fresh oracle/policy/rng."""
    sim = SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=queue_model or FixedQueueDelay(300.0),
        rng=np.random.default_rng(seed),
        record_events=True,
        engine_mode=mode,
    )
    controller = controller_factory() if controller_factory else None
    return sim.run(
        config, make_policy(), bid, zones, start, controller=controller
    )


def _assert_equivalent(trace, make_policy, bid, zones, start, config, **kw):
    fast = _run_mode("fast", trace, make_policy, bid, zones, start, config, **kw)
    tick = _run_mode("tick", trace, make_policy, bid, zones, start, config, **kw)
    assert fast == tick  # frozen dataclass: every field, events included


# -- evaluation windows: policy x window x bid grid ------------------------


@pytest.mark.parametrize("bid", BIDS)
@pytest.mark.parametrize("label", sorted(POLICY_FACTORIES))
@pytest.mark.parametrize("window", ["low", "high"])
def test_window_single_zone_equivalence(window, label, bid, request):
    trace, eval_start = request.getfixturevalue(f"{window}_window")
    _assert_equivalent(
        trace,
        POLICY_FACTORIES[label],
        bid,
        trace.zone_names[:1],
        eval_start,
        paper_experiment(slack_fraction=0.15),
        queue_model=QueueDelayModel(),
    )


@pytest.mark.parametrize("label", ["periodic", "markov-daly"])
@pytest.mark.parametrize("window", ["low", "high"])
def test_window_redundant_equivalence(window, label, request):
    trace, eval_start = request.getfixturevalue(f"{window}_window")
    _assert_equivalent(
        trace,
        POLICY_FACTORIES[label],
        0.81,
        trace.zone_names,
        eval_start,
        paper_experiment(slack_fraction=0.15),
        queue_model=QueueDelayModel(),
    )


@pytest.mark.parametrize("threshold", [None, 0.40])
@pytest.mark.parametrize("window", ["low", "high"])
def test_window_large_bid_equivalence(window, threshold, request):
    trace, eval_start = request.getfixturevalue(f"{window}_window")
    _assert_equivalent(
        trace,
        lambda: LargeBidPolicy(threshold) if threshold else naive_policy(),
        LARGE_BID,
        trace.zone_names[:1],
        eval_start,
        paper_experiment(slack_fraction=0.15),
        queue_model=QueueDelayModel(),
    )


@pytest.mark.parametrize("window", ["low", "high"])
def test_window_adaptive_equivalence(window, request):
    trace, eval_start = request.getfixturevalue(f"{window}_window")
    controller_bid = AdaptiveController().bids[0]
    _assert_equivalent(
        trace,
        POLICY_FACTORIES["periodic"],
        controller_bid,
        trace.zone_names[:1],
        eval_start,
        paper_experiment(slack_fraction=0.15),
        controller_factory=AdaptiveController,
        queue_model=QueueDelayModel(),
    )


@pytest.mark.parametrize("window", ["low", "high"])
def test_window_never_checkpoint_equivalence(window, request):
    trace, eval_start = request.getfixturevalue(f"{window}_window")
    _assert_equivalent(
        trace,
        NeverCheckpoint,
        0.81,
        trace.zone_names[:1],
        eval_start,
        paper_experiment(slack_fraction=0.15),
        queue_model=QueueDelayModel(),
    )


# -- randomized synthetic traces ------------------------------------------

segments = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=20),
        st.sampled_from([0.30, 0.45, 0.70, 1.20]),
    ),
    min_size=2,
    max_size=15,
)


def _two_zone_trace(segs_a, segs_b, min_samples):
    target = max(
        min_samples,
        sum(n for n, _ in segs_a),
        sum(n for n, _ in segs_b),
    )

    def pad(segs):
        total = sum(n for n, _ in segs)
        if total < target:
            return segs + [(target - total, 0.30)]
        return segs

    return multi_step_trace({"za": pad(segs_a), "zb": pad(segs_b)})


@given(
    segs_a=segments,
    segs_b=segments,
    label=st.sampled_from(sorted(POLICY_FACTORIES)),
    bid=st.sampled_from([0.35, 0.50, 1.50]),
    num_zones=st.sampled_from([1, 2]),
    queue_delay=st.sampled_from([300.0, 137.5]),
)
@settings(max_examples=60, deadline=None)
def test_randomized_trace_equivalence(
    segs_a, segs_b, label, bid, num_zones, queue_delay
):
    """Random piecewise traces, all policies, fractional queue delays:
    the fast path's RunResult stays bit-identical to the tick loop's."""
    config = small_config(compute_h=1.5, slack_fraction=1.0)
    trace = _two_zone_trace(
        segs_a, segs_b, int(config.deadline_s / 300) + 4
    )
    _assert_equivalent(
        trace,
        POLICY_FACTORIES[label],
        bid,
        trace.zone_names[:num_zones],
        0.0,
        config,
        queue_model=FixedQueueDelay(queue_delay),
    )


@given(segs_a=segments, segs_b=segments)
@settings(max_examples=25, deadline=None)
def test_randomized_adaptive_equivalence(segs_a, segs_b):
    config = small_config(compute_h=1.5, slack_fraction=1.0)
    trace = _two_zone_trace(
        segs_a, segs_b, int(config.deadline_s / 300) + 4
    )
    _assert_equivalent(
        trace,
        POLICY_FACTORIES["periodic"],
        AdaptiveController().bids[0],
        trace.zone_names[:1],
        0.0,
        config,
        controller_factory=AdaptiveController,
    )


# -- plumbing -------------------------------------------------------------


def test_engine_mode_validated():
    trace = _two_zone_trace([(4, 0.3)], [(4, 0.3)], 40)
    sim = SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=FixedQueueDelay(300.0),
        rng=np.random.default_rng(0),
        engine_mode="warp",
    )
    with pytest.raises(EngineError, match="engine_mode"):
        sim.run(small_config(), POLICY_FACTORIES["periodic"](), 0.5,
                ("za",), 0.0)


def test_runner_engine_mode_records_identical():
    """ExperimentRunner(engine_mode=...) threads through run_cell and
    produces identical records either way."""
    task = None
    records = {}
    for mode in ("fast", "tick"):
        runner = ExperimentRunner(
            "low", num_experiments=2, engine_mode=mode
        )
        assert runner.simulator(runner.eval_start).engine_mode == mode
        task = CellTask(
            kind="single-zone",
            config=paper_experiment(slack_fraction=0.15),
            policies=("markov-daly",),
            bid=0.81,
            zones=runner.trace.zone_names[:1],
        )
        start = float(runner.starts(task.config)[0])
        records[mode] = runner.run_cell(task, start)
    assert records["fast"] == records["tick"]


def test_timeline_recording_falls_back_to_tick():
    """record_timeline needs per-tick samples; fast mode must transparently
    produce the same timeline as the reference loop."""
    trace = _two_zone_trace([(6, 0.3), (6, 0.7), (30, 0.3)], [(42, 0.3)], 42)
    config = small_config(compute_h=1.0, slack_fraction=0.5)
    results = {}
    for mode in ("fast", "tick"):
        sim = SpotSimulator(
            oracle=PriceOracle(trace),
            queue_model=FixedQueueDelay(300.0),
            rng=np.random.default_rng(3),
            record_timeline=True,
            engine_mode=mode,
        )
        results[mode] = sim.run(
            config, POLICY_FACTORIES["periodic"](), 0.5, ("za",), 0.0
        )
    assert results["fast"] == results["tick"]
    assert results["fast"].timeline  # actually sampled

"""Vector engine: bit-exact lockstep batches with scalar fallback.

The struct-of-arrays engine promises results — RunResult fields, event
logs, queue-delay draw sequences, cache entries — bit-identical to a
per-run ``SpotSimulator(engine_mode="fast")`` loop.  These tests hold
the native lockstep paths (every shipped policy kind — Large-bid
included — single- and multi-zone, fractional starts, plus the
Adaptive controller's batched decision columns) and every fallback
route to that promise on the real evaluation windows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.workload import paper_experiment
from repro.core.edge import RisingEdgePolicy
from repro.core.engine import EngineError, SpotSimulator
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.policy import NeverCheckpoint
from repro.core.vector_engine import (
    FALLBACK_CONTROLLER,
    FALLBACK_POLICY,
    FALLBACK_REASONS,
    BatchStats,
    VectorSimulator,
    native_batch_kind,
)
from repro.experiments.cache import RunCache
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle


def _start_rngs(starts, seed=1234):
    return [
        np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(int(s),))
        )
        for s in starts
    ]


def _fast_results(trace, config, factory, bid, zones, starts, *,
                  record_events=True, seed=1234, cache=None):
    oracle = PriceOracle(trace)
    out = []
    for s, rng in zip(starts, _start_rngs(starts, seed)):
        sim = SpotSimulator(
            oracle=oracle, queue_model=QueueDelayModel(), rng=rng,
            record_events=record_events, engine_mode="fast", run_cache=cache,
        )
        out.append(sim.run(config, factory(), bid, zones, s))
    return out


def _start_axis(vec, config, factory, bid, zones, starts, rngs):
    """One shape at one bid: ``run_cube`` over a start axis."""
    n = len(starts)
    return vec.run_cube([config], factory, zones, [0] * n, [bid] * n,
                        starts, rngs)


def _vector_results(trace, config, factory, bid, zones, starts, *,
                    record_events=True, seed=1234, cache=None):
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=record_events, run_cache=cache,
    )
    return _start_axis(
        vec, config, factory, bid, zones, starts, _start_rngs(starts, seed)
    )


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)


@pytest.mark.parametrize(
    "factory,bid",
    [
        (PeriodicPolicy, 0.27),
        (PeriodicPolicy, 0.81),
        (RisingEdgePolicy, 0.35),
        (NeverCheckpoint, 0.40),
    ],
)
def test_native_batch_matches_fast_engine(low_window, config, factory, bid):
    """Native lockstep runs equal per-run fast runs, events included."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 3600.0 for k in range(8)]
    fast = _fast_results(trace, config, factory, bid, (zone,), starts)
    vec = _vector_results(trace, config, factory, bid, (zone,), starts)
    assert vec == fast
    assert any(r.events for r in vec)  # the comparison saw real content


def test_native_batch_matches_on_volatile_window(high_window, config):
    """Terminations, forced commits and on-demand switches line up too."""
    trace, eval_start = high_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 3600.0 for k in range(8)]
    fast = _fast_results(trace, config, PeriodicPolicy, 0.35, (zone,), starts)
    vec = _vector_results(trace, config, PeriodicPolicy, 0.35, (zone,), starts)
    assert vec == fast
    # the cell must actually exercise the interesting paths
    assert any(r.num_provider_terminations > 0 for r in fast)
    assert any(r.completed_on == "ondemand" for r in fast)


def test_rng_streams_advance_identically(low_window, config):
    """After a batch, every per-start generator sits at the same state a
    scalar loop would have left it in — draw-for-draw equivalence."""
    trace, eval_start = low_window
    zone = trace.zone_names[1]
    starts = [eval_start + k * 3600.0 for k in range(5)]
    rf, rv = _start_rngs(starts), _start_rngs(starts)
    oracle = PriceOracle(trace)
    for s, rng in zip(starts, rf):
        SpotSimulator(
            oracle=oracle, queue_model=QueueDelayModel(), rng=rng,
            engine_mode="fast",
        ).run(config, PeriodicPolicy(), 0.27, (zone,), s)
    _start_axis(
        VectorSimulator(oracle=PriceOracle(trace),
                        queue_model=QueueDelayModel()),
        config, PeriodicPolicy, 0.27, (zone,), starts, rv,
    )
    for a, b in zip(rf, rv):
        assert a.bit_generator.state == b.bit_generator.state


def test_markov_daly_native_matches_fast_engine(low_window, config):
    """Markov-Daly's re-arm clock rides as a batch column, bit-exactly."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 7200.0 for k in range(4)]
    assert native_batch_kind(MarkovDalyPolicy(), (zone,)) == "markov-daly"
    fast = _fast_results(trace, config, MarkovDalyPolicy, 0.40, (zone,), starts)
    vec = _vector_results(trace, config, MarkovDalyPolicy, 0.40, (zone,), starts)
    assert vec == fast


def test_multi_zone_native_matches_fast_engine(low_window, config):
    """Merged multi-zone cells run natively as per-zone column blocks."""
    trace, eval_start = low_window
    zones = trace.zone_names[:2]
    assert native_batch_kind(PeriodicPolicy(), zones) == "periodic"
    starts = [eval_start, eval_start + 7200.0]
    fast = _fast_results(trace, config, PeriodicPolicy, 0.81, zones, starts)
    vec = _vector_results(trace, config, PeriodicPolicy, 0.81, zones, starts)
    assert vec == fast
    assert any(r.events for r in vec)


def test_fractional_start_native(low_window, config):
    """Non-integral starts ride the lockstep columns too — the fused
    accrual replays the scalar engine's per-tick loop for fractional
    clocks, so no row leaves the native path."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start, eval_start + 150.5, eval_start + 7200.0]
    fast = _fast_results(trace, config, PeriodicPolicy, 0.27, (zone,), starts)
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=True,
    )
    results = _start_axis(
        vec, config, PeriodicPolicy, 0.27, (zone,), starts, _start_rngs(starts)
    )
    assert results == fast
    assert vec.stats.native == len(starts)
    assert vec.stats.fallback == {}


def test_batch_validation_errors(low_window, config):
    trace, eval_start = low_window
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel()
    )
    with pytest.raises(EngineError, match="zone"):
        _start_axis(vec, config, PeriodicPolicy, 0.27, ("nope",),
                    [eval_start], _start_rngs([eval_start]))
    with pytest.raises(EngineError, match="bid"):
        _start_axis(vec, config, PeriodicPolicy, 0.0, trace.zone_names[:1],
                    [eval_start], _start_rngs([eval_start]))
    late = trace.end_time - 3600.0  # deadline beyond the trace end
    with pytest.raises(EngineError, match="before the deadline"):
        _start_axis(vec, config, PeriodicPolicy, 0.27, trace.zone_names[:1],
                    [late], _start_rngs([late]))
    with pytest.raises(EngineError, match="rng streams"):
        _start_axis(vec, config, PeriodicPolicy, 0.27, trace.zone_names[:1],
                    [eval_start, eval_start + 300.0],
                    _start_rngs([eval_start]))
    zone = trace.zone_names[:1]
    two = [eval_start, eval_start + 3600.0]
    with pytest.raises(EngineError, match="shape index 1"):
        vec.run_cube([config], PeriodicPolicy, zone, [0, 1], [0.27, 0.27],
                     two, _start_rngs(two))
    with pytest.raises(EngineError, match="shape rows"):
        vec.run_cube([config], PeriodicPolicy, zone, [0], [0.27, 0.27],
                     two, _start_rngs(two))
    with pytest.raises(EngineError, match="clone_of"):
        vec.run_cube([config], PeriodicPolicy, zone, [0, 0], [0.27, 0.81],
                     two, _start_rngs(two), clone_of=[None, 0, 1])
    with pytest.raises(EngineError, match="representative 7"):
        vec.run_cube([config], PeriodicPolicy, zone, [0, 0], [0.27, 0.81],
                     two, _start_rngs(two), clone_of=[None, 7])
    assert _start_axis(vec, config, PeriodicPolicy, 0.27,
                       trace.zone_names[:1], [], []) == []


def test_vector_populates_cache_fast_engine_hits(low_window, config, tmp_path):
    """Vector-stored entries are content-addressed exactly as fast runs."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 3600.0 for k in range(4)]
    cache = RunCache(str(tmp_path))
    vec = _vector_results(trace, config, PeriodicPolicy, 0.27, (zone,),
                          starts, record_events=False, cache=cache)
    stored = cache.drain_stats()
    assert stored.stores == len(starts) and stored.hits == 0
    fast = _fast_results(trace, config, PeriodicPolicy, 0.27, (zone,),
                         starts, record_events=False, cache=cache)
    warm = cache.drain_stats()
    assert warm.hits == len(starts) and warm.misses == 0
    assert fast == vec


def test_vector_hits_fast_engine_entries(low_window, config, tmp_path):
    """...and the reverse: a cold fast run warms the vector batch."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 3600.0 for k in range(4)]
    cache = RunCache(str(tmp_path))
    fast = _fast_results(trace, config, PeriodicPolicy, 0.27, (zone,),
                         starts, record_events=False, cache=cache)
    cache.drain_stats()
    vec = _vector_results(trace, config, PeriodicPolicy, 0.27, (zone,),
                          starts, record_events=False, cache=cache)
    warm = cache.drain_stats()
    assert warm.hits == len(starts) and warm.misses == 0
    assert vec == fast


def test_cache_hit_burns_rng_draws(low_window, config, tmp_path):
    """A vector cache hit leaves the RNG where a simulated run would."""
    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 3600.0 for k in range(3)]
    cache = RunCache(str(tmp_path))
    _vector_results(trace, config, PeriodicPolicy, 0.27, (zone,), starts,
                    record_events=False, cache=cache)
    cold = _start_rngs(starts)
    warm = _start_rngs(starts)
    _fast_results(trace, config, PeriodicPolicy, 0.27, (zone,), starts,
                  record_events=False)  # no cache: simulates for real
    vecsim = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=False, run_cache=cache,
    )
    _start_axis(vecsim, config, PeriodicPolicy, 0.27, (zone,), starts, warm)
    oracle = PriceOracle(trace)
    for s, rng in zip(starts, cold):
        SpotSimulator(
            oracle=oracle, queue_model=QueueDelayModel(), rng=rng,
            engine_mode="fast",
        ).run(config, PeriodicPolicy(), 0.27, (zone,), s)
    for a, b in zip(cold, warm):
        assert a.bit_generator.state == b.bit_generator.state


# -- Adaptive and Large-bid native columns ------------------------------


def test_adaptive_batch_native_matches_fast_engine(low_window, config):
    """Controller-driven runs batch natively: per-run controllers with a
    shared selection memo, bit-identical to scalar fast runs."""
    from repro.core.adaptive import AdaptiveController

    trace, eval_start = low_window
    starts = [eval_start + k * 7200.0 for k in range(4)]
    zones = tuple(trace.zone_names[:1])
    oracle = PriceOracle(trace)
    fast = []
    for s, rng in zip(starts, _start_rngs(starts)):
        sim = SpotSimulator(
            oracle=oracle, queue_model=QueueDelayModel(), rng=rng,
            record_events=True, engine_mode="fast",
        )
        ctrl = AdaptiveController()
        fast.append(sim.run(
            config, PeriodicPolicy(), ctrl.bids[0], zones, s,
            controller=ctrl,
        ))
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=True,
    )
    results = vec.run_adaptive_cube(
        [config], AdaptiveController, [0] * len(starts), starts,
        _start_rngs(starts),
    )
    assert results == fast
    assert vec.stats.native == len(starts)
    assert vec.stats.fallback == {}


def test_adaptive_subclass_falls_back_under_controller_reason(
    low_window, config
):
    """A controller subclass may override decision rules the columns
    hard-code, so only the exact class batches; the fallback is still
    bit-identical and counted under the closed enum's reason."""
    from repro.core.adaptive import AdaptiveController

    class TweakedController(AdaptiveController):
        pass

    trace, eval_start = low_window
    starts = [eval_start, eval_start + 7200.0]
    zones = tuple(trace.zone_names[:1])
    oracle = PriceOracle(trace)
    fast = []
    for s, rng in zip(starts, _start_rngs(starts)):
        sim = SpotSimulator(
            oracle=oracle, queue_model=QueueDelayModel(), rng=rng,
            record_events=True, engine_mode="fast",
        )
        ctrl = TweakedController()
        fast.append(sim.run(
            config, PeriodicPolicy(), ctrl.bids[0], zones, s,
            controller=ctrl,
        ))
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=True,
    )
    results = vec.run_adaptive_cube(
        [config], TweakedController, [0] * len(starts), starts,
        _start_rngs(starts),
    )
    assert results == fast
    assert vec.stats.native == 0
    assert vec.stats.fallback == {FALLBACK_CONTROLLER: len(starts)}


@pytest.mark.parametrize("threshold", [None, 0.50])
def test_large_bid_batch_native(low_window, config, threshold):
    """Large-bid (and its Naive variant) rides the lockstep columns."""
    from repro.core.large_bid import LargeBidPolicy
    from repro.market.constants import LARGE_BID

    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start + k * 3600.0 for k in range(4)]

    def factory():
        return LargeBidPolicy(threshold)

    assert native_batch_kind(factory(), (zone,)) == "large-bid"
    fast = _fast_results(trace, config, factory, LARGE_BID, (zone,), starts)
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=True,
    )
    results = _start_axis(
        vec, config, factory, LARGE_BID, (zone,), starts, _start_rngs(starts)
    )
    assert results == fast
    assert vec.stats.native == len(starts)
    assert vec.stats.fallback == {}


# -- fallback-reason enum and stats plumbing ----------------------------


def test_fallback_reasons_are_a_closed_enum():
    """The reason strings are an external contract: the CLI prints
    them, operators grep for them — the set is exactly these two."""
    assert FALLBACK_REASONS == frozenset({"policy", "controller"})
    assert FALLBACK_POLICY in FALLBACK_REASONS
    assert FALLBACK_CONTROLLER in FALLBACK_REASONS


def test_engine_only_emits_enum_reasons(low_window, config):
    """Every fallback the engine counts uses a documented constant."""

    class OffGridPolicy(PeriodicPolicy):
        vector_kind = None

    trace, eval_start = low_window
    zone = trace.zone_names[0]
    starts = [eval_start, eval_start + 3600.0]
    fast = _fast_results(trace, config, OffGridPolicy, 0.27, (zone,), starts)
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=True,
    )
    results = _start_axis(
        vec, config, OffGridPolicy, 0.27, (zone,), starts, _start_rngs(starts)
    )
    assert results == fast  # the fallback is still bit-identical
    assert vec.stats.fallback == {FALLBACK_POLICY: len(starts)}
    assert set(vec.stats.fallback) <= FALLBACK_REASONS


def test_batch_stats_merge_preserves_reasons():
    """Merging (the executor's worker-extras path) keeps the per-reason
    breakdown intact — no collapsing into an undifferentiated total."""
    a = BatchStats(native=3, cloned=1)
    a.count_fallback(FALLBACK_POLICY, 2)
    b = BatchStats(native=2)
    b.count_fallback(FALLBACK_POLICY)
    b.count_fallback(FALLBACK_CONTROLLER, 4)
    a.merge(b)
    assert a.native == 5 and a.cloned == 1
    assert a.fallback == {FALLBACK_POLICY: 3, FALLBACK_CONTROLLER: 4}
    assert a.total == 13
    line = a.line()
    assert line.startswith("vector-engine: native=5 cloned=1 fallback=7")
    for reason in a.fallback:
        assert f"{reason}={a.fallback[reason]}" in line
        assert reason in FALLBACK_REASONS

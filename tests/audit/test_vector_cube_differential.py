"""Cube differential: the shape and policy axes on the calibrated windows.

A fused (policy x shape x bid x start) cube — a whole deadline ladder
under one or several checkpoint policies over one zone set — runs
through :func:`~repro.audit.differential.differential_cube`: one
``vector`` lockstep pass, and fully independent audited per-run
``tick`` (the reference) and ``fast`` simulations at each row's own
policy and shape; every fast and vector row is diffed against its tick
row on RunResult fields, events and RNG draw counts (final generator
states).  Two more tests pin run-cache addresses.  All native policies
are covered on both calibrated windows; two hypothesis tests draw the
``shape-ladder`` and ``policy-axis`` families of
``test_differential.py::cubes``: random piecewise traces x random shape
ladders x random policy subsets.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.large_bid import LargeBidPolicy
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.experiments.cache import RunCache
from repro.experiments.runner import POLICY_FACTORIES
from repro.market.constants import LARGE_BID
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle

from tests.audit.test_differential import (
    agree,
    agree_on_random_cube,
    cubes,
)


def _ladder(slacks=(0.15, 0.5, 1.0), ckpt_cost_s=300.0):
    """A deadline ladder: one compute time, loosening deadlines."""
    return [
        paper_experiment(slack_fraction=s, ckpt_cost_s=ckpt_cost_s)
        for s in slacks
    ]


@pytest.mark.parametrize("window_name", ["low", "high"])
@pytest.mark.parametrize("label", sorted(POLICY_FACTORIES))
def test_cube_differential_identical(
    window_name, label, low_window, high_window
):
    """All four native policies x both windows: every cube row is
    bit-identical to an independent tick run at its own shape."""
    trace, eval_start = low_window if window_name == "low" else high_window
    configs = _ladder()
    starts_per_shape = [
        [eval_start, eval_start + (k + 1) * 3600.0] for k in range(len(configs))
    ]
    report = agree(trace, configs, starts_per_shape,
                   policies=[POLICY_FACTORIES[label]],
                   bids=[0.27, 0.40, 0.81], zones=trace.zone_names[:1])
    assert len(report.results["vector"]) == (
        3 * sum(map(len, starts_per_shape))
    )
    assert any(r.events for r in report.results["tick"])


@pytest.mark.parametrize("window_name", ["low", "high"])
def test_cube_differential_multi_zone(window_name, low_window, high_window):
    """Merged multi-zone cells: the shared zone-dynamics blocks span the
    shape ladder without perturbing any shape's trajectory."""
    trace, eval_start = low_window if window_name == "low" else high_window
    zones = tuple(trace.zone_names[:3])
    configs = _ladder(slacks=(0.15, 0.75))
    report = agree(trace, configs,
                   [[eval_start, eval_start + 10800.0]] * len(configs),
                   policies=[MarkovDalyPolicy], bids=[0.40, 0.81],
                   zones=zones)
    assert all(r.zones == zones for r in report.results["vector"])


def test_cube_differential_varied_shapes(low_window):
    """Shapes may differ in every axis — compute, deadline, checkpoint
    and restart costs — not just the deadline."""
    trace, eval_start = low_window
    base = paper_experiment(slack_fraction=0.5, ckpt_cost_s=300.0)
    configs = [
        base,
        replace(base, ckpt_cost_s=900.0, restart_cost_s=900.0),
        replace(base, compute_s=base.compute_s / 2,
                deadline_s=base.deadline_s / 2),
    ]
    agree(trace, configs,
          [[eval_start + k * 1800.0] for k in range(len(configs))],
          policies=[PeriodicPolicy], bids=[0.27, 0.81],
          zones=trace.zone_names[:1])


def test_cube_differential_fractional_starts(low_window):
    """Fractional clocks stay on the native columns inside a cube."""
    trace, eval_start = low_window
    agree(trace, _ladder(slacks=(0.15, 0.5)),
          [[eval_start + 150.5], [eval_start + 0.5, eval_start + 7200.0]],
          policies=[MarkovDalyPolicy], bids=[0.40, 0.81],
          zones=trace.zone_names[:1])


def test_cube_differential_large_bid(low_window):
    """Large-bid's native columns hold across a shape ladder."""
    trace, eval_start = low_window
    configs = _ladder(slacks=(0.15, 1.0))
    agree(trace, configs, [[eval_start, eval_start + 7200.0]] * len(configs),
          policies=[lambda: LargeBidPolicy(0.50)], bids=[LARGE_BID],
          zones=trace.zone_names[:1])


def test_adaptive_cube_differential_shape_ladder(low_window):
    """Adaptive rows over a two-rung deadline ladder, one start
    fractional: every (shape, start) row — result, event log with its
    config-switch decisions, audited stream — matches an independent
    tick controller run at its own shape."""
    trace, eval_start = low_window
    configs = _ladder(slacks=(0.15, 0.75))
    starts = [eval_start, eval_start + 150.5, eval_start + 7200.0,
              eval_start + 14400.0]
    report = agree(trace, configs, [starts] * len(configs),
                   controller_factory=AdaptiveController)
    rows = report.results["vector"]
    assert len(rows) == len(configs) * len(starts)
    assert {r.deadline - r.start_time for r in rows} == {
        cfg.deadline_s for cfg in configs
    }
    assert all(
        any(e.kind == "config-switch" for e in r.events) for r in rows
    )


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cube=cubes(families=("shape-ladder",)))
def test_cube_holds_on_random_traces(cube):
    """Hypothesis, the ``shape-ladder`` family: random shape ladders —
    clone plans, shared zone dynamics and per-shape deadline columns —
    match tick bit for bit."""
    agree_on_random_cube(cube)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cube=cubes(families=("policy-axis",)))
def test_policy_axis_holds_on_random_traces(cube):
    """Hypothesis, the ``policy-axis`` family: several policies share
    one lockstep pass — every row matches tick under its own policy
    and clones stay inside their policy's block."""
    agree_on_random_cube(cube)


def test_cube_rows_share_scalar_cache_addresses(low_window, tmp_path):
    """Cube-stored entries are content-addressed exactly as per-run
    fast-engine runs at each row's own shape — the cache interop that
    lets a family build warm (and be warmed by) scalar sweeps."""
    from repro.core.engine import SpotSimulator
    from repro.core.vector_engine import VectorSimulator

    trace, eval_start = low_window
    zone = trace.zone_names[0]
    configs = _ladder(slacks=(0.15, 0.5))
    shape_idx = [0, 0, 1, 1]
    bids = [0.27, 0.81, 0.27, 0.81]
    starts = [eval_start, eval_start, eval_start + 3600.0, eval_start + 3600.0]

    def rngs():
        import numpy as np

        return [
            np.random.default_rng(
                np.random.SeedSequence(entropy=0, spawn_key=(int(s),))
            )
            for s in starts
        ]

    cache = RunCache(str(tmp_path))
    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
        record_events=False, run_cache=cache,
    )
    cube = vec.run_cube(configs, [PeriodicPolicy], (zone,), shape_idx, bids,
                        starts, rngs(),
                        policy_idx=[0] * len(starts))
    cold = cache.drain_stats()
    assert cold.stores == len(starts) and cold.hits == 0
    oracle = PriceOracle(trace)
    fast = []
    for k, bid, s, rng in zip(shape_idx, bids, starts, rngs()):
        sim = SpotSimulator(
            oracle=oracle, queue_model=QueueDelayModel(), rng=rng,
            record_events=False, engine_mode="fast", run_cache=cache,
        )
        fast.append(sim.run(configs[k], PeriodicPolicy(), bid, (zone,), s))
    warm = cache.drain_stats()
    assert warm.hits == len(starts) and warm.misses == 0
    assert fast == cube


def test_fused_policies_store_per_policy_cache_entries(low_window):
    """A fused Periodic + Markov-Daly cube writes exactly the run-cache
    keys and entries the two single-policy cubes write."""
    import numpy as np

    from repro.core.bid_batch import cube_rows
    from repro.core.vector_engine import VectorSimulator

    trace, eval_start = low_window
    zone = trace.zone_names[0]
    configs = _ladder(slacks=(0.15, 0.5))
    bids = [0.27, 0.35, 0.81]
    starts = [[eval_start, eval_start + 3600.0]] * len(configs)
    factories = [PeriodicPolicy, MarkovDalyPolicy]

    def serve(cache, policies):
        rows = cube_rows(trace, (zone,), bids, starts,
                         [cfg.deadline_s for cfg in configs], policies)
        rngs = [
            np.random.default_rng(
                np.random.SeedSequence(entropy=0, spawn_key=(int(s),))
            )
            for s in rows.starts
        ]
        vec = VectorSimulator(
            oracle=PriceOracle(trace), queue_model=QueueDelayModel(),
            run_cache=cache,
        )
        return vec.run_cube(configs, policies, (zone,), rows.shape_idx,
                            rows.bids, rows.starts, rngs,
                            clone_of=rows.clone_of,
                            policy_idx=rows.policy_idx)

    fused_cache, split_cache = RunCache(), RunCache()
    fused = serve(fused_cache, factories)
    split = [r for f in factories for r in serve(split_cache, [f])]
    assert fused == split
    assert fused_cache._memory == split_cache._memory
    assert fused_cache.drain_stats() == split_cache.drain_stats()

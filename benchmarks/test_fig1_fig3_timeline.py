"""F1/F3 — Figures 1 and 3: state-transition anatomy, regenerated.

Figure 1 illustrates the core mechanics on one scenario — termination
when S > B, restart from the initial state (no checkpoint yet), a
scheduled checkpoint, a second termination, and a restart *from the
checkpoint* this time.  Figure 3 shows the Rising Edge policy
checkpointing on upward price movements.  These benchmarks replay
equivalent scenarios through the real engine and render the paper's
diagrams as ASCII timelines, asserting their narrative beats.
"""

from __future__ import annotations

import numpy as np

from repro.app.workload import ExperimentConfig
from repro.core.edge import RisingEdgePolicy
from repro.core.engine import SpotSimulator
from repro.core.periodic import PeriodicPolicy
from repro.experiments.timeline import render_timeline
from repro.market.queuing import FixedQueueDelay
from repro.market.spot_market import PriceOracle
from repro.traces.model import SpotPriceTrace


def _scenario_trace():
    """Figure 1's price movements: two excursions above the bid."""
    prices = np.concatenate([
        np.full(8, 0.30),    # running
        np.full(5, 0.90),    # S > B: terminated (T_a .. T_b)
        np.full(16, 0.30),   # re-initiated; checkpoint scheduled
        np.full(5, 0.90),    # terminated again (T_c .. T_d)
        np.full(80, 0.30),   # restart from the checkpoint
    ])
    return SpotPriceTrace.from_arrays(0.0, {"za": prices})


def _run(policy):
    trace = _scenario_trace()
    sim = SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=FixedQueueDelay(300.0),
        rng=np.random.default_rng(0),
        record_events=True,
        record_timeline=True,
    )
    config = ExperimentConfig(
        compute_s=3.0 * 3600.0, deadline_s=8.0 * 3600.0,
        ckpt_cost_s=300.0, restart_cost_s=300.0,
    )
    result = sim.run(config, policy, 0.50, ("za",), 0.0)
    return result, sim.oracle


def test_fig1_state_transitions(benchmark):
    result, oracle = benchmark.pedantic(
        _run, args=(PeriodicPolicy(),), rounds=1, iterations=1
    )
    print()
    print(render_timeline(result, oracle, title="Figure 1 — spot price "
                          "movements and state transitions (Periodic)"))

    # the two excursions terminate the instance twice
    assert result.num_provider_terminations == 2
    # three acquisitions: initial + after each excursion
    assert result.num_restarts == 3
    # at least one checkpoint committed between the excursions, so the
    # final restart resumes from saved progress
    assert result.num_checkpoints >= 1
    restarts = [e for e in result.events if e.kind == "restarted"]
    assert any("P=0s" not in e.detail for e in restarts), \
        "never restarted from a checkpoint"
    assert result.met_deadline


def test_fig3_rising_edge(benchmark):
    result, oracle = benchmark.pedantic(
        _run, args=(RisingEdgePolicy(),), rounds=1, iterations=1
    )
    print()
    print(render_timeline(result, oracle, title="Figure 3 — Rising Edge "
                          "checkpoint policy"))

    # Edge checkpoints exactly at the upward price movements it survives
    starts = [e for e in result.events if e.kind == "checkpoint-started"]
    assert starts, "Edge never checkpointed"
    assert result.met_deadline

"""Shared fixtures: tiny hand-built traces and deterministic simulators.

The engine tests run against small synthetic traces with known prices
so expected costs can be computed by hand; the trace-library fixtures
are session-scoped because generating a month is the slowest setup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.workload import ExperimentConfig
from repro.core.adaptive import AdaptiveController
from repro.core.engine import SpotSimulator
from repro.market.queuing import FixedQueueDelay
from repro.market.spot_market import PriceOracle
from repro.traces.model import SpotPriceTrace, ZoneTrace

#: One simulated day of 5-minute samples.
DAY = 288


def flat_trace(
    price: float = 0.30,
    num_samples: int = 2 * DAY,
    zones: tuple[str, ...] = ("za",),
    start_time: float = 0.0,
) -> SpotPriceTrace:
    """Constant-price trace: nothing ever terminates below the price."""
    return SpotPriceTrace.from_arrays(
        start_time,
        {z: np.full(num_samples, price) for z in zones},
    )


def step_trace(
    segments: list[tuple[int, float]],
    zone: str = "za",
    start_time: float = 0.0,
) -> ZoneTrace:
    """Piecewise-constant single-zone trace from (num_samples, price) runs."""
    prices = np.concatenate([np.full(n, p) for n, p in segments])
    return ZoneTrace(zone=zone, start_time=start_time, prices=prices)


def multi_step_trace(
    per_zone: dict[str, list[tuple[int, float]]],
    start_time: float = 0.0,
) -> SpotPriceTrace:
    """Aligned multi-zone piecewise-constant trace."""
    arrays = {
        zone: np.concatenate([np.full(n, p) for n, p in segments])
        for zone, segments in per_zone.items()
    }
    return SpotPriceTrace.from_arrays(start_time, arrays)


def make_sim(
    trace: SpotPriceTrace,
    queue_delay_s: float = 300.0,
    seed: int = 0,
    record_events: bool = False,
) -> SpotSimulator:
    """Deterministic simulator: fixed queue delay, seeded RNG."""
    return SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=FixedQueueDelay(queue_delay_s),
        rng=np.random.default_rng(seed),
        record_events=record_events,
    )


def small_config(
    compute_h: float = 2.0,
    slack_fraction: float = 0.5,
    ckpt_cost_s: float = 300.0,
) -> ExperimentConfig:
    """A small experiment: hand-checkable costs, fast simulation."""
    compute_s = compute_h * 3600.0
    return ExperimentConfig(
        compute_s=compute_s,
        deadline_s=compute_s * (1.0 + slack_fraction),
        ckpt_cost_s=ckpt_cost_s,
        restart_cost_s=ckpt_cost_s,
    )


class FullEvaluation(AdaptiveController):
    """An Adaptive controller that decides with the exhaustive reference loop."""

    def best_candidate(self, ctx):
        return self._best_candidate_full(ctx) if self._zone_sets else None


@pytest.fixture(scope="session")
def low_window():
    """(trace, eval_start) for the calm evaluation window."""
    from repro.traces.library import evaluation_window

    return evaluation_window("low")


@pytest.fixture(scope="session")
def high_window():
    """(trace, eval_start) for the volatile evaluation window."""
    from repro.traces.library import evaluation_window

    return evaluation_window("high")

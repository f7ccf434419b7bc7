"""One Adaptive decision, cold — the Section 7 permutation sweep.

``best_candidate`` evaluates 15 bids x 7 zone sets x 2 policies = 210
permutations.  The oracle and controller are rebuilt in each round's
setup so the benchmark measures a *cold* decision: one Markov fit per
zone, one stationary eigenvector, one batch of absorbing-chain solves
— the path the vectorized oracle turned from per-permutation
eigendecompositions into a handful of shared factorizations.
"""

from __future__ import annotations

from repro.app.application import ApplicationRun
from repro.app.checkpoint import CheckpointStore
from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.policy import PolicyContext
from repro.market.instance import ZoneInstance
from repro.market.spot_market import PriceOracle
from repro.traces.library import evaluation_window

from tests.conftest import FullEvaluation


def _decision_setup(oracle=None):
    trace, eval_start = evaluation_window("high")
    oracle = oracle or PriceOracle(trace)
    config = paper_experiment(slack_fraction=0.5)
    run = ApplicationRun(config=config, start_time=eval_start,
                         store=CheckpointStore())
    ctx = PolicyContext(
        now=eval_start + 3600.0,
        bid=0.81,
        zones=trace.zone_names[:1],
        oracle=oracle,
        config=config,
        run=run,
        instances={z: ZoneInstance(zone=z) for z in trace.zone_names},
    )
    controller = AdaptiveController()
    controller.reset(ctx)
    return (ctx, controller), {}


def _decide(ctx, controller):
    return controller.best_candidate(ctx)


def test_best_candidate_cold(benchmark):
    estimate = benchmark.pedantic(
        _decide, setup=_decision_setup, rounds=10, iterations=1
    )
    assert estimate is not None
    assert estimate.predicted_cost > 0.0
    assert estimate.zones


def test_best_candidate_warm_oracle(benchmark):
    """Fresh controller, shared oracle — the in-sweep steady state.

    Within one experiment grid the oracle (and its per-bucket Markov
    caches) lives for thousands of decisions; only the first decision
    per hour bucket pays the fits.  This is the number the evaluation
    harness actually feels.
    """
    trace, _ = evaluation_window("high")
    oracle = PriceOracle(trace)
    (ctx, controller), _ = _decision_setup(oracle)
    controller.best_candidate(ctx)  # prime the oracle's bucket caches

    estimate = benchmark.pedantic(
        _decide, setup=lambda: _decision_setup(oracle),
        rounds=20, iterations=1,
    )
    assert estimate is not None
    assert estimate.predicted_cost > 0.0


# -- decision-sequence benchmark: BENCH_adaptive.json --------------------


#: Eight hours of decision points at price-sample granularity — the
#: cadence the Adaptive policy's re-evaluation triggers (price edges,
#: terminations, hour boundaries) actually arrive at.
DECISION_SPACING_S = 300.0
NUM_DECISIONS = 96


def _run_sequence(trace, eval_start, oracle, controller):
    """One controller over an advancing sequence of decision points."""
    config = paper_experiment(slack_fraction=0.5)
    results = []
    for i in range(NUM_DECISIONS):
        now = eval_start + 3600.0 + i * DECISION_SPACING_S
        run = ApplicationRun(config=config, start_time=eval_start,
                             store=CheckpointStore())
        ctx = PolicyContext(
            now=now,
            bid=0.81,
            zones=trace.zone_names[:1],
            oracle=oracle,
            config=config,
            run=run,
            instances={z: ZoneInstance(zone=z) for z in trace.zone_names},
        )
        if i == 0:
            controller.reset(ctx)
        results.append(controller.best_candidate(ctx))
    return results


def test_decision_sequence_speedup(benchmark):
    """Bucketed, incremental decisions vs the paper's literal protocol.

    The reference re-fits every zone's chain at every decision point
    (``bucket_s=None``, ``incremental=False``), so each decision is its
    own statistics bucket and rebuilds all 210 permutations' matrices
    from fresh fits.  The production path buckets and rolls the fits
    forward incrementally and, within a bucket, reprices only the
    deadline-clock half of the estimator over matrices built at the
    bucket's first decision.  The measured speedup lands in
    ``BENCH_adaptive.json`` (the ``BENCH_engine.json`` pattern) and CI
    fails below 5x.
    """
    import json
    import time
    from pathlib import Path

    trace, eval_start = evaluation_window("high")

    def reference():
        oracle = PriceOracle(trace, bucket_s=None, incremental=False)
        return _run_sequence(trace, eval_start, oracle, AdaptiveController())

    def production():
        oracle = PriceOracle(trace)
        return _run_sequence(trace, eval_start, oracle, AdaptiveController())

    ref_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        ref_times.append(time.perf_counter() - t0)
    reference_s = sorted(ref_times)[1]  # median: robust to a noisy run

    prod_results = benchmark.pedantic(production, rounds=3, iterations=1)

    # Correctness pin: against the *same* bucketed protocol, disabling
    # the incremental fitter and deciding with the exhaustive reference
    # loop must not change a single winner — the speedup comes from
    # doing identical math less often.
    check = _run_sequence(
        trace, eval_start,
        PriceOracle(trace, incremental=False),
        FullEvaluation(),
    )
    assert prod_results == check

    production_s = float(benchmark.stats.stats.mean)
    speedup = reference_s / production_s
    payload = {
        "window": "high",
        "num_decisions": NUM_DECISIONS,
        "decision_spacing_s": DECISION_SPACING_S,
        "permutations_per_decision": 15 * 7 * 2,
        "reference_seconds": reference_s,
        "production_seconds_mean": production_s,
        "speedup": speedup,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert speedup >= 5.0, f"decision path only {speedup:.1f}x over reference"

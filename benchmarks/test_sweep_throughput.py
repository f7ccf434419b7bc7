"""Serial vs parallel wall-clock on one Figure-4 grid cell.

The cell is ``run_single_zone`` on the volatile window — three zones x
``REPRO_BENCH_EXPERIMENTS`` starts of full tick-by-tick simulation.
The parallel runner's pool is warmed once outside the timed region
(a sweep pays process start-up once, not per cell), so the two
benchmarks compare steady-state throughput.  Results are asserted
identical, not just timed.
"""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.experiments.runner import ExperimentRunner

WORKERS = 4


@pytest.fixture(scope="module")
def cell_config():
    return paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)


@pytest.fixture(scope="module")
def parallel_runner(bench_experiments, cell_config):
    with ExperimentRunner("high", num_experiments=bench_experiments,
                          workers=WORKERS) as runner:
        # Warm the pool: start worker processes and build their traces.
        runner.run_redundant("periodic", cell_config, 0.81)
        yield runner


@pytest.mark.benchmark(group="fig4-cell")
def test_cell_serial(benchmark, high_runner, cell_config):
    records = benchmark.pedantic(
        high_runner.run_single_zone, args=("markov-daly", cell_config, 0.81),
        rounds=1, iterations=1,
    )
    assert len(records) == 3 * high_runner.num_experiments


@pytest.mark.benchmark(group="fig4-cell")
def test_cell_parallel_4_workers(benchmark, parallel_runner, high_runner,
                                 cell_config):
    records = benchmark.pedantic(
        parallel_runner.run_single_zone,
        args=("markov-daly", cell_config, 0.81),
        rounds=1, iterations=1,
    )
    assert len(records) == 3 * parallel_runner.num_experiments
    assert records == high_runner.run_single_zone(
        "markov-daly", cell_config, 0.81
    )


"""Flush discipline: every entry point that stores runs publishes them.

``RunCache.put`` only buffers the disk write; ``RunCache.flush``
publishes a segment.  After each public entry point returns — while
the cache that stored the runs is still alive — a fresh cache over the
same directory must serve every run as a disk hit with zero misses.
The drop-time finalizer is disabled here, so only explicit flushes
count: a put path that forgets to flush fails its case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.workload import ExperimentConfig, paper_experiment
from repro.cli import main
from repro.core.engine import SpotSimulator
from repro.core.periodic import PeriodicPolicy
from repro.experiments import cache as cache_mod
from repro.experiments.cache import RunCache
from repro.experiments.runner import ExperimentRunner
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle
from repro.service.surface import SurfaceBuilder, SurfaceSpec
from repro.traces.library import evaluation_window

CONFIG = paper_experiment(slack_fraction=0.5)
LADDER = [
    ExperimentConfig(compute_s=2 * 3600.0, deadline_s=h * 3600.0,
                     ckpt_cost_s=300.0, restart_cost_s=300.0)
    for h in (3.0, 4.0)
]
BIDS = [0.27, 0.81]

ENTRY_POINTS = {
    "cube": lambda r: r.run_cube("periodic", LADDER, BIDS),
    "grid": lambda r: r.run_cube("markov-daly", [CONFIG], BIDS),
    "start-axis": lambda r: r.run_cube("periodic", [CONFIG], [0.81]),
    "bid-axis": lambda r: r.run_cube("periodic", [CONFIG], BIDS),
    "per-run-cells": lambda r: r.run_single_zone("edge", CONFIG, 0.81),
    "adaptive": lambda r: r.run_adaptive(LADDER[1]),
}


@pytest.fixture(autouse=True)
def no_finalizer_flush(monkeypatch):
    """Caches created in these tests publish only on ``flush()``."""
    monkeypatch.setattr(cache_mod, "_publish_pending", lambda *_: None)


def _assert_all_disk_hits(fresh: RunCache) -> None:
    stats = fresh.stats
    assert stats.misses == 0
    assert stats.disk_hits == stats.lookups > 0


@pytest.mark.parametrize("engine", ["fast", "vector"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_runner_entry_points_flush(name, engine, tmp_path):
    run = ENTRY_POINTS[name]
    cold_runner = ExperimentRunner("low", num_experiments=3,
                                   engine_mode=engine, cache_dir=str(tmp_path))
    cold = run(cold_runner)
    assert cold_runner.cache.stats.stores > 0
    fresh = RunCache(tmp_path)
    warm = run(ExperimentRunner("low", num_experiments=3, engine_mode=engine,
                                cache=fresh))
    assert warm == cold
    _assert_all_disk_hits(fresh)
    assert cold_runner.cache is not None  # alive until here: no drop-time flush


@pytest.mark.parametrize("name", ["grid", "per-run-cells"])
def test_two_worker_runner_flushes(name, tmp_path):
    run = ENTRY_POINTS[name]
    cold_runner = ExperimentRunner("low", num_experiments=3, workers=2,
                                   cache_dir=str(tmp_path))
    try:
        cold = run(cold_runner)
        assert cold_runner.drain_cache_stats().stores > 0
        fresh = RunCache(tmp_path)
        warm = run(ExperimentRunner("low", num_experiments=3, cache=fresh))
        assert warm == cold
        _assert_all_disk_hits(fresh)
    finally:
        cold_runner.close()


def test_build_family_flushes(tmp_path):
    specs = [
        SurfaceSpec(window="low", compute_s=c.compute_s,
                    deadline_s=c.deadline_s, ckpt_cost_s=c.ckpt_cost_s,
                    restart_cost_s=c.restart_cost_s, policies=("periodic",),
                    bids=tuple(BIDS), zone_counts=(1, 2), num_experiments=3)
        for c in LADDER
    ]
    cache_dir = tmp_path / "runs"
    SurfaceBuilder(cache_dir=str(cache_dir)).build_family(specs)
    fresh = RunCache(cache_dir)
    runner = ExperimentRunner("low", num_experiments=3, cache=fresh)
    for n in (1, 2):  # the family's cells, replayed through the cube
        runner.run_cube("periodic", LADDER, BIDS, redundant=n > 1,
                        num_zones=n)
    _assert_all_disk_hits(fresh)


def _direct_run(cache: RunCache):
    trace, eval_start = evaluation_window("low")
    sim = SpotSimulator(oracle=PriceOracle(trace),
                        queue_model=QueueDelayModel(),
                        rng=np.random.default_rng(0), record_events=True,
                        run_cache=cache)
    return sim.run(CONFIG, PeriodicPolicy(), 0.81, trace.zone_names[:1],
                   eval_start)


def test_direct_simulator_flush(tmp_path):
    """The direct-simulator pattern of the CLI ``run``/``fig1``
    commands: one put, then the caller's flush."""
    cache = RunCache(tmp_path)
    cold = _direct_run(cache)
    assert cache.flush() == 1
    fresh = RunCache(tmp_path)
    assert _direct_run(fresh) == cold
    _assert_all_disk_hits(fresh)
    assert cache.flush() == 0  # nothing left pending


@pytest.mark.parametrize("argv", [
    ["run", "--policy", "periodic", "--window", "low", "--slack", "0.5"],
    ["fig1", "--window", "low"],
])
def test_cli_direct_commands_flush(argv, tmp_path, capsys):
    cache_dir = str(tmp_path / "rc")
    assert main([*argv, "--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr()
    assert main([*argv, "--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "misses=0 " in warm.err and "disk_hits=1" in warm.err

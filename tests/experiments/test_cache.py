"""Content-addressed run cache: keys, layers, and engine integration.

The contract under test: a cache hit returns a result bit-identical to
re-simulation and leaves the simulator's RNG stream exactly where the
simulation would have left it; the key covers every input that can
change a run; and the disk layer survives process boundaries (modelled
here as fresh :class:`RunCache` instances over one directory).
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.workload import ExperimentConfig, paper_experiment
from repro.audit import RunAuditor
from repro.core.engine import SpotSimulator
from repro.core.periodic import PeriodicPolicy
from repro.core.vector_engine import VectorSimulator
from repro.experiments.cache import (
    CachedRun,
    CacheStats,
    RunCache,
    canonical_value,
    content_key,
)
from repro.experiments.runner import ExperimentRunner
from repro.market.queuing import FixedQueueDelay, QueueDelayModel
from repro.market.spot_market import PriceOracle
from repro.service.surface import SurfaceSpec
from repro.traces.library import evaluation_window
from repro.traces.model import ZoneTrace


@pytest.fixture(scope="module")
def window():
    return evaluation_window("low")


def _sim(window, cache=None, auditor=None, seed=0):
    trace, _ = window
    return SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=QueueDelayModel(),
        rng=np.random.default_rng(seed),
        run_cache=cache,
        auditor=auditor,
    )


def _run(sim, window, bid=0.81, zones=None, seed_config=None):
    trace, eval_start = window
    config = seed_config or paper_experiment(slack_fraction=0.5)
    zones = zones or (trace.zone_names[0],)
    return sim.run(config, PeriodicPolicy(), bid, zones, eval_start)


class TestEngineIntegration:
    def test_hit_returns_identical_result(self, window):
        cache = RunCache()
        cold = _run(_sim(window, cache), window)
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)
        warm = _run(_sim(window, cache), window)
        assert cache.stats.hits == 1
        assert warm == cold
        assert warm == _run(_sim(window), window)  # uncached reference

    def test_key_separates_inputs(self, window):
        """Different bid / config / engine mode / seed → different cells."""
        cache = RunCache()
        base = _run(_sim(window, cache), window)
        other_bid = _run(_sim(window, cache), window, bid=0.27)
        tighter = _run(_sim(window, cache), window,
                       seed_config=paper_experiment(slack_fraction=0.15))
        assert cache.stats.hits == 0 and cache.stats.misses == 3
        assert base != other_bid
        assert base.bid != other_bid.bid
        assert tighter.deadline < base.deadline

    def test_hit_leaves_rng_where_the_cold_run_did(self, window):
        """On both engines a hit burns the cold run's queue-delay draws
        in one batch and leaves the generator in the cold run's state."""
        trace, eval_start = window
        config = paper_experiment(slack_fraction=0.15)
        zones = tuple(trace.zone_names)
        starts = [eval_start + k * 3600.0 for k in range(3)]
        cache = RunCache()
        for engine in ("scalar", "vector"):
            states = {}
            for phase in ("cold", "warm"):
                rngs = [np.random.default_rng(7 + k) for k in range(3)]
                if engine == "scalar":
                    for s, rng in zip(starts, rngs):
                        SpotSimulator(
                            oracle=PriceOracle(trace),
                            queue_model=QueueDelayModel(), rng=rng,
                            run_cache=cache,
                        ).run(config, PeriodicPolicy(), 0.27, zones, s)
                else:
                    VectorSimulator(
                        oracle=PriceOracle(trace),
                        queue_model=QueueDelayModel(), run_cache=cache,
                    ).run_cube([config], [PeriodicPolicy], zones, [0] * 3,
                               [0.27] * 3, starts, rngs, policy_idx=[0] * 3)
                states[phase] = [r.bit_generator.state for r in rngs]
            assert states["warm"] == states["cold"], engine
        # both engines share addresses: the vector pass hit every run
        assert (cache.stats.misses, cache.stats.hits) == (3, 9)
        assert len(cache) == 3
        assert all(entry.rng_draws > 0 for entry in cache._memory.values())

    @given(seed=st.integers(0, 2**32 - 1), draws=st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_replay_burns_as_many_draws_as_single_samples(self, seed, draws):
        result = object()
        entry = CachedRun(result=result, rng_draws=draws)
        for model in (QueueDelayModel(), FixedQueueDelay()):
            batched = np.random.default_rng(seed)
            single = np.random.default_rng(seed)
            assert entry.replay(model, batched) is result
            for _ in range(draws):
                model.sample(single)
            assert batched.bit_generator.state == single.bit_generator.state

    def test_rng_stream_alignment(self, window):
        """A partial cache hit must not shift later runs' delay draws.

        The merged single-zone cell runs three zones off one RNG; if
        zone 1 comes from the cache, zones 2 and 3 still need the same
        queue-delay draws an uncached pass would have given them.
        """
        trace, _ = window
        config = paper_experiment(slack_fraction=0.5)
        reference = ExperimentRunner(
            "low", num_experiments=3
        ).run_single_zone("periodic", config, 0.81)

        cache = RunCache()
        primer = ExperimentRunner("low", num_experiments=3, cache=cache)
        primer.run_single_zone(
            "periodic", config, 0.81, zones=trace.zone_names[:1]
        )
        assert len(cache) > 0

        mixed = ExperimentRunner(
            "low", num_experiments=3, cache=cache
        ).run_single_zone("periodic", config, 0.81)
        stats = cache.stats
        assert stats.hits > 0 and stats.misses > 0  # genuinely partial
        assert mixed == reference

    def test_auditor_bypasses_cache(self, window):
        """Audited runs must actually simulate (events, invariants)."""
        cache = RunCache()
        audited = _run(_sim(window, cache, auditor=RunAuditor()), window)
        assert len(cache) == 0 and cache.stats.lookups == 0
        assert audited == _run(_sim(window), window)

    def test_adaptive_runs_cacheable(self, window):
        cache = RunCache()
        config = paper_experiment(slack_fraction=0.5)
        cold = ExperimentRunner(
            "low", num_experiments=2, cache=cache
        ).run_adaptive(config)
        warm = ExperimentRunner(
            "low", num_experiments=2, cache=cache
        ).run_adaptive(config)
        assert cache.stats.hits > 0
        assert warm == cold


class TestDiskLayer:
    def test_warm_across_instances(self, window, tmp_path):
        cold = _run(_sim(window, RunCache(tmp_path)), window)
        fresh = RunCache(tmp_path)
        warm = _run(_sim(window, fresh), window)
        assert warm == cold
        assert fresh.stats.disk_hits == 1 and fresh.stats.misses == 0

    def test_put_recreates_a_removed_prefix_directory(self, window, tmp_path):
        """A cache directory removed under an open cache is recreated by
        the next flush, which publishes the re-simulated run once."""
        import shutil

        root = tmp_path / "rc"
        cache = RunCache(root)
        _run(_sim(window, cache), window)
        (key,) = cache.disk_entries()
        fresh = RunCache(root)
        shutil.rmtree(root)
        _run(_sim(window, fresh), window)
        assert fresh.flush() == 1
        assert fresh.stats.misses == 1
        assert len(fresh.segments()) == 1
        assert list(fresh.disk_entries()) == [key]
        reopened = RunCache(root)
        _run(_sim(window, reopened), window)
        assert reopened.stats.disk_hits == 1

    def test_usage_and_clear(self, window, tmp_path):
        cache = RunCache(tmp_path)
        _run(_sim(window, cache), window)
        count, size = cache.disk_usage()
        assert count == 1 and size > 0
        assert cache.clear() == 1
        assert cache.disk_usage() == (0, 0)
        assert len(cache) == 0

    def test_stale_tmp_swept_on_open(self, window, tmp_path):
        """A temp file orphaned by a dead writer (mkstemp happened,
        os.replace never did) is removed the next time the cache
        directory is opened — once it is old enough to be abandoned.
        Orphans in a legacy key-prefix directory are swept too."""
        import os
        import time as _time

        cache = RunCache(tmp_path)
        _run(_sim(window, cache), window)
        cache.flush()
        legacy = tmp_path / "ab"
        legacy.mkdir()
        stale = [tmp_path / "deadbeef.tmp", legacy / "deadbeef.tmp"]
        old = _time.time() - 7200.0
        for path in stale:
            path.write_bytes(b"partial segment")
            os.utime(path, (old, old))
        fresh = tmp_path / "fresh.tmp"
        fresh.write_bytes(b"in-flight write")

        reopened = RunCache(tmp_path)
        assert not any(path.exists() for path in stale)  # orphans swept
        assert fresh.exists()  # a live writer's file survives the sweep
        assert reopened.disk_usage()[0] == 1  # the real entry is intact

    def test_clear_sweeps_all_tmp(self, window, tmp_path):
        cache = RunCache(tmp_path)
        _run(_sim(window, cache), window)
        tmp = tmp_path / "orphan.tmp"
        tmp.write_bytes(b"partial")
        assert cache.clear() == 1
        assert not tmp.exists()

    def test_corrupt_entry_is_a_miss(self, window, tmp_path):
        _run(_sim(window, RunCache(tmp_path)), window)
        fresh = RunCache(tmp_path)
        (segment,) = fresh.segments()
        segment.write_bytes(b"not a segment")
        result = _run(_sim(window, fresh), window)
        assert fresh.stats.misses == 1 and fresh.stats.hits == 0
        assert result == _run(_sim(window), window)

    def test_parallel_workers_share_disk(self, window, tmp_path):
        config = paper_experiment(slack_fraction=0.5)
        reference = ExperimentRunner(
            "low", num_experiments=3
        ).run_single_zone("periodic", config, 0.81)
        with ExperimentRunner(
            "low", num_experiments=3, workers=2, cache_dir=str(tmp_path)
        ) as cold_runner:
            cold = cold_runner.run_single_zone("periodic", config, 0.81)
            cold_stats = cold_runner.drain_cache_stats()
        assert cold == reference
        assert cold_stats.stores > 0 and cold_stats.hits == 0
        with ExperimentRunner(
            "low", num_experiments=3, workers=2, cache_dir=str(tmp_path)
        ) as warm_runner:
            warm = warm_runner.run_single_zone("periodic", config, 0.81)
            warm_stats = warm_runner.drain_cache_stats()
        assert warm == reference
        assert warm_stats.misses == 0 and warm_stats.hits > 0


class TestStats:
    def test_merge_and_line(self):
        a = CacheStats(hits=1, misses=2, stores=3, disk_hits=4)
        a.merge(CacheStats(hits=10, misses=20, stores=30, disk_hits=40))
        assert (a.hits, a.misses, a.stores, a.disk_hits) == (11, 22, 33, 44)
        assert a.lookups == 33
        assert a.line() == "run-cache: hits=11 misses=22 stores=33 disk_hits=44"

    def test_drain_resets(self, window):
        cache = RunCache()
        _run(_sim(window, cache), window)
        assert cache.drain_stats().lookups == 1
        assert cache.stats.lookups == 0


config_params = st.tuples(
    st.sampled_from([3600.0, 7200.0, 14400.0]),     # compute_s
    st.sampled_from([1.15, 1.5, 2.0]),              # deadline multiplier
    st.sampled_from([300.0, 900.0]),                # ckpt_cost_s
    st.integers(min_value=1, max_value=3),          # num_nodes
)


class TestCanonicalKeys:
    @given(a=config_params, b=config_params)
    @settings(max_examples=60, deadline=None)
    def test_config_keys_equal_iff_canonical_equal(self, a, b):
        """Hash equality ⟺ canonical-form equality (no aliasing)."""
        make = lambda p: ExperimentConfig(  # noqa: E731
            compute_s=p[0], deadline_s=p[0] * p[1],
            ckpt_cost_s=p[2], num_nodes=p[3],
        )
        ca, cb = canonical_value(make(a)), canonical_value(make(b))
        assert (content_key(ca) == content_key(cb)) == (ca == cb)

    def test_numpy_scalars_normalize(self):
        assert content_key(np.float64(0.81)) == content_key(0.81)
        assert content_key(np.int64(3)) == content_key(3)
        assert content_key({"a": (1, 2)}) == content_key({"a": [1, 2]})

    def test_bool_is_not_int(self):
        assert canonical_value(True) is True
        assert canonical_value([True, 1]) == [True, 1]
        assert content_key(True) != content_key(1)
        assert content_key({"a": True}) != content_key({"a": 1})

    def test_numpy_float_is_float(self):
        value = canonical_value(np.float64(0.81))
        assert type(value) is float and value == 0.81
        assert canonical_value([np.float64(1.5), 1.5]) == [1.5, 1.5]
        assert content_key(np.float64(1.0)) == content_key(1.0)
        assert content_key(np.float64(1.0)) != content_key(1)

    def test_subclasses_of_builtins_reduce_like_their_base(self):
        class Label(str):
            pass

        Pair = namedtuple("Pair", "a b")
        assert canonical_value(Label("x")) == "x"
        assert canonical_value(Pair(1, 2.0)) == [1, 2.0]
        assert canonical_value(OrderedDict(a=(1,))) == {"a": [1]}

    def test_uncanonical_raises(self):
        with pytest.raises(TypeError):
            canonical_value(object())


SPEC = dict(
    window="low", compute_s=2 * 3600.0, deadline_s=3 * 3600.0,
    ckpt_cost_s=300.0, restart_cost_s=300.0, policies=("periodic",),
    bids=(0.27, 0.81), zone_counts=(1,), num_experiments=2,
)
RUN_PARTS = {
    "trace": "f" * 64,
    "oracle": {"history_s": 86400.0 * 7, "bucket_s": 3600.0,
               "incremental": True},
    "engine_mode": "fast",
    "record_events": False,
    "record_timeline": False,
    "config": ExperimentConfig(compute_s=72000.0, deadline_s=86400.0,
                               ckpt_cost_s=300.0, restart_cost_s=300.0),
    "policy": {"name": "periodic"},
    "bid": np.float64(0.81),
    "zones": ("us-east-1a", "us-east-1b"),
    "start_time": np.float64(1.5e6),
    "controller": None,
    "queue_model": QueueDelayModel(),
    "rng": np.random.default_rng(7).bit_generator.state,
}


class TestAddressStability:
    """Pinned digests: run-cache entries and surface artifacts on disk
    are named by these keys, so any change to the canonical encoding
    orphans every existing store.  A failure here means the key layout
    changed — bump the schema version on purpose or restore the
    encoding."""

    def test_surface_keys(self):
        assert SurfaceSpec(**SPEC).key() == (
            "cecfdbe126805b2dc01175b06e5379f3520147e2b059ca8a181aa7b3d474a836"
        )
        assert SurfaceSpec(
            window="high", compute_s=72000.0, deadline_s=86400.0,
            ckpt_cost_s=300.0, restart_cost_s=300.0,
        ).key() == (
            "a14612fe55751e46383b6460fa3d21284439b41cd4f6cbb909025224fe42a78b"
        )

    def test_run_keys(self):
        """An RNG state, dataclass configs, NumPy scalars and a tuple."""
        cache = RunCache()
        assert cache.run_key(RUN_PARTS) == (
            "99f4c68bf0061c71d0486a3a52e53e7299977f8da526306094bbaf14182aa4e3"
        )
        # NumPy scalars address the same entry as the Python numbers
        assert cache.run_key(
            {**RUN_PARTS, "bid": 0.81, "start_time": 1.5e6}
        ) == cache.run_key(RUN_PARTS)
        assert cache.run_key({
            **RUN_PARTS, "zones": ("a",), "num": np.int64(3),
            "flags": [True, 1, 1.0],
        }) == "a639f676cda9ac97abae85d3b3ee18f8af0f3173d5a202451b575672b850a59a"

    def test_scalar_keys(self):
        assert content_key(True) == (
            "b5bea41b6c623f7c09f1bf24dcae58ebab3c0cdd90ad966bc43a45b44867e12b"
        )
        assert content_key(1) == (
            "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"
        )


class TestFingerprints:
    @given(
        index=st.integers(min_value=0, max_value=47),
        delta=st.sampled_from([0.01, -0.01, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_price_change_changes_fingerprint(self, index, delta):
        prices = np.full(48, 0.3)
        base = ZoneTrace(zone="z", start_time=0.0, interval_s=300,
                         prices=prices.copy())
        bumped_prices = prices.copy()
        bumped_prices[index] += delta
        bumped = ZoneTrace(zone="z", start_time=0.0, interval_s=300,
                           prices=bumped_prices)
        assert base.fingerprint() != bumped.fingerprint()

    def test_content_based(self):
        a = ZoneTrace(zone="z", start_time=0.0, interval_s=300,
                      prices=np.linspace(0.2, 0.4, 48))
        b = ZoneTrace(zone="z", start_time=0.0, interval_s=300,
                      prices=np.linspace(0.2, 0.4, 48))
        assert a.fingerprint() == b.fingerprint()
        c = ZoneTrace(zone="other", start_time=0.0, interval_s=300,
                      prices=np.linspace(0.2, 0.4, 48))
        assert a.fingerprint() != c.fingerprint()


class TestStartsDedupe:
    def test_narrow_span_collapses_duplicates(self):
        """When the feasible span has fewer grid ticks than experiments,
        colliding starts are simulated once, not repeatedly."""
        runner = ExperimentRunner("low", num_experiments=4)
        usable = runner.trace.end_time - runner.eval_start - 300.0
        deadline = usable - 600.0
        config = ExperimentConfig(compute_s=deadline * 0.8,
                                  deadline_s=deadline)
        starts = runner.starts(config)
        assert len(starts) == 3  # raw grid was [0, 0, 300, 600]
        assert len(np.unique(starts)) == len(starts)
        records = runner.run_single_zone(
            "periodic", config, 0.81, zones=runner.trace.zone_names[:1]
        )
        assert len(records) == 3

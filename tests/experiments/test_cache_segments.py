"""Run-cache segments: the record codec and corruption handling.

Two contracts.  The codec (:func:`encode_record` / :func:`decode_record`)
is lossless: every float comes back bit for bit, ``None`` stays
``None`` and every tuple stays a tuple.  And a damaged segment —
truncated, bit-flipped, of another version, or empty — can only cost
re-simulation: the decoder raises :class:`CacheCorruptError`,
:meth:`RunCache.get` counts a plain miss, and the records a rerun
returns are bit-identical to the cold ones.
"""

from __future__ import annotations

import multiprocessing
import struct
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.app.workload import ExperimentConfig
from repro.core.engine import Event, RunResult, TimelinePoint
from repro.core.periodic import PeriodicPolicy
from repro.core.vector_engine import VectorSimulator
from repro.experiments.cache import (
    SEGMENT_VERSION,
    CacheCorruptError,
    CachedRun,
    RunCache,
    decode_index,
    decode_record,
    encode_record,
    encode_segment,
    read_record,
)
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle
from repro.traces.library import evaluation_window

ROWS = 3
CONFIG = ExperimentConfig(compute_s=3 * 3600.0, deadline_s=5 * 3600.0,
                          ckpt_cost_s=300.0, restart_cost_s=300.0)
HEADER_SIZE = 8 + 2 + 4 + 4  # magic, version, index length, index crc


@pytest.fixture(scope="module")
def oracle():
    trace, eval_start = evaluation_window("low")
    return PriceOracle(trace), eval_start


def _batch(oracle, cache=None):
    """Three Periodic rows through the vector engine, events recorded."""
    oracle, eval_start = oracle
    sim = VectorSimulator(
        oracle=oracle, queue_model=QueueDelayModel(), record_events=True,
        run_cache=cache,
    )
    starts = [eval_start + k * 7200.0 for k in range(ROWS)]
    rngs = [np.random.default_rng(k) for k in range(ROWS)]
    return sim.run_cube([CONFIG], PeriodicPolicy, oracle.zone_names[:1],
                        [0] * ROWS, [0.81] * ROWS, starts, rngs)


@pytest.fixture(scope="module")
def cold(oracle, tmp_path_factory):
    """The cold results and the one segment their batch published."""
    cache = RunCache(tmp_path_factory.mktemp("cold"))
    results = _batch(oracle, cache)
    (segment,) = cache.segments()
    return results, segment.read_bytes()


def _identical(a: list[RunResult], b: list[RunResult]) -> bool:
    """Equal, and equal in ``repr`` — which tells ``-0.0`` from ``0.0``
    and prints every float to its shortest round-trip digits."""
    return a == b and repr(a) == repr(b)


def _rerun_over(blob: bytes, oracle):
    """Rerun the batch over a directory holding only ``blob``."""
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "0000000000000000-damaged.seg").write_bytes(blob)
        cache = RunCache(root)
        results = _batch(oracle, cache)
        return results, cache.drain_stats()


def _layout(blob: bytes) -> tuple[int, list[tuple[str, int, int, int]]]:
    """Index end offset and entries of an intact segment."""
    (length,) = struct.unpack_from("<I", blob, 10)
    return HEADER_SIZE + length, decode_index(blob)


def _flip(blob: bytes, at: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ 0x40]) + blob[at + 1:]


class TestDamagedSegments:
    def test_intact_segment_is_all_disk_hits(self, oracle, cold):
        results, blob = cold
        warm, stats = _rerun_over(blob, oracle)
        assert _identical(warm, results)
        assert (stats.disk_hits, stats.misses) == (ROWS, 0)

    def test_every_truncation_serves_only_exact_records(self, cold):
        """Decoder level, exhaustive: at every cut, each index entry
        decodes to exactly its original record or raises."""
        results, blob = cold
        _, entries = _layout(blob)
        original = {key: read_record(blob, *loc) for key, *loc in entries}
        for cut in range(len(blob)):
            data = blob[:cut]
            try:
                index = decode_index(data)
            except CacheCorruptError:
                continue
            assert index == entries
            served = 0
            for key, *loc in index:
                try:
                    entry = read_record(data, *loc)
                except CacheCorruptError:
                    continue
                served += 1
                assert encode_record(entry) == encode_record(original[key])
            assert served < len(entries)  # the cut always hits a record

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_truncated_segment_resimulates_identically(self, oracle, cold, data):
        results, blob = cold
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        warm, stats = _rerun_over(blob[:cut], oracle)
        assert _identical(warm, results)
        assert stats.misses >= 1 and stats.lookups == ROWS

    def test_flipped_record_byte_is_one_miss(self, oracle, cold):
        results, blob = cold
        base, entries = _layout(blob)
        _, offset, length, crc = entries[1]
        damaged = _flip(blob, offset + 4 + length // 2)
        with pytest.raises(CacheCorruptError, match="crc"):
            read_record(damaged, offset, length, crc)
        warm, stats = _rerun_over(damaged, oracle)
        assert _identical(warm, results)
        assert (stats.disk_hits, stats.misses) == (ROWS - 1, 1)

    @pytest.mark.parametrize("where", ["index", "header-magic",
                                       "header-length", "header-length-high",
                                       "header-crc"])
    def test_flipped_index_or_header_byte_misses_everything(
        self, oracle, cold, where
    ):
        results, blob = cold
        base, _ = _layout(blob)
        at = {"index": (HEADER_SIZE + base) // 2, "header-magic": 3,
              "header-length": 10, "header-length-high": 13,
              "header-crc": 15}[where]
        damaged = _flip(blob, at)
        with pytest.raises(CacheCorruptError):
            decode_index(damaged)
        warm, stats = _rerun_over(damaged, oracle)
        assert _identical(warm, results)
        assert (stats.hits, stats.misses) == (0, ROWS)

    def test_wrong_version_misses_everything(self, oracle, cold):
        results, blob = cold
        damaged = blob[:8] + struct.pack("<H", SEGMENT_VERSION + 1) + blob[10:]
        with pytest.raises(CacheCorruptError, match="version"):
            decode_index(damaged)
        warm, stats = _rerun_over(damaged, oracle)
        assert _identical(warm, results)
        assert (stats.hits, stats.misses) == (0, ROWS)

    def test_zero_length_file_misses_everything(self, oracle, cold):
        results, _ = cold
        with pytest.raises(CacheCorruptError, match="header"):
            decode_index(b"")
        warm, stats = _rerun_over(b"", oracle)
        assert _identical(warm, results)
        assert (stats.hits, stats.misses) == (0, ROWS)

    def test_index_entry_past_end_of_file(self, cold):
        _, blob = cold
        _, entries = _layout(blob)
        _, offset, length, crc = entries[-1]
        with pytest.raises(CacheCorruptError, match="past end of file"):
            read_record(blob[:-1], offset, length, crc)

    def test_resimulated_runs_supersede_a_corrupt_segment(
        self, oracle, cold, tmp_path
    ):
        """The rerun stores its runs in a newer segment, and a later
        cache serves those instead of the damaged copy."""
        results, blob = cold
        _, entries = _layout(blob)
        _, offset, length, _ = entries[0]
        (tmp_path / "0000000000000000-damaged.seg").write_bytes(
            _flip(blob, offset + 4 + length // 2)
        )
        first = RunCache(tmp_path)
        _batch(oracle, first)
        assert first.stats.misses == 1 and len(first.segments()) == 2
        again = RunCache(tmp_path)
        assert _identical(_batch(oracle, again), results)
        assert (again.stats.disk_hits, again.stats.misses) == (ROWS, 0)


def test_legacy_pickle_tree_misses_and_is_cleared(oracle, cold, tmp_path, capsys):
    """A directory of the old one-pickle-per-run layout is never read:
    its runs miss, ``cache`` counts only segments, and ``--clear``
    removes the old tree along with the segments."""
    from repro.cli import main

    results, _ = cold
    legacy = tmp_path / "ab"
    legacy.mkdir()
    (legacy / f"ab{'0' * 62}.pkl").write_bytes(b"\x80\x05legacy entry")
    cache = RunCache(tmp_path)
    assert _identical(_batch(oracle, cache), results)
    assert (cache.stats.hits, cache.stats.misses) == (0, ROWS)
    assert main(["cache", str(tmp_path)]) == 0
    assert f"{ROWS} cached runs in 1 segments" in capsys.readouterr().out
    assert main(["cache", str(tmp_path), "--clear"]) == 0
    assert f"cleared {ROWS + 1} cached runs" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


# -- concurrent writers -------------------------------------------------------

WRITERS, SEGMENTS, PER_SEGMENT = 4, 6, 5


def _key(writer: int, segment: int, k: int) -> str:
    return f"{writer:04x}{segment:04x}{k:056x}"


def _synthetic(writer: int, segment: int, k: int) -> CachedRun:
    return CachedRun(
        result=RunResult(
            policy_name=f"w{writer}", bid=writer + segment / 64 + k / 4096,
            zones=("za", "zb"), start_time=float(segment), finish_time=1e6,
            deadline=2e6, completed_on="spot", spot_cost=k * 0.27,
            ondemand_cost=0.0, num_checkpoints=k, num_restarts=segment,
            num_provider_terminations=writer,
            events=(Event(time=float(k), kind="start", zone="za"),),
        ),
        rng_draws=k,
    )


def _write_and_read(root: str, writer: int) -> int:
    """One writer process: publish SEGMENTS segments while reading the
    other writers' keys through fresh caches.  A read may miss (not
    published yet) but must never return a wrong record."""
    cache = RunCache(root)
    for segment in range(SEGMENTS):
        for k in range(PER_SEGMENT):
            cache.put(_key(writer, segment, k), _synthetic(writer, segment, k))
        assert cache.flush() == PER_SEGMENT
        other = (writer + 1) % WRITERS
        reader = RunCache(root)
        for k in range(PER_SEGMENT):
            entry = reader.get(_key(other, segment, k))
            assert entry is None or entry == _synthetic(other, segment, k)
    return writer


def test_concurrent_writers_lose_no_segment(tmp_path):
    """More writer processes than cores publish into one directory at
    once: every record of every writer is readable afterwards, exact,
    and no temp file is left behind."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WRITERS, mp_context=context) as pool:
        futures = [pool.submit(_write_and_read, str(tmp_path), w)
                   for w in range(WRITERS)]
        assert sorted(f.result(timeout=120) for f in futures) == list(range(WRITERS))
    fresh = RunCache(tmp_path)
    for writer in range(WRITERS):
        for segment in range(SEGMENTS):
            for k in range(PER_SEGMENT):
                assert fresh.get(_key(writer, segment, k)) == \
                    _synthetic(writer, segment, k)
    assert fresh.stats.disk_hits == WRITERS * SEGMENTS * PER_SEGMENT
    assert len(fresh.segments()) == WRITERS * SEGMENTS
    assert not list(tmp_path.glob("*.tmp"))


# -- codec round trip ---------------------------------------------------------

floats = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, float("inf"), float("-inf"), 5e-324]
)
names = st.text(max_size=12) | st.sampled_from(
    ["us-east-1a", "zoné-β", "東京-1a", "", "quote\"back\\slash"]
)
counts = st.integers(min_value=-(2**63), max_value=2**63 - 1)
events = st.builds(
    Event, time=floats, kind=names, zone=st.none() | names, detail=names,
)
points = st.builds(
    TimelinePoint,
    time=floats,
    zone_states=st.lists(st.tuples(names, names), max_size=3).map(tuple),
    committed_progress_s=floats,
    leading_progress_s=floats,
)
results = st.builds(
    RunResult,
    policy_name=names,
    bid=floats,
    zones=st.lists(names, max_size=3).map(tuple),
    start_time=floats,
    finish_time=floats,
    deadline=floats,
    completed_on=names,
    spot_cost=floats,
    ondemand_cost=floats,
    num_checkpoints=counts,
    num_restarts=counts,
    num_provider_terminations=counts,
    ondemand_switch_time=st.none() | floats,
    spot_hours_charged=counts,
    events=st.lists(events, max_size=4).map(tuple),
    timeline=st.lists(points, max_size=3).map(tuple),
)


def _assert_exact(decoded, original) -> None:
    """Field by field: floats by ``float.hex``, containers by type."""
    assert type(decoded) is type(original)
    for f in fields(original):
        a, b = getattr(decoded, f.name), getattr(original, f.name)
        if isinstance(b, float):
            assert type(a) is float and a.hex() == b.hex(), f.name
        elif isinstance(b, tuple):
            assert type(a) is tuple and len(a) == len(b), f.name
            for x, y in zip(a, b):
                if isinstance(y, tuple):  # a (zone, state) pair
                    assert type(x) is tuple and x == y
                elif isinstance(y, str):
                    assert x == y
                else:
                    _assert_exact(x, y)
        else:
            assert a == b and type(a) is type(b), f.name


class TestCodec:
    @given(result=results, draws=st.integers(0, 2**63 - 1))
    @settings(max_examples=120, deadline=None)
    @example(
        result=RunResult(
            policy_name="periodic", bid=-0.0, zones=("東京-1a",),
            start_time=0.0, finish_time=float("inf"), deadline=-0.0,
            completed_on="spot", spot_cost=0.0, ondemand_cost=0.0,
            num_checkpoints=0, num_restarts=0, num_provider_terminations=0,
            ondemand_switch_time=None,
        ),
        draws=0,
    )
    def test_round_trip_is_exact(self, result, draws):
        entry = CachedRun(result=result, rng_draws=draws)
        decoded = decode_record(encode_record(entry))
        assert decoded == entry
        assert decoded.rng_draws == draws
        _assert_exact(decoded.result, result)

    @given(batch=st.lists(results, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_segment_round_trip(self, batch):
        entries = {f"{k:064x}": CachedRun(r, k) for k, r in enumerate(batch)}
        blob = encode_segment(entries)
        index = decode_index(blob)
        assert [key for key, *_ in index] == list(entries)
        for key, *loc in index:
            decoded = read_record(blob, *loc)
            assert decoded == entries[key]
            _assert_exact(decoded.result, entries[key].result)

    def test_unencodable_entry_is_left_out(self):
        good = RunResult(
            policy_name="periodic", bid=0.81, zones=("a",), start_time=0.0,
            finish_time=1.0, deadline=2.0, completed_on="spot",
            spot_cost=0.27, ondemand_cost=0.0, num_checkpoints=1,
            num_restarts=0, num_provider_terminations=0,
        )
        bad = RunResult(**{**good.__dict__, "num_checkpoints": 2**64})
        blob = encode_segment({"good": CachedRun(good, 0),
                               "bad": CachedRun(bad, 0)})
        assert [key for key, *_ in decode_index(blob)] == ["good"]

    @pytest.mark.parametrize("body", [
        b"", b"\x00" * 10, b"\xff" * 200,
    ])
    def test_garbage_body_is_corrupt(self, body):
        with pytest.raises(CacheCorruptError):
            decode_record(body)

"""Content-addressed cross-run memoization for the experiment grids.

The evaluation protocol re-simulates the same (trace, engine config,
policy, bid, zones, start) tuples over and over: a warm figure rerun
repeats every cell of the cold run, a redundant ``N=1`` cell replays
exactly the trajectory its single-zone sibling already computed, and
two sweeps over the same window share most of their grid.  This module
gives every engine run a *content address* — a canonical hash of all
inputs the trajectory depends on — and a two-layer store behind it:

* an **in-process layer** (a plain dict), shared by every run a
  simulator family performs within one process (and, through the
  sweep executor, within each worker process);
* an optional **on-disk layer** (``--cache-dir`` on the CLI) of
  append-only *segments*, one ``<dir>/<time>-<tag>.seg`` file per
  batch of stored runs, so a warm rerun of a figure skips simulation
  entirely, across processes and across invocations.

Soundness rests on the engine being a deterministic pure function of
the hashed inputs.  The key therefore covers the trace content
(:meth:`~repro.traces.model.SpotPriceTrace.fingerprint`), the oracle's
statistical configuration, the engine mode and recording flags, the
experiment config, the policy's :meth:`canonical_params`, bid, zones,
start time, the queue-delay model *and the RNG state at call time* —
two runs share an entry only when a replay would be bit-identical.
Runs the key cannot honestly describe (attached auditor, run-time
dynamics callbacks, controllers without :meth:`canonical_params`)
bypass the cache entirely; see ``SpotSimulator._cache_key``.

Entries store the result *plus the number of queue-delay draws* the
run consumed, so a cache hit can burn the same number of samples from
the caller's RNG stream and leave every subsequent run — hit or miss —
on exactly the stream it would have seen cold.

Segment layout (integers little-endian)::

    header   8-byte magic, u16 segment format version,
             u32 index length, u32 crc32 of the index bytes
    index    JSON list of [run_key, offset, length, crc32] per record,
             offsets relative to the end of the index
    records  per record: u32 length, then that many bytes of body

Each record body is one :class:`CachedRun` in an explicit codec (no
pickle): a :mod:`struct` head with every numeric field, the event and
timeline times as packed float64 arrays, and one JSON document with
the strings (policy name, zones, completion mode, event kinds, zones
and details, timeline zone states).  Floats round-trip bit for bit and
tuples come back as tuples.

:meth:`RunCache.put` fills the in-process layer at once and buffers
the disk write; :meth:`RunCache.flush` publishes the buffer as one
segment through a single ``mkstemp`` + ``os.replace``, so readers only
ever see complete segments and concurrent writers (sweep workers
sharing one directory) need no locking: each writes its own segments.
Every batch entry point flushes — the vector engine after each
batch, the runner after each per-run cell, sweep workers after each
chunk, and the CLI after its direct-simulator commands.  A decoder
that meets a bad magic or version, an index entry past end of file, a
crc mismatch or an undecodable record raises :class:`CacheCorruptError`;
:meth:`RunCache.get` counts it as a plain miss, so the run is simply
re-simulated and a corrupt segment can never serve a wrong record.
The segment format version lives in the header, not in the run key.
Directories written by the older one-pickle-file-per-run layout
(``<dir>/<key[:2]>/<key>.pkl``) are never read: every lookup misses,
and :meth:`RunCache.clear` removes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import time
import weakref
import zlib
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.core.engine import Event, RunResult, TimelinePoint

#: Bumped whenever the key layout changes; part of every key, so a
#: changed layout misses instead of reading entries it cannot describe.
#: The on-disk entry format is versioned separately, in each segment
#: header (:data:`SEGMENT_VERSION`).
CACHE_SCHEMA_VERSION = 1

#: Magic string opening every segment file.
SEGMENT_MAGIC = b"RUNSEG\r\n"

#: Version of the segment layout and record codec, stored in every
#: segment header; a segment of any other version is unreadable.
SEGMENT_VERSION = 1

SEGMENT_SUFFIX = ".seg"

#: Age (seconds since last modification) past which an orphaned
#: ``*.tmp`` file — left by a writer that died between ``mkstemp`` and
#: ``os.replace`` — is considered abandoned and swept.  Any live
#: writer finishes its rename in milliseconds; an hour of margin means
#: the sweep can never race a concurrent worker's in-flight segment.
STALE_TMP_AGE_S = 3600.0

# magic, version, index length, index crc32
_HEADER = struct.Struct("<8sHII")
_LENGTH = struct.Struct("<I")
# rng_draws; bid, start, finish, deadline, spot and on-demand cost;
# has-switch flag, switch time; checkpoints, restarts, terminations,
# spot hours charged; event count, timeline count, text length
_RECORD = struct.Struct("<q6dBd4q3I")


class CacheCorruptError(ValueError):
    """A segment or record failed validation: bad magic or version, an
    index entry past end of file, a crc mismatch, or a record body that
    does not decode."""


def canonical_value(obj):
    """``obj`` reduced to a JSON-serializable canonical form.

    Two values canonicalize equal exactly when they are interchangeable
    as engine inputs: dataclasses reduce to ``{field: value}`` maps
    tagged with the class name, NumPy scalars/arrays to Python
    numbers/lists, tuples to lists.  Anything unrecognized raises
    ``TypeError`` — callers treat that as "not cacheable" rather than
    guessing at identity.

    Exact built-in types are dispatched first with ``type(obj) is``:
    they are nearly every value a run key holds, and the ``isinstance``
    checks against NumPy and ABC types below cost far more than the
    reduction itself.  Subclasses (``IntEnum``, named tuples, ...) take
    the general path, so the output is the same either way.
    """
    kind = type(obj)
    if kind is float or kind is int or kind is str or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {str(k): canonical_value(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [canonical_value(x) for x in obj]
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in fields(obj):
            if f.name.startswith("_"):  # memo/scratch fields, not inputs
                continue
            out[f.name] = canonical_value(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return [canonical_value(x) for x in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): canonical_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical_value(x) for x in obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for cache keying")


def canonical_json(obj) -> str:
    """Deterministic JSON encoding of :func:`canonical_value`."""
    return json.dumps(
        canonical_value(obj), sort_keys=True, separators=(",", ":")
    )


def content_key(obj) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``.

    Equal canonical values hash equal; distinct canonical values
    collide only with SHA-256 probability (treated as never).
    """
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def shared_run_parts(oracle, queue_model, *, engine_mode, record_events,
                     record_timeline, zones, controller) -> dict:
    """Every part of a run's address but the per-run
    :attr:`RunKeyTemplate.ROW_FIELDS`; the scalar engine adds one run's
    to it, a vector batch builds its template from it."""
    return {
        "trace": oracle.trace.fingerprint(),
        "oracle": {"history_s": oracle.history_s, "bucket_s": oracle.bucket_s,
                   "incremental": oracle.incremental},
        "engine_mode": engine_mode,
        "record_events": record_events,
        "record_timeline": record_timeline,
        "queue_model": queue_model,
        "zones": tuple(zones),
        "controller": controller,
    }


class RunKeyTemplate:
    """:meth:`RunCache.run_key` for a batch of runs that share every
    part but :attr:`ROW_FIELDS`.

    The canonical JSON sorts its keys, so the per-run parts sit between
    the shared ones.  The shared parts are encoded once, here; each
    :meth:`key` call splices the run's own encoded parts
    (:func:`canonical_json` of each value, in ``ROW_FIELDS`` order)
    into the gaps and hashes the result.  The bytes, and so the
    digest, are exactly what ``run_key`` computes from the whole
    mapping.  Raises ``TypeError`` when a shared part cannot be
    canonicalized.
    """

    #: The per-run parts of a vector batch's run address.
    ROW_FIELDS: tuple[str, ...] = (
        "bid", "config", "policy", "rng", "start_time",
    )

    def __init__(self, shared: Mapping) -> None:
        parts = {"schema": CACHE_SCHEMA_VERSION, **shared}
        slot = {name: j for j, name in enumerate(self.ROW_FIELDS)}
        order: list[int] = []
        pieces: list[str] = []
        text = "{"
        for j, name in enumerate(sorted([*parts, *self.ROW_FIELDS])):
            text += ("," if j else "") + json.dumps(name) + ":"
            if name in slot:
                pieces.append(text)
                order.append(slot[name])
                text = ""
            else:
                text += canonical_json(parts[name])
        pieces.append(text + "}")
        self._head = pieces[0]
        self._gaps = tuple(zip(order, pieces[1:]))

    def key(self, *encoded: str) -> str:
        """Content address of the run whose ``ROW_FIELDS`` encode to
        ``encoded``."""
        out = [self._head]
        for j, tail in self._gaps:
            out.append(encoded[j])
            out.append(tail)
        return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`RunCache` (or a merged fleet)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Subset of ``hits`` served from the on-disk layer.
    disk_hits: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.disk_hits += other.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def line(self) -> str:
        """One-line summary (the CLI's stderr report; CI greps it)."""
        return (
            f"run-cache: hits={self.hits} misses={self.misses} "
            f"stores={self.stores} disk_hits={self.disk_hits}"
        )


@dataclass(frozen=True)
class CachedRun:
    """One memoized engine run.

    ``rng_draws`` is the number of queue-delay samples the cold run
    consumed; a hit draws (and discards) exactly that many from the
    live RNG so later runs on the same stream see the samples they
    would have seen had this run executed.
    """

    result: RunResult
    rng_draws: int

    def replay(self, queue_model, rng) -> RunResult:
        """The stored result, after drawing the cold run's queue delays
        from ``rng`` in one ``sample_many`` call: a batch of ``k``
        draws leaves the generator where ``k`` single ``sample`` calls
        do (``standard_normal(k)`` draws element by element)."""
        if self.rng_draws:
            queue_model.sample_many(rng, self.rng_draws)
        return self.result


# -- record codec -----------------------------------------------------------


def encode_record(entry: CachedRun) -> bytes:
    """The body bytes of one segment record (see the module docstring).

    Raises ``TypeError``, ``ValueError`` or ``struct.error`` when a
    field does not fit the codec; such an entry stays in-process only.
    """
    r = entry.result
    events, timeline = r.events, r.timeline
    switch = r.ondemand_switch_time
    text = json.dumps(
        [r.policy_name, r.zones, r.completed_on,
         [(e.kind, e.zone, e.detail) for e in events],
         [p.zone_states for p in timeline]],
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [_RECORD.pack(
        entry.rng_draws, r.bid, r.start_time, r.finish_time, r.deadline,
        r.spot_cost, r.ondemand_cost, switch is not None,
        0.0 if switch is None else switch, r.num_checkpoints,
        r.num_restarts, r.num_provider_terminations, r.spot_hours_charged,
        len(events), len(timeline), len(text),
    )]
    if events:
        parts.append(struct.pack(f"<{len(events)}d", *(e.time for e in events)))
    if timeline:
        parts.append(struct.pack(f"<{3 * len(timeline)}d", *(
            x for p in timeline
            for x in (p.time, p.committed_progress_s, p.leading_progress_s)
        )))
    parts.append(text)
    return b"".join(parts)


def decode_record(body: bytes) -> CachedRun:
    """Inverse of :func:`encode_record`; :class:`CacheCorruptError` on
    a body that does not decode."""
    try:
        (draws, bid, start, finish, deadline, spot, ondemand, has_switch,
         switch, checkpoints, restarts, terminations, hours,
         n_events, n_timeline, n_text) = _RECORD.unpack_from(body)
        pos = _RECORD.size
        times = struct.unpack_from(f"<{n_events}d", body, pos)
        pos += 8 * n_events
        points = struct.unpack_from(f"<{3 * n_timeline}d", body, pos)
        pos += 24 * n_timeline
        if has_switch > 1 or pos + n_text != len(body):
            raise ValueError("fields do not add up to the record length")
        policy_name, zones, completed_on, event_text, states = json.loads(
            body[pos:]
        )
        if len(event_text) != n_events or len(states) != n_timeline:
            raise ValueError("log lengths disagree")
        result = RunResult(
            policy_name=policy_name, bid=bid, zones=tuple(zones),
            start_time=start, finish_time=finish, deadline=deadline,
            completed_on=completed_on, spot_cost=spot,
            ondemand_cost=ondemand, num_checkpoints=checkpoints,
            num_restarts=restarts, num_provider_terminations=terminations,
            ondemand_switch_time=switch if has_switch else None,
            spot_hours_charged=hours,
            events=tuple(
                Event(time=t, kind=kind, zone=zone, detail=detail)
                for t, (kind, zone, detail) in zip(times, event_text)
            ),
            timeline=tuple(
                TimelinePoint(
                    time=points[3 * k],
                    zone_states=tuple(tuple(pair) for pair in zone_states),
                    committed_progress_s=points[3 * k + 1],
                    leading_progress_s=points[3 * k + 2],
                )
                for k, zone_states in enumerate(states)
            ),
        )
    except (struct.error, ValueError, TypeError) as exc:
        raise CacheCorruptError(f"record does not decode: {exc}") from exc
    return CachedRun(result=result, rng_draws=draws)


# -- segments ---------------------------------------------------------------


def encode_segment(entries: Mapping[str, CachedRun]) -> bytes:
    """One segment holding ``entries``; entries the codec cannot encode
    are left out."""
    index, records, pos = [], [], 0
    for key, entry in entries.items():
        try:
            body = encode_record(entry)
        except (TypeError, ValueError, struct.error):
            continue
        index.append((key, pos, len(body), zlib.crc32(body)))
        records += (_LENGTH.pack(len(body)), body)
        pos += _LENGTH.size + len(body)
    raw = json.dumps(index, separators=(",", ":")).encode("utf-8")
    header = _HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, len(raw),
                          zlib.crc32(raw))
    return b"".join((header, raw, *records))


def decode_index(head: bytes) -> list[tuple[str, int, int, int]]:
    """``(run_key, offset, length, crc32)`` per record of a segment.

    ``head`` is a prefix of the segment file holding at least its
    header and index (the whole file will do); offsets come back
    absolute.  :class:`CacheCorruptError` on a bad magic, version,
    index length or crc.
    """
    if len(head) < _HEADER.size:
        raise CacheCorruptError("segment shorter than its header")
    magic, version, length, crc = _HEADER.unpack_from(head)
    if magic != SEGMENT_MAGIC:
        raise CacheCorruptError("not a run-cache segment (bad magic)")
    if version != SEGMENT_VERSION:
        raise CacheCorruptError(f"segment version {version}, expected {SEGMENT_VERSION}")
    base = _HEADER.size + length
    if base > len(head):
        raise CacheCorruptError("segment index runs past end of file")
    raw = head[_HEADER.size:base]
    if zlib.crc32(raw) != crc:
        raise CacheCorruptError("segment index crc mismatch")
    try:
        return [
            (key, base + int(offset), int(length), int(crc))
            for key, offset, length, crc in json.loads(raw)
        ]
    except (ValueError, TypeError) as exc:
        raise CacheCorruptError(f"segment index does not decode: {exc}") from exc


def read_record(data: bytes, offset: int, length: int, crc: int) -> CachedRun:
    """Decode the record an index entry points at in segment ``data``."""
    end = offset + _LENGTH.size + length
    if offset < 0 or end > len(data):
        raise CacheCorruptError("index entry points past end of file")
    if _LENGTH.unpack_from(data, offset)[0] != length:
        raise CacheCorruptError("record length prefix disagrees with the index")
    body = data[offset + _LENGTH.size:end]
    if zlib.crc32(body) != crc:
        raise CacheCorruptError("record crc mismatch")
    return decode_record(body)


def _read_segment_index(path: Path) -> list[tuple[str, int, int, int]]:
    """The index of the segment at ``path``, reading only its head."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) == _HEADER.size:
            # ask for no more than the file holds: a corrupt length field
            # must not turn into a huge read buffer
            length = _HEADER.unpack_from(head)[2]
            head += fh.read(min(length, size - _HEADER.size))
    return decode_index(head)


def _publish_segment(cache_dir: Path, entries: Mapping[str, CachedRun]) -> str | None:
    """Write ``entries`` as one new segment of ``cache_dir``; returns
    its file name, or ``None`` when the disk refused the write.

    The segment appears atomically (temp file + ``os.replace``) under a
    name that sorts by creation time, so later segments win when two
    hold the same key.
    """
    blob = encode_segment(entries)
    prefix = f"{time.time_ns():016x}-"
    try:
        try:
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=prefix, suffix=".tmp")
        except FileNotFoundError:
            # the directory was removed under us: recreate it once
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=prefix, suffix=".tmp")
        final = tmp[: -len(".tmp")] + SEGMENT_SUFFIX
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, final)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        # a full/read-only disk degrades to in-memory caching
        return None
    return os.path.basename(final)


def _publish_pending(cache_dir: Path, pending: dict) -> None:
    """Finalizer of a :class:`RunCache`: publish what was never flushed."""
    if pending:
        _publish_segment(cache_dir, dict(pending))
        pending.clear()


class RunCache:
    """Two-layer content-addressed store of :class:`CachedRun` entries.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent segment layer, created if missing.
        ``None`` (default) keeps the cache purely in-process.

    :meth:`put` buffers disk writes until :meth:`flush`, which
    publishes them as one segment (a cache that is garbage-collected,
    or still open at interpreter exit, publishes its buffer too).
    Disk lookups resolve a key through an index loaded lazily from the
    segment headers; a key the index lacks triggers a rescan only when
    the directory's mtime has changed since the last scan, so a segment
    another process publishes within the file system's timestamp
    granularity of that scan is seen at the next change — at worst one
    extra simulation, never a wrong record.  Corrupt segments and
    records are misses.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: dict[str, CachedRun] = {}
        self._pending: dict[str, CachedRun] = {}
        # key -> (segment name, offset, length, crc32); None until loaded
        self._index: dict[str, tuple[str, int, int, int]] | None = None
        self._scanned: set[str] = set()
        self._scan_mtime: int | None = None
        # bytes of the most recently read segment (reads come in batches)
        self._data: tuple[str, bytes] | None = None
        self.stats = CacheStats()
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self.sweep_stale_tmp()
            weakref.finalize(self, _publish_pending, self.cache_dir, self._pending)

    # -- keying -----------------------------------------------------------

    def run_key(self, parts: Mapping) -> str:
        """Content address of a run described by ``parts``.

        Raises ``TypeError`` when any part cannot be canonicalized —
        the caller's signal to bypass the cache for that run.
        """
        return content_key({"schema": CACHE_SCHEMA_VERSION, **parts})

    # -- lookup / store ---------------------------------------------------

    def get(self, key: str) -> CachedRun | None:
        entry = self._memory.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        if self.cache_dir is not None:
            entry = self._read_disk(key)
            if entry is not None:
                self._memory[key] = entry
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return entry
        self.stats.misses += 1
        return None

    def put(self, key: str, entry: CachedRun) -> None:
        self._memory[key] = entry
        self.stats.stores += 1
        if self.cache_dir is not None:
            self._pending[key] = entry

    def flush(self) -> int:
        """Publish every buffered :meth:`put` as one segment; returns
        the number of runs published (0 when nothing was pending)."""
        if not self._pending:
            return 0
        name = _publish_segment(self.cache_dir, self._pending)
        count = len(self._pending)
        self._pending.clear()
        if name is None:
            return 0
        self._scanned.add(name)  # its runs are in the in-process layer
        return count

    def _read_disk(self, key: str) -> CachedRun | None:
        index = self._index
        if index is None or (key not in index and self._dir_changed()):
            index = self._rescan()
        where = index.get(key)
        if where is None:
            return None
        name, offset, length, crc = where
        try:
            if self._data is None or self._data[0] != name:
                self._data = (name, (self.cache_dir / name).read_bytes())
            return read_record(self._data[1], offset, length, crc)
        except (OSError, CacheCorruptError):
            del index[key]  # a plain miss; the re-simulated run is re-stored
            return None

    def _dir_changed(self) -> bool:
        try:
            return os.stat(self.cache_dir).st_mtime_ns != self._scan_mtime
        except OSError:
            return False

    def _rescan(self) -> dict[str, tuple[str, int, int, int]]:
        """Add the index of every segment not seen yet, oldest first."""
        index = {} if self._index is None else self._index
        try:
            self._scan_mtime = os.stat(self.cache_dir).st_mtime_ns
            names = sorted(os.listdir(self.cache_dir))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(SEGMENT_SUFFIX) or name in self._scanned:
                continue
            self._scanned.add(name)
            try:
                entries = _read_segment_index(self.cache_dir / name)
            except (OSError, CacheCorruptError):
                continue
            for key, offset, length, crc in entries:
                index[key] = (name, offset, length, crc)
        self._index = index
        return index

    # -- maintenance ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def segments(self) -> list[Path]:
        """Paths of every published segment, oldest first.  Flushes
        first, so the inspection methods below cover this cache's own
        stores too."""
        if self.cache_dir is None:
            return []
        self.flush()
        return sorted(self.cache_dir.glob("*" + SEGMENT_SUFFIX))

    def disk_entries(self) -> Iterator[str]:
        """Run keys of every record held by a readable segment (none
        for an in-process cache)."""
        keys: dict[str, None] = {}
        for path in self.segments():
            try:
                entries = _read_segment_index(path)
            except (OSError, CacheCorruptError):
                continue
            keys.update((key, None) for key, *_ in entries)
        return iter(keys)

    def disk_usage(self) -> tuple[int, int]:
        """``(cached run count, total segment bytes)`` of the disk layer."""
        size = 0
        for path in self.segments():
            try:
                size += path.stat().st_size
            except OSError:  # pragma: no cover - concurrent removal
                continue
        return sum(1 for _ in self.disk_entries()), size

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        """Remove abandoned ``*.tmp`` files older than ``max_age_s``.

        :meth:`flush` writes segments as ``mkstemp`` temp file +
        ``os.replace``; a writer killed between the two leaks the temp
        file forever.  Runs on every open (and, with ``max_age_s=0``,
        from :meth:`clear`), so shared cache directories cannot
        accumulate orphans across sweeps.  Also covers the key-prefix
        subdirectories of the legacy per-file layout.  Returns the
        number removed.
        """
        if self.cache_dir is None:
            return 0
        removed = 0
        cutoff = time.time() - max_age_s
        for pattern in ("*.tmp", "??/*.tmp"):
            for path in self.cache_dir.glob(pattern):
                try:
                    if path.stat().st_mtime <= cutoff:
                        path.unlink()
                        removed += 1
                except OSError:  # pragma: no cover - concurrent removal
                    continue
        return removed

    def clear(self) -> int:
        """Drop both layers; returns the number of cached runs removed
        from disk (this cache's unflushed stores included).

        Removes every segment, every ``*.tmp`` orphan regardless of age
        (an explicit clear means no writer is expected to be live) and
        any legacy ``??/*.pkl`` tree, counting each pickle as a run.
        """
        removed = sum(1 for _ in self.disk_entries())
        self._memory.clear()
        self._index, self._data = None, None
        self._scanned.clear()
        if self.cache_dir is None:
            return 0
        self.sweep_stale_tmp(max_age_s=0.0)
        for path in self.segments():
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                continue
        for path in self.cache_dir.glob("??/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent removal
                continue
        for bucket in self.cache_dir.glob("??"):
            try:
                bucket.rmdir()
            except OSError:  # not empty, or not a directory
                continue
        return removed

    def drain_stats(self) -> CacheStats:
        """Hand off (and reset) the counters — how sweep workers ship
        their hit/miss tallies back to the parent with each cell."""
        stats = self.stats
        self.stats = CacheStats()
        return stats

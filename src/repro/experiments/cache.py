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
* an optional **on-disk layer** (``--cache-dir`` on the CLI): pickled
  :class:`CachedRun` entries under ``<dir>/<key[:2]>/<key>.pkl``, so a
  warm rerun of a figure skips simulation entirely, across processes
  and across invocations.

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
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import RunResult

#: Bumped whenever the key layout or the pickled entry format changes;
#: part of every key, so stale on-disk caches miss instead of
#: deserializing garbage.
CACHE_SCHEMA_VERSION = 1

#: Age (seconds since last modification) past which an orphaned
#: ``*.tmp`` file — left by a worker that died between ``mkstemp`` and
#: ``os.replace`` — is considered abandoned and swept.  Any live
#: writer finishes its rename in milliseconds; an hour of margin means
#: the sweep can never race a concurrent worker's in-flight entry.
STALE_TMP_AGE_S = 3600.0


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

    result: "RunResult"
    rng_draws: int


class RunCache:
    """Two-layer content-addressed store of :class:`CachedRun` entries.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent layer, created if missing.
        ``None`` (default) keeps the cache purely in-process.

    Writes to the disk layer are atomic (temp file + ``os.replace``),
    so concurrent sweep workers sharing one directory can only ever
    observe complete entries; unreadable or truncated files are
    treated as misses.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self.sweep_stale_tmp()
        self._memory: dict[str, CachedRun] = {}
        self.stats = CacheStats()

    # -- keying -----------------------------------------------------------

    def run_key(self, parts: Mapping) -> str:
        """Content address of a run described by ``parts``.

        Raises ``TypeError`` when any part cannot be canonicalized —
        the caller's signal to bypass the cache for that run.
        """
        return content_key({"schema": CACHE_SCHEMA_VERSION, **parts})

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.pkl"

    # -- lookup / store ---------------------------------------------------

    def get(self, key: str) -> CachedRun | None:
        entry = self._memory.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        if self.cache_dir is not None:
            try:
                entry = pickle.loads(self._path(key).read_bytes())
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                entry = None
            if isinstance(entry, CachedRun):
                self._memory[key] = entry
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return entry
        self.stats.misses += 1
        return None

    def put(self, key: str, entry: CachedRun) -> None:
        self._memory[key] = entry
        self.stats.stores += 1
        if self.cache_dir is None:
            return
        path = self._path(key)
        try:
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                # first entry of this key prefix: create its directory
                # here rather than re-checking it on every put
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            # a full/read-only disk degrades to in-memory caching
            pass

    # -- maintenance ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def disk_entries(self) -> Iterator[Path]:
        """Paths of every persisted entry (inspection / the CLI)."""
        if self.cache_dir is None:
            return iter(())
        return self.cache_dir.glob("??/*.pkl")

    def disk_usage(self) -> tuple[int, int]:
        """``(entry count, total bytes)`` of the on-disk layer."""
        count = size = 0
        for path in self.disk_entries():
            try:
                size += path.stat().st_size
            except OSError:  # pragma: no cover - concurrent removal
                continue
            count += 1
        return count, size

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        """Remove abandoned ``*.tmp`` files older than ``max_age_s``.

        :meth:`put` writes entries as ``mkstemp`` temp file +
        ``os.replace``; a worker killed between the two leaks the temp
        file forever.  Runs on every open (and, with ``max_age_s=0``,
        from :meth:`clear`), so shared cache directories cannot
        accumulate orphans across sweeps.  Returns the number removed.
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
        """Drop both layers; returns the number of disk entries removed.

        Also sweeps every ``*.tmp`` orphan regardless of age — an
        explicit clear means no writer is expected to be live.
        """
        self._memory.clear()
        self.sweep_stale_tmp(max_age_s=0.0)
        removed = 0
        for path in list(self.disk_entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent removal
                continue
        return removed

    def drain_stats(self) -> CacheStats:
        """Hand off (and reset) the counters — how sweep workers ship
        their hit/miss tallies back to the parent with each cell."""
        stats = self.stats
        self.stats = CacheStats()
        return stats

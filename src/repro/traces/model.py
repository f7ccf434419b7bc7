"""Spot-price trace containers.

A :class:`ZoneTrace` is a single availability zone's spot price sampled
on a regular 5-minute grid; a :class:`SpotPriceTrace` bundles one
``ZoneTrace`` per availability zone over a common time axis.  These are
the only objects through which every policy, statistic, and experiment
in this package observes prices, which is what makes synthetic traces a
faithful substitute for the paper's archived AWS price history.

Times are POSIX timestamps (seconds).  Prices are US dollars per
instance-hour.  Traces are immutable after construction; slicing
returns views wherever NumPy allows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.market.constants import SAMPLE_INTERVAL_S


class TraceError(ValueError):
    """Raised for malformed or inconsistent trace data."""


@dataclass(frozen=True)
class ZoneTrace:
    """Spot price history of one availability zone on a uniform grid.

    Parameters
    ----------
    zone:
        Availability-zone name, e.g. ``"us-east-1a"``.
    start_time:
        POSIX timestamp of the first sample, seconds.
    prices:
        1-D float array of $/hour spot prices, one per 5-minute sample.
    interval_s:
        Sample spacing in seconds (default: 300 s, the paper's grid).
    """

    zone: str
    start_time: float
    prices: np.ndarray
    interval_s: int = SAMPLE_INTERVAL_S
    #: Memoized derived arrays (rising edges, per-threshold crossing
    #: indices).  Prices are immutable, so these never invalidate; the
    #: cache is excluded from equality/repr and shared by every
    #: consumer of the trace object — the engine's segment-skipping
    #: fast path, the Edge/Threshold policies, and all sweep workers
    #: holding the same trace.
    _derived: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim != 1:
            raise TraceError(f"prices must be 1-D, got shape {prices.shape}")
        if prices.size == 0:
            raise TraceError("a ZoneTrace needs at least one sample")
        if not np.all(np.isfinite(prices)):
            raise TraceError("prices contain NaN or infinity")
        if np.any(prices <= 0):
            raise TraceError("spot prices must be strictly positive")
        if self.interval_s <= 0:
            raise TraceError(f"interval_s must be positive, got {self.interval_s}")
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "_derived", {})

    # -- basic geometry ------------------------------------------------

    def __len__(self) -> int:
        return int(self.prices.size)

    @property
    def end_time(self) -> float:
        """Timestamp one interval past the last sample (exclusive end)."""
        return self.start_time + len(self) * self.interval_s

    @property
    def duration_s(self) -> float:
        """Covered wall-clock span in seconds."""
        return len(self) * float(self.interval_s)

    @property
    def times(self) -> np.ndarray:
        """Timestamps of each sample (computed, not stored)."""
        return self.start_time + self.interval_s * np.arange(len(self), dtype=np.float64)

    # -- lookups ---------------------------------------------------------

    def index_at(self, t: float) -> int:
        """Grid index whose sample covers time ``t``.

        The sample at index ``i`` is in force on ``[start + i*dt,
        start + (i+1)*dt)``, i.e. prices are piecewise constant between
        samples, matching the paper's 5-minute market snapshots.
        """
        if t < self.start_time or t >= self.end_time:
            raise TraceError(
                f"time {t} outside trace [{self.start_time}, {self.end_time})"
            )
        return int((t - self.start_time) // self.interval_s)

    def price_at(self, t: float) -> float:
        """Spot price in force at time ``t``."""
        return float(self.prices[self.index_at(t)])

    def slice(self, t0: float, t1: float) -> "ZoneTrace":
        """Sub-trace covering ``[t0, t1)``; endpoints snap outward to the grid."""
        if t1 <= t0:
            raise TraceError(f"empty slice requested: [{t0}, {t1})")
        i0 = self.index_at(t0)
        # snap the right edge outward so t1 is covered
        i1 = int(np.ceil((min(t1, self.end_time) - self.start_time) / self.interval_s))
        return ZoneTrace(
            zone=self.zone,
            start_time=self.start_time + i0 * self.interval_s,
            prices=self.prices[i0:i1],
            interval_s=self.interval_s,
        )

    def window(self, t0: float, duration_s: float) -> "ZoneTrace":
        """Sub-trace of ``duration_s`` seconds starting at ``t0``."""
        return self.slice(t0, t0 + duration_s)

    # -- derived statistics ----------------------------------------------

    def mean(self) -> float:
        """Mean spot price over the trace."""
        return float(self.prices.mean())

    def variance(self) -> float:
        """Population variance of the spot price over the trace."""
        return float(self.prices.var())

    def minimum(self) -> float:
        """Lowest observed spot price."""
        return float(self.prices.min())

    def maximum(self) -> float:
        """Highest observed spot price."""
        return float(self.prices.max())

    def availability(self, bid: float) -> float:
        """Fraction of samples during which a bid of ``bid`` keeps the zone up."""
        return float(np.mean(self.prices <= bid))

    def rising_edges(self) -> np.ndarray:
        """Indices ``i`` where ``prices[i] > prices[i-1]`` (upward movements).

        The Rising Edge policy (Section 4.3) checkpoints at exactly
        these samples.  Computed once per trace; every policy
        invocation shares the cached diff.
        """
        edges = self._derived.get("rising_edges")
        if edges is None:
            edges = np.flatnonzero(np.diff(self.prices) > 0) + 1
            edges.setflags(write=False)
            self._derived["rising_edges"] = edges
        return edges

    def is_rising_edge_at(self, i: int) -> bool:
        """Did the price move upward at sample ``i``?  (``i=0`` is False:
        there is no earlier sample, matching the oracle's clamp.)"""
        mask = self._derived.get("rising_mask")
        if mask is None:
            mask = np.zeros(len(self), dtype=bool)
            mask[self.rising_edges()] = True
            mask.setflags(write=False)
            self._derived["rising_mask"] = mask
        return bool(mask[i])

    def next_rising_edge(self, i: int) -> int:
        """Smallest rising-edge index strictly greater than ``i``
        (``len(self)`` when no further edge exists)."""
        edges = self.rising_edges()
        j = int(np.searchsorted(edges, i, side="right"))
        return int(edges[j]) if j < edges.size else len(self)

    def threshold_crossings(self, theta: float) -> np.ndarray:
        """Sample indices where ``prices <= theta`` flips truth value.

        The run-length encoding of the zone's availability at bid (or
        control threshold) ``theta``: index ``k`` in the returned array
        is the first sample of a new up- or down-segment.  Cached per
        ``theta`` — the engine's fast path, Adaptive rollouts and sweep
        workers all share one index per (trace, threshold).
        """
        key = ("crossings", float(theta))
        crossings = self._derived.get(key)
        if crossings is None:
            crossings = np.flatnonzero(np.diff(self.prices <= theta)) + 1
            crossings.setflags(write=False)
            self._derived[key] = crossings
        return crossings

    def next_threshold_crossing(self, i: int, theta: float) -> int:
        """Smallest index > ``i`` where ``prices <= theta`` flips
        (``len(self)`` when the segment runs to the end of the trace)."""
        crossings = self.threshold_crossings(theta)
        j = int(np.searchsorted(crossings, i, side="right"))
        return int(crossings[j]) if j < crossings.size else len(self)

    def distinct_prices(self) -> np.ndarray:
        """Sorted unique price levels; the Markov model's state space."""
        return np.unique(self.prices)

    # -- identity ---------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the zone's identity and every sample.

        SHA-256 over (zone name, start time, sample interval, raw
        price bytes): any change to any field — a single price sample
        included — yields a different digest, while equal traces hash
        equal regardless of which process or path built their arrays.
        The run cache uses this as the trace component of its content
        addresses.  Memoized: a month-long window is hashed once per
        trace object.
        """
        fp = self._derived.get("fingerprint")
        if fp is None:
            h = hashlib.sha256()
            h.update(self.zone.encode("utf-8"))
            h.update(np.float64(self.start_time).tobytes())
            h.update(np.int64(self.interval_s).tobytes())
            h.update(np.ascontiguousarray(self.prices).tobytes())
            fp = h.hexdigest()
            self._derived["fingerprint"] = fp
        return fp


@dataclass(frozen=True)
class SpotPriceTrace:
    """Aligned spot-price history across several availability zones.

    All member :class:`ZoneTrace` objects share ``start_time``,
    ``interval_s`` and length, so a single index addresses the same
    instant in every zone — the property the multi-zone engine relies on.
    """

    zones: tuple[ZoneTrace, ...]
    _by_name: Mapping[str, ZoneTrace] = field(init=False, repr=False, compare=False)
    _matrix: np.ndarray | None = field(init=False, repr=False, compare=False)
    _fingerprint: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.zones:
            raise TraceError("a SpotPriceTrace needs at least one zone")
        ref = self.zones[0]
        for z in self.zones[1:]:
            if z.start_time != ref.start_time:
                raise TraceError("zone traces are not aligned in start_time")
            if z.interval_s != ref.interval_s:
                raise TraceError("zone traces disagree on interval_s")
            if len(z) != len(ref):
                raise TraceError("zone traces have different lengths")
        names = [z.zone for z in self.zones]
        if len(set(names)) != len(names):
            raise TraceError(f"duplicate zone names: {names}")
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(self, "_by_name", {z.zone: z for z in self.zones})
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_fingerprint", None)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        start_time: float,
        prices_by_zone: Mapping[str, Sequence[float] | np.ndarray],
        interval_s: int = SAMPLE_INTERVAL_S,
    ) -> "SpotPriceTrace":
        """Build a trace from a ``{zone: price_array}`` mapping."""
        zones = tuple(
            ZoneTrace(zone=name, start_time=start_time,
                      prices=np.asarray(p, dtype=np.float64), interval_s=interval_s)
            for name, p in prices_by_zone.items()
        )
        return cls(zones=zones)

    # -- geometry -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.zones[0])

    def __iter__(self) -> Iterator[ZoneTrace]:
        return iter(self.zones)

    @property
    def zone_names(self) -> tuple[str, ...]:
        return tuple(z.zone for z in self.zones)

    @property
    def num_zones(self) -> int:
        return len(self.zones)

    @property
    def start_time(self) -> float:
        return self.zones[0].start_time

    @property
    def end_time(self) -> float:
        return self.zones[0].end_time

    @property
    def interval_s(self) -> int:
        return self.zones[0].interval_s

    @property
    def duration_s(self) -> float:
        return self.zones[0].duration_s

    def zone(self, name: str) -> ZoneTrace:
        """Zone trace by availability-zone name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise TraceError(f"unknown zone {name!r}; have {self.zone_names}") from None

    def matrix(self) -> np.ndarray:
        """Prices as a ``(num_zones, num_samples)`` read-only array.

        Memoized: ``prices_at`` / availability reductions and the
        figures call this repeatedly, and re-``vstack``-ing a month of
        samples per call dominated their runtime.
        """
        if self._matrix is None:
            stacked = np.vstack([z.prices for z in self.zones])
            stacked.setflags(write=False)
            object.__setattr__(self, "_matrix", stacked)
        return self._matrix

    def fingerprint(self) -> str:
        """Stable content hash of the whole window — the per-zone
        :meth:`ZoneTrace.fingerprint` digests combined in zone order.
        Changing any sample in any zone changes the result."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for z in self.zones:
                h.update(z.fingerprint().encode("ascii"))
            object.__setattr__(self, "_fingerprint", h.hexdigest())
        return self._fingerprint

    # -- slicing ----------------------------------------------------------

    def slice(self, t0: float, t1: float) -> "SpotPriceTrace":
        """Aligned sub-trace covering ``[t0, t1)`` across all zones."""
        return SpotPriceTrace(zones=tuple(z.slice(t0, t1) for z in self.zones))

    def window(self, t0: float, duration_s: float) -> "SpotPriceTrace":
        """Aligned sub-trace of ``duration_s`` seconds starting at ``t0``."""
        return self.slice(t0, t0 + duration_s)

    def select_zones(self, names: Sequence[str]) -> "SpotPriceTrace":
        """Sub-trace restricted to the given zones, in the given order."""
        return SpotPriceTrace(zones=tuple(self.zone(n) for n in names))

    def prices_at(self, t: float) -> dict[str, float]:
        """Spot price in force at ``t`` in every zone."""
        return {z.zone: z.price_at(t) for z in self.zones}

    def combined_availability(self, bid: float) -> float:
        """Fraction of samples during which *at least one* zone is ≤ bid.

        This is the "combined availability" bar of Figure 2: redundancy
        pays off exactly when this exceeds each zone's own availability.
        """
        return float(np.mean((self.matrix() <= bid).any(axis=0)))


def overlapping_starts(
    trace_duration_s: float,
    experiment_duration_s: float,
    count: int,
) -> np.ndarray:
    """Evenly spaced experiment start offsets with partial overlap.

    Section 5 runs 80 experiments over "partially overlapping chunks" of
    each volatility window.  We tile ``count`` starts uniformly over the
    feasible range ``[0, trace_duration - experiment_duration]`` and
    snap them to the 5-minute grid.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    span = trace_duration_s - experiment_duration_s
    if span < 0:
        raise ValueError(
            f"experiment ({experiment_duration_s} s) longer than trace "
            f"({trace_duration_s} s)"
        )
    raw = np.linspace(0.0, span, count)
    return np.floor(raw / SAMPLE_INTERVAL_S) * SAMPLE_INTERVAL_S

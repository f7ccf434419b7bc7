"""Market view and cached price-history oracle.

Policies never touch raw traces: they see a :class:`PriceOracle`,
which answers "what is the spot price of zone Z now", "what was the
trailing history", and the derived statistical questions (Markov
expected up time, stationary availability, mean up-run length) that
the Markov-Daly, Threshold, and Adaptive policies ask on every
scheduling decision.

The derived quantities are *cached per billing-hour bucket*: the
2-day history window slides by one sample every 5 minutes, which
changes the fitted Markov chain imperceptibly, but naively refitting
per query makes Adaptive (15 bids x 3 zone counts x policies, every 5
minutes) intractable.  Bucketing by hour keeps each experiment's
statistics fresh while letting the 80 overlapping experiments of each
evaluation window share almost all of the work.

Two cache layers exist:

* **Per-chain tables** live on :class:`PriceMarkovModel` — the
  stationary eigenvector and its prefix sums, per-start reachability and
  uptime tables, and the absorbing-chain solves are memoized on the
  fitted chain itself, so every consumer of the same bucket's model (and
  its refits at other price levels) shares them for free.
* **Per-oracle caches** map ``(zone, hour bucket[, price level])`` to
  fitted models and to the batch statistics arrays that
  :meth:`zone_stats` serves, and ``(bucket, zone sets, every zone's
  price level, bids)`` to the (zone set x bid) matrices that
  :meth:`zone_set_stats` serves, so the Adaptive grid, the per-policy
  scalar queries, and parallel sweep workers all hit the same entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.market.constants import MARKOV_HISTORY_S, SAMPLE_INTERVAL_S, bid_grid
from repro.stats.availability import mean_up_run_s
from repro.stats.markov import PriceMarkovModel, RollingMarkovFitter
from repro.traces.model import SpotPriceTrace, ZoneTrace


@dataclass
class PriceOracle:
    """Cached statistical view over one multi-zone price trace."""

    trace: SpotPriceTrace
    history_s: int = MARKOV_HISTORY_S
    #: Width of the statistics bucket, seconds.  ``None`` disables
    #: bucketing entirely: every query re-anchors the trailing window
    #: at its own timestamp and re-fits from scratch — the paper's
    #: literal per-decision protocol, kept as the reference (and
    #: benchmark baseline) for the bucketed production path.
    bucket_s: float | None = 3600.0
    #: Fit bucket chains through per-zone window fitters (one bincount
    #: per window over per-zone level ids, chains deduplicated by count
    #: signature) and re-condition intra-bucket refits via
    #: ``with_initial`` instead of refitting.
    #: Bit-identical to the full refit path (tests enforce it); keep
    #: switchable so differential suites can compare both.
    incremental: bool = True
    #: (zone, bucket) -> bucket Markov model.
    _markov_cache: dict = field(default_factory=dict, repr=False)
    #: (zone, bucket, level) -> model re-conditioned on an intra-bucket
    #: price level (the memoized refits of :meth:`_model_at_level`).
    _refit_cache: dict = field(default_factory=dict, repr=False)
    #: (zone, bucket, level, bids-key) -> (avail, rate, uptime) arrays.
    _zone_stats_cache: dict = field(default_factory=dict, repr=False)
    #: (bucket, zone sets, zone levels, bids-key) -> ZoneSetStats.
    _zone_set_cache: dict = field(default_factory=dict, repr=False)
    #: zone sets -> their :class:`_ZoneSetPlan`.
    _zone_set_plans: dict = field(default_factory=dict, repr=False)
    #: (zone, bucket, bid) -> empirical mean up-run seconds.
    _uprun_cache: dict = field(default_factory=dict, repr=False)
    #: (zone, i0, i1) -> min price over that exact sample range.
    _minprice_cache: dict = field(default_factory=dict, repr=False)
    #: zone -> window fitter holding the zone's level ids; it counts
    #: each bucket's trailing window with one bincount and dedups
    #: chains by count signature.
    _fitters: dict = field(default_factory=dict, repr=False)

    # -- raw prices -------------------------------------------------------

    @property
    def zone_names(self) -> tuple[str, ...]:
        return self.trace.zone_names

    def price(self, zone: str, t: float) -> float:
        """Spot price of ``zone`` in force at time ``t``."""
        return self.trace.zone(zone).price_at(t)

    def fingerprint(self) -> str:
        """Content hash of the underlying trace (run-cache identity).

        Every statistic this oracle serves is a deterministic pure
        function of the trace samples and the oracle's configuration
        (``history_s``, ``bucket_s``, ``incremental``) — the bucketed
        caches are query-order independent — so (trace fingerprint,
        configuration) fully identifies the oracle's observable
        behaviour.
        """
        return self.trace.fingerprint()

    def previous_price(self, zone: str, t: float) -> float:
        """Spot price one sample before ``t`` (clamped at trace start)."""
        z = self.trace.zone(zone)
        i = z.index_at(t)
        return float(z.prices[max(i - 1, 0)])

    def is_rising_edge(self, zone: str, t: float) -> bool:
        """True when the price moved upward at the sample covering ``t``.

        Served from the trace's cached rising-edge mask (one diff per
        trace) instead of two price lookups per query.
        """
        z = self.trace.zone(zone)
        return z.is_rising_edge_at(z.index_at(t))

    def _history_span(self, zone: str, t: float) -> tuple[int, int]:
        """Sample index range ``[i0, i1)`` of the trailing history."""
        z = self.trace.zone(zone)
        i1 = z.index_at(t)
        i0 = max(i1 - self.history_s // z.interval_s, 0)
        if i1 - i0 < 2:
            i1 = min(i0 + 2, len(z))
        return i0, i1

    def history(self, zone: str, t: float) -> np.ndarray:
        """Trailing price history of ``zone``: samples in ``[t - H, t)``.

        Clamped to the trace start; always contains at least two
        samples so the Markov fit is defined.
        """
        i0, i1 = self._history_span(zone, t)
        return self.trace.zone(zone).prices[i0:i1]

    def history_matrix(self, t: float) -> np.ndarray:
        """Trailing history of all zones, shape ``(samples, zones)``."""
        return np.column_stack([self.history(z, t) for z in self.zone_names])

    def min_price(self, zone: str, t: float) -> float:
        """Lowest price in the trailing history (Threshold's S_min).

        Cached by the exact sample range of the window, so the 80
        overlapping experiments querying the same absolute tick share
        one scan (the window slides one sample per tick, so the range
        identifies the window precisely — no bucket staleness).
        """
        key = (zone, *self._history_span(zone, t))
        value = self._minprice_cache.get(key)
        if value is None:
            value = float(self.history(zone, t).min())
            self._minprice_cache[key] = value
        return value

    # -- cached derived statistics -----------------------------------------

    def _bucket(self, t: float) -> float:
        if self.bucket_s is None:
            return float(t)
        return int(t // self.bucket_s)

    def stats_bucket(self, t: float) -> float:
        """Cache-key component identifying the statistics bucket of ``t``.

        Consumers that memoize per-decision statistics (Adaptive's
        controller-side caches) must key by this, not a hard-coded
        hour, so a reference oracle with ``bucket_s=None`` is never
        served stale hourly entries.
        """
        return self._bucket(t)

    def _anchor(self, t: float) -> float:
        """Measurement time of the hourly statistics: the bucket start.

        Anchoring the history window at the bucket boundary (instead of
        whatever tick happened to query first) makes every bucket-keyed
        cache entry a pure function of ``(zone, bucket)`` — the value no
        longer depends on query order, so sweep workers, the Adaptive
        grid, and both engine modes can seed the caches in any order
        and still agree bit for bit.

        With bucketing disabled (``bucket_s=None``) the anchor is the
        query time itself: statistics are re-measured per decision.
        """
        if self.bucket_s is None:
            return float(t)
        return int(t // self.bucket_s) * self.bucket_s

    def _fitter(self, zone: str) -> RollingMarkovFitter:
        fitter = self._fitters.get(zone)
        if fitter is None:
            fitter = RollingMarkovFitter(self.trace.zone(zone).prices)
            self._fitters[zone] = fitter
        return fitter

    def markov_model(self, zone: str, t: float) -> PriceMarkovModel:
        """Markov chain fitted on the trailing history, hourly refreshed.

        On the incremental path the zone's fitter counts the window
        with one bincount over per-zone level ids and dedups chains by
        count signature; the full-window ``PriceMarkovModel.fit``
        remains the reference and the two are bit-identical at every
        bucket boundary.
        """
        key = (zone, self._bucket(t))
        model = self._markov_cache.get(key)
        if model is None:
            anchor = self._anchor(t)
            if self.incremental:
                fitter = self._fitter(zone)
                fitter.set_window(*self._history_span(zone, anchor))
                model = fitter.model(self.price(zone, t))
            else:
                model = PriceMarkovModel.fit(
                    self.history(zone, anchor),
                    current_price=self.price(zone, t),
                )
            self._markov_cache[key] = model
        return model

    def _model_at_level(
        self, zone: str, t: float, level: float | None = None
    ) -> PriceMarkovModel:
        """The bucket model, re-conditioned on the current price level.

        The bucket model's initial state is the price at the bucket's
        first query; an intra-bucket price move must be honoured for
        the uptime prediction (the walk starts from *this* level).
        Refits are memoized by ``(zone, bucket, level)``; incrementally
        they are ``with_initial`` copies sharing the bucket chain's
        stationary vector, absorbing solves and per-start uptime tables
        — only the start state changes, so nothing else needs
        recomputing.  ``level`` is the price of ``zone`` at ``t`` when
        the caller already has it.
        """
        model = self.markov_model(zone, t)
        if level is None:
            level = float(self.price(zone, t))
        if level == float(model.levels[int(np.argmax(model.initial))]):
            return model
        key = (zone, self._bucket(t), level)
        refit = self._refit_cache.get(key)
        if refit is None:
            if self.incremental:
                refit = model.with_initial(level)
            else:
                refit = PriceMarkovModel.fit(
                    self.history(zone, self._anchor(t)), current_price=level
                )
            self._refit_cache[key] = refit
        return refit

    # -- batch statistics --------------------------------------------------

    def zone_stats(
        self, zone: str, t: float, bids: Sequence[float] | np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch statistics of one zone over a bid grid.

        Returns ``(availability, expected charged rate, expected
        uptime)`` — one array each, aligned with ``bids`` (default: the
        paper's 15-point grid).  The Markov chain is fitted once per
        ``(zone, hour bucket)``; the bids' up-counts are computed once
        and index the chain's cached stationary prefix sums and the
        level-conditioned model's uptime table (one absorbing solve per
        missing distinct reachable up set).  The scalar query methods
        read the same tables, so batch and scalar answers are identical
        to the last bit.
        """
        bids_arr = np.asarray(
            bid_grid() if bids is None else bids, dtype=np.float64
        )
        level = float(self.price(zone, t))
        key = (zone, self._bucket(t), level, bids_arr.tobytes())
        cached = self._zone_stats_cache.get(key)
        if cached is None:
            model = self.markov_model(zone, t)
            counts = model.up_counts(bids_arr)
            avail = model.availability_at_counts(counts)
            rate = model.price_given_up_at_counts(counts, bids_arr)
            uptime = self._model_at_level(zone, t, level).uptimes_at_counts(counts)
            for arr in (avail, rate, uptime):
                arr.setflags(write=False)
            cached = (avail, rate, uptime)
            self._zone_stats_cache[key] = cached
        return cached

    def zone_set_stats(
        self,
        zone_sets: tuple[tuple[str, ...], ...],
        t: float,
        bids: Sequence[float] | np.ndarray,
    ) -> "ZoneSetStats":
        """Adaptive's decision statistics over (zone set x bid) cells.

        Each zone's :meth:`zone_stats` is combined over every zone set:
        availability ``1 - prod(1 - a_z)``, summed expected up time and
        summed expected spot charge ``sum(a_z * r_z)``.  The result is a
        pure function of (bucket, every zone's price level at ``t``,
        bids, zone sets), so it is built once per such key and shared
        by every controller on this oracle that decides there.
        """
        bids_arr = np.asarray(bids, dtype=np.float64)
        plan = self._zone_set_plans.get(zone_sets)
        if plan is None:
            plan = self._zone_set_plans[zone_sets] = _ZoneSetPlan(zone_sets)
        key = (
            self._bucket(t), zone_sets,
            tuple([self.price(z, t) for z in plan.zones]), bids_arr.tobytes(),
        )
        stats = self._zone_set_cache.get(key)
        if stats is None:
            per_zone = {z: self.zone_stats(z, t, bids_arr) for z in plan.zones}
            stats = ZoneSetStats(per_zone, *plan.combine(per_zone))
            self._zone_set_cache[key] = stats
        return stats

    def zone_uptimes(
        self, zone: str, t: float, bids: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Expected up times for an arbitrary bid subset.

        The level-conditioned model's uptime table over up-counts is
        the cache, so querying a masked subset now and the rest later
        costs exactly the same solves as one full-grid call — and the
        values are bit-identical to :meth:`zone_stats`'s third array.
        """
        bids_arr = np.asarray(bids, dtype=np.float64)
        return self._model_at_level(zone, t).expected_uptime_batch(bids_arr)

    def combined_uptimes(
        self, zones: Sequence[str], t: float, bids: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Summed per-zone expected up times over a bid grid
        (Section 4.2's combination rule), one array entry per bid."""
        if not zones:
            raise ValueError("no zones supplied")
        bids_arr = np.asarray(bids, dtype=np.float64)
        total = np.zeros(bids_arr.size, dtype=np.float64)
        for zone in zones:
            total += self._model_at_level(zone, t).expected_uptime_batch(bids_arr)
        return total

    # -- scalar wrappers ---------------------------------------------------

    def expected_uptime(self, zone: str, t: float, bid: float) -> float:
        """Markov expected up time of ``zone`` at ``bid``, seconds."""
        return float(self._model_at_level(zone, t).expected_uptime(bid))

    def combined_expected_uptime(self, zones: list[str], t: float, bid: float) -> float:
        """Sum of per-zone expected up times (Section 4.2's combination)."""
        return float(self.combined_uptimes(zones, t, (bid,))[0])

    def availability(self, zone: str, t: float, bid: float) -> float:
        """Stationary probability that ``zone`` is up at ``bid``."""
        return float(self.markov_model(zone, t).availability(bid))

    def expected_price_given_up(self, zone: str, t: float, bid: float) -> float:
        """Stationary mean charged rate while up at ``bid``, $/hour."""
        return float(self.markov_model(zone, t).expected_price_given_up(bid))

    def mean_up_run(self, zone: str, t: float, bid: float) -> float:
        """Empirical mean up-run length over the trailing history, seconds.

        The Threshold policy's ``TimeThresh``.
        """
        key = (zone, self._bucket(t), float(bid))
        value = self._uprun_cache.get(key)
        if value is None:
            hist = self.history(zone, self._anchor(t))
            zt = ZoneTrace(zone=zone, start_time=0.0, prices=hist,
                           interval_s=SAMPLE_INTERVAL_S)
            value = mean_up_run_s(zt, bid)
            self._uprun_cache[key] = value
        return value

    def threshold_stats(self, zone: str, t: float, bid: float) -> tuple[float, float]:
        """The Threshold policy's two guards in one cached call:
        ``(S_min over the trailing history, mean up-run at bid)``."""
        return self.min_price(zone, t), self.mean_up_run(zone, t, bid)


@dataclass(frozen=True, eq=False)
class ZoneSetStats:
    """Per-zone and combined statistics at one decision key of
    :meth:`PriceOracle.zone_set_stats`.

    ``zones`` maps each zone to its :meth:`PriceOracle.zone_stats`
    arrays; ``avail``, ``uptime`` and ``rate`` are the (zone set, bid)
    matrices.  ``derived`` memoizes what consumers compute from these
    alone (Adaptive's progress-rate grids, keyed by their parameters).
    """

    zones: dict
    avail: np.ndarray
    uptime: np.ndarray
    rate: np.ndarray
    derived: dict = field(default_factory=dict, repr=False)


class _ZoneSetPlan:
    """How to reduce per-zone statistics over a tuple of zone sets.

    Each set's zones are reduced in set order, one zone position at a
    time across all sets long enough to have it, so every cell sees the
    same operations in the same order as a per-set loop would.
    """

    def __init__(self, zone_sets: tuple[tuple[str, ...], ...]) -> None:
        self.zones = tuple(dict.fromkeys(z for zs in zone_sets for z in zs))
        col = {z: i for i, z in enumerate(self.zones)}
        #: Zone index of each set's first zone.
        self.first = np.array([col[zs[0]] for zs in zone_sets])
        #: Per later position c: (sets with a zone at c, that zone's index).
        self.steps = []
        for c in range(1, max(len(zs) for zs in zone_sets)):
            rows = [i for i, zs in enumerate(zone_sets) if len(zs) > c]
            self.steps.append((
                np.array(rows), np.array([col[zone_sets[i][c]] for i in rows])
            ))

    def combine(self, per_zone: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(avail, uptime, rate) matrices, one row per zone set."""
        a_z = np.array([per_zone[z][0] for z in self.zones])
        u_z = np.array([per_zone[z][2] for z in self.zones])
        one_minus_z = 1.0 - a_z
        spot_z = a_z * np.array([per_zone[z][1] for z in self.zones])
        one_minus = one_minus_z[self.first]
        uptime = u_z[self.first]
        rate = spot_z[self.first]
        for rows, cols in self.steps:
            one_minus[rows] = one_minus[rows] * one_minus_z[cols]
            uptime[rows] = uptime[rows] + u_z[cols]
            rate[rows] = rate[rows] + spot_z[cols]
        avail = 1.0 - one_minus
        for arr in (avail, uptime, rate):
            arr.setflags(write=False)
        return avail, uptime, rate

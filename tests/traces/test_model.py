"""Unit tests for trace containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.market.constants import SAMPLE_INTERVAL_S
from repro.traces.model import (
    SpotPriceTrace,
    TraceError,
    ZoneTrace,
    overlapping_starts,
)


def zt(prices, start=0.0, zone="za"):
    return ZoneTrace(zone=zone, start_time=start, prices=np.asarray(prices, float))


class TestZoneTraceConstruction:
    def test_basic_properties(self):
        z = zt([0.3, 0.4, 0.5], start=1000.0)
        assert len(z) == 3
        assert z.start_time == 1000.0
        assert z.end_time == 1000.0 + 3 * SAMPLE_INTERVAL_S
        assert z.duration_s == 900.0

    def test_prices_are_read_only(self):
        z = zt([0.3, 0.4])
        with pytest.raises(ValueError):
            z.prices[0] = 1.0

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            zt([])

    def test_rejects_2d(self):
        with pytest.raises(TraceError):
            ZoneTrace(zone="za", start_time=0.0, prices=np.ones((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(TraceError):
            zt([0.3, float("nan")])

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(TraceError):
            zt([0.3, 0.0])
        with pytest.raises(TraceError):
            zt([0.3, -0.1])

    def test_rejects_bad_interval(self):
        with pytest.raises(TraceError):
            ZoneTrace(zone="za", start_time=0.0, prices=np.array([0.3]),
                      interval_s=0)


class TestZoneTraceLookups:
    def test_price_piecewise_constant(self):
        z = zt([0.3, 0.4])
        assert z.price_at(0.0) == 0.3
        assert z.price_at(299.9) == 0.3
        assert z.price_at(300.0) == 0.4
        assert z.price_at(599.9) == 0.4

    def test_price_outside_range(self):
        z = zt([0.3, 0.4])
        with pytest.raises(TraceError):
            z.price_at(-1.0)
        with pytest.raises(TraceError):
            z.price_at(600.0)

    def test_times_axis(self):
        z = zt([0.3, 0.4, 0.5], start=100.0)
        assert list(z.times) == [100.0, 400.0, 700.0]

    def test_slice_covers_requested_span(self):
        z = zt([0.1, 0.2, 0.3, 0.4, 0.5])
        s = z.slice(300.0, 900.0)
        assert list(s.prices) == [0.2, 0.3]
        assert s.start_time == 300.0

    def test_slice_snaps_right_edge_outward(self):
        z = zt([0.1, 0.2, 0.3])
        s = z.slice(0.0, 450.0)  # 450 lands mid-sample; include it
        assert list(s.prices) == [0.1, 0.2]

    def test_empty_slice_rejected(self):
        z = zt([0.1, 0.2])
        with pytest.raises(TraceError):
            z.slice(300.0, 300.0)

    def test_window(self):
        z = zt([0.1, 0.2, 0.3, 0.4])
        w = z.window(300.0, 600.0)
        assert list(w.prices) == [0.2, 0.3]


class TestZoneTraceStatistics:
    def test_mean_variance_min_max(self):
        z = zt([0.2, 0.4])
        assert z.mean() == pytest.approx(0.3)
        assert z.variance() == pytest.approx(0.01)
        assert z.minimum() == 0.2
        assert z.maximum() == 0.4

    def test_availability(self):
        z = zt([0.2, 0.4, 0.6, 0.8])
        assert z.availability(0.5) == pytest.approx(0.5)
        assert z.availability(0.1) == 0.0
        assert z.availability(1.0) == 1.0

    def test_availability_boundary_inclusive(self):
        z = zt([0.5])
        assert z.availability(0.5) == 1.0

    def test_rising_edges(self):
        z = zt([0.3, 0.3, 0.5, 0.4, 0.6])
        assert list(z.rising_edges()) == [2, 4]

    def test_distinct_prices_sorted(self):
        z = zt([0.5, 0.3, 0.5, 0.4])
        assert list(z.distinct_prices()) == [0.3, 0.4, 0.5]


class TestSpotPriceTrace:
    def _trace(self):
        return SpotPriceTrace.from_arrays(
            0.0, {"za": [0.3, 0.4], "zb": [0.5, 0.2]}
        )

    def test_alignment_checks(self):
        a = zt([0.3, 0.4], zone="za")
        b = zt([0.3, 0.4], start=300.0, zone="zb")
        with pytest.raises(TraceError):
            SpotPriceTrace(zones=(a, b))

    def test_length_mismatch_rejected(self):
        a = zt([0.3, 0.4], zone="za")
        b = zt([0.3], zone="zb")
        with pytest.raises(TraceError):
            SpotPriceTrace(zones=(a, b))

    def test_duplicate_zone_names_rejected(self):
        a = zt([0.3], zone="za")
        b = zt([0.4], zone="za")
        with pytest.raises(TraceError):
            SpotPriceTrace(zones=(a, b))

    def test_interval_mismatch_rejected(self):
        a = zt([0.3], zone="za")
        b = ZoneTrace(zone="zb", start_time=0.0, prices=np.array([0.4]),
                      interval_s=600)
        with pytest.raises(TraceError):
            SpotPriceTrace(zones=(a, b))

    def test_zone_lookup(self):
        t = self._trace()
        assert t.zone("zb").price_at(0.0) == 0.5
        with pytest.raises(TraceError):
            t.zone("nope")

    def test_matrix_shape(self):
        t = self._trace()
        assert t.matrix().shape == (2, 2)

    def test_prices_at(self):
        t = self._trace()
        assert t.prices_at(300.0) == {"za": 0.4, "zb": 0.2}

    def test_combined_availability(self):
        t = self._trace()
        # bid 0.35: sample 0 -> za up; sample 1 -> zb up => combined 1.0
        assert t.combined_availability(0.35) == 1.0
        # bid 0.25: sample 0 -> none; sample 1 -> zb => 0.5
        assert t.combined_availability(0.25) == 0.5

    def test_select_zones_order(self):
        t = self._trace()
        sel = t.select_zones(["zb"])
        assert sel.zone_names == ("zb",)

    def test_slice_aligned(self):
        t = SpotPriceTrace.from_arrays(
            0.0, {"za": [0.1, 0.2, 0.3], "zb": [0.4, 0.5, 0.6]}
        )
        s = t.slice(300.0, 900.0)
        assert len(s) == 2
        assert s.zone("zb").price_at(300.0) == 0.5

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            SpotPriceTrace(zones=())


class TestOverlappingStarts:
    def test_spacing_and_count(self):
        starts = overlapping_starts(100 * 3600, 23 * 3600, 10)
        assert len(starts) == 10
        assert starts[0] == 0.0
        assert starts[-1] <= (100 - 23) * 3600

    def test_snapped_to_grid(self):
        starts = overlapping_starts(50 * 3600, 23 * 3600, 7)
        assert all(s % SAMPLE_INTERVAL_S == 0 for s in starts)

    def test_single_start(self):
        starts = overlapping_starts(24 * 3600, 23 * 3600, 1)
        assert list(starts) == [0.0]

    def test_too_long_experiment_rejected(self):
        with pytest.raises(ValueError):
            overlapping_starts(10 * 3600, 23 * 3600, 5)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            overlapping_starts(100 * 3600, 23 * 3600, 0)


class TestSliceBoundaries:
    def trace(self):
        return ZoneTrace(zone="za", start_time=1000.0,
                         prices=np.array([0.3, 0.5, 0.4, 0.8, 0.2, 0.6]),
                         interval_s=300)

    def test_window_start_exactly_on_sample(self):
        z = self.trace()
        w = z.window(1000.0 + 2 * 300, 2 * 300)
        assert w.start_time == 1600.0
        assert np.array_equal(w.prices, np.array([0.4, 0.8]))

    def test_window_past_trace_end_clamps(self):
        z = self.trace()
        w = z.window(1000.0 + 4 * 300, 10 * 300)  # runs past the end
        assert np.array_equal(w.prices, np.array([0.2, 0.6]))
        assert w.end_time == z.end_time

    def test_zero_length_window_rejected(self):
        z = self.trace()
        with pytest.raises(TraceError):
            z.window(1000.0, 0.0)
        with pytest.raises(TraceError):
            z.slice(1300.0, 1300.0)

    def test_mid_sample_start_snaps_to_covering_sample(self):
        z = self.trace()
        w = z.window(1000.0 + 2 * 300 + 150, 300)
        assert w.start_time == 1600.0  # the sample covering t0
        assert w.prices[0] == 0.4


class TestDerivedCacheIsolation:
    """Slices must never inherit the parent's memoized indices."""

    def trace(self):
        return ZoneTrace(zone="za", start_time=0.0,
                         prices=np.array([0.3, 0.5, 0.3, 0.5, 0.3, 0.5, 0.3]),
                         interval_s=300)

    def test_slice_gets_fresh_cache(self):
        z = self.trace()
        parent_crossings = z.threshold_crossings(0.4)
        parent_edges = z.rising_edges()
        w = z.slice(2 * 300, 6 * 300)
        assert w._derived == {}  # nothing leaked from the parent
        assert np.array_equal(w.threshold_crossings(0.4),
                              np.flatnonzero(np.diff(w.prices <= 0.4)) + 1)
        assert w.threshold_crossings(0.4) is not parent_crossings
        assert w.rising_edges() is not parent_edges

    def test_slice_indices_are_local(self):
        z = self.trace()
        z.threshold_crossings(0.4)
        w = z.slice(300, 7 * 300)  # shifted by one sample
        # same price pattern flips at different *local* indices, so a
        # parent-cache leak would corrupt every crossing lookup
        assert not np.array_equal(
            w.threshold_crossings(0.4), z.threshold_crossings(0.4)
        )
        assert np.array_equal(
            w.threshold_crossings(0.4),
            np.flatnonzero(np.diff(w.prices <= 0.4)) + 1,
        )

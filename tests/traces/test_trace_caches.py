"""Memoized derived arrays on trace objects.

The engine's fast path, the Edge/Threshold policies and the figures all
lean on the per-trace caches added for segment skipping: the price
matrix, the rising-edge index/mask, and per-threshold crossing indices.
These tests pin down (a) the cached values against naive recomputation
and (b) the memoization contract itself — same object back, read-only,
and excluded from trace equality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.model import SpotPriceTrace, ZoneTrace

PRICES = [0.30, 0.30, 0.45, 0.45, 0.70, 0.30, 0.30, 0.95, 0.95, 0.20]


def _zone(prices=PRICES):
    return ZoneTrace(zone="za", start_time=0.0,
                     prices=np.asarray(prices, dtype=np.float64))


price_arrays = st.lists(
    st.sampled_from([0.20, 0.30, 0.45, 0.70, 0.95, 1.20]),
    min_size=2, max_size=60,
)


class TestMatrixMemoization:
    def test_same_object_returned(self):
        t = SpotPriceTrace.from_arrays(
            0.0, {"za": PRICES, "zb": PRICES[::-1]}
        )
        assert t.matrix() is t.matrix()

    def test_values_and_readonly(self):
        t = SpotPriceTrace.from_arrays(
            0.0, {"za": PRICES, "zb": PRICES[::-1]}
        )
        m = t.matrix()
        assert np.array_equal(
            m, np.vstack([t.zone("za").prices, t.zone("zb").prices])
        )
        assert not m.flags.writeable


class TestRisingEdgeCache:
    def test_cached_identity(self):
        z = _zone()
        assert z.rising_edges() is z.rising_edges()
        assert not z.rising_edges().flags.writeable

    def test_mask_matches_pairwise_comparison(self):
        z = _zone()
        assert z.is_rising_edge_at(0) is False  # no earlier sample
        for i in range(1, len(z)):
            expected = bool(z.prices[i] > z.prices[i - 1])
            assert z.is_rising_edge_at(i) == expected

    @given(prices=price_arrays)
    @settings(max_examples=50, deadline=None)
    def test_next_rising_edge_matches_scan(self, prices):
        z = _zone(prices)
        edges = set(z.rising_edges().tolist())
        for i in range(len(z)):
            naive = next(
                (j for j in range(i + 1, len(z)) if j in edges), len(z)
            )
            assert z.next_rising_edge(i) == naive


class TestThresholdCrossingCache:
    def test_cached_per_theta(self):
        z = _zone()
        assert z.threshold_crossings(0.5) is z.threshold_crossings(0.5)
        assert z.threshold_crossings(0.5) is not z.threshold_crossings(0.8)

    @given(
        prices=price_arrays,
        theta=st.sampled_from([0.25, 0.50, 0.80, 1.50]),
    )
    @settings(max_examples=50, deadline=None)
    def test_crossings_are_availability_flips(self, prices, theta):
        z = _zone(prices)
        up = z.prices <= theta
        expected = [i for i in range(1, len(z)) if up[i] != up[i - 1]]
        assert z.threshold_crossings(theta).tolist() == expected
        for i in range(len(z)):
            naive = next((j for j in expected if j > i), len(z))
            assert z.next_threshold_crossing(i, theta) == naive


class TestCacheIsInvisible:
    def test_repr_hides_populated_caches(self):
        z = _zone()
        z.rising_edges()
        z.threshold_crossings(0.5)
        z.is_rising_edge_at(3)
        assert "_derived" not in repr(z)
        assert "crossings" not in repr(z)

    def test_slices_get_fresh_caches(self):
        z = _zone()
        z.rising_edges()
        sub = z.slice(0.0, 5 * 300.0)
        assert list(sub.rising_edges()) == [
            i for i in range(1, len(sub))
            if sub.prices[i] > sub.prices[i - 1]
        ]

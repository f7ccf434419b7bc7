"""The rolling-window fitter must be invisible in the fitted chains.

``RollingMarkovFitter`` counts each window with one ``bincount`` over
per-series level ids and feeds the counts through
``PriceMarkovModel.fit``'s float pipeline, so every window position
must yield the *bit-identical* model a full refit of the same samples
produces — same levels, same transition matrix, same stationary
vector.  These tests sweep real evaluation-window zones and randomized
series through overlapping slides, shrinks, grows, disjoint jumps and
interleaved revisits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.constants import MARKOV_HISTORY_S, SAMPLE_INTERVAL_S
from repro.stats.markov import MarkovError, PriceMarkovModel, RollingMarkovFitter


def assert_same_chain(incremental: PriceMarkovModel, full: PriceMarkovModel):
    """Bit-identical fit: exact array equality, not approximate."""
    assert np.array_equal(incremental.levels, full.levels)
    assert np.array_equal(incremental.trans, full.trans)
    assert np.array_equal(incremental.initial, full.initial)
    assert incremental.fit_window_s == full.fit_window_s
    assert np.array_equal(incremental.stationary(), full.stationary())


def reference(prices, lo, hi, current_price):
    return PriceMarkovModel.fit(prices[lo:hi], current_price=current_price)


class TestBucketSlides:
    """The oracle's actual access pattern: hourly bucket advances."""

    @pytest.mark.parametrize("window", ["low", "high"])
    def test_every_bucket_boundary_matches_full_fit(self, window):
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window(window)
        history = MARKOV_HISTORY_S // SAMPLE_INTERVAL_S
        per_hour = 3600 // SAMPLE_INTERVAL_S
        for zone in trace.zones:
            prices = zone.prices
            fitter = RollingMarkovFitter(prices)
            i0 = zone.index_at(eval_start)
            # Two days of hourly advances is plenty to cross many
            # distinct chains on the volatile window.
            for hour in range(48):
                hi = i0 + hour * per_hour
                lo = max(hi - history, 0)
                hi = max(hi, lo + 2)
                fitter.set_window(lo, hi)
                current = float(prices[hi - 1])
                assert_same_chain(
                    fitter.model(current), reference(prices, lo, hi, current)
                )

    @pytest.mark.parametrize("window", ["low", "high"])
    def test_interleaved_far_apart_buckets(self, window):
        # Rows of one vector batch sit at trace times far apart and
        # share one fitter per zone, so consecutive windows often do
        # not overlap at all, and a window is revisited after others.
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window(window)
        history = MARKOV_HISTORY_S // SAMPLE_INTERVAL_S
        per_hour = 3600 // SAMPLE_INTERVAL_S
        zone = trace.zones[0]
        prices = zone.prices
        fitter = RollingMarkovFitter(prices)
        i0 = zone.index_at(eval_start)
        first_visit = {}
        for hour in (0, 40, 3, 37, 0, 40):
            hi = i0 + hour * per_hour
            lo = hi - history
            fitter.set_window(lo, hi)
            current = float(prices[hi - 1])
            assert_same_chain(
                fitter.model(current), reference(prices, lo, hi, current)
            )
            # Conditioned on the cheapest level the model is the
            # memoized chain itself, not a ``with_initial`` copy.
            base = fitter.model(float(prices[lo:hi].min()))
            assert first_visit.setdefault(hour, base) is base

    def test_calm_stretch_dedups_chain_objects(self):
        prices = np.array([0.3, 0.4] * 300)
        fitter = RollingMarkovFitter(prices)
        fitter.set_window(0, 100)
        m1 = fitter.model(0.3)
        fitter.set_window(2, 102)  # same transition multiset
        m2 = fitter.model(0.3)
        assert m2 is m1  # one chain object, shared caches and all


class TestWindowMoves:
    PRICES = np.array(
        [0.3, 0.3, 0.5, 0.3, 0.9, 0.9, 0.3, 0.5, 0.5, 0.3, 0.7, 0.3] * 8
    )

    def check(self, fitter, lo, hi):
        fitter.set_window(lo, hi)
        current = float(self.PRICES[hi - 1])
        assert_same_chain(
            fitter.model(current), reference(self.PRICES, lo, hi, current)
        )

    def test_grow_right(self):
        fitter = RollingMarkovFitter(self.PRICES)
        for hi in range(2, 40):
            self.check(fitter, 0, hi)

    def test_shrink_left_and_right(self):
        fitter = RollingMarkovFitter(self.PRICES)
        self.check(fitter, 0, 60)
        self.check(fitter, 10, 60)  # advance lo
        self.check(fitter, 10, 40)  # retract hi
        self.check(fitter, 5, 45)   # move lo back
        self.check(fitter, 5, 50)   # extend hi again

    def test_disjoint_jump_rebuilds(self):
        fitter = RollingMarkovFitter(self.PRICES)
        self.check(fitter, 0, 20)
        self.check(fitter, 50, 90)  # no overlap with the last window
        self.check(fitter, 51, 91)  # then an overlapping slide

    def test_same_window_is_a_noop(self):
        fitter = RollingMarkovFitter(self.PRICES)
        self.check(fitter, 0, 30)
        before = fitter.model(0.3)
        fitter.set_window(0, 30)
        assert fitter.window == (0, 30)
        assert fitter.model(0.3) is before

    def test_out_of_range_window_rejected(self):
        fitter = RollingMarkovFitter(self.PRICES)
        with pytest.raises(MarkovError):
            fitter.set_window(-1, 10)
        with pytest.raises(MarkovError):
            fitter.set_window(0, self.PRICES.size + 1)
        with pytest.raises(MarkovError):
            fitter.set_window(10, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.5])
    def test_bad_price_rejected_at_construction(self, bad):
        prices = self.PRICES.copy()
        prices[7] = bad
        with pytest.raises(MarkovError, match="finite and positive"):
            RollingMarkovFitter(prices)

    def test_too_small_window_rejected_at_materialize(self):
        fitter = RollingMarkovFitter(self.PRICES)
        fitter.set_window(3, 4)
        with pytest.raises(MarkovError):
            fitter.model(0.3)


@settings(deadline=None, max_examples=60)
@given(
    seq=st.lists(
        st.sampled_from([0.25, 0.4, 0.55, 0.9, 1.3]), min_size=24, max_size=96
    ),
    moves=st.lists(
        st.tuples(st.integers(0, 90), st.integers(2, 40)),
        min_size=1,
        max_size=8,
    ),
)
def test_random_series_random_slides_bit_identical(seq, moves):
    prices = np.array(seq)
    fitter = RollingMarkovFitter(prices)
    for lo, span in moves:
        lo = min(lo, prices.size - 2)
        hi = min(lo + span, prices.size)
        if hi - lo < 2:
            continue
        fitter.set_window(lo, hi)
        current = float(prices[hi - 1])
        assert_same_chain(
            fitter.model(current), reference(prices, lo, hi, current)
        )


class TestInitialCopies:
    def test_stationary_shared_with_initial_copies(self):
        prices = np.array([0.3, 0.5, 0.3, 0.9, 0.3, 0.5] * 20)
        m = PriceMarkovModel.fit(prices)
        clone = m.with_initial(0.9)
        assert clone is not m
        v = clone.stationary()
        assert m.stationary() is v  # one chain-scoped eigendecomposition
        assert np.array_equal(v, PriceMarkovModel.fit(prices).stationary())

"""Unit tests for the cached price oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.market.spot_market import PriceOracle
from repro.traces.model import SpotPriceTrace


def oracle_with(prices_a, prices_b=None):
    arrays = {"za": prices_a}
    if prices_b is not None:
        arrays["zb"] = prices_b
    trace = SpotPriceTrace.from_arrays(0.0, arrays)
    return PriceOracle(trace, history_s=1200)


class TestRawLookups:
    def test_price(self):
        o = oracle_with([0.3, 0.4, 0.5])
        assert o.price("za", 0.0) == 0.3
        assert o.price("za", 600.0) == 0.5

    def test_previous_price_clamped_at_start(self):
        o = oracle_with([0.3, 0.4])
        assert o.previous_price("za", 0.0) == 0.3
        assert o.previous_price("za", 300.0) == 0.3

    def test_rising_edge(self):
        o = oracle_with([0.3, 0.4, 0.4, 0.2])
        assert not o.is_rising_edge("za", 0.0)
        assert o.is_rising_edge("za", 300.0)
        assert not o.is_rising_edge("za", 600.0)
        assert not o.is_rising_edge("za", 900.0)

    def test_history_is_trailing_window(self):
        o = oracle_with([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        hist = o.history("za", 6 * 300.0)  # history_s=1200 -> 4 samples
        assert list(hist) == [0.3, 0.4, 0.5, 0.6]

    def test_history_clamped_and_min_two(self):
        o = oracle_with([0.1, 0.2, 0.3])
        hist = o.history("za", 0.0)
        assert len(hist) >= 2

    def test_min_price_over_history(self):
        o = oracle_with([0.9, 0.1, 0.5, 0.6, 0.7, 0.8])
        assert o.min_price("za", 5 * 300.0) == 0.1

    def test_history_matrix_columns_per_zone(self):
        o = oracle_with([0.1, 0.2, 0.3, 0.4, 0.5],
                        [1.1, 1.2, 1.3, 1.4, 1.5])
        m = o.history_matrix(4 * 300.0)
        assert m.shape == (4, 2)
        assert m[0, 1] == 1.1


class TestDerivedStatistics:
    def _cycling_oracle(self):
        # alternating cheap/expensive: well-defined stationary behaviour
        prices = np.tile([0.3, 0.3, 0.3, 1.0], 50)
        return oracle_with(list(prices))

    def test_expected_uptime_positive_when_up(self):
        o = self._cycling_oracle()
        t = 120 * 300.0  # price 0.3 at t (index 120 % 4 == 0)
        up = o.expected_uptime("za", t, 0.5)
        assert up > 0

    def test_expected_uptime_zero_when_down(self):
        o = self._cycling_oracle()
        t = 123 * 300.0  # index 123 -> price 1.0 > bid
        assert o.expected_uptime("za", t, 0.5) == 0.0

    def test_expected_uptime_monotone_in_bid(self):
        o = self._cycling_oracle()
        t = 120 * 300.0
        low = o.expected_uptime("za", t, 0.5)
        high = o.expected_uptime("za", t, 1.5)
        assert high >= low

    def test_combined_uptime_is_sum(self):
        o = oracle_with(list(np.tile([0.3, 1.0], 100)),
                        list(np.tile([0.3, 1.0], 100)))
        t = 100 * 300.0
        single = o.expected_uptime("za", t, 0.5)
        combined = o.combined_expected_uptime(["za", "zb"], t, 0.5)
        assert combined == pytest.approx(
            single + o.expected_uptime("zb", t, 0.5)
        )

    def test_combined_requires_zones(self):
        o = self._cycling_oracle()
        with pytest.raises(ValueError):
            o.combined_expected_uptime([], 300.0, 0.5)

    def test_availability_matches_history_fraction(self):
        o = self._cycling_oracle()
        t = 120 * 300.0
        av = o.availability("za", t, 0.5)
        assert av == pytest.approx(0.75, abs=0.1)

    def test_expected_price_between_bounds(self):
        o = self._cycling_oracle()
        t = 120 * 300.0
        price = o.expected_price_given_up("za", t, 0.5)
        assert 0.25 <= price <= 0.5

    def test_expected_price_fallback_when_never_up(self):
        o = self._cycling_oracle()
        t = 120 * 300.0
        assert o.expected_price_given_up("za", t, 0.05) == pytest.approx(0.05)

    def test_mean_up_run(self):
        o = self._cycling_oracle()
        t = 120 * 300.0
        # runs of three cheap samples: 900 s
        assert o.mean_up_run("za", t, 0.5) == pytest.approx(900.0, rel=0.35)

    def test_markov_model_cached_per_hour_bucket(self):
        o = self._cycling_oracle()
        m1 = o.markov_model("za", 40 * 300.0)
        m2 = o.markov_model("za", 41 * 300.0)  # same hour bucket
        assert m1 is m2
        m3 = o.markov_model("za", 52 * 300.0)  # next bucket
        # The cycling trace repeats, so the next bucket's window has the
        # identical transition multiset and the rolling fitter dedups
        # the chain — same object by design.  A separate cache entry
        # exists per bucket, and a reference (non-incremental) oracle
        # refits a distinct object with the same values.
        assert len({k for k in o._markov_cache if k[0] == "za"}) == 2
        assert np.array_equal(m3.trans, m1.trans)
        ref = PriceOracle(o.trace, history_s=o.history_s, incremental=False)
        r1 = ref.markov_model("za", 40 * 300.0)
        r3 = ref.markov_model("za", 52 * 300.0)
        assert r3 is not r1
        assert np.array_equal(r1.trans, m1.trans)


class TestIncrementalOracleDifferential:
    """The incremental refit path must be invisible in the statistics."""

    def test_matches_full_refit_oracle_on_evaluation_window(self):
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window("low")
        inc = PriceOracle(trace)  # incremental=True (default)
        ref = PriceOracle(trace, incremental=False)
        for hours in (0, 5, 26, 49):
            t = eval_start + hours * 3600.0
            for zone in trace.zone_names:
                for got, want in zip(
                    inc.zone_stats(zone, t), ref.zone_stats(zone, t)
                ):
                    assert np.array_equal(got, want)

    def test_cheap_and_uptime_views_match_zone_stats(self):
        from repro.market.constants import bid_grid
        from repro.traces.library import evaluation_window

        trace, eval_start = evaluation_window("low")
        o = PriceOracle(trace)
        t = eval_start + 26 * 3600.0
        for zone in trace.zone_names:
            u = o.zone_stats(zone, t)[2]
            assert np.array_equal(u, o.zone_uptimes(zone, t, bid_grid()))
            # arbitrary subset: same solves, same values
            subset = bid_grid()[3:7]
            assert np.array_equal(u[3:7], o.zone_uptimes(zone, t, subset))

    def test_unbucketed_reference_refits_per_decision(self):
        prices = [0.3, 0.3, 0.5, 0.3] * 40
        trace = SpotPriceTrace.from_arrays(0.0, {"za": prices})
        o = PriceOracle(trace, history_s=1200, bucket_s=None,
                        incremental=False)
        t = 40 * 300.0
        assert o.stats_bucket(t) == t  # the query time itself, not an hour
        m1 = o.markov_model("za", t)
        m2 = o.markov_model("za", t + 300.0)
        assert m1 is not m2  # every decision gets its own fit
        # the incremental oracle dedups the identical cycling windows
        # into one chain object — same values either way
        inc = PriceOracle(trace, history_s=1200, bucket_s=None)
        assert np.array_equal(inc.markov_model("za", t).trans, m1.trans)

"""Batch ``zone_stats`` vs the scalar oracle statistics.

The batch API must be a pure vectorization: for every bid on the paper
grid, over both volatility windows, the arrays it returns agree with
the scalar ``availability`` / ``expected_price_given_up`` /
``expected_uptime`` calls exactly.  A separate check recomputes the
stationary distribution with a fresh eigendecomposition, so the cumsum
fast path is validated against linear algebra done outside the cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.market.constants import bid_grid
from repro.market.spot_market import PriceOracle
from repro.traces.library import evaluation_window

WINDOWS = ("low", "high")

#: Probe times: spread through the evaluation span so several distinct
#: hour buckets (and therefore several cached models) are exercised.
PROBE_HOURS = (0.0, 5.5, 26.0, 121.0)


@pytest.fixture(scope="module", params=WINDOWS)
def window_oracle(request):
    trace, eval_start = evaluation_window(request.param)
    return PriceOracle(trace), eval_start, trace.zone_names


def probe_times(eval_start: float):
    return [eval_start + h * 3600.0 for h in PROBE_HOURS]


class TestBatchScalarEquivalence:
    def test_availability_matches_scalar(self, window_oracle):
        oracle, eval_start, zones = window_oracle
        bids = bid_grid()
        for t in probe_times(eval_start):
            for zone in zones:
                avail, _, _ = oracle.zone_stats(zone, t, bids)
                scalar = [oracle.availability(zone, t, b) for b in bids]
                np.testing.assert_array_equal(avail, scalar)

    def test_price_given_up_matches_scalar(self, window_oracle):
        oracle, eval_start, zones = window_oracle
        bids = bid_grid()
        for t in probe_times(eval_start):
            for zone in zones:
                _, rate, _ = oracle.zone_stats(zone, t, bids)
                scalar = [
                    oracle.expected_price_given_up(zone, t, b) for b in bids
                ]
                np.testing.assert_array_equal(rate, scalar)

    def test_uptime_matches_scalar(self, window_oracle):
        oracle, eval_start, zones = window_oracle
        bids = bid_grid()
        for t in probe_times(eval_start):
            for zone in zones:
                _, _, uptime = oracle.zone_stats(zone, t, bids)
                scalar = [oracle.expected_uptime(zone, t, b) for b in bids]
                np.testing.assert_array_equal(uptime, scalar)

    def test_combined_uptimes_sum_per_zone(self, window_oracle):
        oracle, eval_start, zones = window_oracle
        bids = bid_grid()[:5]
        t = probe_times(eval_start)[1]
        combined = oracle.combined_uptimes(zones, t, bids)
        expected = [
            sum(oracle.expected_uptime(z, t, b) for z in zones) for b in bids
        ]
        np.testing.assert_array_equal(combined, expected)


class TestAgainstFreshEig:
    """Guard the cached-cumsum path with out-of-band linear algebra."""

    def test_availability_equals_fresh_stationary_mass(self, window_oracle):
        oracle, eval_start, zones = window_oracle
        bids = bid_grid()
        t = probe_times(eval_start)[0]
        for zone in zones:
            model = oracle.markov_model(zone, t)
            evals, evecs = np.linalg.eig(model.trans.T)
            i = int(np.argmin(np.abs(evals - 1.0)))
            pi = np.abs(np.real(evecs[:, i]))
            pi = pi / pi.sum()
            avail, _, _ = oracle.zone_stats(zone, t, bids)
            for j, bid in enumerate(bids):
                mass = float(pi[model.levels <= bid].sum())
                assert avail[j] == pytest.approx(mass, abs=1e-12)


class TestCaching:
    def test_refit_memoized_within_bucket(self):
        from repro.traces.model import SpotPriceTrace

        # The bucket model is anchored at the bucket boundary (price
        # 0.3 here), so an uptime query at the mid-hour level 0.5 must
        # re-condition the chain on the new level — and must do so
        # exactly once per (bucket, level).
        prices = [0.3] * 4 + [0.5] * 4 + [0.3] * 16
        trace = SpotPriceTrace.from_arrays(0.0, {"za": np.array(prices)})
        oracle = PriceOracle(trace, history_s=1200)

        oracle.expected_uptime("za", 900.0, 0.81)  # price 0.3 = anchor level
        assert len(oracle._refit_cache) == 0
        first = oracle.expected_uptime("za", 1500.0, 0.81)  # price 0.5
        assert len(oracle._refit_cache) == 1
        again = oracle.expected_uptime("za", 2000.0, 0.81)  # still 0.5
        assert len(oracle._refit_cache) == 1  # memoized, not refit
        assert again == first

    def test_zone_stats_arrays_cached_and_immutable(self, window_oracle):
        oracle, eval_start, zones = window_oracle
        zone = zones[0]
        t = eval_start + 7.0 * 3600.0
        bids = bid_grid()
        first = oracle.zone_stats(zone, t, bids)
        again = oracle.zone_stats(zone, t + 60.0, bids)
        for a, b in zip(first, again):
            assert a is b  # same hour bucket -> one cached entry
            with pytest.raises(ValueError):
                a[0] = -1.0

    def test_default_bids_are_paper_grid(self, window_oracle):
        oracle, eval_start, zones = window_oracle
        t = eval_start
        explicit = oracle.zone_stats(zones[0], t, bid_grid())
        default = oracle.zone_stats(zones[0], t)
        for a, b in zip(explicit, default):
            np.testing.assert_array_equal(a, b)

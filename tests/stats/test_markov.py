"""Unit and property tests for the Markov uptime model (Appendix B)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.markov import (
    MarkovError,
    PriceMarkovModel,
    combined_expected_uptime,
)


def two_state_model(p_fail: float, step_s: float = 300.0) -> PriceMarkovModel:
    """Cheap state (0.3) that fails to expensive (1.0) w.p. p_fail."""
    levels = np.array([0.3, 1.0])
    trans = np.array([[1.0 - p_fail, p_fail], [0.5, 0.5]])
    initial = np.array([1.0, 0.0])
    return PriceMarkovModel(levels=levels, trans=trans, initial=initial,
                            step_s=step_s)


class TestFit:
    def test_levels_are_distinct_prices(self):
        prices = np.array([0.3, 0.4, 0.3, 0.5, 0.3])
        m = PriceMarkovModel.fit(prices, smoothing=0.0)
        assert list(m.levels) == [0.3, 0.4, 0.5]

    def test_transition_rows_stochastic(self):
        prices = np.array([0.3, 0.4, 0.3, 0.5, 0.3, 0.3])
        m = PriceMarkovModel.fit(prices)
        assert np.allclose(m.trans.sum(axis=1), 1.0)

    def test_counts_reflected(self):
        prices = np.array([0.3, 0.3, 0.3, 0.4])
        m = PriceMarkovModel.fit(prices, smoothing=0.0)
        # from 0.3: two self-transitions, one to 0.4
        i = list(m.levels).index(0.3)
        j = list(m.levels).index(0.4)
        assert m.trans[i, i] == pytest.approx(2 / 3)
        assert m.trans[i, j] == pytest.approx(1 / 3)

    def test_initial_points_at_current_price(self):
        prices = np.array([0.3, 0.4, 0.5])
        m = PriceMarkovModel.fit(prices, current_price=0.4)
        assert m.initial[list(m.levels).index(0.4)] == 1.0

    def test_nearest_level_when_current_unobserved(self):
        prices = np.array([0.3, 0.5, 0.3, 0.5])
        m = PriceMarkovModel.fit(prices, current_price=0.49)
        assert m.initial[list(m.levels).index(0.5)] == 1.0

    def test_last_sample_level_not_absorbing(self):
        # 0.9 appears only as the final sample: without backoff its row
        # would be empty/absorbing
        prices = np.array([0.3, 0.4, 0.3, 0.4, 0.9])
        m = PriceMarkovModel.fit(prices, smoothing=0.0)
        i = list(m.levels).index(0.9)
        assert m.trans[i].sum() == pytest.approx(1.0)
        assert m.trans[i, i] < 1.0

    def test_too_short_history_rejected(self):
        with pytest.raises(MarkovError):
            PriceMarkovModel.fit(np.array([0.3]))

    def test_bad_smoothing_rejected(self):
        with pytest.raises(MarkovError):
            PriceMarkovModel.fit(np.array([0.3, 0.4]), smoothing=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.3])
    def test_bad_price_rejected(self, bad):
        with pytest.raises(MarkovError, match="finite and positive"):
            PriceMarkovModel.fit(np.array([0.3, bad, 0.3, 0.5]))

    def test_fit_window_recorded(self):
        prices = np.full(10, 0.3)
        prices[5] = 0.4
        m = PriceMarkovModel.fit(prices)
        assert m.fit_window_s == 10 * 300.0


class TestExpectedUptime:
    def test_geometric_failure_exact(self):
        # from the cheap state, failure each step w.p. p: E[steps] = 1/p
        for p in (0.5, 0.1, 0.02):
            m = two_state_model(p)
            assert m.expected_uptime(0.5) == pytest.approx(300.0 / p, rel=1e-9)

    def test_zero_when_currently_down(self):
        m = two_state_model(0.1)
        object.__setattr__(m, "initial", np.array([0.0, 1.0]))
        assert m.expected_uptime(0.5) == 0.0

    def test_zero_when_no_up_states(self):
        m = two_state_model(0.1)
        assert m.expected_uptime(0.1) == 0.0

    def test_cap_when_never_terminates(self):
        m = two_state_model(0.0)
        assert m.expected_uptime(0.5) == m.UPTIME_CAP_S

    def test_fit_window_caps_estimate(self):
        # 20 samples of constant price: chain never exits; cap = window
        prices = np.full(20, 0.3)
        prices[0] = 0.31  # two levels so fit works
        m = PriceMarkovModel.fit(prices)
        assert m.expected_uptime(0.5) == 20 * 300.0

    def test_monotone_in_bid(self):
        rng = np.random.default_rng(0)
        prices = np.round(rng.choice([0.3, 0.5, 0.9, 1.5], size=400), 2)
        m = PriceMarkovModel.fit(prices)
        uptimes = [m.expected_uptime(b) for b in (0.3, 0.5, 0.9, 1.5)]
        assert uptimes == sorted(uptimes)

    def test_exact_matches_iterative(self):
        rng = np.random.default_rng(1)
        prices = rng.choice([0.3, 0.4, 0.6, 1.2], size=300)
        m = PriceMarkovModel.fit(prices)
        for bid in (0.35, 0.5, 0.8):
            exact = m.expected_uptime(bid)
            iterative = m.expected_uptime_iterative(bid, max_steps=20_000)
            assert exact == pytest.approx(iterative, rel=0.01)


@given(p_fail=st.floats(min_value=0.02, max_value=0.9))
@settings(max_examples=30)
def test_uptime_matches_geometric_closed_form(p_fail):
    m = two_state_model(p_fail)
    assert m.expected_uptime(0.5) == pytest.approx(300.0 / p_fail, rel=1e-6)


@given(
    seq=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.4]), min_size=20,
                 max_size=200),
    bid=st.sampled_from([0.4, 0.6, 1.0]),
)
@settings(max_examples=30, deadline=None)
def test_exact_equals_iterative_on_random_histories(seq, bid):
    m = PriceMarkovModel.fit(np.array(seq))
    exact = m.expected_uptime(bid)
    iterative = m.expected_uptime_iterative(bid, max_steps=50_000)
    if exact < m._uptime_cap():
        assert exact == pytest.approx(iterative, rel=0.02)


class TestStationaryQueries:
    def test_availability_in_unit_interval(self):
        m = two_state_model(0.2)
        assert 0.0 <= m.availability(0.5) <= 1.0

    def test_expected_price_given_up(self):
        m = two_state_model(0.2)
        assert m.expected_price_given_up(0.5) == pytest.approx(0.3)


class TestCombined:
    def test_sum_of_zone_uptimes(self):
        models = [two_state_model(0.1), two_state_model(0.2)]
        combined = combined_expected_uptime(models, 0.5)
        assert combined == pytest.approx(300.0 / 0.1 + 300.0 / 0.2)

    def test_empty_rejected(self):
        with pytest.raises(MarkovError):
            combined_expected_uptime([], 0.5)

    def test_redundancy_never_decreases_uptime(self):
        one = combined_expected_uptime([two_state_model(0.3)], 0.5)
        three = combined_expected_uptime([two_state_model(0.3)] * 3, 0.5)
        assert three >= one


class TestValidation:
    def test_bad_transition_shape(self):
        with pytest.raises(MarkovError):
            PriceMarkovModel(
                levels=np.array([0.3, 0.4]),
                trans=np.ones((3, 3)) / 3,
                initial=np.array([1.0, 0.0]),
            )

    def test_nonstochastic_rows(self):
        with pytest.raises(MarkovError):
            PriceMarkovModel(
                levels=np.array([0.3, 0.4]),
                trans=np.array([[0.5, 0.4], [0.5, 0.5]]),
                initial=np.array([1.0, 0.0]),
            )

    def test_initial_must_sum_to_one(self):
        with pytest.raises(MarkovError):
            PriceMarkovModel(
                levels=np.array([0.3, 0.4]),
                trans=np.eye(2),
                initial=np.array([0.5, 0.4]),
            )

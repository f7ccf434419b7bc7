"""Unit and property tests for Daly's checkpoint-interval formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.daly import (
    daly_interval,
    daly_interval_batch,
    daly_interval_first_order,
    expected_useful_fraction,
)


class TestDalyInterval:
    def test_known_value(self):
        # delta=300, M=36000: sqrt(2*300*36000)*(1+sqrt(300/72000)/3
        # + 300/(18*36000)) - 300
        delta, m = 300.0, 36000.0
        expected = math.sqrt(2 * delta * m) * (
            1 + math.sqrt(delta / (2 * m)) / 3 + delta / (18 * m)
        ) - delta
        assert daly_interval(m, delta) == pytest.approx(expected)

    def test_degenerate_regime_uses_mtbf(self):
        # delta >= 2M: tau = M
        assert daly_interval(100.0, 300.0) == pytest.approx(300.0)

    def test_zero_mtbf_checkpoints_constantly(self):
        assert daly_interval(0.0, 300.0) == 300.0

    def test_never_below_checkpoint_cost(self):
        assert daly_interval(10.0, 300.0) >= 300.0

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError):
            daly_interval(1000.0, 0.0)

    def test_higher_order_exceeds_first_order(self):
        m, delta = 36000.0, 300.0
        assert daly_interval(m, delta) > daly_interval_first_order(m, delta)

    def test_first_order_known_value(self):
        assert daly_interval_first_order(36000.0, 300.0) == pytest.approx(
            math.sqrt(2 * 300 * 36000) - 300
        )


@given(m=st.floats(min_value=600.0, max_value=1e7),
       delta=st.floats(min_value=1.0, max_value=3600.0))
def test_interval_monotone_in_mtbf(m, delta):
    assert daly_interval(m * 2, delta) >= daly_interval(m, delta) - 1e-6


@given(m=st.floats(min_value=600.0, max_value=1e7),
       delta=st.floats(min_value=1.0, max_value=3600.0))
def test_interval_positive_and_finite(m, delta):
    tau = daly_interval(m, delta)
    assert math.isfinite(tau)
    assert tau >= delta


@given(
    mtbfs=st.lists(
        st.one_of(
            st.floats(min_value=-1e4, max_value=0.0),
            st.floats(min_value=1e-3, max_value=1e8),
        ),
        min_size=1, max_size=16,
    ),
    delta=st.floats(min_value=1e-3, max_value=1e5),
)
def test_batch_is_bit_identical_to_scalar(mtbfs, delta):
    """The vector form equals the scalar form bit for bit, across
    ``m <= 0``, ``delta >= 2m`` and Daly's regime — Adaptive's candidate
    grid relies on it."""
    got = daly_interval_batch(np.array(mtbfs), delta)
    want = np.array([daly_interval(m, delta) for m in mtbfs])
    assert got.tobytes() == want.tobytes()


class TestUsefulFraction:
    def test_in_unit_interval(self):
        assert 0.0 <= expected_useful_fraction(36000.0, 300.0, 3300.0) <= 1.0

    def test_zero_mtbf_means_no_progress(self):
        assert expected_useful_fraction(0.0, 300.0, 3300.0) == 0.0

    def test_large_mtbf_approaches_overhead_limit(self):
        frac = expected_useful_fraction(1e9, 300.0, 3300.0)
        assert frac == pytest.approx(3300.0 / 3600.0, rel=1e-3)

    def test_optimal_interval_beats_extremes(self):
        m, delta = 36000.0, 300.0
        tau_opt = daly_interval(m, delta)
        best = expected_useful_fraction(m, delta, tau_opt)
        assert best >= expected_useful_fraction(m, delta, tau_opt / 8)
        assert best >= expected_useful_fraction(m, delta, tau_opt * 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_useful_fraction(1000.0, 300.0, 0.0)
        with pytest.raises(ValueError):
            expected_useful_fraction(1000.0, -1.0, 300.0)


@given(m=st.floats(min_value=1000.0, max_value=1e6),
       delta=st.floats(min_value=10.0, max_value=1000.0),
       interval=st.floats(min_value=10.0, max_value=1e5))
def test_useful_fraction_bounded(m, delta, interval):
    frac = expected_useful_fraction(m, delta, interval)
    assert 0.0 <= frac <= 1.0

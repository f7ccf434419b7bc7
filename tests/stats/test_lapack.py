"""The direct LAPACK gufunc calls, pinned bit for bit to ``np.linalg``.

:mod:`repro.stats.lapack` calls NumPy's private ``_umath_linalg``
gufuncs and re-implements the post-processing of ``np.linalg.solve``
and ``np.linalg.eig``.  If a NumPy release changes those gufuncs or
that post-processing, these tests fail instead of the Markov statistics
drifting silently.  Matrices are drawn the way the Markov fits make
them: sparse stochastic chains (and their up-state sub-blocks, which
are sub-stochastic), including closed classes whose ``I - Q`` is
singular.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats import lapack
from repro.stats.markov import PriceMarkovModel


@st.composite
def sparse_stochastic(draw, max_size: int = 24):
    """A row-stochastic matrix with random zero entries; rows may be
    one-hot, which makes absorbing states and closed classes."""
    n = draw(st.integers(1, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) * (rng.random((n, n)) < density)
    for i in np.flatnonzero(m.sum(axis=1) == 0.0).tolist():
        m[i, rng.integers(n)] = 1.0
    return m / m.sum(axis=1, keepdims=True)


def _reference_solve(q: np.ndarray):
    r = q.shape[0]
    try:
        x = np.linalg.solve(np.eye(r) - q, np.ones(r))
    except np.linalg.LinAlgError:
        return None
    return x if np.isfinite(x).all() else None


def _same(a, b) -> bool:
    """Bit-identical arrays (NaN-aware), same dtype and shape."""
    return (
        a.dtype == b.dtype and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


@given(trans=sparse_stochastic(), cut=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
@example(trans=np.array([[1.0]]), cut=1.0)  # absorbing: I - Q = 0
@example(trans=np.array([[0.0, 1.0], [1.0, 0.0]]), cut=1.0)  # closed pair
def test_absorbing_solve_matches_np_linalg_solve(trans, cut):
    n = trans.shape[0]
    r = max(1, int(round(cut * n)))
    q = trans[:r, :r]
    got = lapack.absorbing_solve(q)
    want = _reference_solve(q)
    if want is None:
        assert got is None
    else:
        assert got is not None and _same(got, want)


@given(trans=sparse_stochastic())
@settings(max_examples=300, deadline=None)
@example(trans=np.array([[0.0, 1.0], [1.0, 0.0]]))  # eigenvalues ±1
@example(trans=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
def test_eig_matches_np_linalg_eig(trans):
    # the stationary vector is a left eigenvector: eig of the transpose
    for a in (trans.T, trans):
        w_got, v_got = lapack.eig(a)
        w_want, v_want = np.linalg.eig(a)
        assert _same(w_got, w_want)
        assert _same(v_got, v_want)


def test_closed_classes_give_none():
    # the up set {0, 1} never leaves itself: I - Q is singular
    trans = np.array([
        [0.5, 0.5, 0.0],
        [0.5, 0.5, 0.0],
        [0.2, 0.3, 0.5],
    ])
    assert lapack.absorbing_solve(trans[:2, :2]) is None
    assert lapack.absorbing_solve(trans) is None
    x = lapack.absorbing_solve(trans[2:, 2:])
    assert x is not None and x[0] == 2.0


def test_eig_rejects_non_finite_input():
    with pytest.raises(np.linalg.LinAlgError):
        lapack.eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_with_initial_copy_equals_copy_copy():
    """The hand-built ``with_initial`` copy is what ``copy.copy`` plus
    the three field updates made: every field equal, arrays and the
    chain tables shared."""
    prices = np.array([0.3, 0.3, 0.5, 0.3, 0.7, 0.5, 0.3, 0.3, 0.5, 0.7])
    base = PriceMarkovModel.fit(prices, current_price=0.3)
    base.expected_uptime_batch(np.array([0.4, 0.6]))  # fill tables
    clone = base.with_initial(0.7)

    ref = copy.copy(base)
    object.__setattr__(ref, "initial", clone.initial)
    object.__setattr__(ref, "_start", 2)
    object.__setattr__(ref, "_uptimes", None)

    assert type(clone) is type(base)
    assert clone.__dict__.keys() == ref.__dict__.keys()
    for name, value in ref.__dict__.items():
        assert clone.__dict__[name] is value, name
    assert clone._chain is base._chain
    assert clone.levels is base.levels and clone.trans is base.trans
    assert clone.initial.tolist() == [0.0, 0.0, 1.0]
    assert base.initial.tolist() == [1.0, 0.0, 0.0]  # untouched
    refit = PriceMarkovModel.fit(prices, current_price=0.7)
    bids = np.array([0.3, 0.4, 0.6, 0.8])
    assert (clone.expected_uptime_batch(bids).tobytes()
            == refit.expected_uptime_batch(bids).tobytes())

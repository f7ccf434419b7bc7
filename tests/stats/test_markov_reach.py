"""Differential: the table-served uptime path against a tiny DFS reference.

The production path finds each up-count's reachable up set with one
bottleneck-path pass per (chain, start) and shares absorbing solves by
reachable set.  The reference below is the textbook formulation: a
depth-first search from the initial support over positive-probability
edges into states below the up-count, then one dense solve of
``p0 (I - Q)^{-1} 1`` on that set.  Un-smoothed and random sparse chains
give sparse adjacency, reachable sets that are not level prefixes and
closed classes that hit the cap; non-point-mass initial vectors take the
dense contraction.  Every uptime must match bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.markov import PriceMarkovModel


def dfs_reachable(trans: np.ndarray, sources, k: int) -> np.ndarray:
    """Up states (ids < k) reachable from ``sources`` (all < k)."""
    seen = set(sources)
    stack = list(sources)
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(trans[i] > 0.0).tolist():
            if j < k and j not in seen:
                seen.add(j)
                stack.append(j)
    return np.array(sorted(seen), dtype=np.intp)


def reference_uptime(model: PriceMarkovModel, k: int) -> float:
    """Expected up time with the ``k`` cheapest levels up, seconds."""
    if k <= 0:
        return 0.0
    up_mask = np.zeros(model.num_states, dtype=bool)
    up_mask[:k] = True
    p0_full = model.initial * up_mask
    alive = float(p0_full.sum())
    if alive <= 0.0:
        return 0.0
    cap = model._uptime_cap()
    reachable = dfs_reachable(
        model.trans, np.flatnonzero(p0_full > 0).tolist(), k
    )
    q = model.trans[np.ix_(reachable, reachable)]
    if np.all(q.sum(axis=1) > 1.0 - 1e-12):
        return cap
    n = reachable.size
    try:
        x = np.linalg.solve(np.eye(n) - q, np.ones(n))
    except np.linalg.LinAlgError:
        return cap
    steps = float((p0_full[reachable] / alive) @ x)
    if not np.isfinite(steps) or steps < 0:
        return cap
    return float(min(steps * model.step_s, cap))


def assert_matches_reference(model: PriceMarkovModel) -> list[float]:
    n = model.num_states
    want = [reference_uptime(model, k) for k in range(n + 1)]
    # Reachable sets of every up-count from one bottleneck pass.
    m = model._reach()[0]
    sources = np.flatnonzero(model.initial > 0.0).tolist()
    for k in range(1, n + 1):
        live = [s for s in sources if s < k]
        if live:
            np.testing.assert_array_equal(
                np.flatnonzero(m < k), dfs_reachable(model.trans, live, k)
            )
    # Descending order fills the table differently from ascending.
    got = model.uptimes_at_counts(np.arange(n, -1, -1))[::-1]
    assert got.tolist() == want
    assert [model.expected_uptime(b) for b in bid_for_counts(model)] == want
    return want


def bid_for_counts(model: PriceMarkovModel) -> list[float]:
    """One bid per up-count 0..n (below, at, ... the sorted levels)."""
    return [float(model.levels[0]) / 2.0] + model.levels.tolist()


@st.composite
def sparse_chains(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edges = draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n
    ))
    weights = draw(st.lists(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ))
    w = np.array(weights) * np.array(edges)
    empty = w.sum(axis=1) == 0.0
    w[empty, empty.nonzero()[0]] = 1.0  # an empty row becomes absorbing
    trans = w / w.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        initial = np.zeros(n)
        initial[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    else:
        mass = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n
        )))
        if mass.sum() == 0.0:
            mass[-1] = 1.0
        initial = mass / mass.sum()
    return PriceMarkovModel(
        levels=np.arange(1, n + 1) * 0.1, trans=trans, initial=initial,
        fit_window_s=draw(st.sampled_from([None, 6000.0])),
    )


@given(model=sparse_chains())
@settings(max_examples=150, deadline=None)
def test_sparse_chains_match_dfs_reference(model):
    assert_matches_reference(model)


@given(
    seq=st.lists(st.sampled_from([0.3, 0.4, 0.5, 0.8, 1.4]), min_size=3,
                 max_size=60),
    current=st.sampled_from([0.3, 0.4, 0.5, 0.8, 1.4]),
    spread=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_unsmoothed_fits_match_dfs_reference(seq, current, spread):
    model = PriceMarkovModel.fit(np.array(seq), current_price=current,
                                 smoothing=0.0)
    assert_matches_reference(model)
    # Refits of the chain share its tables and must not be perturbed
    # by what the first start state filled in.
    for level in model.levels.tolist():
        assert_matches_reference(model.with_initial(level))
    if spread and model.num_states > 1:
        initial = np.full(model.num_states, 1.0 / model.num_states)
        assert_matches_reference(PriceMarkovModel(
            levels=model.levels, trans=model.trans, initial=initial,
            fit_window_s=model.fit_window_s,
        ))


class TestCoverage:
    """The generators above reach the paths a smoothed fit never does."""

    def chain(self, trans, initial):
        trans = np.array(trans, dtype=float)
        return PriceMarkovModel(
            levels=np.arange(1, len(trans) + 1) * 0.1, trans=trans,
            initial=np.array(initial, dtype=float), fit_window_s=6000.0,
        )

    def test_non_prefix_reachable_set(self):
        # 0 -> 2 only, so with three levels up state 1 is unreachable.
        model = self.chain(
            [[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5],
             [0.5, 0.0, 0.0, 0.5], [0.25, 0.25, 0.25, 0.25]],
            [1.0, 0.0, 0.0, 0.0],
        )
        assert np.flatnonzero(model._reach()[0] < 3).tolist() == [0, 2]
        want = assert_matches_reference(model)
        assert 0.0 < want[3] < model._uptime_cap()

    def test_reachable_closed_class_hits_cap(self):
        # From 0 the walk can enter the closed class {1}.
        model = self.chain(
            [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
            [1.0, 0.0, 0.0],
        )
        want = assert_matches_reference(model)
        assert want[2] == model._uptime_cap()

    def test_dense_initial_over_two_classes(self):
        model = self.chain(
            [[0.5, 0.0, 0.5], [0.0, 0.75, 0.25], [0.4, 0.3, 0.3]],
            [0.5, 0.5, 0.0],
        )
        want = assert_matches_reference(model)
        assert 0.0 < want[1] < want[2] < model._uptime_cap()

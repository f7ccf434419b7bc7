"""Markov model of spot-price movements (paper Appendix B).

The model discretizes the recent price history of a zone into its
distinct price levels (the state space), estimates a transition matrix
``TRANS`` between consecutive 5-minute samples, and propagates a
probability row-vector ``PROB`` through a censored Chapman–Kolmogorov
recurrence (Equation 2): at each step, states whose price exceeds the
bid are zeroed (the instance would be terminated there), so the
surviving mass is the probability the instance is still up.

The expected up time (Equation 3) is the discrete survival-time mean

    E[T_u] = sum_k k * P(terminated exactly at step k)

iterated until it is stable at seconds granularity.

For N zones with (near-)independent prices, Section 4.2 combines the
zones by summing their individual expected up times.

Levels are sorted, so a bid only matters through its up-count k (the k
cheapest levels keep the instance up).  Every statistic is served from
tables shared by all ``with_initial`` copies of a fitted chain
(:class:`_ChainTables`): the stationary vector and its prefix sums give
availability and expected rate for any k; one bottleneck-path pass over
the chain's adjacency per start state gives the reachable up set of
every k at once; and each start state's uptime table over k is filled
lazily with one absorbing solve per distinct reachable set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.market.constants import SAMPLE_INTERVAL_S
from repro.stats import lapack


class MarkovError(ValueError):
    """Raised for degenerate price histories."""


@dataclass(frozen=True)
class PriceMarkovModel:
    """Discrete Markov chain over a zone's distinct price levels.

    Attributes
    ----------
    levels:
        Sorted distinct prices observed in the history window.
    trans:
        Row-stochastic transition matrix between levels at 5-minute lag.
    initial:
        Probability row-vector for the current state; by default a
        point mass on the most recent observed price.
    step_s:
        Seconds per Markov step (the sampling interval).
    """

    levels: np.ndarray
    trans: np.ndarray
    initial: np.ndarray
    step_s: float = float(SAMPLE_INTERVAL_S)
    #: Length of the history window the chain was fitted on, seconds.
    #: An expected up time cannot be statistically justified beyond the
    #: window it was estimated from, so it is capped here.
    fit_window_s: float | None = None
    # ``levels`` is sorted, so every bid maps to an *up-state count* k
    # (the k cheapest levels keep the instance up) and every statistic
    # of a bid depends only on k.  Chain-scoped tables (stationary
    # vector, prefix sums, adjacency, absorbing solves, per-start uptime
    # tables) live on :class:`_ChainTables`, shared by every
    # ``with_initial`` copy of the chain.
    _chain: "_ChainTables" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: This model's expected uptime per up-count (NaN = not solved
    #: yet); a point-mass model's table is its chain's table for that
    #: start state.
    _uptimes: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Point-mass start state (-1 when ``initial`` is not a point
    #: mass), found on first use.
    _start: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = self.levels.size
        if n == 0:
            raise MarkovError("empty state space")
        if self.trans.shape != (n, n):
            raise MarkovError(
                f"transition matrix shape {self.trans.shape} != ({n}, {n})"
            )
        if self.initial.shape != (n,):
            raise MarkovError(f"initial vector shape {self.initial.shape} != ({n},)")
        # max-abs checks with np.allclose's effective tolerance
        # (atol=1e-9 plus the default rtol of 1e-5 against 1.0), kept
        # cheap because every Markov fit runs through here.  Written as
        # ``not err <= tol`` so a NaN or infinite entry, which makes its
        # sum NaN or infinite, fails them too.
        tol = 1e-5 + 1e-9
        rows = np.add.reduce(self.trans, axis=1)
        if not float(np.maximum.reduce(np.abs(rows - 1.0))) <= tol:
            raise MarkovError("transition matrix rows must sum to 1")
        if not abs(float(np.add.reduce(self.initial)) - 1.0) <= tol:
            raise MarkovError("initial vector must sum to 1")
        object.__setattr__(self, "_chain", _ChainTables(self.trans))

    @property
    def num_states(self) -> int:
        return int(self.levels.size)

    # ------------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        prices: np.ndarray,
        current_price: float | None = None,
        step_s: float = float(SAMPLE_INTERVAL_S),
        smoothing: float | None = None,
    ) -> "PriceMarkovModel":
        """Estimate the chain from a price history window.

        Parameters
        ----------
        prices:
            The trailing price history (Section 5 uses 2 days = 576
            samples), oldest first.
        current_price:
            Price to condition the initial state on; defaults to the
            last history sample.  If it is not one of the observed
            levels, the nearest level is used.
        smoothing:
            Every row is mixed with the marginal next-state
            distribution at this weight: ``(1-s)*empirical +
            s*marginal``.  A finite history inevitably leaves some
            rare level's row with no observed path to a termination
            state; un-smoothed, such closed classes make the expected
            up time diverge on sampling noise alone.  Default:
            ``1 / (2 * number of transitions)`` — half a pseudo-count,
            negligible against observed structure.

        Raises :class:`MarkovError` if any price is NaN, infinite, zero
        or negative.
        """
        prices = np.asarray(prices, dtype=np.float64)
        if prices.ndim != 1 or prices.size < 2:
            raise MarkovError("need at least two samples to fit transitions")
        _check_prices(prices)
        levels, inverse = np.unique(prices, return_inverse=True)
        n = levels.size
        counts = np.bincount(inverse[:-1] * n + inverse[1:], minlength=n * n)
        if current_price is None:
            current_price = float(prices[-1])
        start = int(np.argmin(np.abs(levels - current_price)))
        return cls._from_counts(
            levels, counts, prices.size, start, step_s, smoothing
        )

    @classmethod
    def _from_counts(
        cls,
        levels: np.ndarray,
        counts: np.ndarray,
        n_samples: int,
        start: int,
        step_s: float,
        smoothing: float | None = None,
    ) -> "PriceMarkovModel":
        """The chain of a window from its integer transition counts.

        ``counts`` is the flat ``n*n`` bincount of (from, to) level-id
        pairs over a window of ``n_samples`` samples whose sorted
        distinct prices are ``levels``; ``start`` is the initial
        state.  This is the one count → chain float pipeline: equal
        counts give bit-identical chains, whoever counted them.
        """
        if smoothing is None:
            smoothing = 1.0 / (2.0 * max(n_samples - 1, 1))
        if not (0.0 <= smoothing < 1.0):
            raise MarkovError(f"smoothing must be in [0, 1), got {smoothing}")
        n = levels.size
        counts = counts.reshape(n, n).astype(np.float64)
        row_sums = np.add.reduce(counts, axis=1, keepdims=True)
        trans = np.where(row_sums > 0, counts / np.where(row_sums == 0, 1, row_sums), 0.0)
        marginal = np.add.reduce(counts, axis=0)
        total = np.add.reduce(marginal)
        marginal = marginal / total if total > 0 else np.full(n, 1.0 / n)
        # Rows with no observed outgoing transition (a level appearing
        # only as the very last sample) back off to the marginal.
        empty = (row_sums[:, 0] == 0).nonzero()[0]
        if empty.size:
            trans[empty] = marginal
        if smoothing > 0.0:
            trans = (1.0 - smoothing) * trans + smoothing * marginal[np.newaxis, :]
        initial = np.zeros(n)
        initial[start] = 1.0
        return cls(levels=levels, trans=trans, initial=initial, step_s=step_s,
                   fit_window_s=n_samples * step_s)

    def with_initial(self, current_price: float) -> "PriceMarkovModel":
        """A copy of this chain conditioned on ``current_price``.

        Re-anchoring the initial state is the *only* thing a
        per-(zone, bucket, level) refit changes: the window — and
        therefore the levels, the transition matrix and every statistic
        derived from them — is identical.  The copy shares this chain's
        ``levels``/``trans`` arrays and its chain-scoped tables
        (:class:`_ChainTables`), so stationary vectors, absorbing solves
        and per-start uptime tables computed through any copy are
        visible to all of them.

        Bit-identical to ``PriceMarkovModel.fit`` on the same window
        with the new ``current_price``: the start state is the same
        nearest-level ``argmin`` and the point-mass solve reproduces the
        dense ``p0 @ x`` contraction exactly.
        """
        start = int(np.abs(self.levels - current_price).argmin())
        if self._start_state() == start:
            return self
        initial = np.zeros(self.num_states)
        initial[start] = 1.0
        # A shallow copy (what ``copy.copy`` builds, without its
        # dispatch): the chain was validated when it was built.
        clone = object.__new__(type(self))
        clone.__dict__.update(
            self.__dict__, initial=initial, _start=start, _uptimes=None
        )
        return clone

    # ------------------------------------------------------------------

    def up_mask(self, bid: float) -> np.ndarray:
        """Indicator ``I(i) = 1`` iff level i keeps the instance up (P_i <= B)."""
        return (self.levels <= bid).astype(np.float64)

    def up_count(self, bid: float) -> int:
        """Number of up states at ``bid``: levels are sorted, so the up
        set is always the ``k`` cheapest levels."""
        return int(self.levels.searchsorted(bid, side="right"))

    def up_counts(self, bids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`up_count` over a bid grid."""
        return self.levels.searchsorted(
            np.asarray(bids, dtype=np.float64), side="right"
        )

    #: Absolute expected-uptime cap for chains whose up-states are
    #: absorbing (the censored walk never terminates): 30 days.  When
    #: the chain was fitted from data, the fit window length is the
    #: effective (smaller) cap.
    UPTIME_CAP_S: float = 30 * 24 * 3600.0

    def _uptime_cap(self) -> float:
        if self.fit_window_s is not None:
            return float(min(self.UPTIME_CAP_S, self.fit_window_s))
        return self.UPTIME_CAP_S

    def expected_uptime(self, bid: float) -> float:
        """Expected up time in seconds at bid ``bid`` (Appendix B, Eq. 3).

        The censored Chapman–Kolmogorov recurrence of Equation 2 zeroes
        the probability mass of every over-bid state after each step;
        Equation 3 sums ``k * P(first termination at step k)``.  That
        series has the exact closed form of an absorbing Markov chain:
        with ``Q`` the transition sub-matrix among up states and ``p0``
        the initial distribution conditioned on being up,

            E[steps up] = p0^T (I - Q)^{-1} 1

        which we evaluate with one linear solve instead of iterating
        Equation 2 to its horizon ``Th`` (identical result, and fast
        enough for Adaptive's per-permutation queries).  If the up
        states form an absorbing class (``I - Q`` singular: at this
        bid the chain can never terminate), the expected up time is
        truncated at :attr:`UPTIME_CAP_S`.

        Answers come from the model's uptime table over up-counts
        (:meth:`uptimes_at_counts`), so scalar and batch queries share
        every solve.
        """
        return float(self._uptime_at(self.up_count(bid)))

    def expected_uptime_batch(self, bids: np.ndarray) -> np.ndarray:
        """Expected up time for every bid of a grid, seconds.

        Bids selecting the same up-state set (the same count of
        cheapest levels) share one table entry; on the paper's 15-point
        grid against a trailing window with a handful of distinct price
        levels this collapses 15 solves into 2-4.
        """
        return self.uptimes_at_counts(self.up_counts(bids))

    def uptimes_at_counts(self, counts: np.ndarray) -> np.ndarray:
        """Expected up time per up-count of ``counts``, seconds.

        Served from the uptime table, which is filled lazily, one
        absorbing solve (at most) per missing distinct count.
        """
        for k in set(counts.tolist()):
            self._uptime_at(k)
        return self._uptimes[counts]

    def _uptime_at(self, k: int) -> float:
        """Table entry for up-count ``k``, solved on first use."""
        table = self._uptimes
        if table is None:
            table = self._uptime_table()
        value = table[k]
        if math.isnan(value):
            value = table[k] = self._solve_uptime(k)
        return value

    def _start_state(self) -> int:
        """Start state when ``initial`` is an exact point mass, else -1."""
        s = self._start
        if s is None:
            nz = self.initial.nonzero()[0]
            s = int(nz[0]) if nz.size == 1 and self.initial[nz[0]] == 1.0 else -1
            object.__setattr__(self, "_start", s)
        return s

    def _uptime_table(self) -> np.ndarray:
        """This model's uptime table over up-counts ``0..n``.

        Up-count 0 (and, from a point mass at state s, every count up to
        s: the walk starts over the bid) has zero expected up time.
        """
        s = self._start_state()
        chain = self._chain
        table = chain.uptimes.get(s) if s >= 0 else None
        if table is None:
            table = np.full(self.num_states + 1, np.nan)
            table[: max(s, 0) + 1] = 0.0
            if s >= 0:
                chain.uptimes[s] = table
        object.__setattr__(self, "_uptimes", table)
        return table

    def _reach(self) -> tuple[np.ndarray, list, list]:
        """Per state j, the least possible highest state ``m[j]`` on a
        path from the initial support to j (``n`` when no path exists),
        with ``m`` sorted and its running maximum.

        Up sets are prefixes, so the up states reachable from the
        initial support when the ``k`` cheapest levels are up are
        exactly ``{j : m[j] < k}`` — one bottleneck-path pass over the
        chain's adjacency serves every up-count.  Point-mass models
        share the entry per (chain, start state).
        """
        s = self._start_state()
        chain = self._chain
        entry = chain.reach.get(s) if s >= 0 else None
        if entry is None:
            n = self.num_states
            sources = (self.initial > 0.0).nonzero()[0]
            m = np.full(n, n)
            m[sources] = sources
            # Entering j over an edge costs max(path so far, j).
            hop = chain.hop()
            while True:
                nxt = np.minimum(
                    m, np.minimum.reduce(np.maximum(m[:, None], hop), axis=0)
                )
                if (nxt == m).all():
                    break
                m = nxt
            entry = (m, np.sort(m).tolist(), np.maximum.accumulate(m).tolist())
            if s >= 0:
                chain.reach[s] = entry
        return entry

    def _solve_uptime(self, k: int) -> float:
        """One absorbing-chain evaluation for the up set = ``k`` cheapest
        levels, restricted to the up states reachable from the initial
        distribution: an unreachable closed class elsewhere in the
        history would otherwise make (I - Q) singular even though the
        censored walk from *here* terminates in finite expected time.

        The solve depends only on the reachable set, so it is shared
        across every start state and up-count that reach the same set
        (:meth:`_ChainTables.solve`).  For a point mass ``e_s`` the
        contraction ``p0 @ x`` is ``x[s]`` when every component of ``x``
        is finite, and NaN (→ cap) when any component is not, which is
        what the shared entry's cap encodes.
        """
        s = self._start_state()
        if s < 0:
            up_mask = np.zeros(self.num_states, dtype=bool)
            up_mask[:k] = True
            p0_full = self.initial * up_mask
            alive = float(p0_full.sum())
            if alive <= 0.0:
                return 0.0
        m, m_sorted, m_max = self._reach()
        r = bisect_left(m_sorted, k)  # |{j : m[j] < k}| >= 1
        # Nearly always the reachable set is the prefix 0..r-1.
        reachable = None if m_max[r - 1] < k else (m < k).nonzero()[0]
        x = self._chain.solve(r, reachable)
        cap = self._uptime_cap()
        if x is None:
            return cap
        if s >= 0:
            pos = s if reachable is None else int(reachable.searchsorted(s))
            steps = float(x[pos])
        else:
            p0 = p0_full[:r] if reachable is None else p0_full[reachable]
            steps = float((p0 / alive) @ x)
            if not np.isfinite(steps):
                return cap
        if steps < 0:
            return cap
        return float(min(steps * self.step_s, cap))

    def expected_uptime_iterative(
        self,
        bid: float,
        max_steps: int = 4096,
    ) -> float:
        """Reference implementation iterating Equation 2 literally.

        Used in tests to validate :meth:`expected_uptime`; O(max_steps
        * n^2), so not for production queries.
        """
        up = self.up_mask(bid)
        prob = self.initial * up
        alive = float(prob.sum())
        if alive <= 0.0:
            return 0.0
        prob = prob / alive
        expected_steps = 0.0
        for k in range(1, max_steps + 1):
            prob = prob @ self.trans
            dead = float((prob * (1.0 - up)).sum())
            expected_steps += k * dead
            prob = prob * up
            if float(prob.sum()) <= 1e-12:
                break
        expected_steps += max_steps * float(prob.sum())
        return min(expected_steps * self.step_s, self._uptime_cap())

    def stationary(self) -> np.ndarray:
        """Asymptotic state distribution of the chain, cached.

        The left eigenvector of ``trans`` at eigenvalue 1, normalized
        to a probability vector.  Computed once per chain: the
        eigendecomposition is the dominant cost of every availability
        and expected-rate query, and it is identical for all of them.
        """
        chain = self._chain
        v = chain.stationary
        if v is None:
            evals, evecs = lapack.eig(self.trans.T)
            i = int(np.abs(evals - 1.0).argmin())
            v = np.abs(evecs[:, i].real)
            total = np.add.reduce(v)
            if total <= 0:
                raise MarkovError("degenerate stationary distribution")
            v = v / total
            v.setflags(write=False)
            chain.stationary = v
            # Levels are sorted, so each bid's up mass (and price-weighted
            # mass) is a prefix sum of the stationary vector.
            chain.cum_mass = np.concatenate(([0.0], np.cumsum(v)))
            chain.cum_weighted = np.concatenate(
                ([0.0], np.cumsum(v * self.levels))
            )
        return v

    def availability(self, bid: float) -> float:
        """Asymptotic probability of being up at ``bid``.

        Computed from the *stationary left eigenvector* of the fitted
        transition matrix — the long-run occupancy the chain converges
        to — not the empirical level occupancy of the history window.
        The two agree when the window is long relative to the chain's
        mixing time, but only the eigenvector is well-defined from the
        fitted ``trans`` alone: the empirical occupancy cannot be
        reconstructed from a row-stochastic matrix, and ``initial`` is
        a point mass on the current price, so the asymptotic
        distribution is the principled stand-in for "fraction of time
        this zone is affordable".
        """
        return float(self.availability_batch(np.array([bid]))[0])

    def availability_batch(self, bids: np.ndarray) -> np.ndarray:
        """:meth:`availability` for a whole bid grid, one eig shared."""
        return self.availability_at_counts(self.up_counts(bids))

    def availability_at_counts(self, counts: np.ndarray) -> np.ndarray:
        """Stationary up mass per up-count of ``counts``."""
        self.stationary()
        return self._chain.cum_mass[counts]

    def expected_price_given_up(self, bid: float) -> float:
        """Mean price over up states under the stationary distribution.

        This is the rate a bidder expects to be charged per billing
        hour while the zone is up — the quantity Adaptive's cost
        estimator needs.  Bids with no up mass fall back to the bid
        itself.
        """
        return float(self.expected_price_given_up_batch(np.array([bid]))[0])

    def expected_price_given_up_batch(self, bids: np.ndarray) -> np.ndarray:
        """:meth:`expected_price_given_up` for a whole bid grid."""
        bids = np.asarray(bids, dtype=np.float64)
        return self.price_given_up_at_counts(self.up_counts(bids), bids)

    def price_given_up_at_counts(
        self, counts: np.ndarray, bids: np.ndarray
    ) -> np.ndarray:
        """:meth:`expected_price_given_up_batch` given the bids' up-counts."""
        self.stationary()
        chain = self._chain
        mass = chain.cum_mass[counts]
        weighted = chain.cum_weighted[counts]
        safe_mass = np.where(mass > 0.0, mass, 1.0)
        return np.where(mass > 0.0, weighted / safe_mass, bids)


class _ChainTables:
    """Tables of one chain (levels, trans), shared by every
    ``with_initial`` copy of it.

    ``stationary`` and its prefix sums ``cum_mass`` / ``cum_weighted``
    are filled by :meth:`PriceMarkovModel.stationary`; ``reach`` and
    ``uptimes`` hold the bottleneck-path entry and the uptime table per
    point-mass start state; ``solves`` maps a reachable up set to its
    absorbing-chain solve vector (``None`` when the expected up time
    diverges and is capped).
    """

    __slots__ = ("trans", "stationary", "cum_mass", "cum_weighted",
                 "_hop", "reach", "uptimes", "solves")

    def __init__(self, trans: np.ndarray) -> None:
        self.trans = trans
        self.stationary = None
        self.cum_mass = None
        self.cum_weighted = None
        self._hop = None
        self.reach: dict[int, tuple] = {}
        self.uptimes: dict[int, np.ndarray] = {}
        self.solves: dict = {}

    def hop(self) -> np.ndarray:
        """``hop[i, j] = j`` where ``i -> j`` has positive probability,
        else ``n``: the highest state a path reaches by taking that edge."""
        if self._hop is None:
            n = self.trans.shape[0]
            self._hop = np.where(self.trans > 0.0, np.arange(n), n)
        return self._hop

    def solve(self, r: int, reachable: np.ndarray | None):
        """``(I - Q)^{-1} 1`` over an up set of ``r`` states — the prefix
        ``0..r-1`` when ``reachable`` is None, else the sorted state ids
        ``reachable`` — memoized per set; ``None`` when the set is
        closed, ``I - Q`` is singular or the solution is not finite."""
        key = r if reachable is None else reachable.tobytes()
        x = self.solves.get(key, _UNSOLVED)
        if x is _UNSOLVED:
            if reachable is None:
                q = self.trans[:r, :r]
            else:
                q = self.trans[np.ix_(reachable, reachable)]
            x = None
            # A closed class (every row already sums to 1 within the
            # set) never terminates at this bid; a singular I - Q means
            # a closed sub-class is reachable with positive probability:
            # the expectation diverges either way.
            if not np.minimum.reduce(np.add.reduce(q, axis=1)) > 1.0 - 1e-12:
                x = lapack.absorbing_solve(q)
            self.solves[key] = x
        return x


_UNSOLVED = object()


def _check_prices(prices: np.ndarray) -> None:
    """Reject NaN, infinite, zero and negative prices."""
    ok = (prices > 0.0) & (prices < np.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise MarkovError(
            f"price {prices[i]!r} at sample {i} is not finite and positive"
        )


def combined_expected_uptime(
    models: list[PriceMarkovModel], bid: float
) -> float:
    """Combined expected up time for redundant zones (Section 4.2).

    For zones with independent price movements the paper takes the
    combined ``E[T_u]`` as the *sum* of the per-zone expected up times,
    so redundancy always (weakly) increases the expected up time and
    therefore stretches the Daly checkpoint interval.
    """
    if not models:
        raise MarkovError("no zone models supplied")
    return float(sum(m.expected_uptime(bid) for m in models))


class RollingMarkovFitter:
    """Window refitter over one price series.

    The oracle fits each zone's chain on a trailing 2-day window at
    every statistics bucket, and the rows of one vector batch visit
    those windows in any order, far apart in trace time.  The fitter
    maps the whole series to level ids once (``np.unique``) and counts
    each window with one ``bincount`` over those ids: the levels
    present in the window, their window-local ids, and the flat
    transition-count matrix.  Chains are deduplicated by that count
    signature, so windows with the same transition multiset (calm
    stretches, revisits) share one chain object and with it the
    eigendecomposition and absorbing solves.  The counts go through
    ``PriceMarkovModel.fit``'s own float pipeline, so every chain is
    bit-identical to a full refit of the same window.
    """

    def __init__(
        self,
        prices: np.ndarray,
        step_s: float = float(SAMPLE_INTERVAL_S),
    ) -> None:
        prices = np.asarray(prices, dtype=np.float64)
        if prices.ndim != 1:
            raise MarkovError("price series must be one-dimensional")
        _check_prices(prices)
        self._levels, self._ids = np.unique(prices, return_inverse=True)
        self._step_s = float(step_s)
        self._lo = 0
        self._hi = 0
        self._chains: dict = {}

    @property
    def window(self) -> tuple[int, int]:
        """Current window as a half-open index span ``[lo, hi)``."""
        return (self._lo, self._hi)

    @property
    def step_s(self) -> float:
        return self._step_s

    def set_window(self, lo: int, hi: int) -> None:
        """Move the window to ``[lo, hi)``."""
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self._ids.size:
            raise MarkovError(
                f"window [{lo}, {hi}) out of range for {self._ids.size} samples"
            )
        self._lo, self._hi = lo, hi

    def model(self, current_price: float) -> PriceMarkovModel:
        """The current window's chain, conditioned on ``current_price``.

        Chains are memoized by (window length, present levels,
        transition counts): every level of a window of two or more
        samples appears in some pair, so two windows share a key
        exactly when they share a transition multiset.
        """
        n_samples = self._hi - self._lo
        if n_samples < 2:
            raise MarkovError("need at least two samples to fit transitions")
        ids = self._ids[self._lo:self._hi]
        present = np.bincount(ids).nonzero()[0]
        local = present.searchsorted(ids)
        n = present.size
        counts = np.bincount(local[:-1] * n + local[1:], minlength=n * n)
        key = (n_samples, present.tobytes(), counts.tobytes())
        base = self._chains.get(key)
        if base is None:
            base = PriceMarkovModel._from_counts(
                self._levels[present], counts, n_samples, 0, self._step_s
            )
            self._chains[key] = base
        return base.with_initial(current_price)

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.market.constants import SAMPLE_INTERVAL_S


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
    # Per-model result caches.  ``levels`` is sorted, so every bid maps
    # to an *up-state count* k (the k cheapest levels keep the instance
    # up); all statistics of a bid depend only on k, which is what lets
    # a whole bid grid share one eigendecomposition and one linear
    # solve per distinct up-state set.
    _stationary: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _uptime_by_count: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _succ: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Chain-scoped cache shared across every ``with_initial`` copy of
    # this chain: stationary vector, successor lists, reachability sets
    # and absorbing-chain solve vectors depend on (levels, trans) only,
    # so per-(zone, bucket, level) refits of one bucket's chain all
    # read from the same table instead of re-deriving them.
    _chain_shared: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
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
        # cheap because every Markov fit runs through here.
        rows = self.trans.sum(axis=1)
        if float(np.abs(rows - 1.0).max()) > 1e-5 + 1e-9:
            raise MarkovError("transition matrix rows must sum to 1")
        if abs(float(self.initial.sum()) - 1.0) > 1e-5 + 1e-9:
            raise MarkovError("initial vector must sum to 1")

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
        row_sums = counts.sum(axis=1, keepdims=True)
        trans = np.where(row_sums > 0, counts / np.where(row_sums == 0, 1, row_sums), 0.0)
        marginal = counts.sum(axis=0)
        total = marginal.sum()
        marginal = marginal / total if total > 0 else np.full(n, 1.0 / n)
        # Rows with no observed outgoing transition (a level appearing
        # only as the very last sample) back off to the marginal.
        empty = np.flatnonzero(row_sums[:, 0] == 0)
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
        ``levels``/``trans`` arrays and its chain-scoped cache
        (:attr:`_chain_shared`), so stationary vectors and absorbing
        solves computed through any copy are visible to all of them.

        Bit-identical to ``PriceMarkovModel.fit`` on the same window
        with the new ``current_price``: the start state is the same
        nearest-level ``argmin`` and the point-mass solve fast path
        reproduces the dense ``p0 @ x`` contraction exactly.
        """
        start = int(np.argmin(np.abs(self.levels - current_price)))
        if (
            self.initial[start] == 1.0
            and np.count_nonzero(self.initial) == 1
        ):
            return self
        initial = np.zeros(self.num_states)
        initial[start] = 1.0
        clone = PriceMarkovModel(
            levels=self.levels,
            trans=self.trans,
            initial=initial,
            step_s=self.step_s,
            fit_window_s=self.fit_window_s,
        )
        object.__setattr__(clone, "_chain_shared", self._chain_shared)
        if self._stationary is not None:
            object.__setattr__(clone, "_stationary", self._stationary)
        if self._succ is not None:
            object.__setattr__(clone, "_succ", self._succ)
        return clone

    # ------------------------------------------------------------------

    def up_mask(self, bid: float) -> np.ndarray:
        """Indicator ``I(i) = 1`` iff level i keeps the instance up (P_i <= B)."""
        return (self.levels <= bid).astype(np.float64)

    def up_count(self, bid: float) -> int:
        """Number of up states at ``bid``: levels are sorted, so the up
        set is always the ``k`` cheapest levels."""
        return int(np.searchsorted(self.levels, bid, side="right"))

    def up_counts(self, bids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`up_count` over a bid grid."""
        return np.searchsorted(
            self.levels, np.asarray(bids, dtype=np.float64), side="right"
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

        The solve is memoized per distinct up-state set (thin wrapper
        over :meth:`expected_uptime_batch`'s machinery), so querying a
        whole bid grid factorizes ``I - Q`` once per distinct set.
        """
        return self._uptime_for_count(self.up_count(bid))

    def expected_uptime_batch(self, bids: np.ndarray) -> np.ndarray:
        """Expected up time for every bid of a grid, seconds.

        Bids selecting the same up-state set (the same count of
        cheapest levels) share one linear solve; on the paper's
        15-point grid against a trailing window with a handful of
        distinct price levels this collapses 15 solves into 2-4.
        """
        counts = self.up_counts(bids)
        return np.array(
            [self._uptime_for_count(int(k)) for k in counts], dtype=np.float64
        )

    def _successors(self) -> tuple:
        """Per-state lists of positive-probability successors, cached.

        Chain-scoped: the lists depend on ``trans`` only, so every
        ``with_initial`` copy reads (and writes) one shared entry.
        """
        s = self._succ
        if s is None:
            s = self._chain_shared.get("succ")
            if s is None:
                s = tuple(
                    np.flatnonzero(row > 0.0).tolist() for row in self.trans
                )
                self._chain_shared["succ"] = s
            object.__setattr__(self, "_succ", s)
        return s

    def _uptime_for_count(self, k: int) -> float:
        """Memoized expected up time when the ``k`` cheapest levels are up."""
        value = self._uptime_by_count.get(k)
        if value is None:
            value = self._solve_uptime(k)
            self._uptime_by_count[k] = value
        return value

    def _point_mass_state(self) -> int:
        """Start state when ``initial`` is an exact point mass, else -1."""
        s = self._chain_shared.get(("pm", self.initial.tobytes()))
        if s is None:
            nz = np.flatnonzero(self.initial)
            s = int(nz[0]) if nz.size == 1 and self.initial[nz[0]] == 1.0 else -1
            self._chain_shared[("pm", self.initial.tobytes())] = s
        return s

    def _solve_uptime(self, k: int) -> float:
        """One absorbing-chain solve for the up set = ``k`` cheapest levels.

        Fitted chains always start from a point mass, which admits a
        chain-shared evaluation: the reachable set depends only on
        (start state, k) and the solve vector only on (k, reachable
        set), so ``with_initial`` refits of one bucket's chain reuse
        each other's factorizations.  The dense path below remains the
        reference for arbitrary initial distributions.
        """
        if k <= 0:
            return 0.0
        s = self._point_mass_state()
        if s >= 0:
            return self._solve_uptime_point_mass(s, k)
        up_mask = np.zeros(self.num_states, dtype=bool)
        up_mask[:k] = True
        p0_full = self.initial * up_mask
        alive = float(p0_full.sum())
        if alive <= 0.0:
            return 0.0

        # Restrict to up states actually reachable from the initial
        # distribution: an unreachable closed class elsewhere in the
        # history would otherwise make (I - Q) singular even though the
        # censored walk from *here* terminates in finite expected time.
        # Depth-first over per-state successor lists (cached once per
        # model) — the up set is a prefix of the sorted levels, so
        # membership is just ``state < k``.
        cap = self._uptime_cap()
        succ = self._successors()
        seen = np.zeros(self.num_states, dtype=bool)
        stack = np.flatnonzero(p0_full > 0).tolist()
        seen[stack] = True
        while stack:
            for j in succ[stack.pop()]:
                if j < k and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        reachable = np.flatnonzero(seen)
        q = self.trans[np.ix_(reachable, reachable)]
        # If the reachable class is closed (every row already sums to
        # 1 within the class), the walk never terminates at this bid.
        if np.all(q.sum(axis=1) > 1.0 - 1e-12):
            return cap
        p0 = p0_full[reachable] / alive
        n = reachable.size
        try:
            steps = float(p0 @ np.linalg.solve(np.eye(n) - q, np.ones(n)))
        except np.linalg.LinAlgError:
            # A closed sub-class is reachable with positive
            # probability: the expectation diverges.
            return cap
        if not np.isfinite(steps) or steps < 0:
            return cap
        return float(min(steps * self.step_s, cap))

    def _solve_uptime_point_mass(self, s: int, k: int) -> float:
        """Chain-shared absorbing solve for a point-mass start at ``s``.

        Replicates the dense path exactly: for ``p0 = e_s`` the
        contraction ``p0 @ x`` is ``x[s]`` when every component of
        ``x`` is finite, and NaN (→ cap) when any component is not —
        ``0.0 * inf`` poisons the dense dot product, so the shared
        entry caps for every start sharing the same reachable set,
        exactly as each dense solve would have.
        """
        if s >= k:
            # Current level is already over the bid: initial up mass 0.
            return 0.0
        cap = self._uptime_cap()
        shared = self._chain_shared
        rkey = ("reach", s, k)
        reachable = shared.get(rkey)
        if reachable is None:
            succ = self._successors()
            seen = np.zeros(self.num_states, dtype=bool)
            stack = [s]
            seen[stack] = True
            while stack:
                for j in succ[stack.pop()]:
                    if j < k and not seen[j]:
                        seen[j] = True
                        stack.append(j)
            reachable = np.flatnonzero(seen)
            reachable.setflags(write=False)
            shared[rkey] = reachable
        skey = ("solve", k, reachable.tobytes())
        entry = shared.get(skey)
        if entry is None:
            q = self.trans[np.ix_(reachable, reachable)]
            if np.all(q.sum(axis=1) > 1.0 - 1e-12):
                entry = "cap"
            else:
                n = reachable.size
                try:
                    x = np.linalg.solve(np.eye(n) - q, np.ones(n))
                except np.linalg.LinAlgError:
                    entry = "cap"
                else:
                    entry = x if np.all(np.isfinite(x)) else "cap"
            shared[skey] = entry
        if isinstance(entry, str):
            return cap
        steps = float(entry[int(np.searchsorted(reachable, s))])
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
        to a probability vector.  Computed once per model: the
        eigendecomposition is the dominant cost of every availability
        and expected-rate query, and it is identical for all of them.
        """
        v = self._stationary
        if v is None:
            v = self._chain_shared.get("stationary")
            if v is None:
                evals, evecs = np.linalg.eig(self.trans.T)
                i = int(np.argmin(np.abs(evals - 1.0)))
                v = np.abs(np.real(evecs[:, i]))
                total = v.sum()
                if total <= 0:
                    raise MarkovError("degenerate stationary distribution")
                v = v / total
                v.setflags(write=False)
                self._chain_shared["stationary"] = v
            object.__setattr__(self, "_stationary", v)
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
        """:meth:`availability` for a whole bid grid, one eig shared.

        Levels are sorted, so each bid's up mass is a prefix sum of the
        stationary vector.
        """
        cum = np.concatenate(([0.0], np.cumsum(self.stationary())))
        return cum[self.up_counts(bids)]

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
        v = self.stationary()
        counts = self.up_counts(bids)
        mass = np.concatenate(([0.0], np.cumsum(v)))[counts]
        weighted = np.concatenate(([0.0], np.cumsum(v * self.levels)))[counts]
        safe_mass = np.where(mass > 0.0, mass, 1.0)
        return np.where(mass > 0.0, weighted / safe_mass, bids)


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
        present = np.flatnonzero(np.bincount(ids))
        local = np.searchsorted(present, ids)
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

"""The lockstep's column kernels against their per-row definitions.

:func:`_accrue` takes a closed form wherever it provably equals the
scalar engine's repeated addition, and the quiescence bound finds every
row's next price crossing with one search over all bid classes
(:func:`_class_next_mark`) instead of one :func:`_next_mark` per class.
Both must agree with the per-row definitions bit for bit, including
after a controller regroups the bid classes mid-pass.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.periodic import PeriodicPolicy
from repro.core.vector_engine import (
    _DT,
    VectorSimulator,
    _accrue,
    _class_marks,
    _class_next_mark,
    _Lockstep,
    _next_mark,
    _repeated_sums,
)
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle

# -- _accrue ---------------------------------------------------------------

#: Accumulator values: fractional seconds, values just below and above
#: powers of two (the sums then cross into a coarser binade), integral
#: clocks and exact zero.
accumulators = st.one_of(
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
    st.builds(
        lambda e, d: math.ldexp(1.0, e) + d,
        st.integers(-3, 40), st.floats(-400.0, 400.0),
    ),
    st.integers(0, 10**9).map(float),
)


@given(
    cols=st.lists(st.tuples(accumulators, st.integers(0, 3000), st.booleans()),
                  min_size=1, max_size=12),
    step=st.sampled_from([_DT, -_DT]),
)
@settings(max_examples=400, deadline=None)
@example(cols=[(0.1, 7, True)], step=_DT)
@example(cols=[(511.9, 1, True), (1023.75, 2, True)], step=_DT)  # binade crossings
@example(cols=[(1000.123456789, 3, True)], step=-_DT)  # countdown
@example(cols=[(299.5, 1, True)], step=-_DT)  # countdown through zero
def test_accrue_equals_repeated_sums(cols, step):
    col = np.array([c[0] for c in cols])
    k = np.array([float(c[1]) for c in cols])
    rows = np.array([c[2] for c in cols])
    want = [
        _repeated_sums(float(x), step, int(n))[-1] if r else float(x)
        for x, n, r in zip(col, k, rows)
    ]
    _accrue(col, rows, k, step)
    assert col.tobytes() == np.array(want).tobytes()


# -- class-keyed next crossings ----------------------------------------------


def _marks(idx: list[int], length: int):
    arr = np.array(sorted(set(idx)), dtype=np.int64)
    return arr, np.concatenate([arr, [length]])


@st.composite
def class_tables(draw):
    length = draw(st.integers(1, 60))
    marks = draw(st.lists(
        st.lists(st.integers(0, length - 1), max_size=length),
        min_size=1, max_size=6,
    ))
    rows = draw(st.lists(
        st.tuples(st.integers(0, len(marks) - 1),
                  st.integers(0, length + 3)),  # at or past the end too
        min_size=1, max_size=30,
    ))
    return length, [_marks(m, length) for m in marks], rows


@given(class_tables())
@settings(max_examples=400, deadline=None)
@example((5, [(np.array([], dtype=np.int64), np.array([5]))], [(0, 0), (0, 4), (0, 7)]))
def test_class_next_mark_equals_per_class_next_mark(case):
    length, marks, rows = case
    cls = np.array([c for c, _ in rows], dtype=np.int64)
    iz = np.array([i for _, i in rows], dtype=np.int64)
    got = _class_next_mark(_class_marks(marks, length), cls, iz, length)
    want = [int(_next_mark(marks[c], np.array([i]))[0]) for c, i in rows]
    assert got.tolist() == want


@pytest.fixture(scope="module")
def controller_batch(low_window):
    """A lockstep batch under Adaptive controllers (every oracle zone a
    block, every row one bid class at the bootstrap bid)."""
    trace, eval_start = low_window
    config = paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)
    sim = VectorSimulator(oracle=PriceOracle(trace),
                          queue_model=QueueDelayModel())
    n = 6
    starts = [eval_start + k * 3600.0 for k in range(n)]
    rngs = [np.random.default_rng(k) for k in range(n)]
    bid = float(AdaptiveController().bids[0])
    return lambda: _Lockstep(
        sim, [config], [PeriodicPolicy()], trace.zone_names[:1],
        [0] * n, [0] * n, [bid] * n, starts, rngs, AdaptiveController,
    )


def _assert_per_row(b, iz):
    for zi in range(b.Z):
        for cap in (math.inf, 0.3):
            got = b.next_crossings(zi, iz, cap)
            want = [
                int(_next_mark(
                    b.crossings(zi, min(float(b.bid_arr[i]), cap)),
                    iz[i:i + 1],
                )[0])
                for i in range(b.n)
            ]
            assert got.tolist() == want


@given(
    switches=st.lists(
        st.tuples(st.integers(0, 5),
                  st.sampled_from([0.25, 0.27, 0.3, 0.35, 0.5, 0.81])),
        min_size=1, max_size=8,
    ),
    offset=st.integers(0, 20_000),
)
@settings(max_examples=40, deadline=None)
def test_next_crossings_follow_controller_regrouping(
    controller_batch, switches, offset
):
    """Tables built before a controller re-plans a row's bid are never
    served after it: every lookup equals the row's own bid's marks."""
    b = controller_batch()
    zones = b.oracle.zone_names
    iz = (np.arange(b.n, dtype=np.int64) * 997 + offset) % (b.zlen[0] + 3)
    _assert_per_row(b, iz)
    for i, bid in switches:
        b.switch(i, SimpleNamespace(
            zones=zones[: 1 + i % len(zones)], policy=PeriodicPolicy(),
            bid=bid,
        ))
        _assert_per_row(b, iz)

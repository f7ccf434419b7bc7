"""Batched bid-axis planning: bid equivalence classes over a run horizon.

A Figure-5-style sweep runs the same (policy, zones, start, slack)
cell at every bid of a grid, and for *bid-invariant* policies
(:attr:`~repro.core.policy.CheckpointPolicy.bid_invariant`) the whole
trajectory depends on the bid only through the boolean availability
pattern ``price <= bid`` over the samples the run can observe.  Two
bids with identical patterns in every zone of the cell therefore
produce bit-identical runs: same terminations, same starts (and hence
the same queue-delay draws in the same order), same checkpoint
schedule, same billing — the results differ in nothing but the
recorded ``bid`` field.

This module computes those equivalence classes in one vectorized pass
per zone: the window's prices are sorted once and each bid's pattern
is reduced to its ``searchsorted`` count of samples at or below the
bid.  For bids sorted ascending, equal counts mean no sample lies
between the two bids, which is exactly pattern equality — so the
classes are contiguous runs of equal count signatures.
:func:`cube_rows` lays out a (policy x shape x bid x start) cube's rows
and turns the classes into the vector engine's clone plan: one
representative row per (class, policy, shape, start) simulates and the
other members are cloned with only the bid rewritten.  The runner's
cube cells (:meth:`~repro.experiments.runner.ExperimentRunner.run_cube`)
and the differential harness share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.traces.model import SpotPriceTrace


@dataclass(frozen=True)
class BidClass:
    """One equivalence class of a bid axis.

    ``representative`` is the lowest member; any member would do — the
    trajectories are bit-identical by construction.  ``signature`` is
    the per-zone count of window samples at or below the class's bids
    (diagnostic; equal across members by definition).
    """

    representative: float
    members: tuple[float, ...]
    signature: tuple[int, ...]


def bid_equivalence_classes(
    trace: SpotPriceTrace,
    zones: Sequence[str],
    bids: Sequence[float],
    start_time: float,
    deadline_s: float,
) -> list[BidClass]:
    """Partition ``bids`` into availability-equivalence classes.

    The observable window is every sample a run starting at
    ``start_time`` with deadline ``start_time + deadline_s`` could
    read: from the sample covering the start through the one covering
    the deadline instant.  Duplicate bids join their class once;
    classes come back ordered by ascending representative.

    This is a *necessary and sufficient* condition for trajectory
    equality only under a bid-invariant policy — callers must check
    :attr:`~repro.core.policy.CheckpointPolicy.bid_invariant` first.
    """
    unique_bids = np.asarray(sorted({float(b) for b in bids}), dtype=np.float64)
    if unique_bids.size == 0:
        return []
    ref = trace.zones[0]
    i0 = ref.index_at(start_time)
    # snap the horizon's right edge outward so the sample in force at
    # the deadline instant is included
    end = min(start_time + deadline_s, ref.end_time)
    i1 = min(int(math.ceil((end - ref.start_time) / ref.interval_s)) + 1, len(ref))
    signatures = np.empty((len(zones), unique_bids.size), dtype=np.int64)
    for row, zone in enumerate(zones):
        window = np.sort(trace.zone(zone).prices[i0:i1])
        signatures[row] = np.searchsorted(window, unique_bids, side="right")
    classes: list[BidClass] = []
    lo = 0
    for j in range(1, unique_bids.size + 1):
        if j < unique_bids.size and np.array_equal(
            signatures[:, j], signatures[:, lo]
        ):
            continue
        classes.append(
            BidClass(
                representative=float(unique_bids[lo]),
                members=tuple(float(b) for b in unique_bids[lo:j]),
                signature=tuple(int(c) for c in signatures[:, lo]),
            )
        )
        lo = j
    return classes


@dataclass(frozen=True)
class CubeRows:
    """Row layout of a (policy x shape x bid x start) cube and its
    clone plan.

    Rows run policy-major, then shape, then start, then bid: row
    :meth:`row` ``(p, k, si, bj)`` simulates start ``si`` of shape
    ``k`` at bid ``bj`` under policy ``p``.  ``clone_of[row]`` is the
    representative row a cloned row copies (``None``: the row
    simulates); ``clone_of`` is ``None`` when no row clones.
    """

    policy_idx: list[int]
    shape_idx: list[int]
    bids: list[float]
    starts: list[float]
    clone_of: list[int | None] | None
    row0: list[int]
    num_bids: int
    #: Rows per policy.
    block: int

    def row(self, p: int, k: int, si: int, bj: int) -> int:
        return p * self.block + self.row0[k] + si * self.num_bids + bj


def cube_rows(
    trace: SpotPriceTrace,
    zones: Sequence[str],
    bids: Sequence[float],
    starts_per_shape: Sequence[Sequence[float]],
    deadlines: Sequence[float],
    policy_factories: Sequence[Callable[[], object] | None],
) -> CubeRows:
    """Lay out a cube's rows and resolve its clone plan.

    Every policy of ``policy_factories`` gets the same (shape x start
    x bid) block of rows.  A ``None`` factory stands for a
    controller-driven policy, which never clones; cloning otherwise
    needs more than one bid and a bid-invariant policy.  The classes
    are resolved once per (shape, start) over ``zones`` and the shape's
    deadline and applied within each bid-invariant policy's block, so
    clones never cross policies or shapes.
    """
    nb = len(bids)
    shape_idx: list[int] = []
    row_bids: list[float] = []
    row_starts: list[float] = []
    row0: list[int] = []
    for k, shape_starts in enumerate(starts_per_shape):
        row0.append(len(row_starts))
        for start in shape_starts:
            for bid in bids:
                shape_idx.append(k)
                row_bids.append(bid)
                row_starts.append(float(start))
    block = len(row_starts)
    npol = len(policy_factories)
    invariant = [
        p for p, factory in enumerate(policy_factories)
        if factory is not None
        and getattr(factory(), "bid_invariant", False)
    ]
    clone_of = None
    if nb > 1 and invariant:
        bcol = {bid: j for j, bid in enumerate(bids)}
        clone_of = [None] * (block * npol)
        for k, shape_starts in enumerate(starts_per_shape):
            for si, start in enumerate(shape_starts):
                base = row0[k] + si * nb
                for cls in bid_equivalence_classes(
                    trace, zones, bids, float(start), deadlines[k]
                ):
                    rep = base + bcol[cls.representative]
                    for bid in cls.members:
                        if bid == cls.representative:
                            continue
                        for p in invariant:
                            clone_of[p * block + base + bcol[bid]] = (
                                p * block + rep
                            )
    return CubeRows(
        policy_idx=[p for p in range(npol) for _ in range(block)],
        shape_idx=shape_idx * npol,
        bids=row_bids * npol,
        starts=row_starts * npol,
        clone_of=clone_of,
        row0=row0,
        num_bids=nb,
        block=block,
    )

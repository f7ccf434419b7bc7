"""Threshold policy — Edge with price and time guards (Section 4.4).

Jung et al.'s refinement of Rising Edge.  ``CheckpointCondition()``
fires in an executing zone when either:

1. **Price threshold** — the price shows a rising edge *and* has
   climbed at least halfway from the historical minimum toward the
   bid: ``PriceThresh = (S_min + B) / 2`` and ``S >= PriceThresh``.
   Low wobbles far from the bid no longer trigger checkpoints.
2. **Time threshold** — the zone has been executing at bid B since
   its last restart or checkpoint for longer than ``TimeThresh``, the
   probabilistic average up time of the zone (estimated here as the
   mean up-run length at B over the trailing history).  Long quiet
   stretches still get committed occasionally.

``ScheduleNextCheckpoint()`` is again a no-op: both conditions are
evaluated instantaneously.
"""

from __future__ import annotations

import math

from repro.core.policy import CheckpointPolicy, PolicyContext
from repro.market.instance import ZoneInstance, ZoneState


def guards_fire(
    oracle, zone: str, now: float, bid: float, rising: bool, price: float,
    exec_time: float,
) -> tuple[bool, float]:
    """``CheckpointCondition()`` on one executing zone: whether a
    guard fires, and the TimeThresh it read.  One cached oracle call
    (S_min by window, the mean up-run by hour bucket) serves both."""
    s_min, time_thresh = oracle.threshold_stats(zone, now, bid)
    if rising and price >= 0.5 * (s_min + bid):
        return True, time_thresh
    return time_thresh > 0 and exec_time > time_thresh, time_thresh


def time_guard_bound(
    oracle, zone: str, now: float, bid: float, since: float,
    time_thresh: float, edge_t: float,
) -> float:
    """When the time guard of a zone executing since ``since`` can
    first fire before the rising edge at ``edge_t`` (else ``edge_t``).
    TimeThresh is refreshed every hour bucket, but each bucket's is
    anchored at its boundary, so the scan walks bucket by bucket."""
    bucket_start = math.floor(now / 3600.0) * 3600.0
    thresh = time_thresh
    while True:
        bucket_end = bucket_start + 3600.0
        if thresh > 0 and since + thresh < min(bucket_end, edge_t):
            return max(since + thresh, bucket_start)
        if bucket_end >= edge_t:
            return edge_t
        bucket_start = bucket_end
        thresh = oracle.mean_up_run(zone, bucket_start, bid)


class ThresholdPolicy(CheckpointPolicy):
    """Two-threshold checkpoint scheduling (price + execution time)."""

    name = "threshold"
    reschedule_is_noop = True
    # the vector engine evaluates the price/execution-time tests per
    # run against the oracle's memoized threshold statistics
    vector_kind = "threshold"

    def price_threshold(self, ctx: PolicyContext, zone: str) -> float:
        """``(S_min + B) / 2`` with S_min from the trailing history."""
        s_min, _ = ctx.oracle.threshold_stats(zone, ctx.now, ctx.bid)
        return 0.5 * (s_min + ctx.bid)

    def checkpoint_due(self, ctx: PolicyContext, leader: ZoneInstance) -> bool:
        if leader.local_progress_s <= ctx.run.committed_progress_s() + 1e-9:
            return False
        for zone, inst in ctx.instances.items():
            if zone not in ctx.zones or inst.state is not ZoneState.COMPUTING:
                continue
            if guards_fire(
                ctx.oracle, zone, ctx.now, ctx.bid,
                ctx.oracle.is_rising_edge(zone, ctx.now), ctx.price(zone),
                inst.execution_time_at_bid(ctx.now),
            )[0]:
                return True
        return False

    def schedule_next_checkpoint(self, ctx: PolicyContext) -> None:
        """No-op: thresholds are evaluated from current state."""

    def fast_forward_until(self, ctx: PolicyContext) -> float:
        """Earliest possible trigger: the next rising edge or the next
        time-threshold expiry (:func:`time_guard_bound`).

        This mirrors :meth:`checkpoint_due`'s evaluation at ``ctx.now``
        — same zone order, same ``threshold_stats`` calls, same early
        return on a trigger.
        """
        leader = ctx.leader()
        if leader is None:
            return ctx.now
        if leader.local_progress_s <= ctx.run.committed_progress_s() + 1e-9:
            # checkpoint_due short-circuits before any oracle query
            return ctx.now
        oracle = ctx.oracle
        bound = math.inf
        for zone, inst in ctx.instances.items():
            if zone not in ctx.zones or inst.state is not ZoneState.COMPUTING:
                continue
            z = oracle.trace.zone(zone)
            i = z.index_at(ctx.now)
            fired, time_thresh = guards_fire(
                oracle, zone, ctx.now, ctx.bid, z.is_rising_edge_at(i),
                float(z.prices[i]), inst.execution_time_at_bid(ctx.now),
            )
            if fired:
                return ctx.now  # checkpoint_due returns True right here
            edge_t = z.start_time + z.next_rising_edge(i) * z.interval_s
            cs = inst.computing_since
            bound = min(bound, edge_t if cs is None else time_guard_bound(
                oracle, zone, ctx.now, ctx.bid, cs, time_thresh, edge_t
            ))
        return bound

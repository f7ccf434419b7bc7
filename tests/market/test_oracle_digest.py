"""Pinned digest of every statistic the oracle serves Adaptive.

Adaptive's decisions, and with them every Figure-5 record, are a
function of ``zone_stats``, ``zone_uptimes`` and ``combined_uptimes``.
This test hashes them for every zone at every 5-minute tick of a 3-day
span in both evaluation windows: intra-bucket price moves re-condition
the bucket's chain, so the refit paths are covered, and the low span
includes the March 13 spike.  The digests were computed before the
statistics path was rebuilt for speed; any change to the bytes of any
statistic fails here.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.market.constants import bid_grid
from repro.market.spot_market import PriceOracle
from repro.traces.library import evaluation_window

#: (window, first day of the span after ``eval_start``) -> SHA-256.
PINNED = {
    ("high", 0): "291b8bbe47ac706d1370a678bb0fae8f36de47a97da45adf05e2a763cba1ba9a",
    ("low", 11): "332a26ba635c4b82de3298a03a0aa808d1583c51a97569e410048dc210dda0d8",
}

SPAN_TICKS = 3 * 24 * 12


def oracle_digest(window: str, first_day: int) -> str:
    trace, eval_start = evaluation_window(window)
    oracle = PriceOracle(trace)
    zones = trace.zone_names
    sets = [
        s for n in range(1, len(zones) + 1)
        for s in itertools.combinations(zones, n)
    ]
    bids = np.asarray(bid_grid())
    h = hashlib.sha256()
    t0 = eval_start + first_day * 86400.0
    for i in range(SPAN_TICKS):
        t = t0 + i * 300.0
        for zone in zones:
            for arr in oracle.zone_stats(zone, t, bids):
                h.update(arr.tobytes())
            h.update(oracle.zone_uptimes(zone, t, bids[::-1]).tobytes())
        for zs in sets:
            h.update(oracle.combined_uptimes(zs, t, bids).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("window,first_day", sorted(PINNED))
def test_oracle_statistics_digest(window, first_day):
    assert oracle_digest(window, first_day) == PINNED[(window, first_day)]

"""Reading and writing spot-price traces in the AWS CLI CSV format.

``aws ec2 describe-spot-price-history`` emits one row per price
*change* with an ISO-8601 timestamp; our simulator wants prices on a
uniform 5-minute grid.  This module converts both ways, so users can
replay their own downloaded price history through every policy in this
package, and export synthetic archives for inspection.

CSV schema (header required)::

    timestamp,availability_zone,instance_type,product_description,spot_price
    2013-01-01T00:00:00Z,us-east-1a,cc2.8xlarge,Linux/UNIX,0.270

Rows may arrive in any order; they are sorted per zone before
resampling.  Prices are forward-filled between change events, matching
how the market actually behaves.
"""

from __future__ import annotations

import csv
import io as _io
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from repro.market.constants import SAMPLE_INTERVAL_S
from repro.traces.model import SpotPriceTrace, TraceError, ZoneTrace

#: Column names, in order.
FIELDNAMES: tuple[str, ...] = (
    "timestamp",
    "availability_zone",
    "instance_type",
    "product_description",
    "spot_price",
)

DEFAULT_INSTANCE_TYPE = "cc2.8xlarge"
DEFAULT_PRODUCT = "Linux/UNIX"


def parse_timestamp(text: str) -> float:
    """Parse an ISO-8601 timestamp (``Z`` or offset suffix) to POSIX seconds."""
    text = text.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise TraceError(f"bad timestamp {text!r}: {exc}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def format_timestamp(t: float) -> str:
    """POSIX seconds to the AWS CLI's ``...Z`` ISO form.

    Sub-second precision is preserved (microseconds, the resolution of
    :class:`~datetime.datetime`): ``timespec="seconds"`` used to
    truncate fractional-second grid starts, silently shifting every
    change event of a round-tripped trace up to one second earlier.
    Whole-second times keep the compact ``...T00:00:00Z`` form.
    """
    return (
        datetime.fromtimestamp(t, tz=timezone.utc)
        .replace(tzinfo=None)
        .isoformat(timespec="auto")
        + "Z"
    )


def read_price_events(stream: TextIO) -> dict[str, list[tuple[float, float]]]:
    """Parse CSV rows into per-zone sorted ``(timestamp, price)`` events.

    When several rows of one zone carry the same timestamp, the last
    row in *file order* wins — the AWS CLI emits corrections as later
    rows — and the earlier duplicates are dropped, so downstream
    forward-filling cannot resolve an equal-timestamp pair to an
    arbitrary price.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise TraceError("empty CSV: no header row")
    missing = {"timestamp", "availability_zone", "spot_price"} - set(reader.fieldnames)
    if missing:
        raise TraceError(f"CSV missing required columns: {sorted(missing)}")
    events: dict[str, list[tuple[float, float]]] = {}
    for lineno, row in enumerate(reader, start=2):
        try:
            t = parse_timestamp(row["timestamp"])
            price = float(row["spot_price"])
        except (TraceError, ValueError) as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        if not math.isfinite(price):
            raise TraceError(f"line {lineno}: non-finite price {price}")
        if price <= 0:
            raise TraceError(f"line {lineno}: non-positive price {price}")
        events.setdefault(row["availability_zone"], []).append((t, price))
    if not events:
        raise TraceError("CSV contains no price rows")
    for zone, zone_events in events.items():
        # Stable sort keeps equal timestamps in file order; the
        # trailing dedup then keeps only the last row per timestamp,
        # making "last in file order wins" explicit rather than an
        # accident of searchsorted's tie-breaking.
        zone_events.sort(key=lambda e: e[0])
        deduped = [
            ev
            for i, ev in enumerate(zone_events)
            if i + 1 == len(zone_events) or zone_events[i + 1][0] != ev[0]
        ]
        events[zone] = deduped
    return events


def resample_events(
    events: list[tuple[float, float]],
    start_time: float,
    num_samples: int,
    interval_s: int = SAMPLE_INTERVAL_S,
) -> np.ndarray:
    """Forward-fill change events onto a uniform grid.

    The first event must not postdate ``start_time`` (there would be no
    defined price at the start of the grid otherwise).
    """
    if not events:
        raise TraceError("no events to resample")
    times = np.array([t for t, _ in events])
    prices = np.array([p for _, p in events])
    if times[0] > start_time:
        raise TraceError(
            f"first event at {times[0]} is after grid start {start_time}"
        )
    grid = start_time + interval_s * np.arange(num_samples, dtype=np.float64)
    idx = np.searchsorted(times, grid, side="right") - 1
    return prices[idx]


def read_trace(
    source: str | Path | TextIO,
    interval_s: int = SAMPLE_INTERVAL_S,
) -> SpotPriceTrace:
    """Load a CSV price history and resample it onto the common grid.

    The grid spans the latest first-event to the earliest last-event
    across zones, so every zone has a defined price at every sample.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as fh:
            events = read_price_events(fh)
    else:
        events = read_price_events(source)

    start = max(ev[0][0] for ev in events.values())
    stop = min(ev[-1][0] for ev in events.values())
    # snap the start up to a whole interval, then fill until stop
    start = float(np.ceil(start / interval_s) * interval_s)
    num = int((stop - start) // interval_s) + 1
    if num < 1:
        raise TraceError("zones do not overlap in time")
    zones = tuple(
        ZoneTrace(
            zone=name,
            start_time=start,
            prices=resample_events(evs, start, num, interval_s),
            interval_s=interval_s,
        )
        for name, evs in sorted(events.items())
    )
    return SpotPriceTrace(zones=zones)


def _change_events(zone: ZoneTrace) -> Iterable[tuple[float, float]]:
    """Yield ``(time, price)`` at the trace start and at every change."""
    times = zone.times
    yield times[0], float(zone.prices[0])
    changed = np.flatnonzero(np.diff(zone.prices) != 0) + 1
    for i in changed:
        yield float(times[i]), float(zone.prices[i])


def write_trace(
    trace: SpotPriceTrace,
    destination: str | Path | TextIO,
    instance_type: str = DEFAULT_INSTANCE_TYPE,
    product_description: str = DEFAULT_PRODUCT,
) -> int:
    """Write a trace as change-event CSV rows; returns the row count."""

    def _write(fh: TextIO) -> int:
        writer = csv.DictWriter(fh, fieldnames=FIELDNAMES)
        writer.writeheader()
        rows = 0
        for zone in trace.zones:
            for t, price in _change_events(zone):
                writer.writerow(
                    {
                        "timestamp": format_timestamp(t),
                        "availability_zone": zone.zone,
                        "instance_type": instance_type,
                        "product_description": product_description,
                        "spot_price": f"{price:.3f}",
                    }
                )
                rows += 1
        return rows

    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as fh:
            return _write(fh)
    return _write(destination)


def trace_to_csv_string(trace: SpotPriceTrace) -> str:
    """Render a trace as a CSV string (convenience for small traces)."""
    buf = _io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()

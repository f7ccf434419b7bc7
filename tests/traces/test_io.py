"""Unit tests for CSV trace I/O."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.traces.io import (
    format_timestamp,
    parse_timestamp,
    read_price_events,
    read_trace,
    resample_events,
    trace_to_csv_string,
    write_trace,
)
from repro.traces.model import SpotPriceTrace, TraceError

CSV = """timestamp,availability_zone,instance_type,product_description,spot_price
2013-01-01T00:00:00Z,us-east-1a,cc2.8xlarge,Linux/UNIX,0.270
2013-01-01T00:00:00Z,us-east-1b,cc2.8xlarge,Linux/UNIX,0.300
2013-01-01T01:00:00Z,us-east-1a,cc2.8xlarge,Linux/UNIX,0.500
2013-01-01T02:00:00Z,us-east-1a,cc2.8xlarge,Linux/UNIX,0.270
2013-01-01T02:30:00Z,us-east-1b,cc2.8xlarge,Linux/UNIX,0.310
"""


class TestTimestamps:
    def test_parse_z_suffix(self):
        assert parse_timestamp("2013-01-01T00:00:00Z") == 1356998400.0

    def test_parse_offset(self):
        assert parse_timestamp("2013-01-01T01:00:00+01:00") == 1356998400.0

    def test_parse_naive_assumed_utc(self):
        assert parse_timestamp("2013-01-01T00:00:00") == 1356998400.0

    def test_bad_timestamp(self):
        with pytest.raises(TraceError):
            parse_timestamp("yesterday")

    def test_round_trip(self):
        t = 1356998400.0
        assert parse_timestamp(format_timestamp(t)) == t


class TestReadEvents:
    def test_events_sorted_per_zone(self):
        shuffled = CSV.splitlines()
        shuffled = [shuffled[0]] + list(reversed(shuffled[1:]))
        events = read_price_events(io.StringIO("\n".join(shuffled)))
        times_a = [t for t, _ in events["us-east-1a"]]
        assert times_a == sorted(times_a)

    def test_missing_columns_rejected(self):
        with pytest.raises(TraceError):
            read_price_events(io.StringIO("a,b\n1,2\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(TraceError):
            read_price_events(io.StringIO(""))

    def test_no_rows_rejected(self):
        header = CSV.splitlines()[0]
        with pytest.raises(TraceError):
            read_price_events(io.StringIO(header + "\n"))

    def test_nonpositive_price_rejected(self):
        bad = CSV + "2013-01-01T03:00:00Z,us-east-1a,cc2.8xlarge,Linux/UNIX,0\n"
        with pytest.raises(TraceError):
            read_price_events(io.StringIO(bad))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_price_rejected_with_line_number(self, bad):
        row = f"2013-01-01T03:00:00Z,us-east-1a,cc2.8xlarge,Linux/UNIX,{bad}\n"
        with pytest.raises(TraceError, match=r"line 7: non-finite price"):
            read_price_events(io.StringIO(CSV + row))


class TestResample:
    def test_forward_fill(self):
        events = [(0.0, 0.3), (700.0, 0.5)]
        grid = resample_events(events, 0.0, 4)
        # samples at 0, 300, 600 before the change; 900 after
        assert list(grid) == [0.3, 0.3, 0.3, 0.5]

    def test_event_after_start_rejected(self):
        with pytest.raises(TraceError):
            resample_events([(500.0, 0.3)], 0.0, 3)

    def test_empty_events_rejected(self):
        with pytest.raises(TraceError):
            resample_events([], 0.0, 3)


class TestReadWrite:
    def test_read_trace_from_csv(self):
        t = read_trace(io.StringIO(CSV))
        assert t.zone_names == ("us-east-1a", "us-east-1b")
        assert t.zone("us-east-1a").price_at(t.start_time) == 0.27
        # after the 01:00 change
        one_am = parse_timestamp("2013-01-01T01:00:00Z")
        assert t.zone("us-east-1a").price_at(one_am) == 0.5

    def test_grid_spans_overlap_only(self):
        t = read_trace(io.StringIO(CSV))
        # both zones defined from 00:00; last events 02:00 and 02:30
        assert t.start_time == parse_timestamp("2013-01-01T00:00:00Z")
        assert t.end_time >= parse_timestamp("2013-01-01T02:00:00Z")

    def test_round_trip_preserves_grid(self):
        original = SpotPriceTrace.from_arrays(
            1356998400.0,
            {"za": [0.3, 0.3, 0.5, 0.4], "zb": [0.2, 0.2, 0.2, 0.9]},
        )
        text = trace_to_csv_string(original)
        restored = read_trace(io.StringIO(text))
        assert np.allclose(restored.matrix(), original.matrix())
        assert restored.start_time == original.start_time

    def test_write_emits_change_rows_only(self):
        trace = SpotPriceTrace.from_arrays(
            0.0, {"za": [0.3, 0.3, 0.3, 0.5]}
        )
        buf = io.StringIO()
        rows = write_trace(trace, buf)
        assert rows == 2  # initial + one change

    def test_file_round_trip(self, tmp_path):
        trace = SpotPriceTrace.from_arrays(
            1356998400.0, {"za": [0.3, 0.4, 0.5]}
        )
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        restored = read_trace(path)
        assert np.allclose(restored.matrix(), trace.matrix())


BASE = 1356998400.0  # 2013-01-01T00:00:00Z


class TestDuplicateTimestamps:
    """Equal-timestamp change events must resolve deterministically:
    the last row in *file order* wins (regression for the
    forward-fill picking a price by searchsorted tie-breaking)."""

    def _csv(self, rows):
        header = ",".join(
            ("timestamp", "availability_zone", "instance_type",
             "product_description", "spot_price")
        )
        lines = [header] + [
            f"{ts},za,cc2.8xlarge,Linux/UNIX,{price}" for ts, price in rows
        ]
        return io.StringIO("\n".join(lines) + "\n")

    def test_last_row_in_file_order_wins(self):
        events = read_price_events(self._csv([
            ("2013-01-01T00:10:00Z", "0.9"),
            ("2013-01-01T00:00:00Z", "0.3"),
            ("2013-01-01T00:10:00Z", "0.5"),  # same instant, later row
        ]))
        prices = resample_events(events["za"], BASE, 4)
        assert prices.tolist() == [0.3, 0.3, 0.5, 0.5]

    def test_duplicates_are_dropped_not_kept(self):
        events = read_price_events(self._csv([
            ("2013-01-01T00:00:00Z", "0.3"),
            ("2013-01-01T00:00:00Z", "0.4"),
            ("2013-01-01T00:05:00Z", "0.6"),
            ("2013-01-01T00:05:00Z", "0.2"),
        ]))
        times = [t for t, _ in events["za"]]
        assert times == sorted(set(times))  # unique and sorted
        assert events["za"] == [(BASE, 0.4), (BASE + 300.0, 0.2)]

    def test_duplicate_at_grid_start(self):
        events = read_price_events(self._csv([
            ("2013-01-01T00:00:00Z", "0.7"),
            ("2013-01-01T00:00:00Z", "0.3"),
        ]))
        prices = resample_events(events["za"], BASE, 2)
        assert prices.tolist() == [0.3, 0.3]

    def test_descending_duplicate_prices_keep_file_order(self):
        # would fail under any tie-break that compares prices
        events = read_price_events(self._csv([
            ("2013-01-01T00:10:00Z", "0.1"),
            ("2013-01-01T00:10:00Z", "0.9"),
            ("2013-01-01T00:00:00Z", "0.5"),
        ]))
        assert events["za"][-1] == (BASE + 600.0, 0.9)


class TestSubSecondPrecision:
    """CSV round-trips must not truncate fractional seconds
    (regression: ``timespec="seconds"`` shifted every change event of
    a fractional-second grid up to 1 s earlier)."""

    def test_format_preserves_fraction(self):
        assert format_timestamp(100.5) == "1970-01-01T00:01:40.500000Z"

    def test_format_keeps_compact_form_for_whole_seconds(self):
        assert format_timestamp(BASE) == "2013-01-01T00:00:00Z"

    def test_parse_format_round_trip_fractional(self):
        for t in (0.5, BASE + 0.25, BASE + 600.5):
            assert parse_timestamp(format_timestamp(t)) == t

    def test_change_events_round_trip_exactly(self):
        from repro.traces.model import ZoneTrace

        zone = ZoneTrace(zone="za", start_time=BASE + 0.5,
                         prices=np.array([0.3, 0.3, 0.5, 0.5, 0.7]))
        buf = io.StringIO()
        write_trace(SpotPriceTrace(zones=(zone,)), buf)
        buf.seek(0)
        events = read_price_events(buf)["za"]
        assert events == [(BASE + 0.5, 0.3), (BASE + 600.5, 0.5),
                          (BASE + 1200.5, 0.7)]

    def test_fractional_grid_round_trip_does_not_shift_prices(self):
        # The change truly happens at BASE+600.5; truncation used to
        # move it to BASE+600, flipping the resampled price at that
        # exact grid point.
        from repro.traces.model import ZoneTrace

        zone = ZoneTrace(zone="za", start_time=BASE + 0.5,
                         prices=np.array([0.3, 0.3, 0.5, 0.5, 0.7]))
        buf = io.StringIO()
        write_trace(SpotPriceTrace(zones=(zone,)), buf)
        buf.seek(0)
        restored = read_trace(buf)
        assert restored.zone("za").price_at(BASE + 600.0) == 0.3

    def test_integral_grid_round_trip_is_exact(self):
        # last sample changes in every zone, so the change-event CSV
        # covers the full grid and nothing is trimmed on read-back
        original = SpotPriceTrace.from_arrays(
            BASE, {"za": [0.3, 0.31, 0.29, 0.3], "zb": [0.4, 0.4, 0.5, 0.6]}
        )
        restored = read_trace(io.StringIO(trace_to_csv_string(original)))
        assert restored.start_time == original.start_time
        assert (restored.matrix() == original.matrix()).all()

"""Property-based tests for the CSV trace reader (hypothesis).

``write_trace`` emits one row per price change; ``read_trace`` must
rebuild the same trace whatever order those rows arrive in and however
often a row repeats, and must refuse a corrupt row by its line number.
"""

from __future__ import annotations

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.io import read_trace, trace_to_csv_string
from repro.traces.model import SpotPriceTrace, TraceError, ZoneTrace

T0 = 1356998400.0  # 2013-01-01T00:00:00Z, on the 5-minute grid

#: Three-decimal prices survive write_trace's ``%.3f`` formatting exactly.
PRICES = st.sampled_from([0.27, 0.3, 0.81, 1.5, 2.4, 20.02])


@st.composite
def traces(draw) -> SpotPriceTrace:
    names = draw(st.lists(st.sampled_from(["za", "zb", "zc"]), min_size=1,
                          max_size=3, unique=True))
    n = draw(st.integers(min_value=2, max_value=30))
    return SpotPriceTrace(zones=tuple(
        ZoneTrace(zone=name, start_time=T0,
                  prices=np.array(draw(st.lists(PRICES, min_size=n, max_size=n))))
        for name in sorted(names)
    ))


@st.composite
def shuffled_csv(draw) -> tuple[str, list[str]]:
    """A written trace's CSV, and its data rows shuffled with some
    rows repeated."""
    text = trace_to_csv_string(draw(traces()))
    header, *rows = text.splitlines()
    repeats = draw(st.lists(st.sampled_from(rows), max_size=len(rows)))
    return text, [header, *draw(st.permutations(rows + repeats))]


def _read(lines: list[str]) -> SpotPriceTrace:
    return read_trace(io.StringIO("\n".join(lines) + "\n"))


@settings(max_examples=60, deadline=None)
@given(case=shuffled_csv())
def test_shuffled_and_repeated_rows_read_back_identically(case):
    text, lines = case
    original = read_trace(io.StringIO(text))
    shuffled = _read(lines)
    assert shuffled.zone_names == original.zone_names
    assert shuffled.fingerprint() == original.fingerprint()


BAD_TIMESTAMPS = st.sampled_from(["yesterday", "2013-13-01T00:00:00Z", ""])
BAD_PRICES = st.sampled_from(["nan", "inf", "-inf", "0", "0.000", "-1.5"])


@settings(max_examples=60, deadline=None)
@given(case=shuffled_csv(), data=st.data())
def test_one_corrupt_row_is_named_by_line(case, data):
    _, lines = case
    index = data.draw(st.integers(min_value=1, max_value=len(lines) - 1))
    fields = lines[index].split(",")
    if data.draw(st.booleans()):
        fields[0] = data.draw(BAD_TIMESTAMPS)
    else:
        fields[-1] = data.draw(BAD_PRICES)
    lines[index] = ",".join(fields)
    # line numbers count the header as line 1
    with pytest.raises(TraceError, match=re.escape(f"line {index + 1}:")):
        _read(lines)


def test_zones_read_back_in_name_order():
    """The reader sorts zones by name, so a trace written with zones
    ('zb', 'za') reads back as ('za', 'zb') — equal samples, different
    fingerprint from the trace that was written."""
    zb = ZoneTrace(zone="zb", start_time=T0, prices=np.array([0.27, 0.81, 0.27]))
    za = ZoneTrace(zone="za", start_time=T0, prices=np.array([0.3, 0.3, 0.5]))
    written = SpotPriceTrace(zones=(zb, za))
    read = read_trace(io.StringIO(trace_to_csv_string(written)))
    assert read.zone_names == ("za", "zb")
    assert read.fingerprint() == SpotPriceTrace(zones=(za, zb)).fingerprint()
    assert read.fingerprint() != written.fingerprint()

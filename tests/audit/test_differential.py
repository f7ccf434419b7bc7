"""The differential harness: every engine held to the tick reference.

:func:`~repro.audit.differential.differential_cube` runs each row of a
cube audited on ``tick`` and ``fast`` and the whole cube on
``vector``, and diffs every ``fast`` and ``vector`` row against
``tick``.  This file holds the diff helpers' unit tests, the harness's
self-test, the random-trace and random-cube strategies and the
hypothesis test that draws their union: random piecewise traces x
policy sets x shape ladders x bid grids x zone sets x Adaptive bid
grids.  One test per family sits beside the calibrated-window cases
in ``test_properties.py``, ``test_vector_differential.py`` and
``test_vector_cube_differential.py``.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.audit import (
    META_KINDS,
    AuditEvent,
    FieldDiff,
    diff_events,
    diff_results,
    differential_cube,
)
from repro.core.adaptive import AdaptiveController
from repro.core.engine import Event
from repro.core.markov_daly import MarkovDalyPolicy
from repro.core.periodic import PeriodicPolicy
from repro.core.vector_engine import VectorSimulator
from repro.experiments.runner import POLICY_FACTORIES
from repro.market.queuing import FixedQueueDelay

from tests.conftest import multi_step_trace, small_config


def _trace():
    return multi_step_trace({
        "za": [(50, 0.25), (20, 1.20), (130, 0.25), (88, 1.80)],
        "zb": [(70, 0.35), (50, 0.22), (80, 2.50), (88, 0.28)],
    })


def agree(trace, configs, starts_per_shape, **cube):
    """Run the harness on one cube and require every row to agree with
    tick and both audits to be clean; returns the report."""
    report = differential_cube(trace, configs, starts_per_shape, **cube)
    assert report.ok, "\n".join(report.summary_lines())
    return report


class TestDiffEventStreams:
    def _ev(self, seq, kind="transition", time=100.0, detail="x"):
        return AuditEvent(run=1, seq=seq, time=time, kind=kind, detail=detail)

    def test_identical_streams_produce_no_diffs(self):
        a = [self._ev(0), self._ev(1, time=200.0)]
        b = [self._ev(0), self._ev(1, time=200.0)]
        assert diff_events(a, b) == []

    def test_seq_and_run_are_ignored(self):
        a = [AuditEvent(run=1, seq=0, time=100.0, kind="waiting")]
        b = [AuditEvent(run=7, seq=3, time=100.0, kind="waiting")]
        assert diff_events(a, b) == []

    def test_meta_events_are_excluded(self):
        """Meta events differ between engines by design; the caller
        (the harness) drops them before diffing."""
        a = [AuditEvent(run=1, seq=0, time=0.0, kind="run-end",
                        data=(("ticks", 5),))]
        b = [AuditEvent(run=1, seq=0, time=0.0, kind="run-end",
                        data=(("ticks", 99),))]
        assert [d.field for d in diff_events(a, b)] == ["data"]
        assert diff_events(
            [e for e in a if e.kind not in META_KINDS],
            [e for e in b if e.kind not in META_KINDS],
        ) == []

    def test_field_disagreement_is_located(self):
        a = [self._ev(0), self._ev(1, time=300.0)]
        b = [self._ev(0), self._ev(1, time=600.0)]
        diffs = diff_events(a, b)
        assert diffs == [FieldDiff("event[1]", "time", 300.0, 600.0)]

    def test_length_mismatch_names_the_extra_event(self):
        a = [self._ev(0), self._ev(1, kind="hour-rolled")]
        b = [self._ev(0)]
        diffs = diff_events(a, b)
        assert FieldDiff("event[1]", "kind", "hour-rolled", None) in diffs
        assert FieldDiff("event", "length", 2, 1) in diffs

    def test_log_entries_diff_against_audited_events(self):
        """An engine log entry has no ``data``; it matches an audited
        event on the four fields they share."""
        log = [Event(time=100.0, kind="waiting", zone="za", detail="x")]
        audited = [AuditEvent(run=1, seq=4, time=100.0, kind="waiting",
                              zone="za", detail="x")]
        assert diff_events(log, audited) == []
        assert diff_events(log, [replace(audited[0], zone="zb")]) == [
            FieldDiff("event[0]", "zone", "za", "zb")
        ]


class TestDiffResults:
    def test_equal_results_no_diffs(self):
        from tests.conftest import make_sim

        r1 = make_sim(_trace()).run(small_config(), PeriodicPolicy(), 0.81,
                                    ("za",), 0.0)
        r2 = make_sim(_trace()).run(small_config(), PeriodicPolicy(), 0.81,
                                    ("za",), 0.0)
        assert diff_results(r1, r2) == []

    def test_differing_field_is_reported(self):
        from tests.conftest import make_sim

        r1 = make_sim(_trace()).run(small_config(), PeriodicPolicy(), 0.81,
                                    ("za",), 0.0)
        r2 = replace(r1, spot_cost=r1.spot_cost + 1.0)
        diffs = diff_results(r1, r2)
        assert [d.field for d in diffs] == ["spot_cost"]


class TestDifferentialRun:
    def test_engines_agree_on_synthetic_trace(self):
        report = agree(
            _trace(), [small_config()], [[0.0]], policies=[PeriodicPolicy],
            bids=[0.81], zones=("za", "zb"),
            queue_model=FixedQueueDelay(300.0),
        )
        assert set(report.audits) == {"tick", "fast"}
        assert report.summary_lines()[0].endswith(
            "agree with tick on every field, event and RNG state"
        )

    def test_engines_agree_with_markov_policy(self):
        agree(
            _trace(), [small_config()], [[0.0]], policies=[MarkovDalyPolicy],
            bids=[0.81], zones=("za",), queue_model=FixedQueueDelay(300.0),
        )

    def test_engines_agree_on_evaluation_window(self, low_window):
        trace, eval_start = low_window
        report = agree(
            trace, [small_config()], [[eval_start]],
            policies=[PeriodicPolicy], bids=[0.81],
            zones=trace.zone_names[:2], seed=7,
        )
        assert (report.results["fast"] == report.results["tick"]
                == report.results["vector"])
        assert report.results["tick"][0].events

    def test_fast_counters_show_skipping(self):
        report = agree(
            _trace(), [small_config()], [[0.0]], policies=[PeriodicPolicy],
            bids=[0.81], zones=("za",), queue_model=FixedQueueDelay(300.0),
        )
        fast = report.audits["fast"].counters
        tick = report.audits["tick"].counters
        assert fast.ticks_skipped > 0
        assert fast.ticks + fast.ticks_skipped == tick.ticks


def test_harness_names_a_dropped_vector_event(monkeypatch):
    """Self-test: a vector row that loses one logged event is reported
    first, by engine, row and event position."""
    run_cube = VectorSimulator.run_cube

    def drop_second_event_of_row_1(self, *args, **kwargs):
        results = run_cube(self, *args, **kwargs)
        events = results[1].events
        results[1] = replace(results[1], events=events[:1] + events[2:])
        return results

    monkeypatch.setattr(VectorSimulator, "run_cube",
                        drop_second_event_of_row_1)
    report = differential_cube(
        _trace(), [small_config()], [[0.0, 3600.0]],
        policies=[PeriodicPolicy], bids=[0.81], zones=("za",),
        queue_model=FixedQueueDelay(300.0),
    )
    assert not report.ok
    first = report.summary_lines()[0]
    assert first.startswith(
        "differential: vector.row[1](policy=0,shape=0,bid=0.81).event[1]."
    ), first
    assert all(d.where.startswith("vector.row[1]") for d in report.diffs)


#: Total samples per generated zone (25 h of 5-min ticks — room for a
#: 2 h compute + 50% slack run to finish or switch to on-demand).
TRACE_SAMPLES = 300

prices = st.floats(min_value=0.05, max_value=3.0)


@st.composite
def price_traces(draw, zones=("za", "zb")):
    """Piecewise-constant traces of equal length over ``zones``."""
    per_zone = {}
    for zone in zones:
        segments = []
        remaining = TRACE_SAMPLES
        for _ in range(draw(st.integers(1, 5))):
            if remaining <= 10:
                break
            n = draw(st.integers(10, max(10, remaining // 2)))
            segments.append((min(n, remaining), draw(prices)))
            remaining -= segments[-1][0]
        if remaining > 0:
            segments.append((remaining, draw(prices)))
        per_zone[zone] = segments
    return multi_step_trace(per_zone)


#: The six cube families the random-trace half of the contract covers.
FAMILIES = ("run", "start-axis", "bid-grid", "adaptive", "shape-ladder",
            "policy-axis")


@st.composite
def cubes(draw, families=FAMILIES):
    """One random cube of one of ``families``: a single run, a start
    axis at a random bid, a (bid x start) grid with its clone plan, an
    Adaptive start axis over a candidate bid grid and re-evaluation
    period, a random deadline ladder over that grid, or two to four
    policies over a ladder, a bid grid and one or three zones."""
    family = draw(st.sampled_from(families))
    zones = ("za", "zb", "zc") if family == "policy-axis" else ("za", "zb")
    base = small_config()
    configs = [base]
    if family in ("shape-ladder", "policy-axis"):
        configs = [
            replace(base, deadline_s=base.compute_s * (1.0 + s))
            for s in draw(st.lists(
                st.sampled_from([0.2, 0.5, 0.8, 1.2, 2.0]),
                min_size=1, max_size=3, unique=True,
            ))
        ]
    starts = {"run": [0.0], "start-axis": [0.0, 7200.0],
              "adaptive": [0.0, 7200.0]}.get(family, [0.0, 3600.0])
    cube = {"trace": draw(price_traces(zones=zones)), "configs": configs,
            "starts_per_shape": [starts] * len(configs)}
    if family == "adaptive":
        bids = draw(st.sampled_from([
            (0.27, 0.40, 0.81), (0.15, 0.35, 0.50, 1.20), (0.30, 2.40),
        ]))
        # off the hour, the re-evaluation timer is an epoch of its own
        every = draw(st.sampled_from([3600.0, 1500.0]))
        cube["controller_factory"] = lambda: AdaptiveController(
            bids=bids, reevaluate_every_s=every
        )
        return cube
    labels = st.sampled_from(sorted(POLICY_FACTORIES))
    if family == "policy-axis":
        cube["policies"] = [POLICY_FACTORIES[label] for label in draw(
            st.lists(labels, min_size=2, max_size=4, unique=True)
        )]
        cube["bids"] = draw(st.lists(
            st.sampled_from([0.27, 0.5, 0.81, 2.4]),
            min_size=1, max_size=3, unique=True,
        ))
        cube["zones"] = zones[:draw(st.sampled_from([1, 3]))]
        return cube
    cube["policies"] = [POLICY_FACTORIES[draw(labels)]]
    cube["bids"] = (
        [draw(st.floats(min_value=0.15, max_value=2.5))]
        if family in ("run", "start-axis") else [0.27, 0.5, 0.81]
    )
    cube["zones"] = zones[:draw(st.integers(1, 2))]
    return cube


@settings(max_examples=51, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cube=cubes())
# two bid-invariant policies whose three bids form one class on za:
# the clone plan must stay inside each policy's block
@example(cube={"trace": _trace(), "configs": [small_config()],
               "starts_per_shape": [[0.0, 3600.0]],
               "policies": [POLICY_FACTORIES["edge"],
                            POLICY_FACTORIES["periodic"]],
               "bids": [0.27, 0.5, 0.81],
               "zones": ("za",)})
def test_engines_agree_on_random_cubes(cube):
    """Hypothesis over the union of the six families; each family also
    has a test of its own beside the calibrated cases it covers."""
    agree_on_random_cube(cube)


def agree_on_random_cube(cube):
    """On a random cube every fast and vector row matches its tick row
    (result, events, RNG draws), both audits are clean, and each
    policy's block holds only that policy's rows."""
    report = agree(**cube, queue_model=FixedQueueDelay(300.0))
    policies = cube.get("policies", ())
    rows = report.results["vector"]
    for p, factory in enumerate(policies):
        block = rows[p * len(rows) // len(policies):
                     (p + 1) * len(rows) // len(policies)]
        assert {r.policy_name for r in block} == {factory().name}

"""RunAuditor attached to real engine runs: lifecycle, counters, strict
mode, and fast-vs-tick stream identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import (
    META_KINDS,
    InvariantError,
    MemorySink,
    RunAuditor,
    diff_events,
)
from repro.core.engine import SpotSimulator
from repro.core.periodic import PeriodicPolicy
from repro.market.instance import ZoneState
from repro.market.queuing import FixedQueueDelay
from repro.market.spot_market import PriceOracle

from tests.conftest import multi_step_trace, small_config


def _audited_sim(trace, mode="fast", sink=None, strict=False, seed=0):
    auditor = RunAuditor(sink=sink, strict=strict)
    sim = SpotSimulator(
        oracle=PriceOracle(trace),
        queue_model=FixedQueueDelay(300.0),
        rng=np.random.default_rng(seed),
        engine_mode=mode,
        auditor=auditor,
    )
    return sim, auditor


def _volatile_trace():
    return multi_step_trace({
        "za": [(40, 0.25), (30, 1.50), (120, 0.25), (98, 2.00)],
        "zb": [(60, 0.40), (40, 0.20), (100, 3.00), (88, 0.30)],
    })


class TestAuditedRun:
    def test_clean_run_has_no_violations(self):
        sim, auditor = _audited_sim(_volatile_trace())
        sim.run(small_config(), PeriodicPolicy(), 0.81, ("za", "zb"), 0.0)
        report = auditor.drain()
        assert report.ok
        assert report.counters.runs == 1

    def test_counters_match_run_shape(self):
        sink = MemorySink()
        sim, auditor = _audited_sim(_volatile_trace(), sink=sink)
        result = sim.run(small_config(), PeriodicPolicy(), 0.81, ("za",), 0.0)
        report = auditor.drain()
        c = report.counters
        assert c.commits == result.num_checkpoints
        assert c.restores == result.num_restarts
        assert c.events == len(sink.events)
        assert c.transitions == sum(
            1 for e in sink.events if e.kind == "transition"
        )

    def test_fast_mode_skips_ticks_that_tick_mode_executes(self):
        reports = {}
        for mode in ("fast", "tick"):
            sim, auditor = _audited_sim(_volatile_trace(), mode=mode)
            sim.run(small_config(), PeriodicPolicy(), 0.81, ("za",), 0.0)
            reports[mode] = auditor.drain()
        fast, tick = reports["fast"].counters, reports["tick"].counters
        assert tick.ticks_skipped == 0
        assert fast.ticks_skipped > 0
        # the fundamental fast-path identity
        assert fast.ticks + fast.ticks_skipped == tick.ticks

    def test_event_streams_identical_between_modes(self):
        sinks = {}
        for mode in ("fast", "tick"):
            sink = MemorySink()
            sim, auditor = _audited_sim(_volatile_trace(), mode=mode, sink=sink)
            sim.run(small_config(), PeriodicPolicy(), 0.81, ("za", "zb"), 0.0)
            auditor.drain()
            sinks[mode] = sink
        fast, tick = (
            [e for e in sinks[mode].events if e.kind not in META_KINDS]
            for mode in ("fast", "tick")
        )
        assert fast and diff_events(fast, tick) == []

    def test_run_start_and_end_events_bracket_the_stream(self):
        sink = MemorySink()
        sim, auditor = _audited_sim(_volatile_trace(), sink=sink)
        sim.run(small_config(), PeriodicPolicy(), 0.81, ("za",), 0.0)
        assert sink.events[0].kind == "run-start"
        assert sink.events[-1].kind == "run-end"
        data = dict(sink.events[-1].data)
        assert data["violations"] == 0
        assert data["runs"] == 1

    def test_many_runs_aggregate_until_drained(self):
        sim, auditor = _audited_sim(_volatile_trace())
        for start in (0.0, 3600.0, 7200.0):
            sim.run(small_config(), PeriodicPolicy(), 0.81, ("za",), start)
        report = auditor.drain()
        assert report.counters.runs == 3
        # drained: the next report starts from zero
        assert auditor.drain().counters.runs == 0

    def test_result_is_returned_unchanged(self):
        sim, auditor = _audited_sim(_volatile_trace())
        audited = sim.run(small_config(), PeriodicPolicy(), 0.81, ("za",), 0.0)
        plain_sim = SpotSimulator(
            oracle=PriceOracle(_volatile_trace()),
            queue_model=FixedQueueDelay(300.0),
            rng=np.random.default_rng(0),
        )
        plain = plain_sim.run(small_config(), PeriodicPolicy(), 0.81, ("za",), 0.0)
        assert audited == plain


class TestStrictMode:
    def test_strict_raises_on_violation(self):
        from repro.app.checkpoint import CheckpointStore
        from repro.app.workload import ExperimentConfig
        from repro.market.instance import ZoneInstance
        from types import SimpleNamespace

        auditor = RunAuditor(strict=True)
        config = ExperimentConfig(compute_s=7200.0, deadline_s=10800.0,
                                  ckpt_cost_s=300.0, restart_cost_s=300.0)
        instances = {"za": ZoneInstance(zone="za")}
        auditor.begin_run(
            policy_name="periodic", bid=0.81, zones=("za",), start_time=0.0,
            deadline=10800.0, engine_mode="fast", config=config,
            store=CheckpointStore(), instances=instances,
        )
        # the instance observer now reports to the checker: corrupt it
        instances["za"].state = ZoneState.COMPUTING
        instances["za"]._transition(ZoneState.WAITING)
        result = SimpleNamespace(
            finish_time=3600.0, deadline=10800.0, completed_on="spot",
            spot_cost=0.0, spot_hours_charged=0, ondemand_cost=0.0,
            ondemand_switch_time=None, total_cost=0.0,
        )
        with pytest.raises(InvariantError, match="illegal edge"):
            auditor.finish_run(result)
        # the violation was recorded before the raise
        assert not auditor.drain().ok

    def test_non_strict_records_without_raising(self):
        sim, auditor = _audited_sim(_volatile_trace(), strict=True)
        # a clean run in strict mode must not raise
        sim.run(small_config(), PeriodicPolicy(), 0.81, ("za",), 0.0)
        assert auditor.drain().ok

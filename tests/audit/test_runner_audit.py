"""Audit plumbing through ExperimentRunner and the process pool."""

from __future__ import annotations

import json

import pytest

from repro.app.workload import paper_experiment
from repro.experiments.runner import ExperimentRunner

from tests.conftest import small_config


def _records(runner, config):
    return runner.run_single_zone(
        "markov-daly", config, 0.81, zones=runner.trace.zone_names[:1]
    )


class TestSerialAudit:
    def test_audit_does_not_change_results(self):
        config = small_config()
        plain = _records(ExperimentRunner("low", num_experiments=2), config)
        audited_runner = ExperimentRunner("low", num_experiments=2, audit=True)
        audited = _records(audited_runner, config)
        assert [r.result for r in audited] == [r.result for r in plain]

    def test_drain_reports_every_run(self):
        runner = ExperimentRunner("low", num_experiments=3, audit=True)
        _records(runner, small_config())
        report = runner.drain_audit()
        assert report.ok
        assert report.counters.runs == 3
        # drained: a second drain starts from zero
        assert runner.drain_audit().counters.runs == 0

    def test_audit_out_implies_audit_and_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        runner = ExperimentRunner("low", num_experiments=2, audit_out=path)
        assert runner.audit
        _records(runner, small_config())
        runner.close()
        lines = [json.loads(line) for line in open(path)]
        assert lines[0]["kind"] == "run-start"
        assert sum(1 for d in lines if d["kind"] == "run-end") == 2

    def test_audit_off_by_default(self):
        runner = ExperimentRunner("low", num_experiments=2)
        assert runner.auditor is None
        _records(runner, small_config())
        assert runner.drain_audit().counters.runs == 0


class TestParallelAudit:
    def test_parallel_audited_records_match_serial(self):
        config = small_config()
        serial = _records(ExperimentRunner("low", num_experiments=4), config)
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              audit=True) as runner:
            parallel = _records(runner, config)
            report = runner.drain_audit()
        assert parallel == serial
        assert report.ok
        assert report.counters.runs == 4

    @pytest.mark.parametrize("name", ["sweep.jsonl", "run[1].jsonl"])
    def test_workers_merge_per_process_jsonl(self, tmp_path, name):
        """Per-worker sidecars exist while the pool lives and are merged
        into the main stream (and removed) when the runner closes, so
        repeated sweeps cannot accumulate orphaned ``.w<pid>`` files.
        The sidecar match is literal: glob metacharacters in the name
        select nothing else, and an unrelated look-alike survives."""
        path = tmp_path / name
        decoy = tmp_path / "run1.jsonl.w9"
        decoy.write_text('{"kind": "decoy"}\n')
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              audit_out=str(path)) as runner:
            _records(runner, small_config())
            report = runner.drain_audit()
            assert any(p.name.startswith(f"{name}.w")
                       for p in tmp_path.iterdir())
        assert report.counters.runs == 4
        assert sorted(tmp_path.iterdir()) == sorted([path, decoy])
        assert decoy.read_text() == '{"kind": "decoy"}\n'
        run_ends = 0
        for line in path.read_text().splitlines():
            event = json.loads(line)
            assert event["kind"] != "decoy"
            if event["kind"] == "run-end":
                run_ends += 1
        assert run_ends == 4

    def test_worker_init_truncates_recycled_sidecar(self, tmp_path):
        """A reused pid must never append to a stale sidecar: worker
        initialization removes any leftover ``.w<pid>`` file."""
        import os

        from repro.experiments import parallel

        path = str(tmp_path / "sweep.jsonl")
        stale = tmp_path / f"sweep.jsonl.w{os.getpid()}"
        stale.write_text('{"kind": "stale-event"}\n')
        saved_runner = parallel._WORKER_RUNNER
        try:
            from repro.market.queuing import QueueDelayModel

            parallel._init_worker(
                "low", 2, 0, QueueDelayModel(), audit=True, audit_out=path,
            )
            assert not stale.exists()
        finally:
            parallel._WORKER_RUNNER = saved_runner

    @pytest.mark.parametrize("engine_mode", ["fast", "tick"])
    def test_adaptive_sweep_zero_violations(self, engine_mode):
        """An audited 2-worker Adaptive sweep: every worker-side run is
        checked and none violates an invariant."""
        config = paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              engine_mode=engine_mode, audit=True) as runner:
            records = runner.run_adaptive(config)
            report = runner.drain_audit()
        assert records
        assert report.counters.runs > 0
        assert report.ok, f"workers reported violations: {report.violations}"

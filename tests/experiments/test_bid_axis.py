"""Bid axis: equivalence classes and record identity.

The contract under test: a one-shape :meth:`ExperimentRunner.run_cube`
returns per-bid record lists identical — values *and* order — to one
independent run per bid (bid-invariant policies through
availability-equivalence clones, the others simulating every bid),
and the audited event streams of two bids in the same availability
equivalence class are bit-identical.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.app.workload import paper_experiment
from repro.audit import META_KINDS, MemorySink, RunAuditor, diff_events
from repro.core.bid_batch import bid_equivalence_classes
from repro.core.engine import SpotSimulator
from repro.core.periodic import PeriodicPolicy
from repro.experiments.runner import POLICY_FACTORIES, CellTask, ExperimentRunner
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle

BIDS = (0.2, 0.27, 0.35, 0.5, 0.81, 1.2, 2.4)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner("low", num_experiments=3)


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.5)


class TestEquivalenceClasses:
    def test_partition(self, runner, config):
        start = float(runner.starts(config)[0])
        classes = bid_equivalence_classes(
            runner.trace, runner.trace.zone_names, BIDS, start,
            config.deadline_s,
        )
        flattened = [b for cls in classes for b in cls.members]
        assert flattened == sorted(set(BIDS))
        for cls in classes:
            assert cls.representative == cls.members[0]

    def test_matches_brute_force_patterns(self, runner, config):
        """Same class ⟺ same ``price <= bid`` pattern in every zone."""
        start = float(runner.starts(config)[0])
        zones = runner.trace.zone_names
        classes = bid_equivalence_classes(
            runner.trace, zones, BIDS, start, config.deadline_s
        )
        class_of = {b: i for i, cls in enumerate(classes) for b in cls.members}

        ref = runner.trace.zones[0]
        i0 = ref.index_at(start)
        end = start + config.deadline_s

        def pattern(bid):
            rows = []
            for zone in zones:
                zt = runner.trace.zone(zone)
                i1 = zt.index_at(min(end, zt.end_time - 1e-9)) + 1
                rows.append(tuple(zt.prices[i0:i1] <= bid))
            return tuple(rows)

        for a in BIDS:
            for b in BIDS:
                same_class = class_of[a] == class_of[b]
                assert same_class == (pattern(a) == pattern(b)), (a, b)

    def test_empty_and_duplicate_bids(self, runner, config):
        start = float(runner.starts(config)[0])
        assert bid_equivalence_classes(
            runner.trace, runner.trace.zone_names, (), start,
            config.deadline_s,
        ) == []
        classes = bid_equivalence_classes(
            runner.trace, runner.trace.zone_names, (0.81, 0.81), start,
            config.deadline_s,
        )
        assert [cls.members for cls in classes] == [(0.81,)]


def _axis(runner, label, config, bids, **kwargs):
    """One shape's bid axis through the cube."""
    ((axis,),) = runner.run_cube([label], [config], bids, **kwargs)
    return axis


class TestBatchedEqualsPerBid:
    @pytest.mark.parametrize("label", ["periodic", "edge"])
    def test_single_zone(self, runner, config, label):
        batched = _axis(runner, label, config, BIDS)
        per_bid = {b: runner.run_single_zone(label, config, b) for b in BIDS}
        assert batched == per_bid

    @pytest.mark.parametrize("label", ["periodic", "edge"])
    def test_redundant(self, runner, config, label):
        batched = _axis(runner, label, config, BIDS, redundant=True)
        per_bid = {b: runner.run_redundant(label, config, b) for b in BIDS}
        assert batched == per_bid

    def test_per_bid_matches_plain_grids(self, runner, config):
        """The batched axis reproduces per-start run_cell loops bid by
        bid."""
        axis = _axis(runner, "periodic", config, BIDS)
        for bid in BIDS:
            task = CellTask(kind="single-zone", config=config,
                            policies=("periodic",), bid=bid,
                            zones=runner.trace.zone_names)
            assert axis[bid] == [
                r for s in runner.starts(config) for r in runner.run_cell(task, s)
            ]

    @pytest.mark.parametrize("label", ["markov-daly", "threshold"])
    def test_bid_sensitive_policies_fall_back(self, runner, config, label):
        """Policies that consume the bid numerically simulate every bid:
        no clones."""
        assert not POLICY_FACTORIES[label]().bid_invariant
        runner.drain_vector_stats()
        axis = _axis(runner, label, config, (0.27, 0.81))
        assert runner.drain_vector_stats().cloned == 0
        for bid in (0.27, 0.81):
            assert axis[bid] == runner.run_single_zone(label, config, bid)

    def test_parallel_workers_identical(self, config):
        serial = ExperimentRunner("low", num_experiments=3)
        with ExperimentRunner("low", num_experiments=3, workers=2) as par:
            assert _axis(par, "periodic", config, BIDS) == \
                _axis(serial, "periodic", config, BIDS)

    def test_high_window_grid(self, config):
        runner = ExperimentRunner("high", num_experiments=3)
        batched = _axis(runner, "periodic", config, BIDS)
        per_bid = {b: runner.run_single_zone("periodic", config, b)
                   for b in BIDS}
        assert batched == per_bid

    def test_duplicate_bids_collapse(self, runner, config):
        axis = _axis(runner, "periodic", config, (0.81, 0.81, 0.27))
        assert set(axis) == {0.81, 0.27}


class TestAuditedDifferential:
    def _audited_run(self, runner, config, bid, start, zone):
        """One independently audited run; (events without the meta
        kinds, which name the bid, result)."""
        sink = MemorySink()
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=runner.seed,
                                   spawn_key=(int(start),))
        )
        sim = SpotSimulator(
            oracle=PriceOracle(runner.trace),
            queue_model=QueueDelayModel(),
            rng=rng,
            auditor=RunAuditor(sink=sink),
        )
        result = sim.run(config, PeriodicPolicy(), bid, (zone,), start)
        return [e for e in sink.events if e.kind not in META_KINDS], result

    def test_same_class_streams_identical(self, runner, config):
        """Audited runs at two bids of one class differ only in ``bid``."""
        start = float(runner.starts(config)[0])
        zone = runner.trace.zone_names[0]
        classes = bid_equivalence_classes(
            runner.trace, (zone,), BIDS, start, config.deadline_s
        )
        multi = [cls for cls in classes if len(cls.members) > 1]
        assert multi, "bid grid produced no multi-member class"
        for cls in multi:
            rep_events, rep_result = self._audited_run(
                runner, config, cls.representative, start, zone
            )
            for member in cls.members[1:]:
                mem_events, mem_result = self._audited_run(
                    runner, config, member, start, zone
                )
                assert diff_events(rep_events, mem_events) == []
                assert replace(mem_result, bid=cls.representative) == \
                    rep_result

    def test_batched_matches_audited_runs(self, runner, config):
        """Batched clones equal fully audited independent simulations."""
        start = float(runner.starts(config)[0])
        zone = runner.trace.zone_names[0]
        axis = _axis(runner, "periodic", config, BIDS, zones=(zone,))
        for bid in BIDS:
            _, result = self._audited_run(runner, config, bid, start, zone)
            rec = [r for r in axis[bid] if r.start_time == start]
            assert len(rec) == 1
            assert rec[0].result == result

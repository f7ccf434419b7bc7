"""Fused (policy x shape x bid x start) cube: runner-level record identity.

Every cell is a cube chunk (:meth:`ExperimentRunner.run_cube_cell`)
with some axes of length 1.  Whatever the cell kind, bid axis, engine
mode and worker count, its records must be identical — values *and*
order — to a per-start :meth:`ExperimentRunner.run_cell` loop; the
parallel path (:meth:`SweepExecutor.map_cube`) must merge its
contiguous start chunks back into the same records; and audited or
``engine_mode="tick"`` runners must simulate per run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.app.workload import paper_experiment
from repro.experiments.runner import POLICY_FACTORIES, CellTask, ExperimentRunner

BIDS = (0.27, 0.35, 0.81)
SLACKS = (0.15, 0.5, 1.0)


@pytest.fixture(scope="module")
def shapes():
    return [paper_experiment(slack_fraction=s) for s in SLACKS]


@pytest.fixture(scope="module")
def vector_runner():
    return ExperimentRunner("low", num_experiments=3, engine_mode="vector")


@pytest.fixture(scope="module")
def per_shape_grids(shapes):
    """The comparison baseline: per-run cells, one per (shape, bid)."""
    runner = ExperimentRunner("low", num_experiments=3)

    def cell(label, cfg, bid, n):
        if n > 1:
            return runner.run_redundant(label, cfg, bid, num_zones=n)
        return runner.run_single_zone(label, cfg, bid)

    return {
        (label, n): [
            {bid: cell(label, cfg, bid, n) for bid in BIDS} for cfg in shapes
        ]
        for label in sorted(POLICY_FACTORIES)
        for n in (1, 3)
    }


class TestRunCubeEquivalence:
    @pytest.mark.parametrize("label", sorted(POLICY_FACTORIES))
    def test_single_zone_matches_per_shape(
        self, vector_runner, shapes, per_shape_grids, label
    ):
        (cube,) = vector_runner.run_cube([label], shapes, BIDS)
        assert cube == per_shape_grids[(label, 1)]

    @pytest.mark.parametrize("label", ["periodic", "markov-daly"])
    def test_redundant_matches_per_shape(
        self, vector_runner, shapes, per_shape_grids, label
    ):
        (cube,) = vector_runner.run_cube([label], shapes, BIDS,
                                         redundant=True, num_zones=3)
        assert cube == per_shape_grids[(label, 3)]

    @pytest.mark.parametrize("n", [1, 3])
    def test_policy_axis_matches_per_policy(
        self, vector_runner, shapes, per_shape_grids, n
    ):
        """Every policy in one pass per zone wave: per policy, the same
        records as that policy's own per-run cells."""
        labels = sorted(POLICY_FACTORIES)
        cube = vector_runner.run_cube(labels, shapes, BIDS,
                                      redundant=n > 1, num_zones=n)
        assert cube == [per_shape_grids[(label, n)] for label in labels]

    def test_policy_axis_keeps_caller_order(self, vector_runner, shapes):
        fused = vector_runner.run_cube(["markov-daly", "periodic"],
                                       shapes[:1], BIDS)
        assert fused == [
            vector_runner.run_cube([label], shapes[:1], BIDS)[0]
            for label in ("markov-daly", "periodic")
        ]

    def test_bare_label_rejected(self, vector_runner, shapes):
        with pytest.raises(TypeError, match="sequence of policy labels"):
            vector_runner.run_cube("periodic", shapes[:1], BIDS)

    def test_fast_engine_mode_matches(self, shapes, per_shape_grids):
        """The cube contract holds under engine_mode='fast' too."""
        runner = ExperimentRunner("low", num_experiments=3)
        (cube,) = runner.run_cube(["periodic"], shapes[:2], BIDS)
        assert cube == per_shape_grids[("periodic", 1)][:2]

    def test_duplicate_bids_collapse(self, vector_runner, shapes):
        (cube,) = vector_runner.run_cube(["periodic"], shapes[:1],
                                         (0.27, 0.27, 0.81))
        assert sorted(cube[0]) == [0.27, 0.81]

    def test_single_shape_matches_per_bid_runs(self, vector_runner, shapes,
                                               per_shape_grids):
        (cube,) = vector_runner.run_cube(["threshold"], shapes[:1], BIDS)
        assert cube == per_shape_grids[("threshold", 1)][:1]

    def test_empty_shapes_rejected(self, vector_runner, shapes):
        with pytest.raises(ValueError, match="at least one job shape"):
            vector_runner.run_cube(["periodic"], [], BIDS)
        with pytest.raises(ValueError, match="at least one policy"):
            vector_runner.run_cube([], shapes, BIDS)


class TestParallelCube:
    def test_map_cube_matches_serial(self, shapes, per_shape_grids):
        with ExperimentRunner("low", num_experiments=3,
                              engine_mode="vector", workers=2) as runner:
            cube = runner.run_cube(["periodic", "markov-daly"], shapes, BIDS)
        assert cube == [per_shape_grids[("periodic", 1)],
                        per_shape_grids[("markov-daly", 1)]]

    def test_map_cube_ships_vector_stats(self, shapes):
        with ExperimentRunner("low", num_experiments=3,
                              engine_mode="vector", workers=2) as runner:
            runner.run_cube(["markov-daly"], shapes[:2], BIDS)
            stats = runner.drain_vector_stats()
        assert stats is not None and stats.native > 0


class TestAuditedCube:
    def test_audited_cube_falls_back_per_run(self, shapes, per_shape_grids):
        runner = ExperimentRunner("low", num_experiments=3,
                                  engine_mode="vector", audit=True)
        cube = runner.run_cube(["periodic", "edge"], shapes[:2], BIDS)
        assert cube == [per_shape_grids[("periodic", 1)][:2],
                        per_shape_grids[("edge", 1)][:2]]
        report = runner.drain_audit()
        assert report.ok and report.counters.runs > 0
        runner.close()


# -- every cell kind x bid axis x engine mode x worker count -------------

CONFIG = paper_experiment(slack_fraction=0.5)
#: The bid axes: one bid, and several with a duplicate (Adaptive and
#: Large-bid cells have no bid axis, so they only take the first).
BID_AXES = {"one-bid": (0.27,), "bids": (0.27, 0.81, 0.27, 2.40)}
CASES = [
    (kind, axis)
    for kind in ("single-zone", "redundant", "large-bid", "adaptive")
    for axis in BID_AXES
    if axis == "one-bid" or kind in ("single-zone", "redundant")
]


@pytest.fixture(scope="module")
def runners():
    """One runner per (engine mode, workers), shared by every case."""
    made: dict[tuple[str, int], ExperimentRunner] = {}

    def get(engine: str, workers: int) -> ExperimentRunner:
        if (engine, workers) not in made:
            made[(engine, workers)] = ExperimentRunner(
                "low", num_experiments=3, engine_mode=engine, workers=workers
            )
        return made[(engine, workers)]

    yield get
    for runner in made.values():
        runner.close()


def _cell(runner, kind, bids):
    """Run one cell through its public entry point: ``{bid: records}``
    and the cell task a per-start loop replays."""
    zones = runner.trace.zone_names
    if kind in ("single-zone", "redundant"):
        task = CellTask(kind=kind, config=CONFIG, policies=("periodic",),
                        zones=zones, num_zones=2)
        ((got,),) = runner.run_cube(["periodic"], [CONFIG], bids,
                                    redundant=kind == "redundant",
                                    num_zones=2)
        return got, task
    if kind == "large-bid":
        task = CellTask(kind=kind, config=CONFIG, threshold=0.81, zones=zones)
        return {bids[0]: runner.run_large_bid(CONFIG, 0.81)}, task
    task = CellTask(kind=kind, config=CONFIG)
    return {bids[0]: runner.run_adaptive(CONFIG)}, task


@pytest.mark.parametrize("engine", ["vector", "fast", "tick"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind,axis", CASES)
def test_cell_matches_per_start_cells(runners, kind, axis, workers, engine):
    runner = runners(engine, workers)
    runner.drain_vector_stats()
    bids = BID_AXES[axis]
    got, task = _cell(runner, kind, bids)
    want = {
        bid: [
            r for start in runner.starts(CONFIG)
            for r in runner.run_cell(replace(task, bid=bid), start)
        ]
        for bid in dict.fromkeys(got)
    }
    assert list(got) == list(dict.fromkeys(bids))
    assert list(got.items()) == list(want.items())
    # the runner's engine rule: "vector" batches every cell, "fast"
    # only a cube of more than one (policy, shape, bid) cell, "tick"
    # none
    vectorised = engine == "vector" or (engine == "fast" and len(got) > 1)
    stats = runner.drain_vector_stats()
    assert (stats is not None) == vectorised
    if vectorised:
        assert stats.fallback == {}


@pytest.mark.parametrize("kind", ["large-bid", "adaptive"])
def test_bidless_cells_take_one_bid(vector_runner, kind):
    task = CellTask(kind=kind, config=CONFIG,
                    zones=vector_runner.trace.zone_names)
    starts = [float(s) for s in vector_runner.starts(CONFIG)]
    with pytest.raises(ValueError, match="exactly one bid"):
        vector_runner.run_cube_cell(task, [CONFIG], [0.27, 0.81], [starts])


"""The benchmark's tracer patches program entry points by name.

``perfbench/tracing.py`` wraps methods through ``cls.__dict__[attr]``,
so renaming or removing a patched name raises ``KeyError`` only when
the benchmark runs.  Registering and installing the tracer in a fresh
interpreter here makes such a rename fail the unit suite instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.tracing import Tracer, install, register
tracer = Tracer()
register(tracer)
install(tracer)
"""


def test_tracer_installs_on_every_patched_name():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_record_count_walks_real_cube_cells():
    """The tracer counts ``runner.records`` by walking a cell's lists
    and ``(bid, records)`` tuples; a dict would count as one record.
    Every patched cell entry point must return a shape it walks
    exactly, policy axis included."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.tracing import Tracer, _count_records
    finally:
        sys.path.remove(str(ROOT))
    from repro.app.workload import paper_experiment
    from repro.experiments.metrics import RunRecord
    from repro.experiments.runner import CellTask, ExperimentRunner

    runner = ExperimentRunner("low", num_experiments=2, engine_mode="vector")
    configs = [paper_experiment(slack_fraction=s) for s in (0.5, 1.0)]
    task = CellTask(kind="single-zone", config=configs[0], bid=0.27,
                    policies=("periodic", "markov-daly"),
                    zones=runner.trace.zone_names[:2])
    starts = [[float(s) for s in runner.starts(cfg)] for cfg in configs]
    bids = [0.27, 0.81]

    def counted(result) -> int:
        tracer = Tracer()
        _count_records(tracer, result)
        return tracer.counts["runner.records"]

    cell = runner.run_cube_cell(task, configs, bids, starts)
    records = [
        r for per_shape in cell for pairs in per_shape
        for _, recs in pairs for r in recs
    ]
    assert all(isinstance(r, RunRecord) for r in records)
    assert counted(cell) == len(records) == 2 * 2 * 2 * sum(map(len, starts))
    grid = runner.run_grid_cell(task, bids, starts[0])
    assert counted(grid) == 2 * 2 * 2 * len(starts[0])
    axis = runner.run_start_axis_cells(task, starts[0])
    assert counted(axis) == 2 * 2 * len(starts[0])

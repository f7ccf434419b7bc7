"""Pinned outputs: what the figure commands print and the records behind
them, on every engine path.

The fast and vector engines, the run cache and the Adaptive statistics
are all allowed to change only how fast a result is reached, never the
result.  This test holds that contract end to end.  It pins the stdout
of three simulating commands at ``--experiments 4``, run in-process
through :func:`repro.cli.main`, and one SHA-256 over the records of a
two-policy x three-bid cube that every engine path (``tick``,
``fast``, ``vector`` and an audited runner) must reproduce.  The
records are hashed through ``repr(dataclasses.astuple(...))``, which
writes every float exactly, so a one-ulp change to any field fails.

A change that alters results on purpose updates the pinned text or
digest and explains why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from repro.app.workload import paper_experiment
from repro.cli import main
from repro.experiments.runner import ExperimentRunner

FIG4_LOW = """\
Figure 4 — window=low slack=15% t_c=300s
policy          bid   min    q1     median  q3     max    n   viol
--------------  ----  -----  -----  ------  -----  -----  --  ----
threshold       0.27  14.73  36.49  43.35   48.27  48.27  12  0
edge            0.27  14.73  37.09  42.42   48.27  48.27  12  0
periodic        0.27  14.46  33.30  39.75   48.27  48.54  12  0
markov-daly     0.27  14.46  36.29  39.88   48.27  48.27  12  0
redundant-best  0.27  9.99   10.40  11.07   12.01  13.23  4   0
threshold       0.81  5.68   5.79   6.04    6.29   7.37   12  0
edge            0.81  5.68   5.95   6.08    6.49   7.37   12  0
periodic        0.81  6.16   6.31   6.39    6.76   7.64   12  0
markov-daly     0.81  5.68   5.81   6.08    6.34   7.37   12  0
redundant-best  0.81  18.18  18.28  18.44   18.65  18.94  4   0
threshold       2.40  5.68   5.79   6.04    6.29   7.37   12  0
edge            2.40  5.68   5.95   6.08    6.49   7.37   12  0
periodic        2.40  6.16   6.31   6.39    6.76   7.64   12  0
markov-daly     2.40  5.68   5.79   6.04    6.29   7.37   12  0
redundant-best  2.40  18.18  18.28  18.44   18.65  18.94  4   0
reference lines: on_demand=$48.00  lowest_spot=$5.40
"""

FIG5 = """\
Figure 5 — window=low slack=15% t_c=300s
policy          bid   min    q1     median  q3     max    n   viol
--------------  ----  -----  -----  ------  -----  -----  --  ----
periodic        0.81  6.16   6.31   6.39    6.76   7.64   12  0
markov-daly     0.81  5.68   5.81   6.08    6.34   7.37   12  0
redundant-best  0.81  18.18  18.28  18.44   18.65  18.94  4   0
adaptive        -     7.44   7.93   21.80   38.55  47.64  4   0
reference lines: on_demand=$48.00  lowest_spot=$5.40
"""

TABLE2 = """\
Table2
volatility  slack  optimal policy    median $
----------  -----  ----------------  --------
low         15%    markov-daly@2.40  6.04
low         50%    markov-daly@0.81  5.99
high        15%    redundant@0.81    32.73
high        50%    periodic@2.40     17.83
"""

#: command line (without ``--experiments 4``) -> pinned stdout.
PINNED_STDOUT = {
    "fig4 --window low": FIG4_LOW,
    "fig5": FIG5,
    "table2": TABLE2,
}

#: SHA-256 of the records of :func:`cube_digest`'s cube.
PINNED_CUBE = "9a281707b187c3f2138a6ce24bc33ffcd3ff81b9fdb2f4b252b437fbd3f54ac8"


def first_difference(command: str, got: str, expected: str) -> str | None:
    """Name the command and the first line where ``got`` departs from
    ``expected``; ``None`` when they are equal."""
    got_lines, exp_lines = got.splitlines(), expected.splitlines()
    for i, (g, e) in enumerate(zip(got_lines, exp_lines)):
        if g != e:
            return f"{command}: line {i + 1}: expected {e!r}, got {g!r}"
    if len(got_lines) != len(exp_lines):
        return (
            f"{command}: {len(got_lines)} lines, expected {len(exp_lines)}"
        )
    return None


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_cli_stdout_is_pinned(command, capsys):
    assert main(command.split() + ["--experiments", "4"]) == 0
    diff = first_difference(
        command, capsys.readouterr().out, PINNED_STDOUT[command]
    )
    assert diff is None, diff


def cube_digest(**runner_options) -> str:
    """SHA-256 over every record of a Periodic + Markov-Daly cube at
    three bids on the low window, in the order ``run_cube`` returns."""
    runner = ExperimentRunner("low", num_experiments=4, **runner_options)
    cube = runner.run_cube(
        ["periodic", "markov-daly"],
        [paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)],
        [0.27, 0.81, 2.40],
    )
    h = hashlib.sha256()
    for per_shape in cube:
        for by_bid in per_shape:
            for records in by_bid.values():
                for record in records:
                    h.update(repr(astuple(record)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "runner_options",
    [{"engine_mode": "tick"}, {"engine_mode": "fast"},
     {"engine_mode": "vector"}, {"audit": True}],
    ids=["tick", "fast", "vector", "audited"],
)
def test_cube_records_digest_is_pinned(runner_options):
    assert cube_digest(**runner_options) == PINNED_CUBE

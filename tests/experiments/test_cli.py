"""Smoke tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["fig2"],
            ["var"],
            ["queuing"],
            ["fig4", "--window", "high", "--slack", "0.5"],
            ["table2"],
            ["table3"],
            ["fig5", "--tc", "900"],
            ["fig6"],
            ["headline"],
            ["run", "--policy", "adaptive"],
            ["export-trace", "/tmp/x.csv"],
        ):
            assert parser.parse_args(argv) is not None


class TestExecution:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "combined" in out

    def test_queuing(self, capsys):
        assert main(["queuing"]) == 0
        assert "delay" in capsys.readouterr().out

    def test_run_single_policy(self, capsys):
        assert main(["run", "--policy", "periodic", "--window", "low",
                     "--slack", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "total cost" in out
        assert "met deadline: True" in out

    def test_run_adaptive(self, capsys):
        assert main(["run", "--policy", "adaptive", "--window", "low",
                     "--slack", "0.5"]) == 0
        assert "adaptive" in capsys.readouterr().out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--window", "low", "--slack", "0.5",
                     "--experiments", "2"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "redundant-best" in out

    def test_export_trace(self, tmp_path, capsys):
        path = tmp_path / "archive.csv"
        assert main(["export-trace", str(path)]) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_parses(self):
        parser = build_parser()
        for axis in ("slack", "tc", "bid", "zones"):
            args = parser.parse_args(["sweep", "--axis", axis])
            assert args.axis == axis

    def test_sweep_zones_executes(self, capsys):
        assert main(["sweep", "--axis", "zones", "--window", "low",
                     "--experiments", "2"]) == 0
        out = capsys.readouterr().out
        assert "median" in out
        assert "zones" in out


class TestVectorEngineLine:
    def test_vector_engine_prints_stats_to_stderr(self, capsys):
        """--engine vector reports native/cloned/fallback counts once."""
        assert main(["sweep", "--axis", "zones", "--window", "low",
                     "--experiments", "2", "--engine", "vector"]) == 0
        captured = capsys.readouterr()
        assert "vector-engine: native=" in captured.err
        assert "vector-engine" not in captured.out

    def test_fast_engine_prints_no_vector_line(self, capsys):
        assert main(["sweep", "--axis", "zones", "--window", "low",
                     "--experiments", "2"]) == 0
        assert "vector-engine" not in capsys.readouterr().err

    def test_stderr_line_reasons_come_from_closed_enum(self, capsys):
        """The stats line is an operator contract: counts plus an
        optional per-reason breakdown drawn only from the documented
        fallback enum."""
        import re

        from repro.core.vector_engine import FALLBACK_REASONS

        assert main(["fig5", "--window", "low", "--slack", "0.5",
                     "--experiments", "2", "--engine", "vector"]) == 0
        err = capsys.readouterr().err
        match = re.search(
            r"vector-engine: native=(\d+) cloned=(\d+) fallback=(\d+)"
            r"(?: \(([^)]*)\))?",
            err,
        )
        assert match, err
        if match.group(4):
            for part in match.group(4).split():
                reason, _, count = part.partition("=")
                assert reason in FALLBACK_REASONS
                assert count.isdigit()

    def test_adaptive_figure_reports_native_no_fallback(self, capsys):
        """Figure 5's Adaptive cells ride the batched decision columns:
        the stats line must show zero fallbacks."""
        assert main(["fig5", "--window", "low", "--slack", "0.5",
                     "--experiments", "2", "--engine", "vector"]) == 0
        err = capsys.readouterr().err
        assert "vector-engine: native=" in err
        assert "fallback=0" in err


class TestFig1Command:
    def test_fig1_renders_timeline(self, capsys):
        assert main(["fig1", "--window", "low", "--slack", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "price us-east-1a" in out
        assert "legend" in out


class TestCacheCommand:
    def test_cache_dir_warm_rerun_identical(self, tmp_path, capsys):
        argv = ["fig4", "--window", "low", "--experiments", "2",
                "--cache-dir", str(tmp_path / "rc")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "misses=" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "misses=0 " in warm.err

    def test_cache_inspect_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "rc")
        assert main(["run", "--policy", "periodic", "--window", "low",
                     "--slack", "0.5", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", cache_dir]) == 0
        assert "1 cached runs" in capsys.readouterr().out
        assert main(["cache", cache_dir, "--clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(["cache", cache_dir]) == 0
        assert "0 cached runs" in capsys.readouterr().out


#: Every run option with a sample value.
RUN_OPTIONS = {
    "--experiments": ["2"],
    "--seed": ["5"],
    "--workers": ["2"],
    "--engine": ["fast"],
    "--audit": [],
    "--audit-out": ["a.jsonl"],
    "--cache-dir": ["rc"],
}
NON_SEED = tuple(opt for opt in RUN_OPTIONS if opt != "--seed")
#: (command, option) pairs a command does not honour and must refuse.
REJECTED = [
    *((cmd, opt) for cmd in ("fig1", "run")
      for opt in ("--experiments", "--workers")),
    *((cmd, opt) for cmd in ("fig2", "var", "export-trace") for opt in NON_SEED),
    *(("queuing", opt) for opt in RUN_OPTIONS),
    *((cmd, opt) for cmd in ("surface", "advise", "serve")
      for opt in ("--engine", "--audit", "--audit-out")),
]


def _base_argv(command: str, tmp_path) -> list[str]:
    """A small, otherwise valid invocation of ``command``."""
    store = ["--store", str(tmp_path / "surfaces"), "--compute-hours", "2",
             "--experiments", "2"]
    return {
        "fig1": ["fig1", "--window", "low"],
        "run": ["run", "--policy", "periodic", "--window", "low"],
        "export-trace": ["export-trace", str(tmp_path / "trace.csv")],
        "surface": ["surface", "build", *store, "--policies", "periodic",
                    "--bids", "0.81", "--zone-counts", "1"],
        "advise": ["advise", *store],
        "serve": ["serve", "--store", str(tmp_path / "surfaces")],
    }.get(command, [command])


class TestEveryOptionIsHonoured:
    """A command registers only the run options it acts on: any other
    is an argparse error (exit 2), never silently dropped."""

    def test_rejected_pair_count(self):
        assert len(REJECTED) == 38

    @pytest.mark.parametrize(
        "command,option,value",
        [(cmd, opt, RUN_OPTIONS[opt]) for cmd, opt in REJECTED]
        + [("fig1", "--engine", ["vector"]), ("run", "--engine", ["vector"])],
    )
    def test_unhonoured_option_exits_2(self, command, option, value, tmp_path,
                                       monkeypatch, capsys):
        import io

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as exc:
            main([*_base_argv(command, tmp_path), option, *value])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    def test_table2_reports_audit_and_one_cache_line(self, tmp_path, capsys):
        assert main(["table2", "--experiments", "2", "--audit",
                     "--cache-dir", str(tmp_path / "rc")]) == 0
        captured = capsys.readouterr()
        assert any(line.startswith("audit:")
                   for line in captured.out.splitlines())
        assert captured.err.count("run-cache:") == 1

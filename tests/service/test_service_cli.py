"""CLI smoke tests for the advisor verbs: surface build/ls, advise, serve."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.vector_engine import FALLBACK_REASONS

#: The stderr stats line's whole grammar: fixed counters, an optional
#: parenthesized reason tally, then the run-cache-served row count.
#: Reasons are validated against the closed FALLBACK_REASONS enum
#: separately.
VECTOR_LINE = re.compile(
    r"^vector-engine: native=\d+ cloned=\d+ fallback=\d+"
    r"(?: \((?:[a-z-]+=\d+)(?: [a-z-]+=\d+)*\))? cached=\d+$"
)

SMALL = ["--experiments", "2", "--compute-hours", "2",
         "--policies", "periodic", "--bids", "0.27,0.81", "--zone-counts", "1"]


class TestParser:
    def test_service_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["surface", "build", "--store", "/tmp/s"],
            ["surface", "ls", "--store", "/tmp/s"],
            ["advise", "--store", "/tmp/s", "--budget", "25"],
            ["serve", "--store", "/tmp/s", "--batch", "8"],
        ):
            assert parser.parse_args(argv) is not None

    def test_store_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise"])


class TestSurfaceCommand:
    def test_build_then_ls(self, tmp_path, capsys):
        store = str(tmp_path / "surfaces")
        assert main(["surface", "build", "--store", store,
                     "--slack", "0.5", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "built surface" in out
        assert main(["surface", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 surface(s)" in out
        assert "C=2.0h" in out

    def test_empty_store_ls(self, tmp_path, capsys):
        assert main(["surface", "ls", "--store", str(tmp_path)]) == 0
        assert "0 surface(s)" in capsys.readouterr().out

    def test_build_reports_vector_stats_to_stderr(self, tmp_path, capsys):
        """surface build prints the vector-engine tally so operators
        see when a build silently fell back to scalar runs; the line
        follows the same closed-enum contract as the figure commands."""
        store = str(tmp_path / "surfaces")
        assert main(["surface", "build", "--store", store,
                     "--slack", "0.5", *SMALL]) == 0
        captured = capsys.readouterr()
        assert "vector-engine: native=" in captured.err
        assert "fallback=0" in captured.err
        assert "vector-engine" not in captured.out


class TestFamilyBuildCommand:
    def test_deadlines_builds_a_family(self, tmp_path, capsys):
        store = str(tmp_path / "surfaces")
        assert main(["surface", "build", "--store", store,
                     "--deadlines", "2.4,3,4", *SMALL]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("built surface") == 3
        assert "family of 3 surfaces built in one cube pass" in captured.out
        assert "vector-engine: native=" in captured.err
        assert main(["surface", "ls", "--store", store]) == 0
        assert "3 surface(s)" in capsys.readouterr().out

    def test_deadlines_excludes_slack(self, tmp_path, capsys):
        assert main(["surface", "build", "--store", str(tmp_path),
                     "--deadlines", "3,4", "--slack", "0.5", *SMALL]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestAdviseCommand:
    def test_warm_answer_from_built_surface(self, tmp_path, capsys):
        store = str(tmp_path / "surfaces")
        main(["surface", "build", "--store", store, "--slack", "0.5", *SMALL])
        capsys.readouterr()
        assert main(["advise", "--store", store, "--slack", "0.5",
                     "--compute-hours", "2", "--experiments", "2"]) == 0
        captured = capsys.readouterr()
        assert "recommendation: policy=periodic" in captured.out
        assert "source: surface" in captured.out
        assert "cold_builds=0" in captured.err
        # warm path ran no engine batches: no vector-engine line
        assert "vector-engine" not in captured.err

    def test_cold_build_through_reports_vector_stats(self, tmp_path, capsys):
        """A cold advise runs surface builds through the engine, so the
        stderr report carries the same vector-engine tally line that
        `surface build` prints, ahead of the advisor counters."""
        assert main(["advise", "--store", str(tmp_path / "empty"),
                     "--slack", "0.5", "--compute-hours", "2",
                     "--experiments", "2"]) == 0
        captured = capsys.readouterr()
        assert "source: cold" in captured.out
        assert "cold_builds=1" in captured.err
        lines = captured.err.splitlines()
        vector_lines = [l for l in lines if l.startswith("vector-engine:")]
        assert len(vector_lines) == 1
        # the line's format is pinned: fixed counters plus reasons drawn
        # only from the engine's closed fallback enum
        assert VECTOR_LINE.match(vector_lines[0]), vector_lines[0]
        reasons = {
            tok.split("=")[0]
            for tok in re.findall(r"\(([^)]*)\)", vector_lines[0])
            for tok in tok.split()
        }
        assert reasons <= FALLBACK_REASONS
        # ordering: engine tally first, advisor counters after
        assert lines.index(vector_lines[0]) < lines.index(
            next(l for l in lines if l.startswith("advisor:"))
        )


class TestServeCommand:
    def test_jsonl_loop(self, tmp_path, capsys, monkeypatch):
        import io

        store = str(tmp_path / "surfaces")
        main(["surface", "build", "--store", store, "--slack", "0.5", *SMALL])
        capsys.readouterr()

        query = json.dumps(
            {"compute_s": 7200.0, "deadline_s": 10800.0, "ckpt_cost_s": 300.0}
        )
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(query + "\n" + query + "\n")
        )
        assert main(["serve", "--store", store, "--experiments", "2"]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(x) for x in captured.out.splitlines()]
        assert len(responses) == 2
        assert responses[0]["policy"] == "periodic"
        assert "coalesced=1" in captured.err

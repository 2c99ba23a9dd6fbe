"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile"])
        assert args.query == "q1"
        assert args.nodes == 4
        assert args.epsilon == 0.2

    def test_unknown_query_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "--query", "bogus"])


class TestCompile:
    def test_compile_q1(self, capsys):
        code = main(
            ["compile", "--query", "q1", "--nodes", "4", "--capacity", "380"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RLD solution for query 'Q1'" in out
        assert "optimizer calls" in out
        assert "weight" in out

    def test_compile_infeasible_returns_nonzero(self, capsys):
        code = main(
            ["compile", "--query", "q1", "--nodes", "1", "--capacity", "10",
             "--level", "1", "--rate-level", "0"]
        )
        assert code == 1

    def test_compile_profile_prints_stage_breakdown(self, capsys):
        code = main(
            ["compile", "--query", "q1", "--nodes", "4", "--capacity", "380",
             "--level", "2", "--rate-level", "0", "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "compile-time profile:" in out
        assert "partitioning (ERP)" in out
        assert "robustness (weights + loads)" in out
        assert "physical mapping" in out
        assert "total" in out

    def test_compile_without_profile_omits_breakdown(self, capsys):
        main(["compile", "--query", "q1", "--level", "2", "--rate-level", "0"])
        assert "compile-time profile:" not in capsys.readouterr().out

    def test_compile_nway(self, capsys):
        code = main(
            ["compile", "--query", "nway:4", "--nodes", "3",
             "--capacity", "600", "--level", "2"]
        )
        assert code == 0
        assert "J4" in capsys.readouterr().out


class TestDiagram:
    def test_renders_ascii_map(self, capsys):
        code = main(
            ["diagram", "--query", "q1", "--dims", "sel:1", "sel:3",
             "--level", "3", "--points-per-level", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct plans over" in out
        assert "A = " in out

    def test_reduction_flag(self, capsys):
        code = main(
            ["diagram", "--query", "q1", "--dims", "sel:1", "sel:3",
             "--level", "3", "--points-per-level", "2",
             "--reduce-epsilon", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reduced at epsilon=0.3" in out

    def test_requires_two_dims(self):
        with pytest.raises(SystemExit, match="two --dims"):
            main(["diagram", "--query", "q1", "--dims", "sel:1"])


class TestSimulate:
    def test_simulate_prints_table(self, capsys):
        code = main(
            ["simulate", "--query", "q1", "--nodes", "4", "--capacity", "380",
             "--duration", "30", "--strategies", "ROD", "RLD"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ROD" in out
        assert "RLD" in out
        assert "avg ms" in out

    def test_single_strategy(self, capsys):
        code = main(
            ["simulate", "--query", "q1", "--nodes", "4", "--capacity", "380",
             "--duration", "20", "--strategies", "RLD"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DYN" not in out.splitlines()[-1]


class TestErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon", "-1"],
            ["--nodes", "0"],
            ["--capacity", "0"],
            ["--query", "nway:30"],
            ["--level", "12"],
        ],
    )
    def test_invalid_input_is_one_line_with_exit_two(self, flags, capsys):
        code = main(["compile", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

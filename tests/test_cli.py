"""Command line surface: reports, exit codes, file round trips."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import densek.cli
import densek.graph
from densek import (
    example1a,
    example1b,
    gnp,
    load_edge_list,
    planted,
    save_instance,
)
from densek.cli import main

K4P_TEXT = "5 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
# a valid header and first edge, then a byte that is not UTF-8 on line 3
NOT_UTF8 = b"3 2\n0 1\n1 \xff2\n"
# a weighted path whose densities, and ratios against them, are too large
# for a float
HUGE = 10**400
HUGE_TEXT = f"3 2 weighted\n0 1 {HUGE}\n1 2 1\n"
# integers may have at most this many digits, on every Python version
MAX_DIGITS = 4000


@pytest.fixture
def k4p_file(tmp_path):
    target = tmp_path / "k4p.edges"
    target.write_text(K4P_TEXT)
    return target


@pytest.fixture
def no_graph_built(monkeypatch):
    """Fail any Graph construction during the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("Graph was built")

    monkeypatch.setattr(densek.graph, "Graph", refuse)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_strict(cwd, argv):
    """densek in a subprocess whose stdout refuses surrogates, as a UTF-8
    locale without UTF-8 mode makes it."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict", PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "densek.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, check=False)


def gnp_instance(n, p, seed):
    # what densek gen gnp saves: the draw and a sidecar without k or optima
    g = gnp(n, p, seed)
    return lambda path: save_instance(g, path, family="GNP", params={
        "requested_n": n, "p": p, "seed": seed, "truncated": g.n != n})


class TestSolve:
    def test_auto_report(self, capsys, k4p_file):
        code, report = run_json(capsys, ["solve", "--input", str(k4p_file), "--k", "4"])
        assert code == 0
        assert report["instance"] == {
            "path": str(k4p_file),
            "n": 5,
            "m": 7,
            "weighted": False,
        }
        assert [e["algorithm"] for e in report["entries"]] == [
            "ALG1",
            "ALG3",
            "ALG4",
            "HUB",
        ]
        assert report["best"]["density"] == {"num": 3, "den": 1, "decimal": 3.0}
        assert report["best"]["vertices"] == [0, 1, 2, 3]
        best = Fraction(report["best"]["density"]["num"], report["best"]["density"]["den"])
        for entry in report["entries"]:
            assert Fraction(entry["density"]["num"], entry["density"]["den"]) <= best
            assert entry["elapsed_ms"] >= 0

    def test_single_algorithm(self, capsys, k4p_file):
        code, report = run_json(
            capsys, ["solve", "--input", str(k4p_file), "--k", "3", "--algo", "alg4"]
        )
        assert code == 0
        assert len(report["entries"]) == 1
        assert report["entries"][0]["algorithm"] == "ALG4"
        assert report["entries"][0]["k"] == 3

    def test_oracle_ratio(self, capsys, k4p_file):
        code, report = run_json(
            capsys, ["solve", "--input", str(k4p_file), "--k", "4", "--oracle"]
        )
        assert code == 0
        assert report["oracle"]["density"] == {"num": 3, "den": 1, "decimal": 3.0}
        assert report["ratio"] == {"num": 1, "den": 1, "decimal": 1.0}

    def test_oracle_size_guard_before_the_suite(
        self, capsys, monkeypatch, tmp_path, no_graph_built
    ):
        # brute_k's guard is checked on the header: nothing is built or run
        calls = []
        monkeypatch.setattr(densek.cli, "run_named_algorithm",
                            lambda *args: calls.append(args))
        n = 25
        lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
        target = tmp_path / "long.edges"
        target.write_text("\n".join(lines) + "\n")
        assert main(["solve", "--input", str(target), "--k", "4", "--oracle"]) == 6
        assert "n=25 exceeds limit 20" in capsys.readouterr().err
        assert calls == []

    def test_report_to_file(self, tmp_path, k4p_file):
        out = tmp_path / "report.json"
        assert main(
            ["solve", "--input", str(k4p_file), "--k", "4", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["best"]["density"]["num"] == 3

    def test_csv_format(self, capsys, k4p_file):
        code = main(
            ["solve", "--input", str(k4p_file), "--k", "4", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0][0] == "algorithm"
        assert len(rows) == 5

    def test_readme_file_format_example(self, capsys, tmp_path):
        section = README.read_text(encoding="utf-8").split("### File format", 1)[1]
        target = tmp_path / "readme.edges"
        target.write_text(section.split("```\n", 2)[1])
        code, report = run_json(capsys, ["solve", "--input", str(target), "--k", "3"])
        assert code == 0
        assert report["instance"]["n"] == 4
        assert report["best"]["vertices"] == [0, 1, 2]
        assert report["best"]["density"]["num"] == 2

    def test_best_keeps_the_earliest_of_tied_entries(self, capsys, tmp_path):
        # every algorithm reaches density 4/3 on the path 2-0-3-1 at k=3
        target = tmp_path / "tied.edges"
        target.write_text("4 3\n0 2\n0 3\n1 3\n")
        code, report = run_json(capsys, ["solve", "--input", str(target), "--k", "3"])
        assert code == 0
        assert {e["density"]["num"] for e in report["entries"]} == {4}
        assert report["entries"][-1]["vertices"] == [0, 1, 3]
        assert report["best"]["algorithm"] == "ALG1"
        assert report["best"]["vertices"] == [0, 2, 3]

    def test_weighted_instance_runs_greedy_under_auto(self, capsys, tmp_path):
        target = tmp_path / "w.edges"
        target.write_text("4 4 weighted\n0 1 2\n1 2 1\n2 3 1\n0 3 1\n")
        code, report = run_json(capsys, ["solve", "--input", str(target), "--k", "3"])
        assert code == 0
        assert [e["algorithm"] for e in report["entries"]] == ["WGREEDY"]


class TestSolveErrors:
    def test_k_zero_is_rejected(self, capsys, k4p_file):
        assert main(["solve", "--input", str(k4p_file), "--k", "0"]) == 4
        assert "out of range" in capsys.readouterr().err

    def test_k_of_two_rejected(self, k4p_file):
        assert main(["solve", "--input", str(k4p_file), "--k", "2"]) == 4

    def test_k_above_n(self, k4p_file):
        assert main(["solve", "--input", str(k4p_file), "--k", "9"]) == 4

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.edges"
        assert main(["solve", "--input", str(missing), "--k", "3"]) == 7

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("3 2\n0 1\n0 two\n")
        assert main(["solve", "--input", str(bad), "--k", "3"]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(NOT_UTF8)
        assert main(["solve", "--input", str(bad), "--k", "3"]) == 3
        assert "line 3: not UTF-8 text" in capsys.readouterr().err

    def test_headerless_file_names_the_bad_id(self, capsys, tmp_path):
        # without a header, "0 1" reads as n=0, m=1
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n1 2\n2 0\n")
        assert main(["solve", "--input", str(bad), "--k", "3"]) == 3
        err = capsys.readouterr().err
        assert "line 2: vertex id 1 out of range" in err
        assert "n=0" in err

    @pytest.mark.parametrize("text, n, m", [
        ("50 0\n", 50, 0),
        ("5 3\n0 1\n1 2\n2 3\n", 5, 3),
    ])
    def test_more_vertices_than_edges_plus_one(
        self, capsys, tmp_path, no_graph_built, text, n, m
    ):
        # no connected graph fits the header; nothing per-vertex is allocated
        target = tmp_path / "sparse.edges"
        target.write_text(text)
        assert main(["solve", "--input", str(target), "--k", "3"]) == 4
        err = capsys.readouterr().err
        assert f"n={n}" in err and f"m={m}" in err

    def test_refused_header_before_a_bad_byte(self, capsys, tmp_path, no_graph_built):
        # the header rule runs before any byte past line 1 is read
        target = tmp_path / "sparse.edges"
        target.write_bytes(b"50 1\n0 \xff1\n")
        assert main(["solve", "--input", str(target), "--k", "3"]) == 4
        err = capsys.readouterr().err
        assert "n=50" in err and "m=1" in err

    def test_tree_header_is_accepted(self, capsys, tmp_path):
        target = tmp_path / "path.edges"
        target.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, report = run_json(capsys, ["solve", "--input", str(target), "--k", "3"])
        assert code == 0
        assert report["best"]["vertices"] == [0, 1, 2]

    def test_weighted_mismatch(self, capsys, tmp_path):
        target = tmp_path / "w.edges"
        target.write_text("3 2 weighted\n0 1 5\n1 2 1\n")
        assert main(
            ["solve", "--input", str(target), "--k", "3", "--algo", "alg1"]
        ) == 5
        assert "weighted" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("1_0 2\n0 1\n1 2\n", 1),
        ("\u0663 2\n0 1\n1 2\n", 1),
        ("3 2\n0 0_1\n1 2\n", 2),
        ("3 2\n0 \u0661\n1 2\n", 2),
    ], ids=["underscore-in-header", "arabic-indic-n", "underscore-in-edge",
            "arabic-indic-id"])
    def test_integers_outside_the_format(self, capsys, tmp_path, text, line):
        # int() alone reads "1_0" as 10, "0_1" as 1 and the Arabic-Indic
        # digits as 3 and 1: each file would solve
        bad = tmp_path / "bad.edges"
        bad.write_text(text, encoding="utf-8")
        assert main(["solve", "--input", str(bad), "--k", "3"]) == 3
        assert f"line {line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 4300])
    def test_integers_with_too_many_digits(self, capsys, tmp_path, digits):
        # Python 3.11 reads both; it then cannot write the 4300-digit
        # triangle's density (exit 4), and Python 3.10 solves both
        weight = "9" * digits
        bad = tmp_path / "bad.edges"
        bad.write_text(f"3 3 weighted\n0 1 {weight}\n1 2 {weight}\n0 2 {weight}\n")
        assert main(["solve", "--input", str(bad), "--k", "3"]) == 3
        assert "line 2: fields must be integers" in capsys.readouterr().err

    def test_integers_of_the_most_digits_solve(self, capsys, tmp_path):
        weight = 10**MAX_DIGITS - 1
        target = tmp_path / "w.edges"
        target.write_text(f"3 3 weighted\n0 1 {weight}\n1 2 {weight}\n0 2 {weight}\n")
        code, report = run_json(capsys, ["solve", "--input", str(target), "--k", "3"])
        assert code == 0
        assert report["best"]["density"] == {"num": 2 * weight, "den": 1, "decimal": None}

    def test_usage_error_exits_two(self, k4p_file):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--input", str(k4p_file), "--k", "4", "--algo", "bogus"])
        assert info.value.code == 2

    def test_oracle_limit_without_oracle_exits_two(self, capsys, k4p_file):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--input", str(k4p_file), "--k", "3", "--oracle-limit", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--oracle-limit needs --oracle" in captured.err

    def test_oracle_with_csv_exits_two(
        self, capsys, monkeypatch, k4p_file, no_graph_built
    ):
        # the CSV has no column for the optimum, so the oracle never runs
        calls = []
        monkeypatch.setattr(densek.cli, "brute_k", lambda *args, **kw: calls.append(args))
        with pytest.raises(SystemExit) as info:
            main(["solve", "--input", str(k4p_file), "--k", "4", "--oracle",
                  "--format", "csv"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solve: --oracle needs --format json" in captured.err
        assert calls == []


class TestIntegerOptions:
    """Every integer option takes the file format's one integer syntax."""

    @pytest.mark.parametrize("command, option, bad", [
        (["solve", "--input", "{f}", "--k", "{v}"], "--k", "0_3"),
        (["solve", "--input", "{f}", "--k", "3", "--oracle", "--oracle-limit", "{v}"],
         "--oracle-limit", "2_0"),
        (["oracle", "--input", "{f}", "--k", "{v}"], "--k", "\u0663"),
        (["oracle", "--input", "{f}", "--k", "3", "--oracle-limit", "{v}"],
         "--oracle-limit", "2_0"),
        (["gen", "gnp", "--n", "{v}", "--p", "0.5", "--out", "{o}"], "--n", "1_2"),
        (["gen", "planted", "--n", "12", "--k", "{v}", "--p-in", "0.5",
          "--p-out", "0.1", "--out", "{o}"], "--k", "\u0664"),
        (["gen", "example1a", "--ell", "{v}", "--out", "{o}"], "--ell", "0_2"),
        (["gen", "gnp", "--n", "12", "--p", "0.5", "--seed", "{v}", "--out", "{o}"],
         "--seed", "1" * (MAX_DIGITS + 1)),
    ], ids=["solve-k", "solve-oracle-limit", "oracle-k", "oracle-limit", "gen-n",
            "gen-k", "gen-ell", "gen-seed"])
    def test_refused_with_a_usage_error(
        self, capsys, tmp_path, k4p_file, command, option, bad
    ):
        # int() alone reads each of these, so each command would run
        out = tmp_path / "out.edges"
        argv = [arg.format(f=k4p_file, o=out, v=bad) for arg in command]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: invalid integer value: {bad!r}" in captured.err
        assert not out.exists()


class TestOracleCommand:
    def test_connected_optimum(self, capsys, k4p_file):
        code, report = run_json(capsys, ["oracle", "--input", str(k4p_file), "--k", "3"])
        assert code == 0
        assert report["vertices"] == [0, 1, 2]
        assert report["density"] == {"num": 2, "den": 1, "decimal": 2.0}
        assert report["connected"] is True

    def test_unconstrained_optimum(self, capsys, tmp_path):
        target = tmp_path / "split.edges"
        target.write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        code, report = run_json(
            capsys,
            ["oracle", "--input", str(target), "--k", "6", "--no-connected"],
        )
        assert code == 0
        assert report["density"]["num"] == 2

    def test_disconnected_header_still_accepted(self, capsys, tmp_path):
        target = tmp_path / "sparse.edges"
        target.write_text("4 1\n0 1\n")
        code, report = run_json(
            capsys,
            ["oracle", "--input", str(target), "--k", "2", "--no-connected"],
        )
        assert code == 0
        assert report["vertices"] == [0, 1]

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        # line 1 passes the header check; the whole file is then decoded
        bad = tmp_path / "bad.edges"
        bad.write_bytes(NOT_UTF8)
        assert main(["oracle", "--input", str(bad), "--k", "3"]) == 3
        assert "line 3: not UTF-8 text" in capsys.readouterr().err

    def test_header_that_is_not_utf8(self, capsys, tmp_path, no_graph_built):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"3 \xff2\n0 1\n1 2\n")
        assert main(["oracle", "--input", str(bad), "--k", "3"]) == 3
        assert "line 1: not UTF-8 text" in capsys.readouterr().err

    def test_size_guard_exit_code(self, tmp_path):
        n = 25
        lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
        target = tmp_path / "long.edges"
        target.write_text("\n".join(lines) + "\n")
        assert main(["oracle", "--input", str(target), "--k", "3"]) == 6

    def test_size_guard_reads_the_header_first(self, capsys, tmp_path, no_graph_built):
        # the guard refuses a huge header before any per-vertex list exists
        target = tmp_path / "huge.edges"
        target.write_text("1000000000 0\n")
        assert main(["oracle", "--input", str(target), "--k", "3",
                     "--no-connected"]) == 6
        err = capsys.readouterr().err
        assert "n=1000000000 exceeds limit 20" in err

    def test_size_guard_keeps_the_range_check_first(self, capsys, tmp_path, no_graph_built):
        target = tmp_path / "huge.edges"
        target.write_text("1000000000 0\n")
        assert main(["oracle", "--input", str(target), "--k", "0"]) == 4
        assert "out of range" in capsys.readouterr().err

    def test_size_guard_override(self, capsys, tmp_path):
        n = 25
        lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
        target = tmp_path / "long.edges"
        target.write_text("\n".join(lines) + "\n")
        code, report = run_json(
            capsys,
            ["oracle", "--input", str(target), "--k", "3", "--oracle-limit", "30"],
        )
        assert code == 0
        assert report["density"] == {
            "num": 4,
            "den": 3,
            "decimal": pytest.approx(4 / 3),
        }


def run_on_stdin(argv, data):
    """densek in a subprocess reading its instance from a pipe on stdin."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "densek.cli", *argv,
                           "--input", "/dev/stdin"],
                          input=data, env=env, capture_output=True, check=False)


def without_times(report):
    # a report with its path and the timings of its entries left out
    report["instance"].pop("path")
    for entry in report.get("entries", []) + [report.get("best", {})]:
        entry.pop("elapsed_ms", None)
    return report


def blank_times(data):
    # report bytes with every elapsed_ms value as "_": a JSON report's
    # "elapsed_ms" fields and the eighth column of solve's CSV
    data = re.sub(rb'("elapsed_ms": )[-+.0-9eE]+', rb"\1_", data)
    return re.sub(rb"^((?:[^,\r\n]*,){7})[^,\r\n]*", rb"\1_", data, flags=re.M)


class TestSharedParser:
    """main builds its parser once per process and may be called again and
    again in it, as the benchmark's in-process solves call it."""

    def test_built_once(self):
        assert densek.cli._build_parser() is densek.cli._build_parser()

    def test_each_call_answers_as_a_fresh_process(self, capsys, k4p_file, tmp_path):
        # a refused option, then an oracle run, then plain solves: nothing
        # the earlier calls parsed reaches a later report
        solve = ["solve", "--input", str(k4p_file), "--k", "4"]
        codes, reports = [], []
        for argv in (solve + ["--oracle-limit", "5"], solve + ["--oracle"], solve,
                     solve + ["--format", "csv"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = run_strict(tmp_path, argv)
            assert code == fresh.returncode, argv
            assert blank_times(captured.out.encode()) == blank_times(fresh.stdout), argv
            assert captured.err.encode() == fresh.stderr, argv
            codes.append(code)
            reports.append(captured.out)
        assert codes == [2, 0, 0, 0]
        assert "oracle" in json.loads(reports[1])
        assert "oracle" not in json.loads(reports[2])


class TestInputFromAPipe:
    """A pipe can be read once only: each command opens its input once."""

    @pytest.mark.parametrize("argv", [
        ["oracle", "--k", "3"],
        ["solve", "--k", "4", "--oracle"],
        ["solve", "--k", "4"],
    ], ids=["oracle", "solve-oracle", "solve"])
    def test_report_is_the_file_report(self, capsys, k4p_file, argv):
        result = run_on_stdin(argv, K4P_TEXT.encode())
        assert result.returncode == 0, result.stderr
        code, expected = run_json(capsys, argv + ["--input", str(k4p_file)])
        assert code == 0
        assert without_times(json.loads(result.stdout)) == without_times(expected)

    def test_refused_header(self):
        result = run_on_stdin(["solve", "--k", "3"], b"50 1\n0 \xff1\n")
        assert result.returncode == 4
        assert b"n=50" in result.stderr and b"m=1" in result.stderr


class TestValuesTooLargeForAFloat:
    """A density or ratio beyond float range has no decimal, but keeps its
    exact numerator and denominator and the exit code 0."""

    @pytest.fixture
    def huge_file(self, tmp_path):
        target = tmp_path / "huge.edges"
        target.write_text(HUGE_TEXT)
        return target

    def test_solve_json(self, capsys, huge_file):
        code, report = run_json(capsys, ["solve", "--input", str(huge_file), "--k", "3"])
        assert code == 0
        assert report["best"]["density"] == {
            "num": 2 * (HUGE + 1), "den": 3, "decimal": None}

    def test_solve_csv(self, capsys, huge_file):
        assert main(["solve", "--input", str(huge_file), "--k", "3",
                     "--format", "csv"]) == 0
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert dict(zip(header, row)) == {
            "algorithm": "WGREEDY", "k": "3", "n": "3", "m": "2",
            "density_num": str(2 * (HUGE + 1)), "density_den": "3", "density": "",
            "elapsed_ms": row[7], "vertices": "0 1 2"}

    def test_oracle(self, capsys, huge_file):
        code, report = run_json(capsys, ["oracle", "--input", str(huge_file), "--k", "2"])
        assert code == 0
        assert report["density"] == {"num": HUGE, "den": 1, "decimal": None}

    def test_bench(self, capsys, tmp_path, huge_file):
        # the sidecar's optimum over the density is too large as well
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        huge_file.rename(corpus / "huge.edges")
        (corpus / "huge.json").write_text(json.dumps(
            {"family": "", "k": 3, "known_opt_num": HUGE**2, "known_opt_den": 1}))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
        header, row = csv.reader(out.read_text().splitlines())
        fields = dict(zip(header, row))
        assert fields["density_num"] == str(2 * (HUGE + 1))
        assert fields["density"] == fields["ratio_vs_known"] == ""
        assert fields["status"] == "ok"


class TestGen:
    def test_clique_path_family_header(self, capsys, tmp_path):
        out = tmp_path / "a.edges"
        assert main(["gen", "example1a", "--ell", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "27 29"
        assert (tmp_path / "a.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_generated_file_round_trips(self, tmp_path):
        out = tmp_path / "b.edges"
        main(["gen", "example1b", "--ell", "3", "--out", str(out)])
        from densek import example1b

        assert load_edge_list(out) == example1b(3).graph

    def test_gen_then_oracle_matches_stored_value(self, capsys, tmp_path):
        out = tmp_path / "rays.edges"
        main(["gen", "example1b", "--ell", "3", "--out", str(out)])
        capsys.readouterr()
        code, report = run_json(capsys, ["oracle", "--input", str(out), "--k", "6"])
        assert code == 0
        assert report["density"] == {"num": 1, "den": 3, "decimal": pytest.approx(1 / 3)}

    def test_gnp_sidecar_records_requested_size(self, tmp_path):
        out = tmp_path / "g.edges"
        assert main(
            ["gen", "gnp", "--n", "16", "--p", "0.12", "--seed", "0", "--out", str(out)]
        ) == 0
        params = json.loads(out.with_suffix(".json").read_text())["params"]
        assert params["requested_n"] == 16
        assert params["truncated"] is True
        assert load_edge_list(out).n == 15

    def test_planted_generation(self, tmp_path):
        out = tmp_path / "p.edges"
        assert main(
            ["gen", "planted", "--n", "14", "--k", "5", "--p-in", "0.9",
             "--p-out", "0.1", "--seed", "3", "--out", str(out)]
        ) == 0
        assert load_edge_list(out).n == 14

    @pytest.mark.parametrize("argv, save", [
        (["example1a", "--ell", "3"], example1a(3).save),
        (["example1b", "--ell", "3"], example1b(3).save),
        (["gnp", "--n", "16", "--p", "0.12", "--seed", "0"], gnp_instance(16, 0.12, 0)),
        (["gnp", "--n", "20", "--p", "0.3", "--seed", "5"], gnp_instance(20, 0.3, 5)),
        (["planted", "--n", "14", "--k", "5", "--p-in", "0.9", "--p-out", "0.1",
          "--seed", "3"], planted(14, 5, 0.9, 0.1, 3).save),
    ], ids=["example1a", "example1b", "gnp-truncated", "gnp", "planted"])
    def test_writes_what_the_library_writes(self, tmp_path, argv, save):
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        cli.mkdir()
        lib.mkdir()
        assert main(["gen"] + argv + ["--out", str(cli / "i.edges")]) == 0
        save(lib / "i.edges")
        for name in ("i.edges", "i.json"):
            assert (cli / name).read_bytes() == (lib / name).read_bytes()

    def test_parser_offers_exactly_the_four_families(self):
        parser = densek.cli._build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        family = next(action for action in commands.choices["gen"]._actions
                      if action.dest == "family")
        assert tuple(family.choices) == ("example1a", "example1b", "gnp", "planted")

    def test_out_that_is_its_own_sidecar(self, capsys, tmp_path):
        # x.json would be overwritten by its own sidecar: exit 4, no file
        out = tmp_path / "x.json"
        assert main(["gen", "example1a", "--ell", "2", "--out", str(out)]) == 4
        assert "its own sidecar path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_status_line_keeps_file_name_bytes(self, tmp_path):
        # a name made from bytes is the same on every locale, ASCII too
        result = run_strict(tmp_path, ["gen", "example1a", "--ell", "2",
                                       "--out", b"y\xff.edges"])
        assert result.returncode == 0, result.stderr
        assert result.stdout == b"wrote y\xff.edges (n=8, m=7) with sidecar y\xff.json\n"
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.fsdecode(name) for name in (b"y\xff.edges", b"y\xff.json"))

    def test_missing_family_parameters(self, capsys):
        assert main(["gen", "gnp", "--n", "10", "--out", "x.edges"]) == 4
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["gnp", "--n", "10", "--p", "0.5", "--k", "4"], "--k"),
        (["example1a", "--ell", "2", "--n", "99", "--seed", "7", "--p", "0.3"],
         "--n, --p, --seed"),
    ], ids=["gnp-k", "example1a-n-p-seed"])
    def test_option_the_family_does_not_take(self, capsys, tmp_path, argv, option):
        # an option the family would drop is refused, and nothing is written
        out = tmp_path / "g.edges"
        assert main(["gen"] + argv + ["--out", str(out)]) == 4
        assert f"takes no {option}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_defaults_to_zero(self, tmp_path):
        for family, argv in (("gnp", ["--n", "16", "--p", "0.12"]),
                             ("planted", ["--n", "14", "--k", "5", "--p-in", "0.9",
                                          "--p-out", "0.1"])):
            out = tmp_path / f"{family}.edges"
            assert main(["gen", family] + argv + ["--out", str(out)]) == 0
            sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            assert sidecar["params"]["seed"] == 0

    @pytest.mark.parametrize("text", ["0.5", "0.5_0", "\u0660.\u0665"],
                             ids=["plain", "digit-separator", "arabic-indic"])
    @pytest.mark.parametrize("argv, option, key", [
        (["gnp", "--n", "10", "--p", "{v}"], "--p", "p"),
        (["planted", "--n", "10", "--k", "4", "--p-in", "{v}", "--p-out", "0.1"],
         "--p-in", "p_in"),
        (["planted", "--n", "10", "--k", "4", "--p-in", "0.9", "--p-out", "{v}"],
         "--p-out", "p_out"),
    ], ids=["p", "p-in", "p-out"])
    def test_probability_syntax(self, capsys, tmp_path, argv, option, key, text):
        # float() reads all three texts as 0.5; a probability option takes
        # them in ASCII without "_", and refuses the rest with a usage error
        out = tmp_path / "g.edges"
        argv = ["gen"] + [arg.format(v=text) for arg in argv] + ["--out", str(out)]
        if text == "0.5":
            assert main(argv) == 0
            sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
            assert sidecar["params"][key] == 0.5
            return
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: invalid probability value: {text!r}" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_bad_scale(self, tmp_path):
        out = tmp_path / "a.edges"
        assert main(["gen", "example1a", "--ell", "1", "--out", str(out)]) == 4

    @pytest.mark.parametrize("argv, error", [
        (["gnp", "--n", "0", "--p", "0.5"], "n must be positive"),
        (["gnp", "--n", "10", "--p", "1.5"], "p must lie in [0, 1]"),
        (["planted", "--n", "10", "--k", "11", "--p-in", "0.5", "--p-out", "0.1"],
         "need 1 <= k <= n"),
        (["planted", "--n", "10", "--k", "4", "--p-in", "0.5", "--p-out", "-0.1"],
         "probabilities must lie in [0, 1]"),
    ], ids=["gnp-n", "gnp-p", "planted-k", "planted-p"])
    def test_bad_generator_values(self, capsys, tmp_path, argv, error):
        out = tmp_path / "a.edges"
        assert main(["gen"] + argv + ["--out", str(out)]) == 4
        assert error in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_corpus_row_count(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "example1a", "--ell", "2", "--out", str(corpus / "a.edges")])
        main(["gen", "gnp", "--n", "10", "--p", "0.5", "--seed", "1",
              "--out", str(corpus / "b.edges")])
        main(["gen", "gnp", "--n", "12", "--p", "0.4", "--seed", "2",
              "--out", str(corpus / "c.edges")])
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "4",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        header, body = rows[0], rows[1:]
        # three unweighted instances, five algorithms each
        assert len(body) == 15
        assert header[:4] == ["instance", "family", "algorithm", "k"]
        by_instance = {row[0] for row in body}
        assert by_instance == {"a.edges", "b.edges", "c.edges"}

    def test_sidecar_k_and_ratio(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "example1a", "--ell", "2", "--out", str(corpus / "a.edges")])
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        for row in rows[1:]:
            assert row[3] == "4"  # sidecar k
            assert float(row[9]) >= 1.0  # stored optimum over achieved density

    def test_ratio_only_at_the_sidecar_k(self, capsys, tmp_path):
        # the sidecar's optimum, the planted block's density, holds at its
        # own k = 8 alone: against it a K4 at k = 4, optimal there, read 2.0
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "planted", "--n", "40", "--k", "8", "--p-in", "0.9",
              "--p-out", "0.05", "--seed", "1", "--out", str(corpus / "p.edges")])
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "4,8",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["k"] for row in rows] == ["4"] * 5 + ["8"] * 5
        for row in rows:
            assert row["status"] == "ok"
            assert (row["ratio_vs_known"] == "") is (row["k"] == "4")

    def test_weighted_instances_get_one_row(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "example1b", "--ell", "3", "--out", str(corpus / "w.edges")])
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        assert len(rows) == 2
        assert rows[1][2] == "WGREEDY"

    def test_failed_solve_keeps_its_row(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "example1a", "--ell", "2", "--out", str(corpus / "a.edges")])
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        # example1a(2) has 8 vertices: k = 40 fails for every algorithm
        assert main(["bench", "--corpus", str(corpus), "--k", "4,40",
                     "--out", str(out)]) == 4
        assert "5 of 10 solves failed" in capsys.readouterr().err
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        header, body = rows[0], rows[1:]
        assert header[-1] == "status"
        assert [row[-1] for row in body[:5]] == ["ok"] * 5
        assert [row[2] for row in body] == ["ALG1", "ALG3", "ALG4", "HUB",
                                            "WGREEDY"] * 2
        for row in body[5:]:
            assert row[3] == "40"
            assert row[6:11] == ["", "", "", "", ""]
            assert "out of range" in row[-1]

    @pytest.mark.parametrize("text, error", [
        ("50 0\n", "n=50"),
        ("3 2\n0 1\n0 two\n", "line 3"),
        (NOT_UTF8, "line 3: not UTF-8 text"),
    ])
    def test_file_that_fails_to_load_keeps_its_row(
        self, capsys, tmp_path, text, error
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.edges").write_text(K4P_TEXT)
        (corpus / "b.edges").write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "4",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "b.edges" in err and error in err
        assert "1 of 6 solves failed" in err
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        body = rows[1:]
        assert [row[0] for row in body] == ["a.edges"] * 5 + ["b.edges"]
        assert [row[-1] for row in body[:5]] == ["ok"] * 5
        assert body[5][1:-1] == [""] * 10
        assert error in body[5][-1]

    @pytest.mark.parametrize("ks, error", [
        (",", "names no k"),
        ("", "names no k"),
        ("4,x", "is not a comma-separated list of integers"),
    ])
    def test_k_list_that_names_no_k(self, capsys, tmp_path, ks, error):
        # fails the whole run before any file is read: no CSV is written
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.edges").write_text(K4P_TEXT)
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", ks,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"--k {ks!r} {error}" in err
        assert not out.exists()

    @pytest.mark.parametrize("sidecar, family", [
        (None, ""),  # no --k and no sidecar
        ('{"family": "GNP"}', "GNP"),  # a sidecar without k
    ])
    def test_file_without_k_keeps_its_row(self, capsys, tmp_path, sidecar, family):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "example1a", "--ell", "2", "--out", str(corpus / "a.edges")])
        (corpus / "z.edges").write_text(K4P_TEXT)
        if sidecar is not None:
            (corpus / "z.json").write_text(sidecar)
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "z.edges: no k for instance" in err
        assert "1 of 6 solves failed" in err
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        body = rows[1:]
        assert [row[0] for row in body] == ["a.edges"] * 5 + ["z.edges"]
        assert [row[-1] for row in body[:5]] == ["ok"] * 5
        assert body[5][1:-1] == [family] + [""] * 9
        assert "no k for instance" in body[5][-1]

    @pytest.mark.parametrize("sidecar", [
        '{"k": 4, "known_opt_num": 3}',
        "[4]",
        '{"k": 4, "known_opt_num": 3, "known_opt_den": 0}',
        '{"k": true}',
        '{"k": 4.0}',
        '{"known_opt_num": 3, "known_opt_den": true}',
    ], ids=["no-denominator", "not-an-object", "zero-denominator",
            "bool-k", "float-k", "bool-denominator"])
    def test_sidecar_of_the_wrong_shape_keeps_its_row(self, capsys, tmp_path, sidecar):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.edges").write_text(K4P_TEXT)
        (corpus / "a.json").write_text(sidecar)
        (corpus / "b.edges").write_text(K4P_TEXT)
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "4",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "a.edges: expected a JSON object with" in err
        assert "(sidecar a.json)" in err
        assert "1 of 6 solves failed" in err
        body = list(csv.reader(out.read_text().strip().splitlines()))[1:]
        assert [row[0] for row in body] == ["a.edges"] + ["b.edges"] * 5
        assert body[0][1:-1] == [""] * 10
        assert "(sidecar a.json)" in body[0][-1]
        assert [row[-1] for row in body[1:]] == ["ok"] * 5

    def test_unreadable_sidecar_keeps_its_row(self, capsys, tmp_path):
        # a sidecar that is not JSON fails its own file, even with --k
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "example1a", "--ell", "2", "--out", str(corpus / "a.edges")])
        (corpus / "a.json").write_text("{bad")
        (corpus / "b.edges").write_text(K4P_TEXT)
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "4",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "a.edges: Expecting property name" in err
        assert "1 of 6 solves failed" in err
        body = list(csv.reader(out.read_text().strip().splitlines()))[1:]
        assert [row[0] for row in body] == ["a.edges"] + ["b.edges"] * 5
        assert body[0][1:-1] == [""] * 10
        assert "Expecting property name" in body[0][-1]
        assert [row[-1] for row in body[1:]] == ["ok"] * 5

    def test_unreadable_instance_or_sidecar_keeps_its_row(self, capsys, tmp_path):
        # a directory in place of a sidecar (b.json) or of an instance
        # (c.edges) fails its own file; the run goes on and writes the CSV
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.edges", "b.edges"):
            (corpus / name).write_text(K4P_TEXT)
        (corpus / "b.json").mkdir()
        (corpus / "c.edges").mkdir()
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "4",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "error: b.edges: " in err and "error: c.edges: " in err
        assert "2 of 7 solves failed" in err
        body = list(csv.reader(out.read_text().strip().splitlines()))[1:]
        assert [row[0] for row in body] == ["a.edges"] * 5 + ["b.edges", "c.edges"]
        assert [row[-1] for row in body[:5]] == ["ok"] * 5
        assert body[5][1:-1] == body[6][1:-1] == [""] * 10
        assert "b.json" in body[5][-1] and "c.edges" in body[6][-1]

    def test_file_names_keep_their_bytes(self, capsys, tmp_path):
        # names made from bytes are the same on every locale, ASCII too: the
        # CSV is UTF-8, and a name that is not UTF-8 keeps its bytes
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        names = [b"bad\xff.edges", "\u00e9.edges".encode()]
        for name in names:
            (corpus / os.fsdecode(name)).write_text(K4P_TEXT)
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        body = out.read_bytes().splitlines()[1:]
        assert [row.split(b",")[0] for row in body] == [names[0]] * 5 + [names[1]] * 5

    def test_status_line_keeps_file_name_bytes(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.edges").write_text(K4P_TEXT)
        result = run_strict(tmp_path, ["bench", "--corpus", "corpus", "--k", "4",
                                       "--out", b"r\xff.csv"])
        assert result.returncode == 0, result.stderr
        assert result.stdout == b"wrote 5 rows to r\xff.csv\n"
        assert len((tmp_path / os.fsdecode(b"r\xff.csv")).read_bytes().splitlines()) == 6

    @pytest.mark.parametrize("ks", ["4,0_6", "\u0664"])
    def test_k_list_outside_the_integer_format(self, capsys, tmp_path, no_graph_built, ks):
        # int() alone reads "0_6" as 6 and the Arabic-Indic digit as 4; the
        # run fails before any file is read and writes no CSV
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.edges").write_text(K4P_TEXT)
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", ks,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"--k {ks!r} is not a comma-separated list of integers" in err
        assert not out.exists()

    def test_k_list_with_too_many_digits(self, capsys, tmp_path, no_graph_built):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.edges").write_text(K4P_TEXT)
        ks = "4," + "1" * (MAX_DIGITS + 1)
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", ks,
                     "--out", str(out)]) == 4
        assert "is not a comma-separated list of integers" in capsys.readouterr().err
        assert not out.exists()

    def test_sidecar_integer_with_too_many_digits_keeps_its_row(self, capsys, tmp_path):
        # Python 3.11 reads a 4001-digit optimum and 3.10 any optimum at all
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.edges").write_text(K4P_TEXT)
        (corpus / "a.json").write_text(
            f'{{"k": 4, "known_opt_num": {"1" * (MAX_DIGITS + 1)}, "known_opt_den": 1}}')
        out = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"a.edges: an integer has more than {MAX_DIGITS} digits (sidecar a.json)" in err
        body = list(csv.reader(out.read_text().strip().splitlines()))[1:]
        assert [row[0] for row in body] == ["a.edges"]

    def test_missing_corpus(self, tmp_path):
        assert main(["bench", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.csv")]) == 7

    def test_empty_corpus(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", "--corpus", str(empty),
                     "--out", str(tmp_path / "x.csv")]) == 4

    def test_instance_without_k(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bare.edges").write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        assert main(["bench", "--corpus", str(corpus),
                     "--out", str(tmp_path / "x.csv")]) == 4
        assert "--k" in capsys.readouterr().err

    def test_refused_header_before_a_bad_byte(self, capsys, tmp_path, no_graph_built):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "sparse.edges").write_bytes(b"50 1\n0 \xff1\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "3",
                     "--out", str(out)]) == 4
        [row] = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
        assert "n=50" in row["status"] and "m=1" in row["status"]

    def test_more_vertices_than_edges_plus_one(self, capsys, tmp_path, no_graph_built):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "sparse.edges").write_text("50 0\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--k", "3",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "n=50" in err and "m=0" in err

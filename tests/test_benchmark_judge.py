"""The benchmark's judge: the per-solve percentiles of one run, quartiles
of runs and the verdict on paired runs.

perfbench/ is a directory of scripts, not a package, so its directory goes
on sys.path, as it is for `python3 perfbench/run.py`.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import results
import run

SEEDS = range(1, 11)


def runs(values):
    """{seed: value} for seeds 1..10, as compare pairs them."""
    return dict(zip(SEEDS, values))


@pytest.mark.parametrize("values, expected", [
    ([7], (7, 7, 7)),
    ([1, 2, 3, 4, 5], (1.5, 3, 4.5)),
    ([5, 1, 4, 2, 3], (1.5, 3, 4.5)),
    ([1, 2, 3, 4], (1.25, 2.5, 3.75)),
    (list(range(101, 111)), (102.75, 105.5, 108.25)),
])
def test_quartiles(values, expected):
    # statistics.quantiles' exclusive method: the quartile j of n sorted
    # values sits at position j * (n + 1) / 4, interpolated
    assert results._quartiles(values) == expected


TIGHT = runs(range(101, 111))  # quartile spread 5.5 / 105.5, about 0.05
WIDE = runs(range(100, 200, 10))  # quartile spread 55 / 145, about 0.38


@pytest.mark.parametrize("parent, change, lower, verdict", [
    # all ten pairs won, medians 20 apart against a parent spread of 5.5
    (TIGHT, runs(range(81, 91)), True, "improved"),
    (TIGHT, runs(range(131, 141)), False, "improved"),
    # every pair lost, but by under 1% of the median, inside the 0.2 bound
    (TIGHT, runs(range(102, 112)), True, "no worse"),
    # the same runs, paired in reverse: five pairs won, spread above the bound
    (WIDE, runs(range(190, 90, -10)), True, "unresolved"),
    (TIGHT, runs(range(151, 161)), True, "worse"),
    (TIGHT, runs(range(61, 71)), False, "worse"),
    # spread above the bound, and all ten pairs won, but by medians 50.5
    # apart against a parent spread of 55: every change run beats every
    # parent run, so it is no worse
    (WIDE, runs(range(90, 100)), True, "no worse"),
])
def test_verdict(parent, change, lower, verdict):
    *_, wins, pairs, got = results._verdict(parent, change, lower, 0.2)
    assert got == verdict
    assert pairs == 10
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    assert wins == sum(better(change[s], parent[s]) for s in SEEDS)


def test_verdict_pairs_only_the_seeds_both_sides_ran():
    parent = runs(range(101, 111))
    change = {seed: value - 20 for seed, value in parent.items() if seed <= 8}
    *_, wins, pairs, verdict = results._verdict(parent, change, True, 0.2)
    assert (wins, pairs, verdict) == (8, 8, "improved")


def write_result_set(directory, failed):
    """auto-gnp runs for seeds 1..10, every end-to-end metric reading as
    TIGHT does, and `failed` failed solves on seed 1."""
    directory.mkdir()
    names = [metric["name"] for metric in results._spec()["end_to_end"]]
    for seed, value in TIGHT.items():
        run = {"failed": failed if seed == 1 else 0,
               "metrics": {name: {"value": value} for name in names}}
        (directory / f"auto-gnp.seed{seed}.json").write_text(
            json.dumps(run) + "\n", encoding="utf-8")
    return names


@pytest.mark.parametrize("parent_failed, change_failed, verdict", [
    # one more failed solve on the change side overrides every verdict
    (0, 1, "worse (more failed solves)"),
    # equal or fewer failures leave the ordinary verdict: equal runs
    (1, 1, "no worse"),
    (1, 0, "no worse"),
])
def test_compare_marks_more_failed_solves_worse(
    tmp_path, capsys, parent_failed, change_failed, verdict
):
    names = write_result_set(tmp_path / "parent", parent_failed)
    write_result_set(tmp_path / "change", change_failed)
    assert results.compare_main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    head, _, *rows = capsys.readouterr().out.splitlines()
    assert head == f"auto-gnp: failed {parent_failed} (parent) vs {change_failed} (change)"
    assert [row.split()[0] for row in rows] == names
    assert all(row.endswith(f" {verdict}") for row in rows)


def finished_run(times, scales, ok):
    """A Run past its timed loop, holding what end_to_end reads."""
    done = run.Run.__new__(run.Run)
    done.workload, done.seed = "auto-gnp", 1
    done.times, done.scales, done.ok = times, scales, ok
    done.setup_s = done.raw_setup_s = 0.5
    done.wall_s, done.cpu_s = sum(times), sum(times)
    done.instances, done.first_pass = [], []
    done.density_gmean, done.digest = 1.0, "0" * 16
    done.reference, done.failures = None, ["solve 5: made up"] * ok.count(False)
    return done


def test_end_to_end_percentiles_on_known_times(capsys):
    # Solve i (1..11) ran i / scale seconds at a speed factor alternating
    # 0.5 and 2, so it counts i seconds at reference speed. One more solve,
    # at index 5, failed after 1000 s: it is left out of every figure.
    scales = [0.5, 2.0] * 5 + [0.5]
    times = [i / f for i, f in zip(range(1, 12), scales)]
    times.insert(5, 1000.0)
    scales.insert(5, 1.0)
    ok = [True] * 12
    ok[5] = False
    metrics = finished_run(times, scales, ok).end_to_end()["metrics"]
    capsys.readouterr()
    # the median of 1..11; the 90th percentile at position 0.9 * 12 = 10.8,
    # between the 10th and 11th values; 11 solves in 66 s
    assert metrics["solve_s.p50"]["value"] == pytest.approx(6.0)
    assert metrics["solve_s.p90"]["value"] == pytest.approx(10.8)
    assert metrics["solves_per_s"]["value"] == pytest.approx(11 / 66)
    assert metrics["setup_s"]["value"] == 0.5


def test_end_to_end_with_every_solve_failed_reads_them_all(capsys):
    # with no solve to keep, the figures come from every solve
    times = [float(i) for i in range(1, 12)]
    metrics = finished_run(times, [1.0] * 11, [False] * 11).end_to_end()["metrics"]
    capsys.readouterr()
    assert metrics["solve_s.p50"]["value"] == pytest.approx(6.0)
    assert metrics["solves_per_s"]["value"] == pytest.approx(11 / 66)

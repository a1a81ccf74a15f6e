"""Result sets: run many seeds, compare two sets, record reference answers.

A result set is a directory of `<workload>.seed<n>.json` files, each the
last stdout line of one run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, REFERENCE, ROOT

WORKLOAD_NAMES = ("auto-gnp", "peel-sparse", "cli-weighted")
REFERENCE_SEEDS = range(0, 20)


def _seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _quartiles(values):
    if len(values) < 2:
        return values[0], statistics.median(values), values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load(directory: Path) -> dict:
    """{workload: {seed: result}} for every result file in a set."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.seed*.json")):
        workload, _, seed = path.stem.rpartition(".seed")
        out.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    return out


def _summary(results: dict, spec: dict) -> None:
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs.values())
        failed = sum(r["failed"] for r in runs.values())
        correct = all(r["correct"] for r in runs.values())
        print(f"{workload}: {len(runs)} runs, {attempted} solves, {failed} failed "
              f"(failed_ratio {failed / attempted:.3g}), correct={correct}")
        print(f"  {'metric':<16}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for metric in spec["end_to_end"]:
            q1, med, q3 = _quartiles([r["metrics"][metric["name"]]["value"]
                                      for r in runs.values()])
            print(f"  {metric['name']:<16}{metric['unit']:<6}{med:>12.6g}{q1:>12.6g}"
                  f"{q3:>12.6g}{(q3 - q1) / med:>9.3f}{metric['bound']:>7}")


def sweep_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py sweep",
        description="Run every workload over seeds, one untraced process of "
                    "run_seconds per run, and summarize. Give --tree/--out "
                    "pairs to alternate between checkouts (parent and change) "
                    "seed by seed.")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--tree", action="append", default=None,
                        help="checkout whose perfbench/run.py to run (default: this one)")
    parser.add_argument("--out", action="append", required=True,
                        help="result directory, one per --tree")
    args = parser.parse_args(argv)
    trees = [Path(t) for t in (args.tree or [ROOT])]
    outs = [Path(o) for o in args.out]
    if len(trees) != len(outs):
        parser.error("give one --out per --tree")
    spec = _spec()
    for out in outs:
        out.mkdir(parents=True, exist_ok=True)
    order = list(zip(trees, outs))
    for index, seed in enumerate(_seeds(args.seeds)):
        for workload in WORKLOAD_NAMES:
            for tree, out in (order if index % 2 == 0 else order[::-1]):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                name = f"{workload}.seed{seed}"
                (out / f"{name}.txt").write_text(proc.stdout + proc.stderr)
                if proc.returncode != 0:
                    print(f"{tree}: {name} exited {proc.returncode}; see {out / name}.txt")
                    continue
                (out / f"{name}.json").write_text(last[0] + "\n")
                print(f"{tree}: {name} done", flush=True)
    for out in outs:
        print(f"== {out}")
        _summary(_load(out), spec)
    return 0


def _verdict(parent, change, lower: bool, bound: float):
    """Verdict for paired runs by the rule of the choosing-metrics guide, section 8."""
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = [(parent[s], change[s]) for s in sorted(parent.keys() & change.keys())]
    wins = sum(better(c, p) for p, c in pairs)
    p_q1, p_med, p_q3 = _quartiles([p for p, _ in pairs])
    c_q1, c_med, c_q3 = _quartiles([c for _, c in pairs])
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    worse_by = (c_med - p_med) / p_med * (1 if lower else -1)
    if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1 and better(c_med, p_med):
        verdict = "improved"
    elif spread > bound:
        every = all(better(c, p) for c in change.values() for p in parent.values())
        verdict = "no worse" if every else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "no worse"
    return (p_q1, p_med, p_q3), (c_q1, c_med, c_q3), wins, len(pairs), verdict


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two result sets, paired by workload and seed.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = _spec()
    parent, change = _load(args.parent), _load(args.change)
    for workload in sorted(parent.keys() & change.keys()):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        print(f"{workload}: failed {p_failed} (parent) vs {c_failed} (change)")
        print(f"  {'metric':<16}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
              f"{'won':>8}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: r["metrics"][name]["value"] for s, r in p_runs.items()}
            c = {s: r["metrics"][name]["value"] for s, r in c_runs.items()}
            pq, cq, wins, pairs, verdict = _verdict(
                p, c, metric["better"] == "lower", metric["bound"])
            if c_failed > p_failed:
                verdict = "worse (more failed solves)"
            print(f"  {name:<16}{pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"{cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f"{wins:>5}/{pairs:<3} {verdict}")
    return 0


def reference_main(argv) -> int:
    """Solve one pass per workload at seeds 0-19 and store the exact densities."""
    parser = argparse.ArgumentParser(prog="run.py reference", description=reference_main.__doc__)
    parser.parse_args(argv)
    import run

    run._import_package()
    runs: dict[str, dict[str, dict]] = {}
    for workload in WORKLOAD_NAMES:
        for seed in REFERENCE_SEEDS:
            one = run.Run(workload, seed, 0, False)
            one.execute()
            if one.failures:
                print("\n".join(one.failures), file=sys.stderr)
                return 1
            runs.setdefault(workload, {})[str(seed)] = {
                "densities": [str(a[1]) for a in one.first_pass],
            }
            print(f"{workload} seed {seed}: {len(one.first_pass)} densities", flush=True)
    doc = {
        "about": "Exact best densities of one pass per workload and seed, from "
                 "the package as it was when the benchmark was defined. A run "
                 "at one of these seeds counts a solve below its reference as "
                 "failed.",
        "runs": runs,
    }
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(BENCH.parent)}")
    return 0

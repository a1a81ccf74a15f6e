#!/usr/bin/env python3
"""The densek benchmark.

One run:   python3 perfbench/run.py --workload auto-gnp --seed 1 --seconds 30 --trace 0
Many runs: python3 perfbench/run.py sweep --seeds 1-10 --out results/parent
Compare:   python3 perfbench/run.py compare results/parent results/change
Reference: python3 perfbench/run.py reference

A run sets its workload's corpus up several times (median reported as
setup_s), then solves the corpus over and over in one process, a closed loop
with one caller, until --seconds have passed. Each answer is checked right
after its solve, outside the timed span, by perfbench/check.py, which shares
no code with the package. The last line of standard output is the result as
JSON; with --trace 1 it holds the per-layer metrics of perfbench/tracer.py
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import speed
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 3
MIN_SOLVES = 100  # so that at least ten solves lie beyond the 90th percentile
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "densek" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source src/densek not found under {ROOT}")
    sys.path.insert(0, str(src))


def _timed_loop(instances, run_one, check_one, seconds, whole_passes, min_solves=0):
    """Solve the corpus round-robin until `seconds` pass, one pass is done
    and `min_solves` solves are done.

    Each output (an exception counts as one) goes to `check_one(i, output)`
    right after its solve, outside the timed span, so the loop keeps nothing
    per solve but its time. Returns per-solve wall times, their speed factors
    (see speed.py) and the process CPU seconds of the solves.
    """
    size = len(instances)
    times = []
    clock, cpu = time.perf_counter, time.process_time
    deadline = clock() + seconds
    points = [(0, speed.calibrate())]
    since = cpu_s = 0.0
    i = 0
    while True:
        cpu0, began = cpu(), clock()
        try:
            out = run_one(instances[i % size])
        except Exception as exc:  # a failed solve is counted, not fatal
            out = exc
        ended = clock()
        cpu_s += cpu() - cpu0
        times.append(ended - began)
        check_one(i, out)
        i += 1
        since += ended - began
        if since >= speed.EVERY_S:
            points.append((i, speed.calibrate()))
            since = 0.0
        if (clock() >= deadline and i >= max(size, min_solves)
                and (not whole_passes or i % size == 0)):
            break
    if points[-1][0] != i:
        points.append((i, speed.calibrate()))
    return times, speed.scales(points), cpu_s


def _load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text())["runs"].get(workload, {}).get(str(seed))
    if entry is None:
        return None
    return [Fraction(d) for d in entry["densities"]]


class Run:
    """One workload at one seed: set-up, timed loop, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        from workloads import WORKLOADS  # imports densek, so only after _import_package

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.setup, self.solve = WORKLOADS[workload]
        self.tracer = Tracer() if trace else None
        self.workdir = OUT / f"work-{os.getpid()}"
        self.report = self.workdir / "report.json"  # written by each cli-weighted solve

    def _run_one(self, inst):
        if self.workload == "cli-weighted":
            return self.solve(inst, self.report)
        return self.solve(inst)

    def execute(self) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _execute(self) -> dict:
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        setup_times, raw_times = [], []
        for _ in range(SETUP_REPEATS):
            before = speed.calibrate()
            began = time.perf_counter()
            instances = self.setup(self.seed, self.workdir)
            raw_times.append(time.perf_counter() - began)
            setup_times.append(raw_times[-1] * speed.scale(before, speed.calibrate()))
        self.instances = instances
        self.setup_s = statistics.median(setup_times)
        self.raw_setup_s = statistics.median(raw_times)
        self.checkers = {}
        for inst in instances:
            if id(inst.graph) not in self.checkers:
                self.checkers[id(inst.graph)] = check.Checker(inst.n, inst.edges, inst.weights)
        self.reference = _load_reference(self.workload, self.seed)
        self.failures: list[str] = []
        self.ok: list[bool] = []
        self.first_pass = []
        if tracer is None:
            self.times, self.scales, self.cpu_s = _timed_loop(
                self.instances, self._run_one, self._check_one, self.seconds, False, MIN_SOLVES)
            self.wall_s = sum(self.times)
            self._summarize_checks()
            return self.end_to_end()
        return self._traced()

    def _check_one(self, i: int, out) -> None:
        """Check solve i's output; keep its verdict, and its answer in the first pass."""
        size = len(self.instances)
        inst = self.instances[i % size]
        checker = self.checkers[id(inst.graph)]
        error, answer = None, None
        if isinstance(out, Exception):
            error = f"raised {out!r}"
        elif self.workload == "cli-weighted":
            if out != 0:
                error = f"exit code {out}"
            else:
                error, answer = checker.report_error(inst.k, self.report)
        else:
            answer = out
            error = checker.density_error(inst.k, *answer)
        if self.workload == "cli-weighted":
            # the next solve must write its own report, not find this one
            self.report.unlink(missing_ok=True)
        reference = self.reference
        if error is None and reference is not None and answer[1] < reference[i % size]:
            error = f"density {answer[1]} below reference {reference[i % size]}"
        if error is not None:
            self.failures.append(f"solve {i} ({inst.label}): {error}")
        self.ok.append(error is None)
        if len(self.first_pass) < size:
            self.first_pass.append(answer)

    def _summarize_checks(self) -> None:
        """Digest and density_gmean of the first pass."""
        self.digest = check.answers_digest(
            (inst.digest(), inst.k, answer[0] if answer else ())
            for inst, answer in zip(self.instances, self.first_pass)
        )
        densities = [a[1] for a in self.first_pass if a is not None]
        self.density_gmean = math.exp(
            statistics.fmean(math.log(d) for d in densities)
        ) if densities else float("nan")

    # -- end-to-end result -------------------------------------------------

    def end_to_end(self) -> dict:
        kept = [(t, f) for t, f, ok in zip(self.times, self.scales, self.ok) if ok]
        kept = kept or list(zip(self.times, self.scales))
        times = [t * f for t, f in kept]
        raw = [t for t, _ in kept]
        p90 = statistics.quantiles(times, n=10)[8]
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "solve_s.p50": (statistics.median(times), "s"),
            "solve_s.p90": (p90, "s"),
            "solves_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "density_gmean": (self.density_gmean, "1"),
        }
        attempted, failed = len(self.ok), self.ok.count(False)
        beyond = sum(1 for t in times if t > p90)
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups; raw {self.raw_setup_s:.4g} s",
            "solve_s.p50": f"{len(times)} solves; raw {statistics.median(raw):.4g} s",
            "solve_s.p90": f"{len(times)} solves, {beyond} beyond p90; "
                           f"raw {statistics.quantiles(raw, n=10)[8]:.4g} s",
            "solves_per_s": f"raw {len(raw) / sum(raw):.4g}/s; all {attempted} solves took "
                            f"{self.wall_s:.2f} s wall, {self.cpu_s:.2f} s process CPU",
            "peak_rss_mib": "whole process",
            "density_gmean": f"{len(self.first_pass)} answers of the first pass",
        }
        odd = sum(inst.k % 2 for inst in self.instances)
        print(f"workload {self.workload} seed {self.seed}: {len(self.instances)} "
              f"instances ({odd} odd k), {attempted} solves; "
              f"times at reference speed, median speed factor "
              f"{statistics.median(self.scales):.3f} (see speed.py)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<15}{value:>12.6g} {unit:<4} {notes[name]}")
        print(f"  {'failed_ratio':<15}{failed / attempted:>12.6g} {'1':<4} "
              f"{failed} failed of {attempted} attempted")
        ref = "checked against reference" if self.reference else "no reference for this seed"
        print(f"  answers_digest {self.digest} ({ref})")
        self._print_failures()
        return self._result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    def _print_failures(self) -> None:
        for line in self.failures[:10]:
            print(f"  FAILED {line}")
        if len(self.failures) > 10:
            print(f"  ... {len(self.failures) - 10} more failures")

    def _result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": len(self.ok),
            "failed": self.ok.count(False),
            "metrics": metrics,
        }

    # -- traced run -----------------------------------------------------------

    def _traced(self) -> dict:
        """Untraced and traced passes in turn, so both see the same conditions.

        The untraced passes give the tracing overhead; the per-layer figures
        come from the traced passes. Spans are kept for the first traced pass.
        """
        tracer = self.tracer
        setup_totals = tracer.take_totals()
        tracer.uninstall()
        wins: dict[str, int] = {}
        useful = [0, 0]  # solutions as dense as the winner, solutions computed

        def count_wins(solutions):
            best = solutions[0]
            for sol in solutions[1:]:
                if sol.density > best.density:
                    best = sol
            wins[best.algorithm] = wins.get(best.algorithm, 0) + 1
            useful[0] += sum(sol.density == best.density for sol in solutions)
            useful[1] += len(solutions)

        tracer.on_return["algorithms.run_all"] = count_wins
        tracer.keep_spans = True
        deadline = time.perf_counter() + self.seconds
        traced_s = []
        plain_s = traced_scaled_s = self.wall_s = self.cpu_s = 0.0
        pairs, pair_s = 0, 0.0
        # one pair at least, then more while another pair fits the deadline
        while not traced_s or time.perf_counter() + pair_s < deadline:
            began = time.perf_counter()
            # which of the two passes goes first alternates from pair to pair
            for traced in ((False, True), (True, False))[pairs % 2]:
                if traced:
                    tracer.install()
                times, scales, cpu_s = _timed_loop(
                    self.instances, self._run_one, self._check_one, 0, True)
                scaled = sum(t * f for t, f in zip(times, scales))
                if not traced:
                    plain_s += scaled
                    continue
                tracer.uninstall()
                tracer.keep_spans = False
                tracer.on_return.clear()
                traced_s += times
                traced_scaled_s += scaled
                self.wall_s += sum(times)
                self.cpu_s += cpu_s
            pairs += 1
            pair_s = time.perf_counter() - began
        self.times = traced_s
        self._summarize_checks()
        self._write_spans()
        passes = len(traced_s) // len(self.instances)
        overhead = (len(traced_s), traced_scaled_s, plain_s)
        return self._result(self._layer_metrics(
            tracer.take_totals(), setup_totals, passes, overhead, wins, useful))

    def _layer_metrics(self, totals, setup_totals, passes, overhead, wins, useful):
        def calls(name):
            return totals.get(name, [0])[0] // passes

        def secs(name, self_time=False):
            return totals.get(name, [0, 0.0, 0.0])[2 if self_time else 1] / passes

        solve_s = sum(self.times) / passes
        densest_calls = calls("densest.densest_subgraph")
        m = {}
        for layer in ("densest.densest_subgraph", "algorithms.alg1"):
            m[layer + ".calls"] = (calls(layer), "count")
            m[layer + ".s"] = (secs(layer), "s")
            m[layer + ".self_s"] = (secs(layer, True), "s")
        for layer in ("densest.flow", "graph.cut_vertices", "graph.expand_to_k",
                      "graph.parse", "graph.j_attachment", "graph.components",
                      "graph.densest_component_after", "algorithms.odd_attach",
                      "algorithms.validate", "cli.main"):
            m[layer + ".calls"] = (calls(layer), "count")
            m[layer + ".s"] = (secs(layer), "s")
        m["densest.flow_per_densest"] = (
            calls("densest.flow") / densest_calls if densest_calls else 0.0, "1")
        m["algorithms.prc1.calls"] = (calls("algorithms.prc1"), "count")
        m["algorithms.prc2.calls"] = (calls("algorithms.prc2"), "count")
        for layer in ("alg3", "alg4", "alg5_hub", "weighted_greedy"):
            m[f"algorithms.{layer}.s"] = (secs(f"algorithms.{layer}"), "s")
        for tag in ("ALG1", "ALG3", "ALG4", "HUB"):
            m[f"algorithms.win.{tag}"] = (wins.get(tag, 0), "count")
        m["algorithms.useful_ratio"] = (useful[0] / useful[1] if useful[1] else 0.0, "1")
        m["cli.self_s"] = (secs("cli.main", True), "s")
        m["generators.s"] = (sum(
            v[1] for k, v in setup_totals.items() if k.startswith("generators.")
        ) / SETUP_REPEATS, "s")
        m["share.flow"] = (secs("densest.flow") / solve_s, "1")
        m["share.cut_vertices"] = (secs("graph.cut_vertices") / solve_s, "1")
        m["share.parse_cli"] = ((secs("graph.parse") + secs("cli.main", True)) / solve_s, "1")
        solves, traced_scaled_s, plain_s = overhead
        m["trace.solves_per_s"] = (solves / traced_scaled_s, "1/s")
        m["trace.untraced_solves_per_s"] = (solves / plain_s, "1/s")
        m["trace.slowdown"] = (traced_scaled_s / plain_s, "1")
        m["run.wall_s"] = (self.wall_s / passes, "s")
        m["run.cpu_s"] = (self.cpu_s / passes, "s")

        print(f"workload {self.workload} seed {self.seed} traced: {passes} passes of "
              f"{len(self.instances)} solves; figures are per pass")
        for name, (value, unit) in m.items():
            print(f"  {name:<36}{value:>12.6g} {unit}")
        self._print_failures()
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def _write_spans(self) -> None:
        """Spans of the first traced pass, one JSON list per line."""
        path = OUT / "spans" / f"{self.workload}-seed{self.seed}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.tracer.spans[0][2] if self.tracer.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.tracer.spans:
                fh.write(json.dumps([name, parent, start - origin, end - origin]) + "\n")


def run_main(argv) -> int:
    parser = argparse.ArgumentParser(description="Run one densek benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("sweep", "compare", "reference"):
        import results

        return getattr(results, argv[0] + "_main")(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main())

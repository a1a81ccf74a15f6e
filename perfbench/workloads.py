"""Seeded instance corpora and the solve call of each benchmark workload.

A workload's corpus is a fixed list of instances: the seed changes the
random draws, never the sizes, the families or the k values, so two seeds
give runs of the same shape and their timings can be compared.

Every instance keeps its own copy of the edge list (plain tuples), which the
independent checker reads instead of the package's Graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import densek
import densek.cli
from densek import Graph, Xorshift64Star


@dataclass
class Instance:
    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...] | None
    k: int
    graph: Graph
    path: Path | None = None

    def digest(self) -> str:
        text = f"{self.n};{self.edges};{self.weights}"
        return hashlib.sha256(text.encode()).hexdigest()


def _instance(label: str, g: Graph, k: int) -> Instance:
    return Instance(label, g.n, g.edges, g.weights, k, g)


def _stream(seed: int, salt: int) -> Xorshift64Star:
    # One xorshift64* stream per workload; each instance draws its own seed
    # from it, so adding an instance at the end leaves earlier ones unchanged.
    return Xorshift64Star((seed * 0x9E3779B97F4A7C15 + salt) & ((1 << 64) - 1))


def _k(target: int, odd: bool) -> int:
    return target - target % 2 + (1 if odd else 0)


def interleave(instances: list[Instance]) -> list[Instance]:
    """Golden-ratio order, so that any prefix of a pass spans the size ladder.

    A run usually ends inside a pass; in ladder order that last, partial pass
    would hold only the small instances and skew the percentiles.
    """
    order = sorted(range(len(instances)), key=lambda i: i * 0.6180339887498949 % 1.0)
    return [instances[i] for i in order]


# Sizes form a ladder rather than a few classes, so that the median and the
# 90th percentile of solve times fall inside a smooth distribution and move
# little from seed to seed.

# auto-gnp: the library's default entry point on unweighted graphs. The
# densest-subgraph flow dominates it; every other k is odd, so the odd-k
# attachment runs on half of the solves.
AUTO_GNP_N = range(100, 251, 3)
AUTO_EX1A_ELL = (4, 5, 6)
AUTO_PLANTED = ((100, 10, 0.5, 0.05), (120, 12, 0.5, 0.04))


def setup_auto_gnp(seed: int, workdir: Path) -> list[Instance]:
    rng = _stream(seed, 1)
    out = []
    for i, n in enumerate(AUTO_GNP_N):
        g = densek.gnp(n, 8 / n, rng.next_u64())
        k = _k(g.n // 10, i % 2 == 1)
        out.append(_instance(f"gnp n={n} k={k}", g, k))
    for ell in AUTO_EX1A_ELL:
        inst = densek.example1a(ell)
        out.append(_instance(f"example1a ell={ell}", inst.graph, inst.k))
    for i, (n, block, p_in, p_out) in enumerate(AUTO_PLANTED):
        inst = densek.planted(n, block, p_in, p_out, rng.next_u64())
        k = _k(block, i % 2 == 1)
        out.append(_instance(f"planted n={n} k={k}", inst.graph, k))
    return interleave(out)


def solve_auto_gnp(inst: Instance):
    sol = densek.best_connected_k_subgraph(inst.graph, inst.k)
    return sol.vertices, sol.density


# peel-sparse: the `densek solve --algo alg1` path on sparse graphs. It never
# reaches the flow solver; articulation points dominate it.
PEEL_N = range(700, 1151, 50)
PEEL_K_DIVISORS = (40, 25, 15, 10)


def setup_peel_sparse(seed: int, workdir: Path) -> list[Instance]:
    rng = _stream(seed, 2)
    out = []
    for n in PEEL_N:
        g = densek.gnp(n, 3 / n, rng.next_u64())
        for divisor in PEEL_K_DIVISORS:
            k = _k(g.n // divisor, len(out) % 2 == 1)
            out.append(_instance(f"gnp n={n} k={k}", g, k))
    return interleave(out)


def solve_peel_sparse(inst: Instance):
    sol = densek.run_named_algorithm(inst.graph, inst.k, "alg1")
    return sol.vertices, sol.density


# cli-weighted: in-process `densek solve` on weighted instance files, so file
# parsing, the greedy and the JSON report all run on every solve.
CLI_EX1B_ELL = range(4, 33, 4)
CLI_GNP_N = range(100, 601, 50)


def setup_cli_weighted(seed: int, workdir: Path) -> list[Instance]:
    rng = _stream(seed, 3)
    graphs = []
    for ell in CLI_EX1B_ELL:
        inst = densek.example1b(ell)
        graphs.append((f"example1b ell={ell}", inst.graph, inst.k))
    for i, n in enumerate(CLI_GNP_N):
        plain = densek.gnp(n, 6 / n, rng.next_u64())
        weights = [1 + rng.next_below(9) for _ in plain.edges]
        g = Graph(plain.n, plain.edges, weights)
        graphs.append((f"weighted gnp n={n}", g, _k(g.n // 10, i % 2 == 1)))
    out = []
    for index, (label, g, k) in enumerate(graphs):
        path = workdir / f"instance{index}.edges"
        densek.save_edge_list(g, path)
        inst = _instance(f"{label} k={k}", g, k)
        inst.path = path
        out.append(inst)
    return interleave(out)


def solve_cli_weighted(inst: Instance, report: Path) -> int:
    argv = ["solve", "--input", str(inst.path), "--k", str(inst.k),
            "--out", str(report)]
    return densek.cli.main(argv)


WORKLOADS = {
    "auto-gnp": (setup_auto_gnp, solve_auto_gnp),
    "peel-sparse": (setup_peel_sparse, solve_peel_sparse),
    "cli-weighted": (setup_cli_weighted, solve_cli_weighted),
}

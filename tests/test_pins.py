"""Every answer and every solver event on a fixed corpus, pinned by digest.

The corpus has the seed-1 shapes of the benchmark's three workloads, built
here from the package's generators, whose draws TestPinnedDraws pins: the
unweighted auto-gnp graphs and the weighted cli-weighted graphs under every
algorithm that takes them, and the sparse peel-sparse graphs under alg1
alone. Two clique chains join the first group: they reach prc2 and alg1's
descent, which no workload does. A digest moves only when an answer or an
event does. The README's count of flows on the auto-gnp shapes is pinned
too, and so is the hub scan's count of search-free hubs. Only a change
that alters answers on purpose regenerates a pin, and it states the old
and new digests and the reason.
"""

import hashlib

import pytest

import densek
import densek.algorithms
import densek.densest
from densek import Graph, Xorshift64Star, best_connected_k_subgraph, run_named_algorithm
from densek.algorithms import ALGORITHMS, highest_degree_vertices
from helpers import clique_chain, recording

SEED = 1
EVENTS = ("peel_phase", "peel", "prc2", "expand")


def _stream(salt: int) -> Xorshift64Star:
    # one stream per shape family, drawn as the benchmark draws its corpora
    return Xorshift64Star((SEED * 0x9E3779B97F4A7C15 + salt) & ((1 << 64) - 1))


def _k(target: int, odd: bool) -> int:
    return target - target % 2 + (1 if odd else 0)


def auto_gnp_shapes():
    rng = _stream(1)
    out = []
    for i, n in enumerate(range(100, 251, 3)):
        g = densek.gnp(n, 8 / n, rng.next_u64())
        out.append((f"gnp n={n}", g, _k(g.n // 10, i % 2 == 1)))
    for ell in (4, 5, 6):
        inst = densek.example1a(ell)
        out.append((f"example1a ell={ell}", inst.graph, inst.k))
    planted = ((100, 10, 0.5, 0.05), (120, 12, 0.5, 0.04))
    for i, (n, block, p_in, p_out) in enumerate(planted):
        inst = densek.planted(n, block, p_in, p_out, rng.next_u64())
        out.append((f"planted n={n}", inst.graph, _k(block, i % 2 == 1)))
    return out


def cli_weighted_shapes():
    rng = _stream(3)
    out = []
    for ell in range(4, 33, 4):
        inst = densek.example1b(ell)
        out.append((f"example1b ell={ell}", inst.graph, inst.k))
    for i, n in enumerate(range(100, 601, 50)):
        plain = densek.gnp(n, 6 / n, rng.next_u64())
        weights = [1 + rng.next_below(9) for _ in plain.edges]
        g = Graph(plain.n, plain.edges, weights)
        out.append((f"weighted gnp n={n}", g, _k(g.n // 10, i % 2 == 1)))
    return out


def peel_sparse_shapes():
    rng = _stream(2)
    out = []
    for n in range(700, 1151, 50):
        g = densek.gnp(n, 3 / n, rng.next_u64())
        for divisor in (40, 25, 15, 10):
            out.append((f"gnp n={n}", g, _k(g.n // divisor, len(out) % 2 == 1)))
    return out


def clique_chain_shapes():
    out = []
    for sizes, ks in (([2, 6, 2, 6, 3] * 3, (10, 11, 34)), ([3, 3, 7, 3, 3, 5] * 2, (6, 7, 12))):
        g = clique_chain(sizes)
        out += [(f"clique chain n={g.n}", g, k) for k in ks]
    return out


def _canonical(value):
    # a dict's order is how the solver happened to fill it, not what it says
    if isinstance(value, dict):
        return sorted(value.items())
    return value


def _digest(rows) -> str:
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def _answer(label, k, sol):
    return label, k, sol.vertices, str(sol.density)


@pytest.fixture(scope="module")
def pinned_runs():
    """(answers per name, combined answers, events) over the corpus.

    best_connected_k_subgraph runs its suite through run_all_algorithms; a
    wrapper keeps each suite's solutions, so every suite member's answers
    come from the combined run itself, with no second solve.
    """
    answers = {name: [] for name in ALGORITHMS}
    combined = []
    suites = []
    run_all = densek.algorithms.run_all_algorithms

    def keeping_suites(g, k):
        suites.append(run_all(g, k))
        return suites[-1]

    with recording() as events, pytest.MonkeyPatch.context() as mp:
        mp.setattr(densek.algorithms, "run_all_algorithms", keeping_suites)
        for label, g, k in auto_gnp_shapes() + clique_chain_shapes() + cli_weighted_shapes():
            combined.append(_answer(label, k, best_connected_k_subgraph(g, k)))
            for sol in suites.pop():
                answers[sol.algorithm.lower()].append(_answer(label, k, sol))
            if not g.weighted:
                sol = run_named_algorithm(g, k, "wgreedy")
                answers["wgreedy"].append(_answer(label, k, sol))
        for label, g, k in peel_sparse_shapes():
            answers["alg1"].append(_answer(label, k, run_named_algorithm(g, k, "alg1")))
    pinned = [(event, sorted((key, _canonical(v)) for key, v in fields.items()))
              for event, fields in events if event in EVENTS]
    return answers, combined, pinned


ANSWER_PINS = {
    "alg1": "2b90b0d86631b33a129f8365d479e9681d4765c025980d0d4f102d1f7dbfeaf9",
    "alg3": "c74b35f7c5355e6d6ce0bd8bb9243a5732b3bdca174879b0cd4525ef91253a7a",
    "alg4": "92acb78db7be3819f6026223dadb83ca47da8db4ad09a6c7f7e4a977b3afca0b",
    "hub": "6c7a39d2d4f8292e3c7685a266557107a1e2e406180cc7a296b5262ad7ff6456",
    "wgreedy": "e335f7775f99d676f70ba1118d16c2f1b39237b4367c78a9fdc711a8aa0813ed",
}
COMBINED_PIN = "6606d8060895303a582c61cf22d8c6ab23d1cbc66b771d0ba15189543261cc56"
EVENTS_PIN = "d6ec57f0afb0e2b99657b76db1d5f709c78bd8a3d27ca384ea6a4f0793a10e6d"


@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_answer_of_an_algorithm_is_pinned(pinned_runs, name):
    answers, _, _ = pinned_runs
    assert _digest(answers[name]) == ANSWER_PINS[name]


def test_every_combined_answer_is_pinned(pinned_runs):
    _, combined, _ = pinned_runs
    assert _digest(combined) == COMBINED_PIN


def test_every_solver_event_is_pinned(pinned_runs):
    _, _, events = pinned_runs
    assert {event for event, _ in events} == set(EVENTS)
    assert _digest(events) == EVENTS_PIN


def test_flow_count_matches_the_readme(monkeypatch):
    # the README's "Exact tools" paragraph quotes 1.36 flows per call: 76
    # flows over the 56 densest_subgraph calls on the auto-gnp shapes
    flows = 0
    real = densek.densest.has_subgraph_denser_than

    def counting(g, threshold, within=None):
        nonlocal flows
        flows += 1
        return real(g, threshold, within=within)

    monkeypatch.setattr(densek.densest, "has_subgraph_denser_than", counting)
    shapes = auto_gnp_shapes()
    for _, g, _ in shapes:
        densek.densest.densest_subgraph(g)
    assert (flows, len(shapes)) == (76, 56)


def test_search_free_hub_count_matches_the_comment():
    # the hub scan's comment at its len(free[hub]) <= half branch quotes
    # 7,022 of 9,076 hubs: over the auto-gnp shapes, at each solve's even
    # core k, the vertices outside the k/2 highest-degree set, and those of
    # them with at most k/2 neighbours outside it
    hubs = search_free = 0
    for _, g, k in auto_gnp_shapes():
        half = k // 2
        high = set(highest_degree_vertices(g, half))
        for v in range(g.n):
            if v not in high:
                hubs += 1
                search_free += sum(u not in high for u in g.neighbors(v)) <= half
    assert (search_free, hubs) == (7022, 9076)

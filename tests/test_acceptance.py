"""Acceptance gate: the eleven guarantees the library commits to.

Each test is one criterion; its pytest verdict is the pass/fail line.
Run with `pytest tests/test_acceptance.py -v -s` to also see the achieved
numbers. Everything is exact rational arithmetic; no tolerances anywhere
except the stated wall-clock ceilings.
"""

import time
from fractions import Fraction

import pytest

from densek import (
    Graph,
    Xorshift64Star,
    alg5_hub,
    alg1,
    alg3,
    best_connected_k_subgraph,
    brute_densest,
    brute_k,
    densest_subgraph,
    density,
    example1a,
    example1b,
    run_all_algorithms,
    run_named_algorithm,
    weighted_greedy,
)
from densek.algorithms import alg4_base, highest_degree_vertices
from densek.graph import is_connected, j_attachment
from helpers import (
    assert_valid_solution,
    barbell,
    connected_corpus,
    count_edges_between,
    fields_of,
    is_removable,
    k4p,
    recording,
    weighted_version,
)
from test_pins import auto_gnp_shapes


def _report(line: str) -> None:
    print(f"\n  {line}")


def test_criterion_01_peeling_bound_on_random_corpus():
    # peeling output is within 12 n^2 / k^2 of the unconstrained optimum,
    # for every even k on 200 seeded random connected graphs with n <= 14
    started = time.perf_counter()
    graphs = connected_corpus(200, max_n=14, seed0=5001)
    assert len(graphs) == 200
    checks = 0
    worst = Fraction(0)
    for g in graphs:
        for k in range(4, g.n + 1, 2):
            sol = alg1(g, k)
            opt = brute_k(g, k, connected=False).best_density
            # opt / sol.density <= 12 n^2 / k^2, cross-multiplied
            assert opt * k * k <= sol.density * 12 * g.n * g.n
            if sol.density > 0:
                worst = max(worst, (opt / sol.density) * k * k / (12 * g.n * g.n))
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        f"criterion 1: {checks} (graph, k) checks, worst bound share "
        f"{float(worst):.4f}, {elapsed:.1f}s"
    )


def test_criterion_02_attachment_edge_share():
    # the j-attachment keeps at least a j/n share of the outgoing edges
    rng = Xorshift64Star(20240817)
    graphs = connected_corpus(40, max_n=12, seed0=6100)
    samples = 0
    for g in graphs:
        for _ in range(26):
            size = 1 + rng.next_below(g.n - 1)
            chosen: set[int] = set()
            while len(chosen) < size:
                chosen.add(rng.next_below(g.n))
            j = 1 + rng.next_below(g.n - size)
            attachment = j_attachment(g, chosen, j)
            outside = [v for v in range(g.n) if v not in chosen]
            kept = count_edges_between(g, chosen, attachment)
            total = count_edges_between(g, chosen, outside)
            assert g.n * kept >= j * total
            samples += 1
    assert samples >= 1000
    _report(f"criterion 2: {samples} (g, s, j) triples, zero violations")


def test_criterion_03_contraction_seed_window():
    # every contraction run rebuilds a block set of between k/2 and k
    # vertices; observed through the peeling algorithm's prc2 events on
    # instances that force the handover; prc2's own checks, which raise
    # RuntimeError even under python -O, are a second net
    observed: list[tuple[int, int]] = []
    instances = [
        (barbell(6, 6), 10),
        (barbell(6, 7), 10),
        (barbell(7, 6), 12),
        (barbell(6, 5), 8),
        (barbell(7, 10), 12),
        (barbell(8, 12), 14),
    ]
    for g, k in instances:
        with recording() as events:
            sol = alg1(g, k)
        assert_valid_solution(g, sol, k)
        observed.extend(
            (k, len(state["seed_with_blocks"])) for state in fields_of(events, "prc2")
        )
    assert len(observed) >= len(instances)
    for k, size in observed:
        assert k // 2 <= size <= k
    _report(
        f"criterion 3: {len(observed)} contraction runs, "
        f"all block sets within [k/2, k]"
    )


def test_criterion_04_adjacent_size_optima():
    # growing the budget by one vertex never gains 2 of density and never
    # triples it: sigma*_k < sigma*_{k-1} + 2 and sigma*_k <= 3 sigma*_{k-1}
    graphs = connected_corpus(100, max_n=12, seed0=7300)
    assert len(graphs) == 100
    checks = 0
    for g in graphs:
        previous = brute_k(g, 2, connected=False).best_density
        for k in range(3, g.n + 1):
            current = brute_k(g, k, connected=False).best_density
            assert current < previous + 2
            assert current <= 3 * previous
            previous = current
            checks += 1
    _report(f"criterion 4: {checks} adjacent-size comparisons, zero violations")


def test_criterion_05_removability_equivalence():
    # the degree test d(v) < sigma/2 agrees with directly comparing the
    # densities before and after deleting v
    graphs = connected_corpus(120, max_n=12, seed0=8111)
    samples = 0
    for g in graphs:
        whole = density(g)
        for v in range(g.n):
            direct = density(g, [u for u in range(g.n) if u != v]) > whole
            assert is_removable(g, v) == direct
            samples += 1
    assert samples >= 1000
    _report(f"criterion 5: {samples} (graph, vertex) samples, all agree")


def test_criterion_06_flow_engine_matches_brute_force():
    # the max-flow engine reproduces the brute-force maximum exactly, and
    # its connected witness attains the same density
    graphs = connected_corpus(50, max_n=16, seed0=9200)
    assert len(graphs) == 50
    for g in graphs:
        expected = brute_densest(g).best_density
        result = densest_subgraph(g)
        assert result.density == expected
        assert density(g, result.subgraph) == expected
        assert density(g, result.connected_variant) == expected
        assert is_connected(g, result.connected_variant)
    _report("criterion 6: 50 instances, flow optimum == brute force on all")


def test_criterion_07_clique_path_family_reproduction():
    # the scale-6 cliques-joined-by-paths instance reproduces the stored
    # values, and the combined output honors the certified bound
    started = time.perf_counter()
    instance = example1a(6)
    g = instance.graph
    assert g.n == 216
    assert instance.k == 36
    assert instance.known_opt_density == 5
    best = best_connected_k_subgraph(g, 36)
    assert len(best.vertices) == 36
    assert is_connected(g, best.vertices)
    certified = Fraction(12 * g.n * g.n, 36 * 36)
    achieved = instance.known_opt_density / best.density
    assert certified == 432
    assert achieved <= certified
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    small = example1a(2)
    assert brute_k(small.graph, small.k, connected=False).best_density == (
        small.known_opt_density
    )
    assert brute_k(small.graph, small.k, connected=True).best_density == (
        small.known_connected_density
    )
    _report(
        f"criterion 7: achieved ratio {achieved} (= {float(achieved):.3f}) "
        f"vs certified 432, {elapsed:.2f}s; scale-2 optima oracle-verified"
    )


def test_criterion_08_weighted_greedy_tightness():
    # the greedy star algorithm lands on exactly 1/4 against the stored
    # optimum 1, meeting its k/2 guarantee with equality at k = 8
    instance = example1b(4)
    assert instance.k == 8
    assert instance.known_opt_density == 1
    sol = weighted_greedy(instance.graph, instance.k)
    assert sol.density == Fraction(1, 4)
    ratio = instance.known_opt_density / sol.density
    assert ratio == Fraction(instance.k, 2) == 4
    _report("criterion 8: greedy density exactly 1/4, ratio exactly k/2 = 4")


def test_criterion_09_hub_guarantee():
    # hub output stays above (sigma*_k - 2 sigma_bar)^2 / (6 max{k, 2 d_h})
    graphs = connected_corpus(60, max_n=14, seed0=1203)
    samples = 0
    for g in graphs:
        for k in range(4, 2 * g.n // 3 + 1, 2):
            hubs = highest_degree_vertices(g, k // 2)
            d_h = Fraction(sum(g.degree(v) for v in hubs), len(hubs))
            sigma_bar = density(g, alg4_base(g, k))
            opt = brute_k(g, k, connected=False).best_density
            gap = opt - 2 * sigma_bar
            bound = gap * gap / (6 * max(Fraction(k), 2 * d_h))
            assert alg5_hub(g, k).density >= bound
            samples += 1
    assert samples >= 100
    _report(f"criterion 9: {samples} (graph, k) samples, zero violations")


def test_criterion_10_universal_well_formedness():
    # every algorithm returns exactly k vertices inducing a connected
    # subgraph, odd k included, and invalid inputs raise contract errors
    runs = 0
    for g in connected_corpus(30, max_n=12, seed0=3500):
        for k in (3, 4, 5, g.n - 1, g.n):
            if k < 3 or k > g.n:
                continue
            for sol in run_all_algorithms(g, k):
                assert_valid_solution(g, sol, k)
                runs += 1
    for i, g in enumerate(connected_corpus(10, max_n=10, seed0=3600)):
        wg = weighted_version(g, seed=i)
        for k in (3, 4, 5):
            if k > wg.n:
                continue
            for sol in run_all_algorithms(wg, k):
                assert_valid_solution(wg, sol, k)
                runs += 1
    with pytest.raises(ValueError):
        best_connected_k_subgraph(k4p(), 2)
    with pytest.raises(ValueError):
        best_connected_k_subgraph(k4p(), 1)
    with pytest.raises(ValueError):
        best_connected_k_subgraph(k4p(), 6)
    with pytest.raises(ValueError):
        run_named_algorithm(Graph(3, [(0, 1), (1, 2)], [2, 1]), 3, "alg1")
    with pytest.raises(ValueError):
        run_all_algorithms(Graph(4, [(0, 1), (2, 3)]), 3)
    _report(f"criterion 10: {runs} well-formed runs, contract errors confirmed")


def test_criterion_11_densest_core_share():
    # with D = densest_subgraph(g), C its connected variant of s vertices
    # and rho* its density, alg3's output holds C when s <= k, so its
    # density is at least rho* s / k; otherwise prc1 keeps at least
    # rho* k / (4 s). At every even k of 200 seeded random connected graphs
    # with n <= 30, and at the even core k of each benchmark auto-gnp solve
    started = time.perf_counter()
    cases = [(g, range(2, g.n + 1, 2)) for g in connected_corpus(200, max_n=30, seed0=5)]
    cases += [(g, [k - k % 2]) for _, g, k in auto_gnp_shapes()]
    checks = tight = 0
    for g, ks in cases:
        dense = densest_subgraph(g)
        s, rho = len(dense.connected_variant), dense.density
        for k in ks:
            bound = rho * s / k if s <= k else rho * k / (4 * s)
            achieved = alg3(g, k).density
            assert achieved >= bound
            checks += 1
            tight += achieved == bound
    elapsed = time.perf_counter() - started
    assert checks >= 1500
    _report(f"criterion 11: {checks} (graph, k) checks, zero violations, "
            f"{tight} on the bound, {elapsed:.2f}s")

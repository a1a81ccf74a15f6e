"""The approximation suite: frozen traces, guarantees, and contracts."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import densek.algorithms
import densek.cli
import densek.graph
from densek import (
    Graph,
    Xorshift64Star,
    alg1,
    alg3,
    alg4,
    alg5_hub,
    best_connected_k_subgraph,
    brute_k,
    density,
    densest_subgraph,
    example1b,
    format_edge_list,
    gnp,
    run_all_algorithms,
    run_named_algorithm,
    weighted_greedy,
)
from densek.algorithms import (
    _attach_best_vertex,
    _is_cut_vertex,
    _make_solution,
    alg4_base,
    highest_degree_vertices,
    prc1,
    prc2,
)
from densek.graph import components, cut_vertices, induced_weight, is_connected
from helpers import (
    alg1_reference,
    alg5_hub_reference,
    assert_valid_solution,
    attach_best_vertex_reference,
    barbell,
    bridged,
    clique_chain,
    complete,
    components_reference,
    connected_corpus,
    contraction_reference,
    cycle,
    expand_log,
    fields_of,
    hairy_clique,
    highest_degree_vertices_reference,
    is_removable,
    k4p,
    path,
    peel_log,
    recording,
    star,
    two_triangles_path3,
    walk2_counts,
    weighted_greedy_reference,
    weighted_version,
)
from strategies import connected_graphs, graphs_with_subset, simple_graphs


def assert_alg1_matches_reference(g, k):
    # the Solution and every peel event against the whole-view DFS loop
    ref_log = []
    with recording() as events:
        sol = alg1(g, k)
    assert sol == alg1_reference(g, k, ref_log)
    assert peel_log(events) == ref_log


def cut_tests(monkeypatch):
    """The vertices densek.algorithms._is_cut_vertex is asked about from
    now on, in call order."""
    tested = []
    is_cut_vertex = densek.algorithms._is_cut_vertex

    def counting(g, view, v):
        tested.append(v)
        return is_cut_vertex(g, view, v)

    monkeypatch.setattr(densek.algorithms, "_is_cut_vertex", counting)
    return tested


K5_WITH_TAIL = Graph(
    7, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(4, 5), (5, 6)]
)


def cliques_with_guard_and_tail(guard, tail):
    """K6s on 2..7 and 8..13, joined through vertex guard (2-8) and with
    vertex tail wired to 2 and 3. Both have degree 2 and are removable; the
    guard is a cut vertex, the tail is not."""
    edges = [(u, v) for u in range(2, 8) for v in range(u + 1, 8)]
    edges += [(u, v) for u in range(8, 14) for v in range(u + 1, 14)]
    edges += [(guard, 2), (guard, 8), (tail, 2), (tail, 3)]
    return Graph(14, edges)


def with_degree5_core(edges):
    """edges plus the triangle 8-9-10 whose corners carry three leaves each.

    The corners have degree 5 or more, so for k = 6 they are the high-degree
    set that the hub scan leaves out; every vertex 0..7 has degree under 5.
    """
    core = [(8, 9), (8, 10), (9, 10)]
    core += [(c, leaf) for c, first in ((8, 11), (9, 14), (10, 17))
             for leaf in range(first, first + 3)]
    return Graph(20, list(edges) + core)


def hub_tied_partners():
    """k = 4: vertices 4 and 5 (degree 4) are the high-degree set. Hub 0
    reaches 2 and 3 by one walk each through 1; the one partner is 2."""
    return Graph(10, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5),
                      (4, 6), (4, 7), (5, 8), (5, 9)])


def hub_tied_near():
    """k = 6: hub 0 has neighbours 1..4 and partners 5 (three walks) and 6
    (two). Wiring into them: 3 has two, 1, 2 and 4 one each; the three
    near vertices are 3, 1 and 2."""
    return with_degree5_core([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5),
                              (3, 5), (3, 6), (4, 6), (4, 7), (7, 8)])


def hub_dropped_partner():
    """k = 6: hub 0 has neighbours 1..4 and partners 5 (through 1, 2, 3) and
    6 (through 4 only). All four neighbours tie on wiring, 4 is not near,
    so the hub's component {0, 1, 2, 3, 5} drops partner 6."""
    return with_degree5_core([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5),
                              (3, 5), (4, 6), (6, 7), (6, 8)])


def hub_partner_through_partner():
    """k = 6: hub_dropped_partner with the edge 5-6. Near is 1, 2 and 3 as
    there; 6 touches neither them nor the hub, but touches partner 5, so
    the component's closure takes 5 in one round and 6 in the next."""
    return with_degree5_core([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5),
                              (3, 5), (4, 6), (5, 6), (6, 7), (6, 8)])


def three_sided_guard():
    """Vertex 0 with neighbours 1..5 and three sides behind it: 1 and 2
    meet through 6, 3 and 4 are adjacent, and 5 leads the path 5-7-8-9."""
    return Graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 6),
                      (3, 4), (5, 7), (7, 8), (8, 9)])


class CountingView(set):
    """A vertex set that counts membership tests."""

    lookups = 0

    def __contains__(self, v):
        self.lookups += 1
        return super().__contains__(v)


def removable_free(g):
    return not any(is_removable(g, v) for v in range(g.n))


class TestLocalCutTest:
    @given(
        st.one_of(
            connected_graphs(min_n=2, max_n=16, max_extra=4),  # many cut vertices
            simple_graphs(min_n=2, max_n=12),
        ),
        st.data(),
    )
    def test_matches_whole_view_articulation(self, g, data):
        # every vertex of every connected view of a random vertex subset
        keep = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        subset = [v for v in range(g.n) if keep[v]]
        for comp in components(g) + components(g, subset):
            if len(comp) < 2:
                continue
            view = set(comp)
            cuts = set(cut_vertices(g, within=view))
            for v in comp:
                assert _is_cut_vertex(g, view, v) == (v in cuts)

    @pytest.mark.parametrize("g, cuts", [
        (three_sided_guard(), (0, 5, 7, 8)),
        # the friendship graph: three triangles through the centre 0
        (Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5),
                   (0, 6), (5, 6)]), (0,)),
        # the star: every leaf its own side
        (star(4), (0,)),
        # the wheel: the centre's five searches all meet
        (Graph(6, [(0, v) for v in range(1, 6)]
               + [(v, v % 5 + 1) for v in range(1, 6)]), ()),
        # found by random search: vertex 2 is no cut vertex, and its five
        # searches only all meet if a merge keeps both groups' frontiers
        (Graph(10, [(0, 2), (0, 3), (0, 5), (1, 8), (2, 4), (2, 7), (2, 8),
                    (2, 9), (4, 8), (4, 9), (5, 6), (5, 7), (6, 9)]), (0, 8)),
    ])
    def test_fixed_views(self, g, cuts):
        view = set(range(g.n))
        assert cut_vertices(g) == cuts
        assert tuple(v for v in range(g.n) if _is_cut_vertex(g, view, v)) == cuts

    def test_whole_view_articulation_matches_union_find(self):
        # an independent reference for cut_vertices, which the test above
        # takes as truth: v cuts a connected view exactly when the
        # union-find components of the view without v are more than one
        rng = Xorshift64Star(31)
        views_seen = 0
        for g in connected_corpus(25, max_n=14, seed0=733):
            views = [set(range(g.n))]
            for _ in range(4):
                keep = {v for v in range(g.n) if rng.next_below(4)}
                views += [set(c) for c in components_reference(g, keep) if len(c) > 1]
            for view in views:
                ids = sorted(view)
                cuts = tuple(v for v in ids if len(components_reference(g, view - {v})) > 1)
                assert cut_vertices(g, within=view) == cuts
                assert tuple(v for v in ids if _is_cut_vertex(g, view, v)) == cuts
            views_seen += len(views)
        assert views_seen > 100

    def test_small_side_ends_the_search(self):
        # guard 31 joins the triangle {30, 31, 32} to a K30 through vertex 0:
        # the triangle's search runs out long before the clique is scanned,
        # which alone would take 30 * 29 membership tests
        g = Graph(33, [(u, v) for u in range(30) for v in range(u + 1, 30)]
                  + [(0, 31), (30, 31), (30, 32), (31, 32)])
        view = CountingView(range(g.n))
        assert _is_cut_vertex(g, view, 31)
        assert view.lookups < 100


class TestPrc1:
    def test_cycle_seed_and_attachment(self):
        # seed is {0, 1} by BFS, attachment picks the two remaining
        # neighbors of the seed: 2 (from 1) and 5 (from 0)
        assert prc1(cycle(6), 4) == (0, 1, 2, 5)

    def test_clique_prefix(self):
        assert prc1(complete(6), 4) == (0, 1, 2, 3)

    def test_view_restriction(self):
        g = K5_WITH_TAIL
        assert prc1(g, 2, within=range(5)) == (0, 1)

    def test_needs_strictly_larger_view(self):
        with pytest.raises(ValueError, match="strictly larger"):
            prc1(cycle(4), 4)

    def test_rejects_views_with_removable_vertices(self):
        with pytest.raises(ValueError, match="no removable vertex"):
            prc1(k4p(), 2)

    def test_rejects_odd_or_tiny_k(self):
        with pytest.raises(ValueError, match="even"):
            prc1(cycle(6), 3)
        with pytest.raises(ValueError, match="even"):
            prc1(cycle(6), 1)

    def test_rejects_weighted_graphs(self):
        g = Graph(5, [(i, i + 1) for i in range(4)], [1, 1, 1, 1])
        with pytest.raises(ValueError, match="unweighted"):
            prc1(g, 2)

    def test_rejects_disconnected_view(self):
        with pytest.raises(ValueError, match="connected"):
            prc1(cycle(6), 2, within=[0, 1, 3, 4])

    def test_output_density_share(self):
        # the output keeps at least a k/(4 size) share of the view density
        for g in connected_corpus(20, max_n=12, seed0=37):
            if not removable_free(g):
                continue
            for k in range(2, g.n, 2):
                out = prc1(g, k)
                assert len(out) == k
                assert is_connected(g, out)
                assert density(g, out) * 4 * g.n >= k * density(g)


class TestPrc2:
    def test_barbell_trace(self):
        g = barbell(6, 6)
        with recording() as events:
            out = prc2(g, 10)
        assert out == (0, 1, 2, 3, 4, 5, 12, 13, 14, 15)
        assert density(g, out) == Fraction(19, 5)
        [state] = fields_of(events, "prc2")
        assert state["surviving"] == (14, 15)
        assert state["removable"] == (12, 13, 14, 15, 16)
        assert state["block_sizes"] == {14: 9, 15: 8}
        assert state["seed"] == (14,)
        assert state["seed_with_blocks"] == (0, 1, 2, 3, 4, 5, 12, 13, 14)
        assert state["seed_with_attachment"] == (14, 15)

    def test_block_sizes_cover_the_view(self):
        g = barbell(6, 7)
        with recording() as events:
            prc2(g, 10)
        [state] = fields_of(events, "prc2")
        assert sum(state["block_sizes"].values()) == g.n
        assert set(state["block_sizes"]) == set(state["surviving"])

    def test_seed_window(self):
        # the documented invariant: k/2 <= |seed with blocks| <= k
        for clique, tail, k in [(6, 6, 10), (6, 7, 10), (7, 6, 12), (6, 5, 8)]:
            g = barbell(clique, tail)
            with recording() as events:
                prc2(g, k)
            [state] = fields_of(events, "prc2")
            assert k // 2 <= len(state["seed_with_blocks"]) <= k

    def test_equal_weights_keep_the_seed_with_blocks(self):
        # both candidates induce 23 edges; the seed with its blocks wins the
        # tie and grows to 45/8, where the attachment would give 33/8
        g = clique_chain([7, 2, 7, 4, 6])
        with recording() as events:
            sol = alg1(g, 16)
        [state] = fields_of(events, "prc2")
        assert induced_weight(g, state["seed_with_blocks"]) == 23
        assert induced_weight(g, state["seed_with_attachment"]) == 23
        assert sol.vertices == tuple(range(16))
        assert sol.density == Fraction(45, 8)

    def test_pruning_matches_whole_view_reference(self, monkeypatch):
        # every contraction run reached through alg1 on the criterion-03
        # barbells, and on hairy cliques whose seeds prune cut and non-cut
        # vertices, against a run whose cut test, in alg1's peel as in
        # prc2's pruning, is a whole-view articulation DFS
        instances = [
            (barbell(6, 6), 10), (barbell(6, 7), 10), (barbell(7, 6), 12),
            (barbell(6, 5), 8), (barbell(7, 10), 12), (barbell(8, 12), 14),
        ] + [(hairy_clique(4, 6), k) for k in (12, 16, 20, 24)] + [
            (hairy_clique(5, 7), k) for k in (20, 24, 30)]

        def runs():
            # alg1 returns prc2's output as its Solution, so the solutions
            # also compare prc2's return values
            with recording() as events:
                solutions = [alg1(g, k) for g, k in instances]
            return solutions, fields_of(events, "prc2")

        solutions, states = runs()
        monkeypatch.setattr(
            densek.algorithms,
            "_is_cut_vertex",
            lambda g, view, v: v in cut_vertices(g, within=view),
        )
        assert runs() == (solutions, states)
        assert len(states) == len(instances)
        # hairy_clique(4, 6) at k = 16: the seed 0..4 prunes down to 0 and
        # its guard 4, keeping the cut vertex 0 and dropping 1, 2 and 3
        assert states[7]["seed"] == (0, 4)

    def test_contraction_of_a_clique_chain(self):
        # the removable vertex 27 lies in the dense side of the survivor 20,
        # and its own dense side holds 19 and 20: contracting it too would
        # leave blocks that miss the view
        g = clique_chain([2, 6, 2, 6, 3] * 3)
        with recording() as events:
            sol = alg1(g, 34)
        [state] = fields_of(events, "prc2")
        assert state["surviving"] == (19, 20)
        assert state["block_sizes"] == {19: 17, 20: 33}
        assert sol.density == Fraction(73, 17)

    def test_contraction_matches_pending_set_reference(self, monkeypatch):
        # every view alg1 hands to prc2, on the clique chain at each even k
        # that stalls there and on the pruning instances above, against the
        # loop that took the smallest pending vertex per step
        chain = clique_chain([2, 6, 2, 6, 3] * 3)
        instances = [(chain, k) for k in range(34, 50, 2)] + [
            (barbell(6, 6), 10), (barbell(6, 7), 10), (barbell(7, 6), 12),
            (barbell(6, 5), 8), (barbell(7, 10), 12), (barbell(8, 12), 14),
        ] + [(hairy_clique(4, 6), k) for k in (12, 16, 20, 24)] + [
            (hairy_clique(5, 7), k) for k in (20, 24, 30)]
        views = []

        def viewed_prc2(g, k, within=None):
            views.append(set(within))
            return prc2(g, k, within=within)

        monkeypatch.setattr(densek.algorithms, "prc2", viewed_prc2)
        with recording() as events:
            for g, k in instances:
                alg1(g, k)
        states = fields_of(events, "prc2")
        assert len(views) == len(states) == len(instances)
        for (g, _), view, state in zip(instances, views, states):
            assert contraction_reference(g, view, state["removable"]) == (
                state["surviving"], state["block_sizes"])

    def test_rejects_views_without_removable_vertices(self):
        with pytest.raises(ValueError, match="at least one removable"):
            prc2(cycle(8), 4)

    def test_rejects_large_dense_sides(self):
        with pytest.raises(ValueError, match="under k"):
            prc2(barbell(6, 6), 8)

    def test_removable_non_cut_vertex_fails(self):
        # the pendant of k4p is removable but not a cut vertex, so the
        # dense-side decomposition that prc2 depends on does not exist
        with pytest.raises(ValueError, match="cut vertex"):
            prc2(k4p(), 2)

    def test_rejects_disconnected_view(self):
        # the barbell's two K6s without the path joining them
        with pytest.raises(ValueError, match="needs a connected vertex view"):
            prc2(barbell(6, 6), 10, within=range(12))

    def test_rejects_small_views_and_odd_k(self):
        with pytest.raises(ValueError, match="strictly larger"):
            prc2(cycle(4), 4)
        with pytest.raises(ValueError, match="even"):
            prc2(barbell(6, 6), 5)


class TestAlg1:
    def test_peels_down_to_the_clique(self):
        sol = alg1(k4p(), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == 3
        assert sol.algorithm == "ALG1"

    def test_stall_hands_over_to_prc1(self):
        # K6 has no removable vertex, so peeling stalls immediately
        sol = alg1(complete(6), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == 3

    def test_cycle_goes_through_prc1(self):
        assert alg1(cycle(6), 4).vertices == (0, 1, 2, 5)

    def test_small_dense_sides_hand_over_to_prc2(self):
        sol = alg1(barbell(6, 6), 10)
        assert sol.vertices == (0, 1, 2, 3, 4, 5, 12, 13, 14, 15)
        assert sol.density == Fraction(19, 5)

    def test_recursion_into_a_large_dense_side(self):
        # removing path vertex 12 exposes the first clique, size >= k
        with recording() as events:
            sol = alg1(barbell(6, 6), 6)
        assert sol.vertices == (0, 1, 2, 3, 4, 5)
        assert sol.density == 5
        assert peel_log(events) == [[Fraction(72, 17)], [Fraction(5)]]

    def test_recursion_side_of_exact_size_k(self):
        sol = alg1(barbell(6, 6), 8)
        assert sol.vertices == (0, 1, 2, 3, 4, 5, 12, 13)
        assert sol.density == Fraction(17, 4)

    def test_peeling_raises_density_step_by_step(self):
        for g in connected_corpus(20, max_n=12, seed0=88):
            for k in range(2, g.n, 2):
                with recording() as events:
                    alg1(g, k)
                for phase in peel_log(events):
                    assert all(b > a for a, b in zip(phase, phase[1:]))

    @pytest.mark.parametrize(
        "g, k",
        [
            (k4p(), 4),  # a leaf candidate
            (cliques_with_guard_and_tail(0, 1), 12),  # skip the cut vertex 0
            (cliques_with_guard_and_tail(1, 0), 12),  # degree-2 non-cut first
            (cliques_with_guard_and_tail(0, 1), 4),  # then descend into a K6
            # 23 waits in bucket 3, falls to degree 2 and is admitted; its
            # bucket entry is stale when the level passes 3
            (gnp(30, 0.2, 166310), 2),
        ],
    )
    def test_peel_order_matches_full_dfs_reference(self, g, k):
        assert_alg1_matches_reference(g, k)

    @given(
        st.one_of(
            connected_graphs(min_n=4, max_n=24, max_extra=4),  # trees plus chords
            connected_graphs(min_n=4, max_n=12),
        ),
        st.data(),
    )
    def test_hypothesis_peel_order_matches_full_dfs_reference(self, g, data):
        k = 2 * data.draw(st.integers(1, g.n // 2))
        assert_alg1_matches_reference(g, k)

    @pytest.mark.parametrize("g", [
        gnp(300, 3 / 300, 11),
        gnp(300, 3 / 300, 12),
        gnp(200, 8 / 200, 13),
        gnp(200, 8 / 200, 14),
        # peel, descend into the denser side, peel again; prc2 at larger k
        bridged(gnp(150, 8 / 150, 15), gnp(120, 12 / 120, 16), 3),
    ])
    def test_peel_order_matches_full_dfs_reference_at_scale(self, g):
        # candidate bookkeeping over up to hundreds of steps per phase; k
        # stalls the peel (prc1 or prc2), or is reached by it
        for k in (10, g.n // 4 * 2, g.n - g.n % 2 - 10):
            assert_alg1_matches_reference(g, k)

    @pytest.mark.parametrize("g, k", [
        (clique_chain([3, 3, 7, 3, 3, 5] * 10), 6),  # n = 240
        (hairy_clique(80, 6), 16),  # n = 640
    ])
    def test_cut_vertices_are_not_tested_again(self, monkeypatch, g, k):
        # a vertex found to be a cut vertex keeps that verdict for the rest
        # of its phase; testing every earlier candidate again at each step
        # took 1,526 and 20,400 tests here
        tested = cut_tests(monkeypatch)
        sol = alg1(g, k)
        assert len(tested) <= 2 * g.n
        assert sol == alg1_reference(g, k)

    def test_a_leaf_peeled_off_a_cut_vertex_clears_its_verdict(self, monkeypatch):
        # 0 joins the K7 on 1..7 to the leaf 8, so it is a cut vertex until
        # 8 is peeled; then it is a leaf itself and goes next
        g = Graph(9, [(u, v) for u in range(1, 8) for v in range(u + 1, 8)]
                  + [(0, 1), (0, 8)])
        tested = cut_tests(monkeypatch)
        with recording() as events:
            sol = alg1(g, 4)
        assert tested == [0, 8, 0]
        assert peel_log(events) == [[Fraction(46, 9), Fraction(44, 8), 6]]
        assert sol == alg1_reference(g, 4)

    def test_whole_graph_when_k_equals_n(self):
        sol = alg1(cycle(6), 6)
        assert sol.vertices == tuple(range(6))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="must be even"):
            alg1(cycle(6), 3)
        with pytest.raises(ValueError, match="out of range"):
            alg1(cycle(6), 8)
        with pytest.raises(ValueError, match="out of range"):
            alg1(cycle(6), 0)
        with pytest.raises(ValueError, match="unweighted"):
            alg1(Graph(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3]), 2)
        with pytest.raises(ValueError, match="connected"):
            alg1(Graph(4, [(0, 1), (2, 3)]), 2)


class TestAlg3:
    def test_densest_core_already_has_size_k(self):
        sol = alg3(k4p(), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == 3
        assert sol.algorithm == "ALG3"

    def test_expands_a_smaller_core(self):
        with recording() as events:
            sol = alg3(K5_WITH_TAIL, 6)
        assert sol.vertices == (0, 1, 2, 3, 4, 5)
        assert sol.density == Fraction(11, 3)
        assert expand_log(events) == [((0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5))]

    def test_shrinks_a_larger_core_through_prc1(self):
        sol = alg3(k4p(), 2)
        assert sol.vertices == (0, 1)
        assert sol.density == 1

    @given(connected_graphs(min_n=3, max_n=14), st.data())
    def test_shrinking_matches_the_checked_prc1(self, g, data):
        # alg3 hands D*'s connected variant to prc1's core unchecked; the
        # checked prc1 must accept that view and give the same vertices
        dense = densest_subgraph(g).connected_variant
        assume(len(dense) > 2)
        k = 2 * data.draw(st.integers(1, (len(dense) - 1) // 2))
        assert alg3(g, k).vertices == prc1(g, k, within=dense)

    def test_expansion_keeps_density_share_on_corpus(self):
        # expanding a connected set to k keeps all its edges, so the
        # density can drop by at most the size ratio
        for g in connected_corpus(15, max_n=12, seed0=204):
            for k in range(2, g.n + 1, 2):
                with recording() as events:
                    sol = alg3(g, k)
                for before, after in expand_log(events):
                    assert density(g, after) * k >= density(g, before) * len(before)
                assert_valid_solution(g, sol, k)


class TestAlg4:
    def test_single_hub_with_single_attachment(self):
        sol = alg4(k4p(), 2)
        assert sol.vertices == (0, 3)
        assert sol.density == 1
        assert sol.algorithm == "ALG4"

    def test_hub_pair_on_the_clique(self):
        sol = alg4(k4p(), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == 3

    def test_star_keeps_its_center(self):
        sol = alg4(star(6), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == Fraction(3, 2)

    def test_disconnected_base_keeps_densest_component(self):
        # on C5 the base {0, 1, 2, 4} splits; the path component wins
        sol = alg4(cycle(5), 4)
        assert sol.vertices == (0, 1, 2, 4)
        assert sol.density == Fraction(3, 2)

    def test_density_tie_between_base_components_keeps_the_first(self):
        # hubs 0 and 1 share no neighbour, so the base {0, 1, 2, 3} splits
        # into two single edges; the one with the smaller ids wins the tie
        g = Graph(8, [(0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (1, 7), (6, 7)])
        assert alg4_base(g, 4) == (0, 1, 2, 3)
        assert alg4(g, 4).vertices == (0, 2, 4, 6)

    def test_base_is_hubs_plus_attachment(self):
        g = k4p()
        assert alg4_base(g, 4) == (0, 1, 2, 3)
        assert alg4_base(g, 2) == (0, 3)

    def test_base_density_reflects_hub_degrees(self):
        # base density >= k d_h / (2n) with d_h the mean hub degree
        for g in connected_corpus(20, max_n=12, seed0=333):
            for k in range(2, g.n + 1, 2):
                hubs = highest_degree_vertices(g, k // 2)
                d_h = Fraction(sum(g.degree(v) for v in hubs), len(hubs))
                base = alg4_base(g, k)
                assert density(g, base) * 2 * g.n >= k * d_h

    def test_highest_degree_selection(self):
        assert highest_degree_vertices(k4p(), 1) == (3,)
        assert highest_degree_vertices(k4p(), 3) == (0, 1, 3)
        assert highest_degree_vertices(star(4), 2) == (0, 1)
        assert highest_degree_vertices(k4p(), 0) == ()
        with pytest.raises(ValueError, match="out of range"):
            highest_degree_vertices(k4p(), 6)

    @given(connected_graphs(max_n=14), st.data())
    def test_highest_degree_matches_the_sort_it_replaced(self, g, data):
        count = data.draw(st.integers(0, g.n))
        assert highest_degree_vertices(g, count) == (
            highest_degree_vertices_reference(g, count)
        )


class TestWalk2Counts:
    def test_triangle(self):
        assert walk2_counts(complete(3)) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_square_counts_both_midpoints(self):
        assert walk2_counts(cycle(4)) == {(0, 2): 2, (1, 3): 2}

    def test_star_pairs_go_through_the_center(self):
        assert walk2_counts(star(3)) == {(1, 2): 1, (1, 3): 1, (2, 3): 1}

    def test_excluding_the_center_kills_all_walks(self):
        assert walk2_counts(star(3), excluded=[0]) == {}

    def test_path_has_consecutive_second_neighbors(self):
        assert walk2_counts(path(4)) == {(0, 2): 1, (1, 3): 1}


class TestHub:
    def test_whole_cycle(self):
        sol = alg5_hub(cycle(4), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == 2
        assert sol.algorithm == "HUB"

    def test_path_candidates_tie_toward_the_smallest_hub(self):
        sol = alg5_hub(path(6), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == Fraction(3, 2)

    def test_finds_a_triangle_from_outside_the_core(self):
        sol = alg5_hub(two_triangles_path3(), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == 2

    def test_tiny_k(self):
        sol = alg5_hub(k4p(), 2)
        assert len(sol.vertices) == 2
        assert is_connected(g=k4p(), s=sol.vertices)

    @pytest.mark.parametrize(
        "g, k, hub0_component",
        [
            (hub_tied_partners(), 4, (0, 1, 2)),
            (hub_tied_near(), 6, (0, 1, 2, 3, 5, 6)),
            (hub_dropped_partner(), 6, (0, 1, 2, 3, 5)),
            (star(4), 2, (1,)),  # k = 2: no partners; the leaf's hub is taken
            (path(5), 2, (0,)),
            (hub_partner_through_partner(), 6, (0, 1, 2, 3, 5, 6)),
        ],
    )
    def test_scan_matches_whole_graph_reference(self, g, k, hub0_component):
        ref_log = []
        with recording() as events:
            sol = alg5_hub(g, k)
        assert sol == alg5_hub_reference(g, k, ref_log)
        log = expand_log(events)
        assert log == ref_log
        assert log[0][0] == hub0_component

    @pytest.mark.parametrize("g, k", [
        (cycle(6), 4),  # hub 3: near 2 and 4, partner 5 through 4
        (hub_tied_near(), 6),
        (gnp(60, 0.1, 7), 6),
    ], ids=["cycle6", "tied-near", "gnp60"])
    def test_a_group_of_k_vertices_is_taken_as_it_is(self, g, k):
        # a hub's closed group can hold k vertices already: one hub, up to
        # k/2 near vertices and k/2 - 1 partners; its growth returns the
        # group at once, with the answer and events the reference gives
        ref_log = []
        with recording() as events:
            sol = alg5_hub(g, k)
        assert sol == alg5_hub_reference(g, k, ref_log)
        log = expand_log(events)
        assert log == ref_log
        assert any(len(seed) == k and seed == out for seed, out in log)

    @given(
        st.one_of(
            connected_graphs(min_n=2, max_n=24, max_extra=8),
            connected_graphs(min_n=2, max_n=24),
        ),
        st.data(),
    )
    def test_hypothesis_scan_matches_whole_graph_reference(self, g, data):
        k = 2 * data.draw(st.integers(1, g.n // 2))
        ref_log = []
        with recording() as events:
            sol = alg5_hub(g, k)
        assert sol == alg5_hub_reference(g, k, ref_log)
        assert expand_log(events) == ref_log

    @pytest.mark.parametrize("fraction", [10, 5], ids=["k-n/10", "k-n/5"])
    @pytest.mark.parametrize("n, p", [
        *((n, 8 / n) for n in (100, 150, 200, 250)),
        (60, 0.5),
        (120, 0.2),
    ], ids=["100", "150", "200", "250", "60-p0.5", "120-p0.2"])
    def test_benchmark_shape_matches_whole_graph_reference(self, n, p, fraction):
        # gnp(n, 8/n), the auto-gnp benchmark's shape, at graph sizes the
        # hypothesis graphs do not reach; and dense shapes, where counts
        # tie often and partners touch one another
        g = gnp(n, p, n)
        k = n // fraction - n // fraction % 2
        ref_log = []
        with recording() as events:
            sol = alg5_hub(g, k)
        assert sol == alg5_hub_reference(g, k, ref_log)
        assert expand_log(events) == ref_log

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            alg5_hub(cycle(6), 5)
        with pytest.raises(ValueError, match="unweighted"):
            alg5_hub(Graph(4, [(0, 1), (1, 2), (2, 3)], [1, 1, 1]), 2)


class TestWeightedGreedy:
    def test_unweighted_clique(self):
        sol = weighted_greedy(complete(6), 4)
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.density == 3
        assert sol.algorithm == "WGREEDY"

    def test_keeps_the_heaviest_star_edges(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [1, 9, 9, 1])
        sol = weighted_greedy(g, 3)
        assert sol.vertices == (0, 2, 3)
        assert sol.density == 12

    def test_tie_prefers_the_smallest_center(self):
        assert weighted_greedy(cycle(4), 2).vertices == (0, 1)

    def test_single_vertex(self):
        sol = weighted_greedy(cycle(4), 1)
        assert sol.vertices == (0,)
        assert sol.density == 0

    def test_ray_family_tightness(self):
        instance = example_1b_cached()
        sol = weighted_greedy(instance.graph, instance.k)
        assert sol.density == Fraction(1, 3)

    def test_half_k_guarantee_on_weighted_corpus(self):
        # greedy keeps at least 2/k of the unconstrained optimum
        for i, g in enumerate(connected_corpus(12, max_n=10, seed0=71)):
            wg = weighted_version(g, seed=i)
            k = min(6, wg.n)
            sol = weighted_greedy(wg, k)
            opt = brute_k(wg, k, connected=False).best_density
            assert sol.density * k >= 2 * opt

    @pytest.mark.parametrize("weight", [0, 1, 3])
    def test_uniform_weights_match_reference(self, weight):
        # a triangle with a tail, every edge tied, all-zero weights included
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)], [weight] * 6)
        for k in range(1, g.n + 1):
            assert weighted_greedy(g, k) == weighted_greedy_reference(g, k)

    @given(connected_graphs(min_n=1, max_n=14, weighted=True, max_w=2), st.data())
    def test_hypothesis_matches_reference(self, g, data):
        # weights 0..2: zero weights and ties on almost every draw
        k = data.draw(st.integers(1, g.n))
        assert weighted_greedy(g, k) == weighted_greedy_reference(g, k)

    @pytest.mark.parametrize("ell", range(2, 8))
    def test_ray_family_matches_reference_at_every_k(self, ell):
        # ray edges weigh 0, so the weighted-degree bound skips the checks
        # of most stars; a skip of a winner, or a tie handed to the later
        # star, changes the answer
        g = example1b(ell).graph
        for k in range(1, g.n + 1):
            assert weighted_greedy(g, k) == weighted_greedy_reference(g, k)

    @given(connected_graphs(min_n=1, max_n=14, weighted=True,
                            weights=st.sampled_from((0, 0, 0, 1, 40))), st.data())
    def test_hypothesis_mostly_zero_weights_match_reference(self, g, data):
        # a few heavy edges among zeros: the bound fires on most stars
        k = data.draw(st.integers(1, g.n))
        assert weighted_greedy(g, k) == weighted_greedy_reference(g, k)

    @pytest.mark.parametrize("odd", [False, True], ids=["even-k", "odd-k"])
    @pytest.mark.parametrize("n", [60, 90, 120, 150])
    def test_benchmark_shape_matches_reference(self, n, odd):
        # gnp(n, 6/n) with weights 1..9 at k = n/10, the cli-weighted
        # benchmark's shape: many members have their neighbour lists
        # scanned to the end, and count their weighted degree unchecked
        rng = Xorshift64Star(n)
        plain = gnp(n, 6 / n, rng.next_u64())
        g = Graph(plain.n, plain.edges, [1 + rng.next_below(9) for _ in plain.edges])
        k = g.n // 10 - g.n // 10 % 2 + odd
        assert weighted_greedy(g, k) == weighted_greedy_reference(g, k)

    def test_search_that_runs_dry_is_an_error(self, monkeypatch):
        # only a disconnected graph leaves a star short of k vertices
        monkeypatch.setattr(densek.algorithms, "is_connected", lambda g, s=None: True)
        with pytest.raises(RuntimeError, match="must reach k vertices"):
            weighted_greedy(Graph(4, [(0, 1), (2, 3)], [1, 1]), 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            weighted_greedy(cycle(4), 0)
        with pytest.raises(ValueError, match="connected"):
            weighted_greedy(Graph(4, [(0, 1), (2, 3)]), 2)


def example_1b_cached():
    from densek import example1b

    return example1b(3)


class TestOddKAndSelectors:
    def test_odd_k_runs_even_core_plus_best_attachment(self):
        solutions = run_all_algorithms(k4p(), 3)
        assert [s.algorithm for s in solutions] == ["ALG1", "ALG3", "ALG4", "HUB"]
        for sol in solutions:
            assert_valid_solution(k4p(), sol, 3)
        assert solutions[0].vertices == (0, 1, 2)

    @given(graphs_with_subset(max_n=14))
    def test_attachment_matches_the_scan_it_replaced(self, triple):
        # most neighbours in the set, ties toward the smaller id
        g, s, _ = triple
        assert _attach_best_vertex(g, s) == attach_best_vertex_reference(g, s)

    @given(connected_graphs(min_n=4, max_n=14), st.sampled_from([3, 5, 7]))
    def test_odd_k_adds_the_attachment_of_the_scan_it_replaced(self, g, k):
        if k > g.n:
            return
        base = alg4(g, k - 1).vertices
        extra = attach_best_vertex_reference(g, base)
        assert run_named_algorithm(g, k, "alg4").vertices == tuple(
            sorted(base + (extra,))
        )

    def test_combined_picks_the_densest(self):
        best = best_connected_k_subgraph(k4p(), 3)
        assert best.algorithm == "COMBINED"
        assert best.vertices == (0, 1, 2)
        assert best.density == 2

    def test_ties_keep_the_earliest_algorithm(self):
        # On the path 2-0-3-1 every answer at k=3 has density 4/3, but the
        # hub scan, last in run order, picks other vertices than alg1.
        g = Graph(4, [(0, 2), (0, 3), (1, 3)])
        solutions = run_all_algorithms(g, 3)
        assert {s.density for s in solutions} == {Fraction(4, 3)}
        assert solutions[0].vertices == (0, 2, 3)
        assert solutions[-1].vertices == (0, 1, 3)
        assert best_connected_k_subgraph(g, 3).vertices == (0, 2, 3)

    def test_combined_never_below_any_single_algorithm(self):
        for g in connected_corpus(10, max_n=12, seed0=642):
            for k in (3, 4, 5):
                if k > g.n:
                    continue
                best = best_connected_k_subgraph(g, k)
                for sol in run_all_algorithms(g, k):
                    assert best.density >= sol.density

    def test_weighted_instances_run_greedy_only(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [2, 1, 1, 1])
        solutions = run_all_algorithms(g, 3)
        assert [s.algorithm for s in solutions] == ["WGREEDY"]
        best = best_connected_k_subgraph(g, 3)
        assert best.algorithm == "COMBINED"
        assert best.density == solutions[0].density

    def test_selector_rejects_tiny_k(self):
        with pytest.raises(ValueError, match="out of range"):
            best_connected_k_subgraph(k4p(), 2)
        with pytest.raises(ValueError, match="out of range"):
            run_all_algorithms(k4p(), 1)

    def test_selector_rejects_disconnected_input(self):
        with pytest.raises(ValueError, match="connected"):
            run_all_algorithms(Graph(5, [(0, 1), (2, 3), (3, 4)]), 3)

    def test_run_named_matches_direct_calls(self):
        g = k4p()
        assert run_named_algorithm(g, 4, "alg1") == alg1(g, 4)
        assert run_named_algorithm(g, 4, "alg3") == alg3(g, 4)
        assert run_named_algorithm(g, 4, "alg4") == alg4(g, 4)
        assert run_named_algorithm(g, 4, "hub") == alg5_hub(g, 4)
        assert run_named_algorithm(g, 4, "wgreedy") == weighted_greedy(g, 4)

    def test_run_named_validation(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_named_algorithm(k4p(), 4, "alg2")
        with pytest.raises(ValueError, match="unweighted"):
            run_named_algorithm(Graph(3, [(0, 1), (1, 2)], [1, 2]), 3, "alg1")
        assert run_named_algorithm(k4p(), 3, "alg1").k == 3


class TestTraceEvents:
    # the event table documented at densek.algorithms.trace: name -> the
    # type of each field
    SCHEMA = {
        "peel_phase": {"density": Fraction},
        "peel": {"density": Fraction},
        "prc2": {
            "surviving": tuple,
            "removable": tuple,
            "block_sizes": dict,
            "seed": tuple,
            "seed_with_blocks": tuple,
            "seed_with_attachment": tuple,
        },
        "expand": {"seed": tuple, "out": tuple},
    }

    def test_every_event_matches_the_documented_schema(self):
        big = bridged(gnp(150, 8 / 150, 15), gnp(120, 12 / 120, 16), 3)
        instances = [
            (barbell(6, 6), 10), (barbell(6, 7), 10), (barbell(7, 6), 12),
            (barbell(6, 5), 8), (barbell(7, 10), 12), (barbell(8, 12), 14),
            (hairy_clique(4, 6), 16),
        ] + [(big, k) for k in (10, big.n // 4 * 2, big.n - big.n % 2 - 10)] + [
            (gnp(60, 0.1, seed), k) for seed in (1, 2, 3) for k in (6, 12)]
        seen = set()
        for g, k in instances:
            with recording() as events:
                run_all_algorithms(g, k)
            for event, fields in events:
                assert event in self.SCHEMA
                schema = self.SCHEMA[event]
                assert set(fields) == set(schema)
                for name, value in fields.items():
                    assert type(value) is schema[name]
                    if isinstance(value, tuple):
                        assert value == tuple(sorted(set(value)))
                        assert all(type(v) is int for v in value)
                    elif isinstance(value, dict):
                        assert all(type(a) is int and type(b) is int
                                   for a, b in value.items())
                seen.add(event)
        assert seen == set(self.SCHEMA)


class TestDispatch:
    def test_calls_reach_functions_patched_into_the_module(
        self, monkeypatch, tmp_path
    ):
        # perfbench's tracer swaps module attributes; dispatch must see them
        calls = []

        def spy(name):
            original = getattr(densek.algorithms, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(densek.algorithms, name, recorded)

        spy("alg1")
        spy("weighted_greedy")
        weighted = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [2, 1, 1, 1])
        run_named_algorithm(k4p(), 4, "alg1")
        run_named_algorithm(weighted, 3, "wgreedy")
        assert calls == ["alg1", "weighted_greedy"]
        calls.clear()
        best_connected_k_subgraph(k4p(), 4)
        best_connected_k_subgraph(weighted, 3)
        assert calls == ["alg1", "weighted_greedy"]
        calls.clear()
        for index, g in enumerate((k4p(), weighted)):
            path = tmp_path / f"g{index}.edges"
            path.write_text(format_edge_list(g))
            argv = ["solve", "--input", str(path), "--k", "3",
                    "--out", str(tmp_path / "report.json")]
            assert densek.cli.main(argv) == 0
        assert calls == ["alg1", "weighted_greedy"]

    def test_whole_graph_connectivity_is_searched_once(self, monkeypatch):
        # the Graph keeps its connectivity, so two solves search it once
        g = gnp(40, 0.15, 3)
        searched = []
        bfs = densek.graph._bfs

        def counting(h, seed, members, limit=None):
            # a search for all of h's vertices, not a growth to a size
            if limit is None and len(members) == h.n:
                searched.append(h)
            return bfs(h, seed, members, limit)

        monkeypatch.setattr(densek.graph, "_bfs", counting)
        best_connected_k_subgraph(g, 4)
        best_connected_k_subgraph(g, 5)
        assert searched == [g]


class TestSolutionRecords:
    def test_solutions_are_frozen(self):
        sol = alg1(k4p(), 4)
        with pytest.raises(AttributeError):
            sol.k = 5

    def test_validity_gate(self):
        # every solver's output passes here: a CLI name, tagged in capitals
        g = k4p()
        assert _make_solution(g, [3, 0, 1], "hub", 3).algorithm == "HUB"
        for name in ("ALG1", "combined"):
            with pytest.raises(ValueError, match=f"unknown algorithm tag '{name}'"):
                _make_solution(g, [0, 1, 2], name, 3)
        for vertices in ([0, 1], [0, 1, 1]):
            with pytest.raises(ValueError, match="expected 3 distinct vertices"):
                _make_solution(g, vertices, "alg1", 3)
        with pytest.raises(ValueError, match="not connected"):
            _make_solution(g, [0, 1, 4], "alg1", 3)

    @pytest.mark.parametrize("vertices, message", [
        ([0, 1, 2.0], "vertex id 2.0 is not a plain integer"),
        ([0, 1, 99], "unknown vertex 99"),
        # True is 1 in a set, so the count check sees two vertices first
        ([0, 1, True], "expected 3 distinct vertices"),
    ], ids=["float", "unknown", "bool"])
    def test_validity_gate_refuses_bad_ids(self, vertices, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _make_solution(k4p(), vertices, "alg1", 3)

    def test_validity_gate_checks_in_order(self):
        # the tag, then the count, then the ids, then connectivity
        g = k4p()
        with pytest.raises(ValueError, match="unknown algorithm tag"):
            _make_solution(g, [0, 1, 99], "nope", 3)
        with pytest.raises(ValueError, match="expected 3 distinct vertices"):
            _make_solution(g, [0, 2.0, 2.0], "alg1", 3)
        with pytest.raises(ValueError, match="unknown vertex 99"):
            _make_solution(g, [0, 4, 99], "alg1", 3)


class TestSuiteProperties:
    @given(connected_graphs(min_n=4, max_n=10))
    def test_every_algorithm_is_well_formed(self, g):
        for k in (3, 4):
            if k > g.n:
                continue
            for sol in run_all_algorithms(g, k):
                assert_valid_solution(g, sol, k)

    def test_even_k_sweep_on_corpus(self):
        for g in connected_corpus(10, max_n=11, seed0=913):
            for k in range(4, g.n + 1, 2):
                for sol in run_all_algorithms(g, k):
                    assert_valid_solution(g, sol, k)

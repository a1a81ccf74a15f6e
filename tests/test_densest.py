"""Exact densest-subgraph engine against the brute-force oracle."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from densek import (
    Graph,
    brute_densest,
    densest_subgraph,
    density,
    gnp,
    has_subgraph_denser_than,
)
import densek.densest
from densek.graph import induced_weight, is_connected
from helpers import complete, connected_corpus, count_lines, densest_union, k4p, path, star
from helpers import densest_subgraph_reference, has_subgraph_denser_than_reference
from helpers import induced, is_removable, twice, weighted_version
from helpers import two_triangles_bridged, two_triangles_path3
from strategies import connected_graphs, simple_graphs


class TestKnownInstances:
    def test_clique_with_pendant(self):
        result = densest_subgraph(k4p())
        assert result.subgraph == (0, 1, 2, 3)
        assert result.density == 3
        assert result.connected_variant == (0, 1, 2, 3)

    def test_two_triangles_bridged(self):
        # bridging edge is worth keeping: 7 edges on 6 vertices beat 2
        result = densest_subgraph(two_triangles_bridged())
        assert result.subgraph == (0, 1, 2, 3, 4, 5)
        assert result.density == Fraction(7, 3)

    def test_two_triangles_with_longer_path(self):
        # the three path edges still pull the optimum up to the whole graph
        result = densest_subgraph(two_triangles_path3())
        assert result.subgraph == tuple(range(8))
        assert result.density == Fraction(9, 4)
        assert result.connected_variant == tuple(range(8))

    def test_clique_with_two_edge_tail(self):
        # a triangle plus a tail would tie at density 2; a K4 core does not
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        result = densest_subgraph(g)
        assert result.subgraph == (0, 1, 2, 3)
        assert result.density == 3

    def test_complete_graph_is_its_own_optimum(self):
        result = densest_subgraph(complete(6))
        assert result.subgraph == tuple(range(6))
        assert result.density == 5

    def test_star_takes_whole_graph(self):
        result = densest_subgraph(star(3))
        assert result.subgraph == (0, 1, 2, 3)
        assert result.density == Fraction(3, 2)


class TestWeighted:
    def test_heavy_edge_dominates(self):
        g = Graph(3, [(0, 1), (1, 2)], [5, 1])
        result = densest_subgraph(g)
        assert result.subgraph == (0, 1)
        assert result.density == 5

    def test_uniform_weights_take_whole_triangle(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)], [3, 3, 3])
        result = densest_subgraph(g)
        assert result.subgraph == (0, 1, 2)
        assert result.density == 6

    def test_zero_weight_edges_do_not_count(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [0, 4, 0])
        result = densest_subgraph(g)
        assert result.subgraph == (1, 2)
        assert result.density == 4


class TestDegenerate:
    def test_no_edges_raises(self):
        with pytest.raises(ValueError, match="zero edges"):
            densest_subgraph(Graph(3, []))

    def test_all_zero_weights_raises(self):
        with pytest.raises(ValueError, match="zero edges"):
            densest_subgraph(Graph(2, [(0, 1)], [0]))

    def test_single_edge(self):
        result = densest_subgraph(Graph(2, [(0, 1)]))
        assert result.subgraph == (0, 1)
        assert result.density == 1


class TestDisconnectedInput:
    def test_denser_component_wins(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        result = densest_subgraph(g)
        assert result.subgraph == (0, 1, 2)
        assert result.connected_variant == (0, 1, 2)

    def test_tied_components_pick_smallest_ids(self):
        # two disjoint triangles: every union of maximizers maximizes, and
        # the connected variant is the component holding vertex 0
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        result = densest_subgraph(g)
        assert result.density == 2
        assert result.connected_variant == (0, 1, 2)
        assert density(g, result.connected_variant) == result.density


class TestThresholdQueries:
    def test_witness_is_denser_than_threshold(self):
        g = k4p()
        witness = has_subgraph_denser_than(g, Fraction(5, 2))
        assert witness is not None
        assert density(g, witness) > Fraction(5, 2)

    def test_no_witness_at_the_optimum(self):
        g = k4p()
        assert has_subgraph_denser_than(g, Fraction(3)) is None

    def test_witness_just_below_the_optimum(self):
        g = k4p()
        witness = has_subgraph_denser_than(g, Fraction(3) - Fraction(1, 25))
        assert witness is not None
        assert density(g, witness) == 3

    def test_zero_threshold_on_edgeless_graph(self):
        assert has_subgraph_denser_than(Graph(4, []), Fraction(0)) is None

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            has_subgraph_denser_than(path(3), Fraction(-1))

    @pytest.mark.parametrize("threshold", [1.4, "7/5", True],
                             ids=["float", "str", "bool"])
    def test_threshold_must_be_int_or_fraction(self, threshold):
        # Fraction() takes each of these, and each would return a witness
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            has_subgraph_denser_than(k4p(), threshold)

    def test_feasibility_is_monotone(self):
        g = two_triangles_bridged()
        opt = densest_subgraph(g).density
        step = Fraction(1, 7)
        t = Fraction(0)
        while t < opt + 2 * step:
            witness = has_subgraph_denser_than(g, t)
            if t < opt:
                assert witness is not None and density(g, witness) > t
            else:
                assert witness is None
            t += step


class TestAgainstOracle:
    def test_corpus_matches_brute_force(self):
        for g in connected_corpus(30, max_n=12, seed0=401):
            expected = brute_densest(g)
            result = densest_subgraph(g)
            assert result.density == expected.best_density
            assert density(g, result.subgraph) == expected.best_density
            assert result.subgraph == densest_union(g)
            assert density(g, result.connected_variant) == expected.best_density
            assert is_connected(g, result.connected_variant)

    def test_weighted_corpus_matches_brute_force(self):
        for i, g in enumerate(connected_corpus(15, max_n=10, seed0=977)):
            wg = weighted_version(g, seed=i)
            expected = brute_densest(wg)
            result = densest_subgraph(wg)
            assert result.density == expected.best_density
            assert result.subgraph == densest_union(wg)

    def test_density_denominator_stays_within_n(self):
        for g in connected_corpus(10, max_n=12, seed0=550):
            assert densest_subgraph(g).density.denominator <= g.n

    @given(connected_graphs(min_n=2, max_n=9))
    def test_hypothesis_matches_brute_force(self, g):
        result = densest_subgraph(g)
        assert result.density == brute_densest(g).best_density
        assert result.subgraph == densest_union(g)

    @given(connected_graphs(min_n=2, max_n=8, weighted=True))
    def test_hypothesis_weighted_matches_brute_force(self, g):
        if induced_weight(g) == 0:
            return
        result = densest_subgraph(g)
        assert result.density == brute_densest(g).best_density
        assert result.subgraph == densest_union(g)

    @given(
        st.one_of(
            connected_graphs(min_n=2, max_n=8),
            connected_graphs(min_n=2, max_n=8, weighted=True),
        )
    )
    def test_hypothesis_tied_copies_are_both_kept(self, g):
        # every maximizer of g, in either copy, belongs to the union D*
        if induced_weight(g) == 0:
            return
        core = densest_union(g)
        expected = core + tuple(v + g.n for v in core)
        assert densest_subgraph(twice(g)).subgraph == expected


def small_graphs():
    return st.one_of(simple_graphs(max_n=14), simple_graphs(max_n=14, weighted=True))


@st.composite
def path_rich_graphs(draw):
    """Stars, complete bipartite graphs and cliques with pendant paths, ids
    shuffled, weighted or not: graphs where much of the excess can reach a
    deficit only through a middle vertex."""
    kind = draw(st.sampled_from(("star", "bipartite", "clique")))
    if kind == "star":
        n = draw(st.integers(2, 10))
        edges = [(0, v) for v in range(1, n)]
    elif kind == "bipartite":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        n = a + b
        edges = [(u, a + v) for u in range(a) for v in range(b)]
    else:
        size = draw(st.integers(2, 5))
        n = size
        edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
        for length in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            end = draw(st.integers(0, size - 1))
            for v in range(n, n + length):
                edges.append((end, v))
                end = v
            n += length
    ids = draw(st.permutations(range(n)))
    edges = [(min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in edges]
    weights = draw(st.none() | st.lists(st.integers(0, 4), min_size=len(edges),
                                        max_size=len(edges)))
    return Graph(n, edges, weights)


@st.composite
def graph_subset_thresholds(draw, graphs=small_graphs()):
    """(g, s, thresholds): a nonempty vertex set s of g, and thresholds 0,
    the densities of random subsets of s, and those densities +-1/n**2."""
    g = draw(graphs)
    s = sorted(draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    thresholds = {Fraction(0)}
    step = Fraction(1, g.n**2)
    for _ in range(draw(st.integers(1, 4))):
        sub = draw(st.sets(st.sampled_from(s), min_size=1))
        d = density(g, sub)
        thresholds.update(t for t in (d - step, d, d + step) if t >= 0)
    return g, s, sorted(thresholds)


class TestAgainstReference:
    """The network without M, run within a vertex mask, against the whole-
    graph network with M (tests/helpers.py keeps the old code verbatim)."""

    @given(graph_subset_thresholds())
    def test_threshold_queries_match(self, case):
        g, _, thresholds = case
        for t in thresholds:
            expected = has_subgraph_denser_than_reference(g, t)
            assert has_subgraph_denser_than(g, t) == expected

    @given(graph_subset_thresholds())
    def test_masked_queries_match_the_induced_graph(self, case):
        g, s, thresholds = case
        h, ids = induced(g, s)
        for t in thresholds:
            found = has_subgraph_denser_than_reference(h, t)
            expected = None if found is None else tuple(ids[i] for i in found)
            assert has_subgraph_denser_than(g, t, within=s) == expected

    @given(graph_subset_thresholds(path_rich_graphs()), st.booleans())
    def test_path_rich_queries_match(self, case, masked):
        # in a star or a biclique, a vertex reaches most others only over
        # two edges, which the routing pass before Dinic reaches
        g, s, thresholds = case
        within = s if masked else None
        h, ids = induced(g, s) if masked else (g, range(g.n))
        for t in thresholds:
            found = has_subgraph_denser_than_reference(h, t)
            expected = None if found is None else tuple(ids[i] for i in found)
            assert has_subgraph_denser_than(g, t, within=within) == expected

    @given(small_graphs())
    def test_densest_subgraph_matches(self, g):
        try:
            expected = densest_subgraph_reference(g)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                densest_subgraph(g)
        else:
            assert densest_subgraph(g) == expected

    def test_flow_undoes_part_of_a_presaturated_path(self):
        # found by random search, rarer than the draws above reach: the max
        # flow must push back over an edge on which the routing pass has
        # already sent excess straight to a deficit vertex, so a pass that
        # did not credit that edge's reverse arc would return (0, 2, 3),
        # whose density is exactly 28/3
        g = Graph(6, [(0, 3), (1, 2), (1, 4), (1, 5), (2, 3)], [7, 1, 2, 7, 7])
        assert has_subgraph_denser_than_reference(g, Fraction(28, 3)) is None
        assert has_subgraph_denser_than(g, Fraction(28, 3)) is None

    def test_flow_undoes_part_of_a_presaturated_two_edge_path(self):
        # found by random search: the max flow must push back over a path
        # source-i-x-j-sink that the routing pass has already filled, so a
        # pass that did not credit the x-j reverse arc loses vertex 5
        g = Graph(8, [(0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (2, 4), (2, 5),
                      (2, 6), (3, 5), (4, 6), (4, 7)],
                  [0, 0, 1, 2, 4, 8, 4, 5, 1, 1, 3])
        for t in (Fraction(9), Fraction(91, 10)):
            assert has_subgraph_denser_than_reference(g, t) == (0, 2, 4, 5, 6, 7)
            assert has_subgraph_denser_than(g, t) == (0, 2, 4, 5, 6, 7)

    def test_flow_undoes_the_first_edge_of_a_routed_two_edge_path(self):
        # found by random search: the max flow must push back over the arc
        # i-x of a path source-i-x-j-sink that the routing pass has filled,
        # so a pass that did not credit the i-x reverse arc would return
        # (1, 3, 4, 7), whose density is exactly 2
        g = Graph(8, [(0, 4), (1, 3), (1, 7), (2, 4), (2, 5), (2, 6), (3, 7), (4, 7)])
        assert has_subgraph_denser_than_reference(g, 2) is None
        assert has_subgraph_denser_than(g, 2) is None

    def test_each_flow_runs_within_the_previous_witness(self, monkeypatch):
        # the loop calls the module global, so a tracer wrapped around it
        # sees every flow; the first witness, the removable-free set, is
        # computed directly. K4 with a tail 3-4-5, a zero-weight edge 5-6
        # and isolated vertex 7: shedding 5 then 4 leaves the K4, already
        # densest, so its one flow finds nothing
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4),
                      (4, 5), (5, 6)], [1, 1, 1, 1, 1, 1, 1, 1, 0])
        calls = []
        real = densek.densest.has_subgraph_denser_than

        def spy(g, threshold, within=None):
            found = real(g, threshold, within=within)
            calls.append((tuple(within), threshold, found))
            return found

        monkeypatch.setattr(densek.densest, "has_subgraph_denser_than", spy)
        result = densest_subgraph(g)
        assert calls == [((0, 1, 2, 3), Fraction(3), None)]
        for (within, _, found), (nested, _, _) in zip(calls, calls[1:]):
            assert nested == found and set(found) <= set(within)
        assert calls[-1] == (result.subgraph, result.density, None)
        assert result == densest_subgraph_reference(g)


def flows_run(g):
    """(within, threshold) of each flow densest_subgraph(g) runs, in order."""
    calls = []
    real = densek.densest.has_subgraph_denser_than

    def spy(g, threshold, within=None):
        calls.append((tuple(within), threshold))
        return real(g, threshold, within=within)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(densek.densest, "has_subgraph_denser_than", spy)
        densest_subgraph(g)
    return calls


class TestRemovableFreeStart:
    """The Dinkelbach loop starts from the set left once removable vertices
    are shed, which holds every maximum-density set."""

    @given(small_graphs())
    def test_first_flow_runs_within_a_removable_free_superset_of_d_star(self, g):
        if induced_weight(g) == 0:
            return
        within, threshold = flows_run(g)[0]
        assert set(densest_union(g)) <= set(within)
        assert not any(is_removable(g, v, within) for v in within)
        assert threshold == density(g, within)
        # the vertices on positive-weight edges, where the loop used to start
        touched = tuple(
            v for v in range(g.n) if sum(g.edge_weight(v, u) for u in g.neighbors(v))
        )
        if not any(is_removable(g, v, touched) for v in touched):
            assert (within, threshold) == (touched, density(g, touched))

    def test_sparse_gnp_needs_few_flows(self):
        # gnp(n, 8/n) for n = 40, 60, ..., 200 at seeds 1-3, 27 calls: the
        # touched-set start ran 55 flows (2.04 a call), the removable-free
        # start runs 31 (1.15), as most first flows certify the start set
        flows = [
            len(flows_run(gnp(n, 8 / n, seed)))
            for n in range(40, 201, 20)
            for seed in (1, 2, 3)
        ]
        assert len(flows) == 27
        assert sum(flows) <= 40


class TestWithinMask:
    def test_unknown_vertex_rejected(self):
        g = k4p()
        for bad in (-1, g.n):
            with pytest.raises(ValueError, match=f"unknown vertex {bad}"):
                has_subgraph_denser_than(g, 1, within=[0, 1, bad])

    def test_empty_mask_has_no_witness(self):
        assert has_subgraph_denser_than(k4p(), 0, within=[]) is None
        assert has_subgraph_denser_than(k4p(), 1, within=()) is None

    def test_mask_excludes_the_clique(self):
        # without 0 the rest is a triangle plus a leaf: density 2, tied with
        # the triangle, so only a threshold below 2 finds the whole mask
        g = k4p()
        assert has_subgraph_denser_than(g, 2, within=range(g.n)) == (0, 1, 2, 3)
        assert has_subgraph_denser_than(g, Fraction(3, 2), within=[1, 2, 3, 4]) == (1, 2, 3, 4)
        assert has_subgraph_denser_than(g, 2, within=[1, 2, 3, 4]) is None


class TestFlowCost:
    """The flow's routing pass reads each arc about once, and spares Dinic."""

    def test_two_dense_clusters_cost_linear_work(self):
        # Two dense clusters joined by five edges: excess in one cluster
        # cannot reach a deficit in two steps, so a routing pass that
        # rescanned each middle vertex's row from its start, with no resume
        # pointer spent, would do sum(deg^2) work. The work is counted as
        # the lines each of two functions runs, every call of
        # densest_subgraph included, on 400 vertices and 19,941 edges.
        # has_subgraph_denser_than: 32.5 an edge, 753 without spent, so the
        # ceiling of 60 has a margin of 27.5.
        # _residual_source_side, Dinic: 3.7 an edge, 25.8 without the
        # routing pass, so the ceiling of 8 has a margin of 4.3.
        a, b = gnp(200, 0.6, 11), gnp(200, 0.4, 12)
        edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
        g = Graph(a.n + b.n, edges + [(i, a.n + i) for i in range(5)])
        codes = (densek.densest.has_subgraph_denser_than.__code__,
                 densek.densest._residual_source_side.__code__)
        lines = count_lines(codes, lambda: densest_subgraph(g))
        assert g.m == 19941
        route, dinic = (count / g.m for count in lines.values())
        assert route <= 60, f"routing: {route:.1f} lines an edge"
        assert dinic <= 8, f"Dinic: {dinic:.1f} lines an edge"

import os
import threading
from collections import Counter
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from densek import (
    Xorshift64Star,
    alg1,
    alg3,
    alg4,
    alg5_hub,
    best_connected_k_subgraph,
    brute_k,
    run_named_algorithm,
    weighted_greedy,
)
from densek.algorithms import highest_degree_vertices, prc1, prc2
from densek.densest import has_subgraph_denser_than
from densek.graph import (
    EdgeError,
    EdgeListError,
    Graph,
    _view_degrees,
    _weighted_degrees,
    components,
    cut_vertices,
    densest_component_after,
    density,
    expand_to_k,
    format_edge_list,
    induced_weight,
    is_connected,
    j_attachment,
    load_edge_list,
    parse_edge_list,
)
from helpers import (
    complete,
    components_reference,
    count_edges_between,
    cycle,
    densest_part_reference,
    is_removable,
    j_attachment_reference,
    k4p,
    path,
    star,
    triangles_through_cut,
    two_triangles_path3,
)
from strategies import connected_graphs, graphs_with_subset, simple_graphs


class TestGraphBasics:
    def test_adjacency_sorted(self):
        g = Graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    @given(simple_graphs(max_n=12), st.data())
    def test_adjacency_sorted_from_shuffled_flipped_edges(self, g, data):
        # Graph keeps its adjacency lists in the order it builds them, which
        # must come out sorted whatever the order and orientation of the input
        edges = data.draw(st.permutations(g.edges))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges),
                                   max_size=len(edges)))
        h = Graph(g.n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])
        assert h == g
        for v in range(h.n):
            ends = sorted(u for e in g.edges if v in e for u in e if u != v)
            assert h.neighbors(v) == tuple(ends)

    def test_weighted_accessors(self):
        g = Graph(3, [(1, 2), (0, 1)], [7, 2])
        assert g.weighted
        assert g.weights == (2, 7)  # sorted with their edges
        assert g.edge_weight(2, 1) == 7
        assert _weighted_degrees(g) == [2, 9, 7]
        assert induced_weight(g) == 9

    def test_unweighted_edge_weight_is_one(self):
        g = path(3)
        assert not g.weighted
        assert g.edge_weight(0, 1) == 1
        assert _weighted_degrees(g) == [1, 2, 1]
        assert induced_weight(g) == g.m

    def test_missing_edge_weight_errors(self):
        with pytest.raises(ValueError):
            path(3).edge_weight(0, 2)

    # Each public query checks its ids by the view rule. Unchecked, -1 read
    # the last vertex's row, True vertex 1's and 1.0 raised a TypeError.
    @pytest.mark.parametrize("query", ["neighbors", "degree"])
    @pytest.mark.parametrize("v, error", [
        (-1, "unknown vertex -1"),
        (3, "unknown vertex 3"),
        (True, "vertex id True is not a plain integer"),
        (1.0, "vertex id 1.0 is not a plain integer"),
    ])
    def test_vertex_query_refuses_a_bad_id(self, query, v, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            getattr(path(3), query)(v)

    @pytest.mark.parametrize("u, v, error", [
        (-1, 0, "unknown vertex -1"),
        (0, 3, "unknown vertex 3"),
        (True, 0, "vertex id True is not a plain integer"),
        # a set of both ids would take (1, True) as {1} and pass
        (1, True, "vertex id True is not a plain integer"),
        (0, 1.0, "vertex id 1.0 is not a plain integer"),
    ])
    def test_edge_weight_refuses_a_bad_id(self, u, v, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            path(3).edge_weight(u, v)

    def test_equality(self):
        assert path(3) == Graph(3, [(1, 2), (0, 1)])
        assert path(3) != path(4)
        assert Graph(2, [(0, 1)], [3]) != Graph(2, [(0, 1)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, [])

    def test_rejects_a_vertex_count_that_is_no_plain_int(self):
        # Graph(True, []) would be written as the header "True 0"
        for n in (True, 2.0):
            with pytest.raises(ValueError, match="not a nonnegative integer"):
                Graph(n, [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_even_flipped(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("edges, weights, index", [
        ([(0, 1), (1, 2), (2, 1)], None, 2),
        ([(0, 1), (2, 2)], None, 1),
        ([(0, 3), (1, 1)], None, 0),
        ([(0, 1), (1, 2)], [4, -1], 1),
    ], ids=["duplicate", "self-loop", "out-of-range", "negative-weight"])
    def test_rejected_edge_carries_its_position(self, edges, weights, index):
        with pytest.raises(EdgeError) as err:
            Graph(3, edges, weights)
        assert err.value.index == index

    @pytest.mark.parametrize("edges, weights, index", [
        ([(0, 1), (1, 2)], [True, 2], 0),
        ([(False, True)], None, 0),
        ([(0, 1), (1.0, 2)], None, 1),
        ([(0, "1")], None, 0),
    ], ids=["bool-weight", "bool-ids", "float-id", "str-id"])
    def test_ids_and_weights_are_plain_ints(self, edges, weights, index):
        # a bool is an int, but format_edge_list would write it as True,
        # which parse_edge_list refuses
        with pytest.raises(EdgeError) as err:
            Graph(3, edges, weights)
        assert err.value.index == index

    @pytest.mark.parametrize("edges, index", [
        ([(0, 1, 2)], 0),
        ([0], 0),
        ([(0, 1), (2,)], 1),
        ([(0, 1), None], 1),
    ], ids=["triple", "int", "single", "none"])
    def test_an_edge_that_is_no_pair_carries_its_position(self, edges, index):
        with pytest.raises(EdgeError, match="is not a pair of vertex ids") as err:
            Graph(3, edges)
        assert err.value.index == index

    @pytest.mark.parametrize("weights", [[5], [5, 6, 7], []],
                             ids=["too-few", "too-many", "none"])
    def test_weights_take_one_per_edge(self, weights):
        with pytest.raises(ValueError, match="one weight per edge is needed"):
            Graph(3, [(0, 1), (1, 2)], weights)

    def test_equal_graphs_hash_equal(self):
        a, b = path(3), Graph(3, [(1, 2), (0, 1)])
        assert hash(a) == hash(b)
        assert {a, b} == {a}
        assert {a: "path"}[b] == "path"
        assert Graph(2, [(0, 1)], [3]) not in {Graph(2, [(0, 1)])}

    def test_a_graph_equals_no_other_type(self):
        assert (Graph(2, [(0, 1)]) == "x") is False
        assert Graph(2, [(0, 1)]) != (2, ((0, 1),), None)

    def test_repr(self):
        assert repr(path(3)) == "Graph(n=3, m=2)"
        assert repr(Graph(3, [(1, 2), (0, 1)], [7, 2])) == "Graph(n=3, m=2, weighted)"

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1)], [-1])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1)], [0.5])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1)], [1, 2])


class TestDensity:
    def test_k4_pendant(self):
        assert density(k4p()) == Fraction(14, 5)

    def test_triangle(self):
        assert density(complete(3)) == 2

    def test_single_vertex(self):
        assert density(path(2), [0]) == 0

    def test_weighted_pair(self):
        g = Graph(2, [(0, 1)], [5])
        assert density(g) == 5

    def test_empty_set_errors(self):
        with pytest.raises(ValueError):
            density(path(2), [])

    def test_unknown_vertex_errors(self):
        with pytest.raises(ValueError):
            density(path(2), [0, 5])

    def test_induced_weight_subset(self):
        assert induced_weight(k4p(), [0, 1, 2]) == 3
        assert induced_weight(k4p(), [0, 4]) == 0

    @pytest.mark.parametrize("s", [[-1, 0], [0, 3]], ids=["negative", "past-n"])
    def test_induced_weight_unknown_vertex_errors(self, s):
        # refused as density refuses it, not read as the last vertex or
        # left to an IndexError
        with pytest.raises(ValueError, match="unknown vertex"):
            induced_weight(complete(3), s)

    @given(st.one_of(simple_graphs(weighted=True), simple_graphs()), st.data())
    def test_induced_weight_sums_the_edges_inside(self, g, data):
        # zero weights count as edges that add nothing; a list may repeat ids
        ids = st.integers(0, g.n - 1)
        s = data.draw(st.one_of(st.lists(ids), st.sets(ids)))
        expected = sum(w for (u, v), w in zip(g.edges, g.weights or repeat(1))
                       if u in s and v in s)
        assert induced_weight(g, s) == expected

    def test_edge_boundary(self):
        assert count_edges_between(k4p(), [0, 1], [2, 3]) == 4
        with pytest.raises(ValueError):
            count_edges_between(k4p(), [0, 1], [1, 2])


class TestRemovability:
    def test_k4_pendant_vertex(self):
        g = k4p()
        assert is_removable(g, 4)
        assert not is_removable(g, 0)
        assert not is_removable(g, 3)

    def test_path_ends_are_not_removable(self):
        # dropping an end of P3 moves density from 4/3 down to 1
        g = path(3)
        assert not any(is_removable(g, v) for v in range(3))

    def test_cycle_has_none(self):
        g = cycle(4)
        assert not any(is_removable(g, v) for v in range(4))

    def test_weighted(self):
        g = Graph(3, [(0, 1), (1, 2)], [5, 1])
        assert is_removable(g, 2)
        assert not is_removable(g, 0)

    def test_within_mask(self):
        # restricted to the K4, nothing is removable
        g = k4p()
        assert not any(is_removable(g, v, within=range(4)) for v in range(4))

    def test_too_small_errors(self):
        with pytest.raises(ValueError):
            is_removable(path(2), 0, within=[0])

    @given(connected_graphs(min_n=2, max_n=9))
    def test_matches_density_increase(self, g):
        whole = density(g)
        rest = set(range(g.n))
        for v in range(g.n):
            gain = density(g, rest - {v}) > whole if g.n > 1 else False
            assert is_removable(g, v) == gain


class TestComponents:
    def test_ordered_by_smallest_member(self):
        g = Graph(6, [(3, 4), (1, 5)])
        assert components(g) == [(0,), (1, 5), (2,), (3, 4)]

    def test_subset(self):
        g = two_triangles_path3()
        assert components(g, [0, 1, 2, 5, 6, 7]) == [(0, 1, 2), (5, 6, 7)]

    def test_is_connected(self):
        assert is_connected(k4p())
        assert not is_connected(Graph(3, [(0, 1)]))
        assert not is_connected(path(3), [])

    @given(connected_graphs(max_n=9))
    def test_partition(self, g):
        comps = components(g)
        assert comps == [tuple(range(g.n))]

    @given(graphs_with_subset(max_n=12))
    def test_any_subset_matches_union_find(self, case):
        g, s, _ = case
        expected = components_reference(g, s)
        assert components(g, s) == expected
        assert is_connected(g, s) == (len(expected) == 1)

    @given(graphs_with_subset(max_n=12))
    def test_view_walk_matches_the_count_and_the_components(self, case):
        # one walk: None exactly when the view is disconnected, else every
        # vertex's neighbours in the view, as counted from the view's side
        g, s, _ = case
        deg = _view_degrees(g, set(s))
        if len(components_reference(g, s)) > 1:
            assert deg is None
        else:
            counts = Counter(u for v in s for u in g.neighbors(v) if u in s)
            assert deg == {v: counts[v] for v in s}

    def test_view_walk_on_fixed_views(self):
        g = triangles_through_cut()
        assert _view_degrees(g, {3}) == {3: 0}
        assert _view_degrees(g, {2, 3, 4}) == {2: 1, 3: 2, 4: 1}
        assert _view_degrees(g, {0, 1, 2, 4, 5, 6}) is None


class TestCutVertices:
    def test_path(self):
        assert cut_vertices(path(4)) == (1, 2)

    def test_cycle_has_none(self):
        assert cut_vertices(cycle(5)) == ()

    def test_k4_pendant(self):
        assert cut_vertices(k4p()) == (3,)

    def test_two_blocks(self):
        assert cut_vertices(triangles_through_cut()) == (2, 3, 4)

    def test_single_vertex(self):
        assert cut_vertices(Graph(1, [])) == ()

    def test_disconnected_errors(self):
        with pytest.raises(ValueError):
            cut_vertices(Graph(3, [(0, 1)]))

    def test_empty_view_errors(self):
        with pytest.raises(ValueError, match="empty"):
            cut_vertices(path(3), within=[])

    @given(graphs_with_subset(min_n=2, max_n=9))
    def test_matches_disconnection(self, case):
        # the whole graph, and each component of a drawn subset as a view
        g, s, _ = case
        for view in [range(g.n), *components(g, s)]:
            cuts = set(cut_vertices(g, within=view))
            for v in view:
                splits = len(components(g, set(view) - {v})) > 1
                assert (v in cuts) == splits


class TestDensestComponentAfter:
    def test_k4_pendant(self):
        assert densest_component_after(k4p(), 3) == (0, 1, 2)

    def test_tie_goes_to_smallest_id(self):
        assert densest_component_after(triangles_through_cut(), 3) == (0, 1, 2)

    def test_denser_side_wins(self):
        assert densest_component_after(triangles_through_cut(), 2) == (3, 4, 5, 6)

    def test_non_cut_errors(self):
        with pytest.raises(ValueError):
            densest_component_after(k4p(), 0)

    def test_vertex_outside_the_view_errors(self):
        with pytest.raises(ValueError, match="vertex 3 not in the graph"):
            densest_component_after(k4p(), 3, within=[0, 1, 2])

    @given(connected_graphs(max_n=14, max_extra=6))
    def test_pick_matches_the_scan_it_replaced(self, g):
        for v in cut_vertices(g):
            side = densest_component_after(g, v)
            rest = set(range(g.n)) - {v}
            assert side == densest_part_reference(g, components(g, rest))


class TestJAttachment:
    def test_star_ties_by_id(self):
        assert j_attachment(star(3), [0], 2) == (1, 2)

    def test_path_middle(self):
        assert j_attachment(path(4), [1], 2) == (0, 2)

    def test_k4_pendant_seed(self):
        assert j_attachment(k4p(), [4], 1) == (3,)

    def test_zero_count_filled_by_bfs(self):
        # only vertex 1 touches s; the rest come breadth-first, keeping
        # every pick attached to s or an earlier pick
        assert j_attachment(path(4), [0], 3) == (1, 2, 3)

    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            j_attachment(path(4), [0], 4)
        with pytest.raises(ValueError):
            j_attachment(path(4), [0], 0)

    def test_empty_base_errors(self):
        with pytest.raises(ValueError, match="nonempty base"):
            j_attachment(path(4), [], 1)

    def test_base_outside_the_view_errors(self):
        with pytest.raises(ValueError, match="leaves the graph"):
            j_attachment(path(4), [0, 3], 1, within=[0, 1, 2])

    @given(graphs_with_subset(max_n=9))
    def test_boundary_bound(self, triple):
        g, s, j = triple
        picked = j_attachment(g, s, j)
        assert len(picked) == j
        assert not set(picked) & set(s)
        outside = set(range(g.n)) - set(s)
        got = count_edges_between(g, s, picked)
        total = count_edges_between(g, s, outside)
        assert g.n * got >= j * total

    @given(graphs_with_subset(max_n=14))
    def test_ranking_matches_the_sort_it_replaced(self, triple):
        # most edges into s first, ties toward the smaller id, then the
        # breadth-first fill
        g, s, j = triple
        assert j_attachment(g, s, j) == j_attachment_reference(g, s, j)

    @given(graphs_with_subset(max_n=9))
    def test_union_connected_when_seed_connected(self, triple):
        g, s, j = triple
        if len(components(g, s)) != 1:
            return
        picked = j_attachment(g, s, j)
        assert is_connected(g, set(s) | set(picked))


class TestExpandToK:
    def test_path_from_end(self):
        assert expand_to_k(path(4), [0], 3) == (0, 1, 2)

    def test_already_at_k(self):
        assert expand_to_k(path(4), [1, 2], 2) == (1, 2)

    def test_search_order(self):
        # the queue starts sorted and neighbours come in ascending id
        assert expand_to_k(cycle(6), [3, 2], 3) == (1, 2, 3)
        assert expand_to_k(cycle(6), [0], 2) == (0, 1)

    def test_size_errors(self):
        with pytest.raises(ValueError, match="more than k=2"):
            expand_to_k(path(4), [0, 1, 2], 2)
        with pytest.raises(ValueError, match="exceeds the graph size 4"):
            expand_to_k(path(4), [0], 5)
        with pytest.raises(ValueError, match="empty"):
            expand_to_k(path(4), [], 2)

    def test_seed_component_smaller_than_k_errors(self):
        # the view holds 4 vertices, but the seed's component in it only 2
        with pytest.raises(ValueError, match="cannot grow"):
            expand_to_k(path(5), [0], 3, within=[0, 1, 3, 4])

    @pytest.mark.parametrize("seed", [[-1], [4], [0, 4]])
    def test_seed_outside_the_graph(self, seed):
        with pytest.raises(ValueError, match="leaves the graph"):
            expand_to_k(path(4), seed, 3)

    @given(graphs_with_subset(max_n=9))
    def test_grows_connected_supersets(self, triple):
        g, s, j = triple
        if len(components(g, s)) != 1:
            return
        k = min(g.n, len(s) + j)
        out = expand_to_k(g, s, k)
        assert len(out) == k
        assert set(s) <= set(out)
        assert is_connected(g, out)


class TestWholeGraphView:
    @given(graphs_with_subset(max_n=10), st.data())
    def test_none_a_range_and_a_list_of_every_id_answer_alike(self, case, data):
        # the whole graph takes the one path every view takes, however given
        g, s, j = case
        k = data.draw(st.integers(len(s), g.n))
        cuts = cut_vertices(g)
        thresholds = [Fraction(t, 2) for t in range(2 * g.n)]

        def answers(whole):
            return (
                density(g, whole),
                induced_weight(g, whole),
                components(g, whole),
                is_connected(g, whole),
                cut_vertices(g, whole),
                expand_to_k(g, s, k, within=whole),
                j_attachment(g, s, j, within=whole),
                [densest_component_after(g, v, within=whole) for v in cuts],
                [has_subgraph_denser_than(g, t, within=whole) for t in thresholds],
            )

        expected = answers(None)
        assert answers(range(g.n)) == expected
        assert answers(list(range(g.n))) == expected


class TestViewIds:
    CALLS = {
        "density": lambda g, view: density(g, view),
        "induced_weight": lambda g, view: induced_weight(g, view),
        "components": lambda g, view: components(g, view),
        "is_connected": lambda g, view: is_connected(g, view),
        "expand_to_k": lambda g, view: expand_to_k(g, [0], 3, within=view),
        "j_attachment": lambda g, view: j_attachment(g, [0], 2, within=view),
        "has_subgraph_denser_than":
            lambda g, view: has_subgraph_denser_than(g, 0, within=view),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("view", [(0, 1.0, 2), (0, True, 2)], ids=["float", "bool"])
    def test_an_id_that_is_no_plain_int_is_refused(self, name, view):
        # 1.0 and True equal the id 1, so they pass a range test; refused as
        # Graph refuses them in an edge, not read as vertex 1 or left to a
        # TypeError from the adjacency
        with pytest.raises(ValueError, match="not a plain integer"):
            self.CALLS[name](path(3), view)

    SEEDS = {
        "expand_to_k-bool": lambda g: expand_to_k(g, [True], 3),
        "expand_to_k-float": lambda g: expand_to_k(g, [1.0], 3),
        "j_attachment-bool": lambda g: j_attachment(g, [True], 1),
        "j_attachment-float": lambda g: j_attachment(g, [1.0], 1),
        "densest_component_after-bool": lambda g: densest_component_after(g, True),
        "densest_component_after-float": lambda g: densest_component_after(g, 2.0),
    }

    @pytest.mark.parametrize("name", SEEDS)
    def test_a_seed_or_vertex_that_is_no_plain_int_is_refused(self, name):
        # the seed and the vertex pass the view's membership test as 1 or 2
        # would, so they take the view's plain-int rule after it
        with pytest.raises(ValueError, match="not a plain integer"):
            self.SEEDS[name](path(3))


class TestCounts:
    CALLS = {
        "alg1": alg1,
        "alg3": alg3,
        "alg4": alg4,
        "alg5_hub": alg5_hub,
        "weighted_greedy": weighted_greedy,
        "run_named_algorithm": lambda g, c: run_named_algorithm(g, c, "alg1"),
        "best_connected_k_subgraph": best_connected_k_subgraph,
        "prc1": prc1,
        "prc2": prc2,
        "highest_degree_vertices": highest_degree_vertices,
        "expand_to_k": lambda g, c: expand_to_k(g, [0], c),
        "j_attachment": lambda g, c: j_attachment(g, [0], c),
        "brute_k": brute_k,
        "brute_k-limit": lambda g, c: brute_k(g, 4, limit=c),
        "next_below": lambda g, c: Xorshift64Star(1).next_below(c),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("count", [4.0, True], ids=["float", "bool"])
    def test_a_count_that_is_no_plain_int_is_refused(self, name, count):
        # 4.0 and True pass a range test as 4 and 1 would; refused by the
        # rule the generators apply to n, k and seed. The graph is the
        # README's example: unweighted, connected, 6 vertices.
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        with pytest.raises(ValueError, match="must be an int"):
            self.CALLS[name](g, count)


class TestEdgeListFormat:
    def test_round_trip_unweighted(self):
        g = two_triangles_path3()
        assert parse_edge_list(format_edge_list(g)) == g

    def test_round_trip_weighted(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [0, 3, 9])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_header_shape(self):
        text = format_edge_list(Graph(3, [(0, 1)], [4]))
        assert text.splitlines()[0] == "3 1 weighted"
        assert text.splitlines()[1] == "0 1 4"

    def test_parses_known_file(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("3\n", 1),
            ("3 1 heavy\n0 1\n", 1),
            ("x y\n", 1),
            ("-1 0\n", 1),
            ("3 2\n0 1\n", 3),
            ("3 1\n0 1 5\n", 2),
            ("3 1 weighted\n0 1\n", 2),
            ("3 1\n0 a\n", 2),
            ("3 1\n0 3\n", 2),
            ("3 1\n1 1\n", 2),
            ("3 2\n0 1\n1 0\n", 3),
            ("3 1 weighted\n0 1 -2\n", 2),
            ("3 1\n0 1\n2 0\n", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(EdgeListError) as err:
            parse_edge_list(text)
        assert err.value.line == line

    def test_syntax_error_before_an_earlier_bad_edge(self):
        # every edge line must parse before any edge is checked: the
        # self-loop on line 2 gives way to the non-integer on line 3
        with pytest.raises(EdgeListError) as err:
            parse_edge_list("3 2\n1 1\n0 x\n")
        assert err.value.line == 3
        assert "integers" in str(err.value)

    @pytest.mark.parametrize("data, line", [
        (b"\xff3 1\n0 1\n", 1),
        (b"3 1\n0 1\xff\n", 2),
        (b"3 1\r0 1\xff\n", 2),  # a line break other than \n
        (b"3 2\n0 1\n1 2\n\n\xe2\x82", 5),  # cut off inside a character
    ])
    def test_file_that_is_not_utf8_names_its_line(self, tmp_path, data, line):
        target = tmp_path / "bad.edges"
        target.write_bytes(data)
        with pytest.raises(EdgeListError) as err:
            load_edge_list(target)
        assert err.value.line == line
        assert "not UTF-8 text" in str(err.value)

    def test_bad_header_before_a_later_bad_byte(self, tmp_path):
        target = tmp_path / "bad.edges"
        target.write_bytes(b"3 x\n0 1\xff\n")
        with pytest.raises(EdgeListError, match="line 1: vertex and edge counts"):
            load_edge_list(target)

    def test_header_reads_line_one_alone(self, tmp_path):
        # check sees the header of line 1 as splitlines() cuts it, before a
        # bad byte on a later line; a bad byte on line 1 comes before it
        seen = []
        target = tmp_path / "bad.edges"
        target.write_bytes(b"3 1 weighted\r0 1 \xff\n")
        with pytest.raises(EdgeListError, match="line 2: not UTF-8 text"):
            load_edge_list(target, lambda n, m: seen.append((n, m)))
        assert seen == [(3, 1)]
        target.write_bytes(b"3 \xff1\n0 1\n")
        with pytest.raises(EdgeListError, match="line 1: not UTF-8 text"):
            load_edge_list(target, lambda n, m: seen.append((n, m)))
        assert seen == [(3, 1)]

    def test_check_runs_before_any_later_byte_is_read(self, tmp_path):
        # a pipe holding line 1 alone, its writer still open: a read past
        # line 1 would wait for the writer, which gives up after 10 s
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        done = threading.Event()
        gave_up = []

        def write_header():
            with open(fifo, "wb") as fh:
                fh.write(b"5 1\n")
                fh.flush()
                if not done.wait(10):
                    gave_up.append(True)

        def refuse(n, m):
            raise ValueError(f"refused n={n} m={m}")

        writer = threading.Thread(target=write_header)
        writer.start()
        try:
            with pytest.raises(ValueError, match="refused n=5 m=1"):
                load_edge_list(fifo, refuse)
        finally:
            done.set()
            writer.join()
        assert gave_up == []

    @pytest.mark.parametrize("text, line", [
        ("1_0 2\n0 1\n1 2\n", 1),
        ("\u0663 2\n0 1\n1 2\n", 1),
        ("3\u00a02\n0 1\n1 2\n", 1),
        ("3 2\n0 0_1\n1 2\n", 2),
        ("3 2\n0 \u0661\n1 2\n", 2),
        ("3 2 weighted\n0 1 1_0\n1 2 1\n", 2),
    ], ids=["underscore-n", "arabic-indic-n", "nbsp-in-header",
            "underscore-id", "arabic-indic-id", "underscore-weight"])
    def test_integers_are_ascii_digits(self, text, line):
        # int() alone takes each of these; the format does not
        with pytest.raises(EdgeListError, match="integers") as err:
            parse_edge_list(text)
        assert err.value.line == line

    def test_integers_may_carry_a_sign(self):
        assert parse_edge_list("+3 2\n0 +1\n1 2\n") == path(3)

    def test_trailing_blank_lines_ok(self):
        assert parse_edge_list("2 1\n0 1\n\n  \n") == path(2)

    @given(connected_graphs(max_n=9, weighted=True))
    def test_round_trip_random_weighted(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    @given(connected_graphs(max_n=9))
    def test_round_trip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

"""Brute-force oracle behavior: exact values, witnesses, size guards."""

from fractions import Fraction

import pytest

from densek import (
    Graph,
    OracleLimitError,
    brute_densest,
    brute_k,
    density,
    example1a,
    example1b,
)
from helpers import complete, cycle, gap_ratio, k4p, path, star


class TestBruteK:
    def test_clique_with_pendant(self):
        result = brute_k(k4p(), 4)
        assert result.best_set == (0, 1, 2, 3)
        assert result.best_density == 3
        assert result.k == 4
        assert result.connected_required

    def test_all_sizes_on_clique_with_pendant(self):
        g = k4p()
        assert brute_k(g, 2).best_density == 1
        assert brute_k(g, 3).best_density == 2
        assert brute_k(g, 5).best_density == Fraction(14, 5)

    def test_witness_is_lexicographically_smallest(self):
        # every edge of a cycle ties, so (0, 1) must win
        assert brute_k(cycle(4), 2).best_set == (0, 1)
        assert brute_k(cycle(5), 3).best_set == (0, 1, 2)

    def test_unconstrained_beats_connected_on_split_graph(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert brute_k(g, 6, connected=False).best_density == 2
        with pytest.raises(ValueError, match="no connected 6-subgraph"):
            brute_k(g, 6, connected=True)
        assert brute_k(g, 3, connected=True).best_set == (0, 1, 2)

    def test_weighted_instance(self):
        g = Graph(3, [(0, 1), (1, 2)], [5, 1])
        result = brute_k(g, 2)
        assert result.best_set == (0, 1)
        assert result.best_density == 5

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            brute_k(path(4), 0)
        with pytest.raises(ValueError, match="out of range"):
            brute_k(path(4), 5)


class TestBruteDensest:
    def test_empty_graph_errors(self):
        with pytest.raises(ValueError, match="no vertices"):
            brute_densest(Graph(0, []))

    def test_clique_with_pendant(self):
        result = brute_densest(k4p())
        assert result.best_set == (0, 1, 2, 3)
        assert result.best_density == 3
        assert not result.connected_required

    def test_cycle_takes_whole_graph(self):
        result = brute_densest(cycle(5))
        assert result.best_set == tuple(range(5))
        assert result.best_density == 2

    def test_star_takes_whole_graph(self):
        assert brute_densest(star(3)).best_density == Fraction(3, 2)

    def test_weighted_pair_wins(self):
        g = Graph(3, [(0, 1), (1, 2)], [5, 1])
        result = brute_densest(g)
        assert result.best_set == (0, 1)
        assert result.best_density == 5

    def test_k_field_reports_witness_size(self):
        assert brute_densest(complete(4)).k == 4


class TestGapRatio:
    def test_no_gap_on_small_tree_family(self):
        instance = example1a(2)
        assert gap_ratio(instance.graph, instance.k) == 1

    def test_weighted_ray_family_gap_is_ell(self):
        instance = example1b(3)
        assert brute_k(instance.graph, 6, connected=False).best_density == 1
        assert brute_k(instance.graph, 6, connected=True).best_density == Fraction(1, 3)
        assert gap_ratio(instance.graph, 6) == 3

    def test_zero_connected_density_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)], [0, 0])
        with pytest.raises(ValueError, match="zero density"):
            gap_ratio(g, 2)


class TestSizeGuards:
    def test_brute_k_guard_default(self):
        with pytest.raises(OracleLimitError, match="n=21 exceeds limit 20"):
            brute_k(path(21), 1)

    def test_brute_k_limit_argument_overrides(self):
        result = brute_k(path(21), 2, limit=25)
        assert result.best_density == 1

    def test_brute_densest_guard_default(self):
        with pytest.raises(OracleLimitError):
            brute_densest(path(17))

    def test_brute_densest_limit_argument_overrides(self):
        assert brute_densest(path(17), limit=17).best_density == Fraction(2 * 16, 17)

    def test_limit_argument_tightens_guard(self):
        with pytest.raises(OracleLimitError, match="exceeds limit 8"):
            brute_k(path(9), 2, limit=8)

    def test_guard_error_is_a_value_error(self):
        assert issubclass(OracleLimitError, ValueError)


class TestStoredFamilyValues:
    def test_small_clique_path_family_optima_match_oracle(self):
        instance = example1a(2)
        g, k = instance.graph, instance.k
        assert brute_k(g, k, connected=False).best_density == instance.known_opt_density
        assert brute_k(g, k, connected=True).best_density == (
            instance.known_connected_density
        )

    def test_small_ray_family_optima_match_oracle(self):
        instance = example1b(2)
        g, k = instance.graph, instance.k
        assert brute_k(g, k, connected=False).best_density == instance.known_opt_density
        assert brute_k(g, k, connected=True).best_density == (
            instance.known_connected_density
        )

    def test_densities_recompute_from_witnesses(self):
        g = k4p()
        for k in range(1, 6):
            result = brute_k(g, k)
            assert density(g, result.best_set) == result.best_density

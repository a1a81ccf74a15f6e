"""Instance families: shapes, stored optima, determinism, persistence."""

from fractions import Fraction

import pytest

from densek import (
    Xorshift64Star,
    brute_k,
    density,
    example1a,
    example1b,
    gnp,
    load_edge_list,
    load_sidecar,
    planted,
    save_instance,
)
from densek.graph import is_connected


class TestPrng:
    def test_stream_regression(self):
        rng = Xorshift64Star(1)
        assert [rng.next_u64() for _ in range(4)] == [
            5180492295206395165,
            12380297144915551517,
            13389498078930870103,
            5599127315341312413,
        ]

    def test_zero_seed_is_remapped(self):
        rng = Xorshift64Star(0)
        assert [rng.next_u64() for _ in range(2)] == [
            973819730272012410,
            6108091081255984487,
        ]

    def test_same_seed_same_stream(self):
        a, b = Xorshift64Star(42), Xorshift64Star(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_bernoulli_extremes(self):
        rng = Xorshift64Star(7)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))

    def test_next_below(self):
        rng = Xorshift64Star(3)
        draws = [rng.next_below(10) for _ in range(100)]
        assert all(0 <= d < 10 for d in draws)
        with pytest.raises(ValueError):
            rng.next_below(0)


class TestCliquesJoinedByPaths:
    def test_shape(self):
        for ell in (2, 3, 4):
            instance = example1a(ell)
            g = instance.graph
            assert g.n == ell**3
            assert g.m == ell * ell * (ell - 1) // 2 + (ell - 1) * (ell * ell + 1)
            assert instance.k == ell * ell
            assert not g.weighted
            assert is_connected(g)
            assert instance.family == "EX1A"

    def test_cliques_sit_in_the_low_ids(self):
        g = example1a(3).graph
        for c in range(3):
            block = range(3 * c, 3 * c + 3)
            for u in block:
                for v in block:
                    if u < v:
                        assert g.has_edge(u, v)

    def test_stored_optima(self):
        instance = example1a(3)
        assert instance.known_opt_density == 2
        assert instance.known_connected_density == 2
        instance = example1a(4)
        assert instance.known_opt_density == 3
        assert instance.known_connected_density == Fraction(4 * 3 + 2 * 12, 16)

    def test_smallest_case_oracle_verified(self):
        # at ell=2 the graph is a tree and a 4-vertex subtree with 3 edges
        # beats the two disjoint 2-cliques, hence the 3/2
        instance = example1a(2)
        assert instance.known_opt_density == Fraction(3, 2)
        assert instance.known_connected_density == Fraction(3, 2)
        got = brute_k(instance.graph, instance.k, connected=False)
        assert got.best_density == Fraction(3, 2)

    def test_rejects_tiny_scale(self):
        with pytest.raises(ValueError):
            example1a(1)


class TestWeightedRays:
    def test_shape(self):
        for ell in (2, 3, 4):
            instance = example1b(ell)
            g = instance.graph
            assert g.n == ell * ell + 1
            assert g.m == ell * ell
            assert instance.k == 2 * ell
            assert g.weighted
            assert is_connected(g)
            assert instance.family == "EX1B"

    def test_only_ray_tips_carry_weight(self):
        instance = example1b(4)
        g = instance.graph
        assert sum(g.weights) == 4
        heavy = [e for e, w in zip(g.edges, g.weights) if w == 1]
        assert len(heavy) == 4
        # each weight-1 edge joins the two outermost vertices of one ray
        for u, v in heavy:
            assert g.degree(v) == 1 or g.degree(u) == 1

    def test_stored_optima(self):
        instance = example1b(5)
        assert instance.known_opt_density == 1
        assert instance.known_connected_density == Fraction(1, 5)

    def test_smallest_case_oracle_verified(self):
        instance = example1b(2)
        g = instance.graph
        assert brute_k(g, 4, connected=False).best_density == 1
        assert brute_k(g, 4, connected=True).best_density == Fraction(1, 2)

    def test_rejects_tiny_scale(self):
        with pytest.raises(ValueError):
            example1b(1)


class TestGnp:
    def test_deterministic(self):
        assert gnp(12, 0.4, seed=5) == gnp(12, 0.4, seed=5)

    def test_connected_result(self):
        for seed in range(5):
            assert is_connected(gnp(14, 0.3, seed=seed))

    def test_full_probability_gives_a_clique(self):
        g = gnp(6, 1.0, seed=0)
        assert g.m == 15

    def test_truncates_to_largest_component(self):
        g = gnp(16, 0.12, seed=0)
        assert g.n == 15
        assert is_connected(g)

    def test_no_edges_raises(self):
        with pytest.raises(ValueError, match="no edges"):
            gnp(5, 0.0, seed=1)

    @pytest.mark.parametrize("n, p, error", [
        (0, 0.5, "n must be positive"),
        (5, -0.1, r"p must lie in \[0, 1\]"),
        (5, 1.5, r"p must lie in \[0, 1\]"),
    ])
    def test_rejects_bad_parameters(self, n, p, error):
        with pytest.raises(ValueError, match=error):
            gnp(n, p, seed=1)


class TestPlanted:
    def test_block_is_the_first_k_vertices(self):
        instance = planted(14, 5, 0.9, 0.1, seed=3)
        g = instance.graph
        assert instance.k == 5
        assert instance.known_opt_density == density(g, range(5))
        assert is_connected(g)
        assert instance.family == "PLANTED"

    def test_deterministic(self):
        a = planted(14, 5, 0.9, 0.1, seed=3)
        b = planted(14, 5, 0.9, 0.1, seed=3)
        assert a.graph == b.graph

    @pytest.mark.parametrize("n, k, p_in, p_out, error", [
        (10, 0, 0.5, 0.1, "need 1 <= k <= n"),
        (10, 11, 0.5, 0.1, "need 1 <= k <= n"),
        (10, 4, 1.5, 0.1, "probabilities must lie"),
        (10, 4, 0.5, -0.1, "probabilities must lie"),
    ])
    def test_rejects_bad_parameters(self, n, k, p_in, p_out, error):
        with pytest.raises(ValueError, match=error):
            planted(n, k, p_in, p_out, seed=1)

    def test_known_density_is_a_reachable_lower_bound(self):
        instance = planted(12, 4, 1.0, 0.2, seed=9)
        exact = brute_k(instance.graph, 4, connected=False)
        assert exact.best_density >= instance.known_opt_density
        assert instance.known_opt_density == 3


class TestPersistence:
    def test_instance_round_trip(self, tmp_path):
        instance = example1a(2)
        target = tmp_path / "inst.edges"
        sidecar = instance.save(target)
        reloaded = load_edge_list(target)
        assert reloaded == instance.graph
        assert load_sidecar(target) == ("EX1A", instance.k, Fraction(3, 2))
        assert sidecar.exists()

    def test_weighted_round_trip(self, tmp_path):
        instance = example1b(3)
        target = tmp_path / "rays.edges"
        instance.save(target)
        reloaded = load_edge_list(target)
        assert reloaded == instance.graph
        assert reloaded.weighted

    def test_save_instance_without_optima(self, tmp_path):
        g = gnp(10, 0.5, seed=2)
        target = tmp_path / "random.edges"
        save_instance(g, target, family="GNP", params={"seed": 2})
        assert load_sidecar(target) == ("GNP", None, None)

    def test_missing_sidecar_reads_as_none(self, tmp_path):
        target = tmp_path / "bare.edges"
        target.write_text("2 1\n0 1\n")
        assert load_sidecar(target) is None

    def test_path_that_is_its_own_sidecar_is_refused(self, tmp_path):
        # the sidecar of inst.json is inst.json itself, so writing both would
        # leave only the sidecar: nothing is written
        target = tmp_path / "inst.json"
        with pytest.raises(ValueError, match="its own sidecar path"):
            save_instance(gnp(10, 0.5, seed=2), target, family="GNP", params={})
        with pytest.raises(ValueError, match="its own sidecar path"):
            example1a(2).save(target)
        assert list(tmp_path.iterdir()) == []

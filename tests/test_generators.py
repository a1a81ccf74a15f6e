"""Instance families: shapes, stored optima, determinism, persistence."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import densek.generators
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

from helpers import gnp_reference, planted_reference


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

    @pytest.mark.parametrize("seed", [True, 1.5, 1.0, None])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # True ran as seed 1, and 1.5 raised a TypeError from the mask
        with pytest.raises(ValueError, match="^seed must be an int"):
            Xorshift64Star(seed)

    @pytest.mark.parametrize("p", [True, False])
    def test_bernoulli_rejects_a_bool_probability(self, p):
        rng = Xorshift64Star(7)
        with pytest.raises(ValueError, match=f"^p must be a probability, not {p}$"):
            rng.bernoulli(p)
        assert rng.state == Xorshift64Star(7).state  # refused before the draw

    def test_next_below(self):
        rng = Xorshift64Star(3)
        draws = [rng.next_below(10) for _ in range(100)]
        assert all(0 <= d < 10 for d in draws)
        with pytest.raises(ValueError):
            rng.next_below(0)

    @given(
        st.one_of(
            st.sampled_from([0.0, 1.0, 2.0**-60, 2.0**-53, 1 - 2.0**-53]),
            st.floats(0.0, 1.0),
        ),
        st.integers(0, 300),
        st.one_of(
            st.just(0),
            st.integers(0, 2**64 - 1),
            st.integers(2**64, 2**70),
            st.integers(-(2**70), -1),
        ),
    )
    def test_batch_draw_matches_one_bernoulli_per_draw(self, p, count, seed):
        assert_batch_matches(p, count, seed)

    @pytest.mark.parametrize("p", [3 / 1150, 0.5])
    def test_batch_draw_matches_at_lane_and_block_edges(self, p):
        # counts around each power of two cross the stride and lane-count
        # steps of the packed kernel; 100,003 runs 391 lanes of 256 draws
        counts = [c for s in range(18) for c in (2**s - 1, 2**s, 2**s + 1)]
        for count in counts + [100_003]:
            assert_batch_matches(p, count, 3)

    @pytest.mark.parametrize("p", [
        0.0, 1.0, 2.0**-53, 1 - 2.0**-53, 0.5, 3 / 1150, -0.5, 1.5, 1e200,
    ])
    @pytest.mark.parametrize("seed", [0, 2**64 + 5, -12345])
    def test_batch_draw_matches_at_every_probability(self, p, seed):
        # below 0 every draw misses and above 1 every draw hits, as for
        # bernoulli, whose comparison has no clamp
        for count in (1, 1000, 20_000):
            assert_batch_matches(p, count, seed)

    @pytest.mark.parametrize("steps", [
        0, 1, 2, 3, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 1000, 12345,
    ])
    def test_jump_equals_stepping_the_update(self, steps):
        # a jump of steps updates is one cached power of the update per set
        # bit of steps: each power up to 2^13, alone and composed
        def jump(packed, ones=1):
            for i in range(steps.bit_length()):
                if steps >> i & 1:
                    packed = densek.generators._apply(
                        densek.generators._power(i), packed, ones)
            return packed

        rng = Xorshift64Star(99)
        start = rng.state
        for _ in range(steps):
            rng.next_u64()
        assert jump(start) == rng.state
        # two lanes in one packed int move on independently
        other = Xorshift64Star(7).state
        packed = jump(start | other << 128, 1 | 1 << 128)
        assert packed >> 128 == jump(other)
        assert packed & (1 << 128) - 1 == rng.state

    def test_a_draw_at_the_limit_fails(self):
        # seed 2730's first output has its low 11 bits zero: at this p its
        # top 53 bits equal floor(p * 2^53), and the whole output equals the
        # batch draw's limit, so both forms say no; one step up, both yes
        out = Xorshift64Star(2730).next_u64()
        assert out % 2048 == 0
        for p, passes in ((out / 2**64, False), ((out + 2048) / 2**64, True)):
            assert Xorshift64Star(2730).bernoulli(p) is passes
            assert Xorshift64Star(2730)._successes(p, 1) == ([0] if passes else [])


def assert_batch_matches(p, count, seed):
    """_successes against one bernoulli per draw: the same positions, the
    same state after exactly count draws and the same next output."""
    batch, single = Xorshift64Star(seed), Xorshift64Star(seed)
    hits = batch._successes(p, count)
    assert hits == [i for i in range(count) if single.bernoulli(p)]
    assert batch.state == single.state
    assert batch.next_u64() == single.next_u64()


def edges_sha256(g):
    return hashlib.sha256(repr(g.edges).encode()).hexdigest()


class TestPinnedDraws:
    """Generator output at the benchmark workloads' shapes, pinned by n, m
    and the sha256 of repr(edges): the corpora and every stored instance
    depend on these draws, on every platform and Python version."""

    @pytest.mark.parametrize("n, c, seed, want_n, want_m, digest", [
        (250, 8, 1, 250, 994,
         "10ed9f6d4b426188e918bf258ddeb0c4f16398ce36c222251d2c69dc9207682c"),
        (250, 8, 7, 250, 975,
         "7c78a772fede9a92635c8397b555bd5f4ab9b414063cc0d68cf985999cc9cda5"),
        (700, 3, 1, 654, 1043,
         "1cd4d448675958e6a2956dff89447ebb7ec78bdddd2b75bf81a50d252736982e"),
        (700, 3, 7, 663, 1042,
         "eb9bb53f8a3382a83f2717cfb91f2f4dd684003c9d1781459f0726bf16cf2c59"),
        (600, 6, 1, 597, 1785,
         "b6d846c0df5c229d316de060b2d19cf01eb5056f93f88350fd2020def7171691"),
        (600, 6, 7, 600, 1748,
         "31c1ead47c72b873f978cafa207ba63e95042fddd7ad3e26753dd1695707e0b1"),
        # peel-sparse's largest shape
        (1150, 3, 1, 1107, 1841,
         "abb45b6039ea61499442b5452427415b4c3f8359e2e5083871c4b739324fe0a0"),
        (1150, 3, 7, 1092, 1762,
         "2ec16f173d800f592c7c6d84eed063192fb03333faf28a492d8fa61127984a32"),
        # half the draws hit
        (300, 150, 1, 300, 22452,
         "1d0cb6ac12d8371f33d49319353ac563149ae5c73d4238ec0ed67dc9cb42081b"),
        # the README's large draw: 1953 lanes of 1024 draws
        (2000, 8, 1, 1998, 8151,
         "769be2a73cedb13ca68b39f7ff81c0344e2d4f01a1bcbc66c2e8630d30dfc2e2"),
        (2000, 8, 7, 1999, 7999,
         "ab6db11a2176eadd36fc8a12024401e275bf800594ac8d56a9a01044cc2f6c92"),
    ])
    def test_gnp(self, n, c, seed, want_n, want_m, digest):
        g = gnp(n, c / n, seed)
        assert (g.n, g.m, edges_sha256(g)) == (want_n, want_m, digest)

    @pytest.mark.parametrize("seed, want_m, digest", [
        (1, 309, "85ec73f5a78d975fd616d6c37c97b69243f752774cfc8e700afa7ff1ae000635"),
        (7, 296, "de10a3fe5f0cb63d6359ec365ae32fc1214ce643ac29c9b4c85eaf4552f99983"),
    ])
    def test_planted(self, seed, want_m, digest):
        g = planted(120, 12, 0.5, 0.04, seed).graph
        assert (g.n, g.m, edges_sha256(g)) == (120, want_m, digest)

    @pytest.mark.parametrize("seed, want_m, digest", [
        (1, 1150, "4a6959c477db9adcf04f6bdf464e47eca8d2f6ef24c452c5285e563a4f288ce6"),
        (7, 1162, "47c059815dd75b1038bdd8a63da8541dea0dd94368c842569c01a8112e150b8f"),
    ])
    def test_planted_with_the_block_near_n(self, seed, want_m, digest):
        # k near n: most pairs lie in rows u < k, where p_in and p_out mix
        g = planted(60, 50, 0.9, 0.1, seed).graph
        assert (g.n, g.m, edges_sha256(g)) == (60, want_m, digest)


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
                        assert v in g.neighbors(u)

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

    @pytest.mark.parametrize("ell", [3.0, "3", True])
    def test_rejects_a_scale_that_is_not_an_int(self, ell):
        with pytest.raises(ValueError, match="^ell must be an int"):
            example1a(ell)


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

    @pytest.mark.parametrize("ell", [3.0, "3", True])
    def test_rejects_a_scale_that_is_not_an_int(self, ell):
        with pytest.raises(ValueError, match="^ell must be an int"):
            example1b(ell)


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

    @pytest.mark.parametrize("p", [True, False])
    def test_rejects_a_bool_probability(self, monkeypatch, p):
        # True passed 0 <= p <= 1 and drew the complete graph
        monkeypatch.setattr(densek.generators, "Xorshift64Star", None)
        with pytest.raises(ValueError, match=f"^p must be a probability, not {p}$"):
            gnp(10, p, 1)

    @pytest.mark.parametrize("n, seed, name", [
        (10.0, 1, "n"),
        (True, 1, "n"),
        (10, 1.0, "seed"),
        (10, False, "seed"),
    ])
    def test_rejects_a_size_or_seed_that_is_not_an_int(
        self, monkeypatch, n, seed, name
    ):
        # refused before the stream is even made
        monkeypatch.setattr(densek.generators, "Xorshift64Star", None)
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            gnp(n, 0.5, seed)

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 1.0])
    def test_matches_the_per_pair_reference(self, p):
        for n in range(1, 13):
            for seed in (0, 3, 2**64 + 3):
                want = gnp_reference(n, p, seed)
                if want.m == 0:
                    with pytest.raises(ValueError, match="no edges"):
                        gnp(n, p, seed)
                else:
                    assert gnp(n, p, seed) == want


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

    @pytest.mark.parametrize("p_in, p_out, name", [
        (True, 0.1, "p_in"),
        (0.5, False, "p_out"),
    ])
    def test_rejects_a_bool_probability(self, monkeypatch, p_in, p_out, name):
        monkeypatch.setattr(densek.generators, "Xorshift64Star", None)
        with pytest.raises(ValueError, match=f"^{name} must be a probability"):
            planted(10, 4, p_in, p_out, 1)

    @pytest.mark.parametrize("n, k, seed, name", [
        (10.0, 3, 1, "n"),
        (10, 3.0, 1, "k"),
        (10, True, 1, "k"),
        (10, 3, 1.0, "seed"),
    ])
    def test_rejects_a_size_or_seed_that_is_not_an_int(
        self, monkeypatch, n, k, seed, name
    ):
        # refused before the stream is even made, not after n(n-1)/2 draws
        monkeypatch.setattr(densek.generators, "Xorshift64Star", None)
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            planted(n, k, 0.5, 0.1, seed)

    @pytest.mark.parametrize("p_in, p_out", [(0.9, 0.1), (0.0, 1.0), (1.0, 0.0)])
    def test_matches_the_per_pair_reference(self, p_in, p_out):
        # every k from 1 to n, so rows with u >= k and k = n are both drawn
        for n in range(1, 11):
            for k in range(1, n + 1):
                for seed in (0, 5):
                    got = planted(n, k, p_in, p_out, seed).graph
                    assert got == planted_reference(n, k, p_in, p_out, seed)

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

    @pytest.mark.parametrize("k", [2.0, True])
    def test_a_k_load_sidecar_would_refuse_is_refused(self, tmp_path, k):
        # the sidecar would hold 2.0 or true, which load_sidecar reads as no
        # integer k: nothing is written
        with pytest.raises(ValueError, match="^k must be an int"):
            save_instance(gnp(10, 0.5, seed=2), tmp_path / "a.edges",
                          family="X", params={}, k=k)
        assert list(tmp_path.iterdir()) == []

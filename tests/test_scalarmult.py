import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls import counters
from ecdtls.curve import CurveError, point_add, point_double
from ecdtls.scalarmult import (CombCache, ScalarRangeError, comb_digit_count,
                               comb_precompute, ecsm_comb, ecsm_jacobian,
                               scalar_mul_unchecked, zsd_recode)

# Kinds whose tallies must be independent of the scalar for a fixed curve and
# comb geometry: the operation-count signature of one scalar multiplication.
UNIFORM_KINDS = ("mod_add", "mod_sub", "mod_mul", "mul_iter", "mod_inv_euclid",
                 "inv_work", "mod_inv_fermat", "point_add", "point_double")


def uniform_vector(counts) -> tuple:
    return tuple(counts[k] for k in UNIFORM_KINDS)


def reconstruct(z) -> int:
    """The scalar a ZSD recoding encodes: sum(d_i 2^i) - c."""
    return sum(d << i for i, d in enumerate(z.digits)) - z.c


def lookup(cache: CombCache, P) -> str:
    """Whether looking P up in cache recorded a "hit" or a "miss"."""
    with counters.scope() as sc:
        cache.get_or_build(P)
    return "hit" if sc.counters["comb_cache_hit"] else "miss"


class TestZsdRecode:
    def test_hand_checked_even_scalar(self):
        z = zsd_recode(4, 3)
        assert z.c == 1
        assert z.digits == (-1, 1, 1)  # -1 + 2 + 4 = 5 = 4 + 1
        assert reconstruct(z) == 4

    def test_hand_checked_odd_scalar(self):
        z = zsd_recode(5, 3)
        assert z.c == 2
        assert z.digits == (1, 1, 1)  # 1 + 2 + 4 = 7 = 5 + 2
        assert reconstruct(z) == 5

    def test_no_zero_digits_fixed_length(self):
        for k in range(1, 200):
            z = zsd_recode(k, 12)
            assert len(z.digits) == 12
            assert all(d in (-1, 1) for d in z.digits)

    @given(st.integers(1, 2**256 - 3))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_identity(self, k):
        z = zsd_recode(k, 260)
        assert reconstruct(z) == k

    def test_rejects_bad_inputs(self):
        with pytest.raises(ScalarRangeError):
            zsd_recode(0, 8)
        with pytest.raises(ScalarRangeError):
            zsd_recode(2**10, 8)

    def test_digit_count_geometry(self):
        assert comb_digit_count(256, 4) == 260
        assert comb_digit_count(161, 4) == 164
        assert comb_digit_count(6, 4) == 8


class TestCombPrecompute:
    def test_width_one_degenerate(self, toy):
        table = comb_precompute(toy.generator(), w=1)
        assert len(table.entries) == 1
        assert table.entries[0] == toy.generator()

    def test_width_two_matches_bruteforce(self, toy):
        G = toy.generator()
        table = comb_precompute(G, w=2, t=2)
        # d = 1: entries are s_0*P + 2^1... with t=2, d=1: rows P and 2^d P = 2P
        twoG = point_double(G)
        assert table.entries[0] == point_add(twoG, G.negate())
        assert table.entries[1] == point_add(twoG, G)

    def test_entries_on_curve(self, curves):
        table = comb_precompute(curves["secp192r1"].generator())
        assert all(e.is_on_curve() for e in table.entries)
        assert len(table.entries) == 8

    def test_infinity_rejected(self, toy):
        with pytest.raises(CurveError):
            comb_precompute(toy.infinity())


class TestCombCache:
    def test_hit_does_no_point_work(self, curves):
        c = curves["secp192r1"]
        cache = CombCache()
        cache.get_or_build(c.generator())
        with counters.scope() as sc:
            cache.get_or_build(c.generator())
        assert sc.counters["point_add"] == 0
        assert sc.counters["point_double"] == 0
        assert sc.counters["comb_cache_hit"] == 1

    def test_hit_table_bit_identical_to_fresh(self, toy):
        cache = CombCache()
        G = toy.generator()
        stored = cache.get_or_build(G)
        fresh = comb_precompute(G)
        assert stored.entries == fresh.entries
        assert cache.get_or_build(G) is stored

    def test_lru_eviction_at_six(self, toy):
        cache = CombCache()
        G = toy.generator()
        pts = [scalar_mul_unchecked(k, G) for k in range(1, 8)]
        for P in pts[:6]:
            cache.get_or_build(P)
        assert len(cache) == 6
        cache.get_or_build(pts[0])          # refresh first-inserted
        cache.get_or_build(pts[6])          # evicts pts[1]
        assert lookup(cache, pts[0]) == "hit"
        assert lookup(cache, pts[1]) == "miss"  # evicts pts[2]
        assert lookup(cache, pts[2]) == "miss"
        assert len(cache) == 6

    def test_modeled_size_budget(self, curves):
        cache = CombCache()
        G = curves["secp256r1"].generator()
        pts = [G]
        for k in range(2, 7):
            pts.append(scalar_mul_unchecked(k, G))
        tables = [cache.get_or_build(P) for P in pts]
        assert len(cache) == 6
        # 2^(w-1) points of two 32-byte coordinates per table
        assert sum(len(t.entries) * 2 * 32 for t in tables) <= 4096


class TestEcsmComb:
    def test_times_one_and_two(self, curves):
        c = curves["secp224r1"]
        G = c.generator()
        cache = CombCache()
        assert ecsm_comb(1, G, cache) == G
        assert ecsm_comb(2, G, cache) == point_double(G)

    def test_order_minus_one_negates(self, toy):
        G = toy.generator()
        assert ecsm_comb(toy.n - 1, G) == G.negate()

    def test_out_of_range_rejected(self, toy):
        with pytest.raises(ScalarRangeError):
            ecsm_comb(0, toy.generator())
        with pytest.raises(ScalarRangeError):
            ecsm_comb(toy.n, toy.generator())

    def test_exhaustive_toy_curve_vs_repeated_addition(self, toy):
        G = toy.generator()
        cache = CombCache()
        expected = toy.infinity()
        for k in range(1, toy.n):
            expected = point_add(expected, G)  # k*G by repeated addition
            assert ecsm_comb(k, G, cache) == expected
            assert scalar_mul_unchecked(k, G) == expected
            assert ecsm_jacobian(k, G) == expected

    @pytest.mark.parametrize("name", ["secp160r1", "secp192r1", "secp224r1",
                                      "secp256r1"])
    def test_matches_baselines_random_scalars(self, curves, name):
        c = curves[name]
        G = c.generator()
        cache = CombCache()
        rng = random.Random(name)
        for _ in range(10):
            k = rng.randrange(1, c.n)
            want = scalar_mul_unchecked(k, G)
            assert ecsm_comb(k, G, cache) == want
            assert ecsm_jacobian(k, G) == want

    def test_fixed_iteration_structure(self, curves):
        c = curves["secp256r1"]
        G = c.generator()
        cache = CombCache()
        ecsm_comb(2, G, cache)  # warm
        d = comb_digit_count(c.n_bits, 4) // 4
        vectors = set()
        # n-1 and n-2 are excluded: there k + c = n, the pre-correction sum is
        # the identity, and the group law short-circuits two additions.
        for k in (1, 2, 3, c.n - 3, c.n // 2, 0xDEADBEEF):
            with counters.scope() as sc:
                ecsm_comb(k, G, cache)
            assert sc.counters["point_double"] == d  # d-1 columns + correction
            assert sc.counters["point_add"] == d
            vectors.add(uniform_vector(sc.counters))
        assert len(vectors) == 1

    # The vectors at n-1, n-2 and n-4 differ from the fixed structure above.
    # Making the comb uniform for every k in [1, n) will change these counts
    # on purpose; until then they pin what the comb does near n.
    @pytest.mark.parametrize("name, offset, adds, doubles, vector", [
        ("secp160r1", 1, 39, 41, (164, 440, 281, 44960, 80, 12800, 0, 39, 41)),
        ("secp160r1", 2, 39, 41, (164, 440, 281, 44960, 80, 12800, 0, 39, 41)),
        ("secp160r1", 4, 40, 42, (168, 450, 288, 46080, 82, 13120, 0, 40, 42)),
        ("secp256r1", 1, 63, 65,
         (260, 704, 449, 114944, 128, 32768, 0, 63, 65)),
        ("secp256r1", 2, 63, 65,
         (260, 704, 449, 114944, 128, 32768, 0, 63, 65)),
        ("secp256r1", 4, 64, 66,
         (264, 714, 456, 116736, 130, 33280, 0, 64, 66)),
    ])
    def test_counts_near_order_pinned(self, curves, name, offset, adds,
                                      doubles, vector):
        c = curves[name]
        G = c.generator()
        cache = CombCache()
        ecsm_comb(2, G, cache)  # warm
        with counters.scope() as sc:
            ecsm_comb(c.n - offset, G, cache)
        assert sc.counters["point_add"] == adds
        assert sc.counters["point_double"] == doubles
        assert uniform_vector(sc.counters) == vector

    def test_uniform_trace_across_scalars(self, curves):
        c = curves["secp160r1"]
        G = c.generator()
        cache = CombCache()
        ecsm_comb(2, G, cache)
        traces = set()
        rng = random.Random(7)
        for _ in range(8):
            k = rng.randrange(1, c.n)
            with counters.scope(trace=True) as sc:
                ecsm_comb(k, G, cache)
            traces.add(tuple(sc.trace))
        assert len(traces) == 1


class TestJacobian:
    def test_single_fermat_inversion(self, curves):
        c = curves["secp192r1"]
        with counters.scope() as sc:
            ecsm_jacobian(0x123456789, c.generator())
        assert sc.counters["mod_inv_fermat"] == 1
        assert sc.counters["mod_inv_euclid"] == 0

    def test_against_comb(self, curves):
        c = curves["secp256r1"]
        G = c.generator()
        rng = random.Random(42)
        cache = CombCache()
        for _ in range(5):
            k = rng.randrange(1, c.n)
            assert ecsm_jacobian(k, G) == ecsm_comb(k, G, cache)


class TestDoubleAndAdd:
    def test_expansion_of_five(self, curves):
        G = curves["secp192r1"].generator()
        want = point_add(point_double(point_double(G)), G)
        assert scalar_mul_unchecked(5, G) == want

    def test_affine_cost_shape(self, curves):
        # every affine group operation performs exactly one Euclid inversion
        with counters.scope() as sc:
            scalar_mul_unchecked(0b1011, curves["secp160r1"].generator())
        ops = sc.counters["point_add"] + sc.counters["point_double"]
        assert sc.counters["mod_inv_euclid"] == ops
        assert sc.counters["mod_inv_fermat"] == 0


import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls import counters, scalarmult
from ecdtls.curve import AffinePoint, CurveError, builtin_registry, \
    point_add, point_double
from ecdtls.scalarmult import (CombCache, ScalarRangeError, comb_digit_count,
                               comb_precompute, ecsm_comb, ecsm_jacobian,
                               scalar_mul_unchecked)
from test_engine_prices import zsd_recode
from test_formula_prices import oracle_negate, priced
from test_golden_counters import warm_handshakes

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
    # the comb oracle's recoding, whose digits the comb's price reads as bits
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
    # comb_precompute records the price of the table and builds no point

    def test_width_one_degenerate(self, toy):
        # one row, and one entry that is the base itself: no point operation
        with counters.scope() as sc:
            table = comb_precompute(toy.generator(), w=1)
        assert (table.w, table.d, table.t) == (1, 7, 7)
        assert dict(sc.counters) == {"comb_precompute": 1}

    def test_width_two_matches_bruteforce(self, toy):
        G = toy.generator()

        def bruteforce():
            # t = 2, d = 1: rows G and 2G, entries 2G - G and 2G + G
            counters.record("comb_precompute")
            twoG = point_double(G)
            assert point_add(twoG, oracle_negate(G)) == G
            point_add(twoG, G)

        assert priced(comb_precompute, G, 2, 2)[1:] == priced(bruteforce)[1:]

    def test_entries_on_curve(self, curves):
        # the 8 entries stand for sum(s_r 2^(49 r)) G, r < 4, top sign +1:
        # points on the curve, none the identity, so every addition is priced
        c = curves["secp192r1"]
        G = c.generator()
        with counters.scope() as sc:
            table = comb_precompute(G)
        assert (table.w, table.d, table.t) == (4, 49, 196)
        for idx in range(8):
            m = (1 << 147) + sum((1 if idx >> r & 1 else -1) << 49 * r
                                 for r in range(3))
            assert m % c.n and ecsm_comb(m % c.n, G).is_on_curve()
        assert sc.counters["point_double"] == 3 * 49
        assert sc.counters["point_add"] == 8 * 3
        assert sc.counters["mod_inv_euclid"] == 3 * 49 + 8 * 3

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
        assert (stored.base_id, stored.w, stored.d, stored.t) == \
            (fresh.base_id, fresh.w, fresh.d, fresh.t)
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
        assert sum((1 << t.w - 1) * 2 * 32 for t in tables) <= 4096


class TestEcsmComb:
    def test_times_one_and_two(self, curves):
        c = curves["secp224r1"]
        G = c.generator()
        cache = CombCache()
        assert ecsm_comb(1, G, cache) == G
        assert ecsm_comb(2, G, cache) == point_double(G)

    def test_order_minus_one_negates(self, toy):
        G = toy.generator()
        assert ecsm_comb(toy.n - 1, G) == \
            AffinePoint(toy, G.x, toy.mod.p - G.y)

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
        # test_off_schedule_scalars_near_order pins every such scalar.
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


SECP_CURVES = ["secp160r1", "secp192r1", "secp224r1", "secp256r1"]


def edge_scalars(curve) -> list:
    n = curve.n
    return sorted(set(range(1, min(65, n))) | set(range(max(1, n - 64), n)))


class TestPrice:
    @pytest.mark.parametrize("name", SECP_CURVES)
    def test_off_schedule_scalars_near_order(self, curves, name):
        # at width 4, the edge scalars whose price is not the regular
        # schedule's are exactly those whose sum meets an exceptional branch
        # of the affine law: n-1 and n-2 (the sum before the parity tail is
        # the identity) and n-4 (the tail adds a point to itself)
        c = curves[name]
        G = c.generator()
        cache = CombCache()
        ecsm_comb(1, G, cache)
        regular = priced(ecsm_comb, c.n // 2, G, cache)[1:]
        off = {k for k in edge_scalars(c)
               if priced(ecsm_comb, k, G, cache)[1:] != regular}
        assert off == {c.n - 4, c.n - 2, c.n - 1}

    def test_one_record_per_layer(self, curves, monkeypatch):
        # the tick, the cache lookup, the table on a miss and the walk each
        # record once, and double-and-add's walk records once, after the
        # Jacobian baseline's tick; the executors record nothing
        c = curves["secp256r1"]
        G = c.generator()
        Q = scalar_mul_unchecked(0xC0FFEE, G)
        k = c.n * 2 // 3 | 1
        calls = []
        record_all = counters.record_all
        monkeypatch.setattr(counters, "record_all",
                            lambda cost: calls.append(cost) or record_all(cost))
        for P in (G, Q):
            cache = CombCache()
            # miss, first hit, hit with rows, no cache
            for cached in (cache, cache, cache, None):
                del calls[:]
                with counters.scope():
                    ecsm_comb(k, P, cached)
                assert len(calls) <= 4
        for P in (G, Q):
            for m in (0, 1, 2, k, c.n - 1, c.n, c.n + 1, 2 * c.n + 1):
                del calls[:]
                with counters.scope():
                    scalar_mul_unchecked(m, P)
                assert len(calls) <= 1
            for m in (1, 2, k, c.n - 1):
                del calls[:]
                with counters.scope():
                    ecsm_jacobian(m, P)
                assert len(calls) <= 3
        del calls[:]
        with counters.scope(trace=True) as sc:
            rows = scalarmult._rows(c, Q.x, Q.y)
            scalarmult._fixed_base(c, rows, k)
            scalarmult._wnaf(c, k, Q.x, Q.y)
            scalarmult._double_and_add(c, k, Q.x, Q.y)
        assert calls == [] and sc.counters == {} and sc.trace == []

    def test_base_must_be_on_the_curve(self, toy):
        # a refused base is no multiplication: it records nothing
        off_curve = AffinePoint(toy, 1, 1)
        assert not off_curve.is_on_curve()
        for P in (off_curve, toy.infinity()):
            for cache in (None, CombCache()):
                with counters.scope(trace=True) as sc:
                    with pytest.raises(CurveError):
                        ecsm_comb(3, P, cache)
                assert sc.counters == {} and sc.trace == []

    @staticmethod
    def full_walk_regular(n, k, w, t):
        """The regularity verdict as a walk over every column."""
        d, c = t // w, 1 + (k & 1)
        mask = sum(1 << r * d for r in range(w))
        K = (k + c) | 1 << t

        def term(j):
            return 2 * (K >> j + 1 & mask) - mask

        acc = term(d - 1)
        regular = acc % n != 0
        for j in range(d - 2, -1, -1):
            m, dbl = term(j), 2 * acc
            if abs(dbl) + abs(m) >= n:
                regular = regular and dbl * m * (dbl * dbl - m * m) % n != 0
            acc = dbl + m
        return regular and acc * (acc * acc - c * c) % n != 0

    @pytest.mark.parametrize("name", ["toy59", "secp160r1"])
    def test_walk_verdict_matches_full_walk(self, registry, name):
        # the verdict starts at the first column that can wrap mod n
        c = registry.get(name)
        rng = random.Random(name)
        scalars = edge_scalars(c) + [rng.randrange(1, c.n) for _ in range(200)]
        verdicts = set()
        for w in range(1, 6):
            t = comb_digit_count(c.n_bits, w)
            for k in scalars:
                want = self.full_walk_regular(c.n, k, w, t)
                assert scalarmult._walk_regular(c.n, k, w, t) == want
                verdicts.add(want)
        assert verdicts == {True, False}


class TestExecutors:
    def test_every_toy_scalar_against_repeated_addition(self, toy,
                                                        monkeypatch):
        # k*G runs G's table, k*2G 2G's rows once its table is resident and
        # wNAF without.  Below n an equal-x addition never comes up, so the
        # executors also run k in [n, 3n), where both of its outcomes must
        # be reached: else the H = 0 branch would be tested vacuously
        outcomes = set()
        executor = None
        jadd = scalarmult._jadd

        def spy(curve, X, Y, Z, x, y):
            p = curve.mod.p
            ZZ = Z * Z % p
            if executor and Z and (x * ZZ - X) % p == 0:
                outcomes.add((executor, "double" if (y * ZZ * Z - Y) % p == 0
                              else "identity"))
            return jadd(curve, X, Y, Z, x, y)

        monkeypatch.setattr(scalarmult, "_jadd", spy)
        G = toy.generator()
        P = point_double(G)
        cache = CombCache()
        ecsm_comb(1, P, cache)
        rows = {G: scalarmult._generator_rows(toy),
                P: cache.get_or_build(P).rows}      # first hit
        runs = {"fixed": (G, lambda k: scalarmult._fixed_base(
                    toy, rows[G], k)),
                "rows": (P, lambda k: scalarmult._fixed_base(
                    toy, rows[P], k)),
                "wnaf": (P, lambda k: scalarmult._wnaf(toy, k, P.x, P.y))}
        for name, (base, run) in runs.items():
            expected = toy.infinity()
            for k in range(1, 3 * toy.n):
                expected = point_add(expected, base)
                if k < toy.n:
                    assert ecsm_comb(k, base) == expected
                    assert ecsm_comb(k, base, cache) == expected
                executor = name
                triple = run(k)
                executor = None
                assert scalarmult._point(toy, triple) == expected
        assert outcomes == {(name, outcome) for name in runs
                            for outcome in ("double", "identity")}

    @pytest.mark.parametrize("name", builtin_registry().names())
    def test_edge_scalars_against_double_and_add(self, registry, name):
        c = registry.get(name)
        G = c.generator()
        for P in (G, scalar_mul_unchecked(c.n // 3, G)):
            for k in edge_scalars(c):
                assert ecsm_comb(k, P) == scalar_mul_unchecked(k, P)


@pytest.fixture
def built(monkeypatch):
    """The bases whose rows are built while the test runs."""
    bases = []
    rows = scalarmult._rows

    def spy(curve, x, y):
        bases.append((x, y))
        return rows(curve, x, y)

    monkeypatch.setattr(scalarmult, "_rows", spy)
    return bases


class TestResidentRows:
    # a resident table's base runs from its rows from its first hit on

    @pytest.mark.parametrize("name", builtin_registry().names())
    def test_first_and_later_hits_on_edge_scalars(self, registry, name):
        c = registry.get(name)
        Q = scalar_mul_unchecked(c.n // 3, c.generator())
        cache = CombCache()
        assert ecsm_comb(c.n // 2, Q, cache) == \
            scalar_mul_unchecked(c.n // 2, Q)                   # miss
        for k in edge_scalars(c):                               # hits
            assert ecsm_comb(k, Q, cache) == scalar_mul_unchecked(k, Q)

    def test_rows_built_on_first_hit_only(self, curves, built):
        c = curves["secp160r1"]
        G = c.generator()
        Q, *others = [scalar_mul_unchecked(k, G) for k in range(2, 9)]
        cache = CombCache()
        k = c.n // 5
        want = scalar_mul_unchecked(k, Q)
        assert ecsm_comb(k, Q, cache) == want           # miss
        assert ecsm_comb(k, Q) == want                  # no cache
        assert built == []
        assert ecsm_comb(k, Q, cache) == want           # first hit
        assert ecsm_comb(k, Q, cache) == want           # later hit
        assert built == [(Q.x, Q.y)]
        for P in others:                                # Q goes
            ecsm_comb(k, P, cache)
        assert lookup(cache, Q) == "miss"
        assert built == [(Q.x, Q.y)]
        assert ecsm_comb(k, Q, cache) == want           # first hit again
        assert built == [(Q.x, Q.y)] * 2

    def test_warm_handshakes_build_long_lived_bases_once(self, built):
        # the CA key and the server's and client's keys, each on the side
        # that hits it, on its first hit; no ephemeral point
        pairs = warm_handshakes("toy59", 3)
        client, server = pairs[0]
        long_lived = {(P.x, P.y) for P in (client.ca_key, client.peer_key,
                                           server.peer_key)}
        assert len(built) == len(set(built)) == 3
        assert set(built) == long_lived

    def test_hits_record_the_same_price(self, curves):
        c = curves["secp256r1"]
        G = c.generator()
        Q = scalar_mul_unchecked(0xC0FFEE, G)
        k = c.n * 2 // 3 | 1
        cache = CombCache()
        ecsm_comb(k, Q, cache)
        ecsm_comb(k, G, cache)
        first = priced(ecsm_comb, k, Q, cache)
        assert cache.get_or_build(Q).rows is not None
        later = priced(ecsm_comb, k, Q, cache)
        on_g = priced(ecsm_comb, k, G, cache)
        assert first[0] == later[0] == scalar_mul_unchecked(k, Q)
        assert first[1:] == later[1:] == on_g[1:]

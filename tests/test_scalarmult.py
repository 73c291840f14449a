import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls import counters, handshake, scalarmult
from ecdtls.credentials import generate_pki
from ecdtls.energy import calibration_scalar, default_model
from ecdtls.curve import AffinePoint, CurveError, CurveRegistry, \
    builtin_registry
from ecdtls.handshake import MODE_CACHED, MODE_FULL, HandshakeSession, \
    SessionConfig
from ecdtls.scalarmult import (COMB_WIDTH, CombCache, ScalarRangeError,
                               comb_digit_count, comb_precompute, ecsm_comb,
                               ecsm_window, pin_trust_anchor, point_identity)
from ecdtls.transport import run_loopback
from conftest import registered_names
from reference_engines import (affine, double_and_add, ecsm_jacobian,
                               scalar_mul_unchecked)
from test_comb_execution import process_rows
from test_engine_prices import oracle_comb, oracle_unchecked, table_price, \
    zsd_recode
from test_formula_prices import oracle_add, oracle_double, oracle_negate, \
    priced, same_price
from test_golden_counters import FIXED_CLOCK, _session_pair, warm_handshakes

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
    """Whether cache held P when this lookup of it came: a "hit" or a
    "miss"."""
    held = point_identity(P) in cache._bases
    cache.get_or_build(P)
    return "hit" if held else "miss"


def comb_through(k, P, cache):
    """`ecsm_comb`'s k*P, priced the same, executed from P's rows in
    cache."""
    return affine(P.curve, scalarmult._comb(k, P, cache))


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
    @settings(max_examples=200)
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
    # comb_precompute records the price of the table and builds no point;
    # the price helper takes the comb's geometry, and is checked at other
    # widths directly

    def test_width_one_degenerate(self, toy):
        # one row, and one entry that is the base itself: no point operation
        assert comb_digit_count(toy.n_bits, 1) == 7
        with counters.scope() as sc:
            table_price(toy, 1)
        assert dict(sc.counters) == {"comb_precompute": 1}

    def test_width_two_matches_bruteforce(self, toy):
        G = toy.generator()
        fifteenG = scalar_mul_unchecked(15, G)

        def bruteforce():
            # t = 8, d = 4: rows G and 16G, entries 16G - G and 16G + G
            counters.record("comb_precompute")
            sixteenG = G
            for _ in range(4):
                sixteenG = oracle_double(sixteenG)
            assert oracle_add(sixteenG, oracle_negate(G)) == fifteenG
            oracle_add(sixteenG, G)

        assert comb_digit_count(toy.n_bits, 2) == 8
        assert priced(table_price, toy, 2)[1:] == priced(bruteforce)[1:]

    def test_entries_on_curve(self, curves):
        # the 8 entries stand for sum(s_r 2^(49 r)) G, r < 4, top sign +1:
        # points on the curve, none the identity (ecsm_comb makes each one),
        # so every addition is priced
        c = curves["secp192r1"]
        G = c.generator()
        with counters.scope() as sc:
            comb_precompute(G)
        assert COMB_WIDTH == 4 and comb_digit_count(c.n_bits, 4) == 196
        for idx in range(8):
            m = (1 << 147) + sum((1 if idx >> r & 1 else -1) << 49 * r
                                 for r in range(3))
            assert m % c.n
            ecsm_comb(m % c.n, G)
        assert sc.counters["point_double"] == 3 * 49
        assert sc.counters["point_add"] == 8 * 3
        assert sc.counters["mod_inv_euclid"] == 3 * 49 + 8 * 3

    def test_infinity_rejected(self, toy):
        # no point is the identity, so none reaches comb_precompute
        with pytest.raises(CurveError):
            scalarmult._point(toy, scalarmult._IDENTITY)


class TestCombCache:
    def test_hit_does_no_point_work(self, curves):
        # the cache is execution only: a miss or a hit records nothing
        c = curves["secp192r1"]
        P = scalar_mul_unchecked(0xC0FFEE, c.generator())
        cache = CombCache()
        with counters.scope() as sc:
            for Q in (c.generator(), c.generator(), P, P, P):
                cache.get_or_build(Q)
        assert sc.counters == {}

    def test_hit_table_bit_identical_to_fresh(self, toy, fresh_rows):
        # G's rows are the process-wide ones, hit or miss; another base's
        # are built on its first hit and kept for the later ones
        cache = CombCache()
        G = toy.generator()
        stored = cache.get_or_build(G)
        assert stored is not None and stored is process_rows(G)
        assert cache.get_or_build(G) is stored
        P = oracle_double(G)
        assert cache.get_or_build(P) is None                    # miss
        rows = cache.get_or_build(P)                            # first hit
        assert rows == scalarmult._rows(toy, P.x, P.y)
        assert cache.get_or_build(P) is rows

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
        for P in pts:
            cache.get_or_build(P)
        assert len(cache) == 6
        # 2^(w-1) points of two 32-byte coordinates per table
        assert len(cache) * (1 << COMB_WIDTH - 1) * 2 * 32 <= 4096


class TestEcsmComb:
    def test_times_one_and_two(self, curves):
        c = curves["secp224r1"]
        G = c.generator()
        assert ecsm_comb(1, G) == G
        assert ecsm_comb(2, G) == oracle_double(G)

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
        expected = None
        for k in range(1, toy.n):
            expected = oracle_add(expected, G)  # k*G by repeated addition
            assert ecsm_comb(k, G) == expected
            assert scalar_mul_unchecked(k, G) == expected
            assert ecsm_jacobian(k, G) == expected

    @pytest.mark.parametrize("name", ["secp160r1", "secp192r1", "secp224r1",
                                      "secp256r1"])
    def test_matches_baselines_random_scalars(self, curves, name):
        c = curves[name]
        G = c.generator()
        rng = random.Random(name)
        for _ in range(10):
            k = rng.randrange(1, c.n)
            want = scalar_mul_unchecked(k, G)
            assert ecsm_comb(k, G) == want
            assert ecsm_jacobian(k, G) == want

    def test_fixed_iteration_structure(self, curves):
        c = curves["secp256r1"]
        G = c.generator()
        d = comb_digit_count(c.n_bits, 4) // 4
        vectors = set()
        for k in (1, 2, 3, c.n - 4, c.n - 3, c.n - 2, c.n - 1, c.n // 2,
                  0xDEADBEEF):
            with counters.scope() as sc:
                ecsm_comb(k, G)
            assert sc.counters["point_double"] == d  # d-1 columns + correction
            assert sc.counters["point_add"] == d
            vectors.add(uniform_vector(sc.counters))
        assert len(vectors) == 1

    # a walk at k itself would meet an exceptional branch at n-1 and n-2
    # (k + c = n) and at n-4 (the tail adds -2P to itself); the walk at
    # min(k, n - k) prices them as every other k, in the regular vector
    @pytest.mark.parametrize("name, offset, adds, doubles, vector", [
        ("secp160r1", 1, 41, 41, (164, 453, 287, 45920, 82, 13120, 0, 41, 41)),
        ("secp160r1", 2, 41, 41, (164, 453, 287, 45920, 82, 13120, 0, 41, 41)),
        ("secp160r1", 4, 41, 41, (164, 453, 287, 45920, 82, 13120, 0, 41, 41)),
        ("secp256r1", 1, 65, 65,
         (260, 717, 455, 116480, 130, 33280, 0, 65, 65)),
        ("secp256r1", 2, 65, 65,
         (260, 717, 455, 116480, 130, 33280, 0, 65, 65)),
        ("secp256r1", 4, 65, 65,
         (260, 717, 455, 116480, 130, 33280, 0, 65, 65)),
    ])
    def test_counts_near_order_pinned(self, curves, name, offset, adds,
                                      doubles, vector):
        c = curves[name]
        G = c.generator()
        with counters.scope() as sc:
            ecsm_comb(c.n - offset, G)
        assert sc.counters["point_add"] == adds
        assert sc.counters["point_double"] == doubles
        assert uniform_vector(sc.counters) == vector

    def test_uniform_trace_across_scalars(self, curves):
        c = curves["secp160r1"]
        G = c.generator()
        traces = set()
        rng = random.Random(7)
        for _ in range(8):
            k = rng.randrange(1, c.n)
            with counters.scope(trace=True) as sc:
                ecsm_comb(k, G)
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
        for _ in range(5):
            k = rng.randrange(1, c.n)
            assert ecsm_jacobian(k, G) == ecsm_comb(k, G)


class TestDoubleAndAdd:
    def test_expansion_of_five(self, curves):
        G = curves["secp192r1"].generator()
        want = oracle_add(oracle_double(oracle_double(G)), G)
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
        # at width 4, no edge scalar's price leaves the regular schedule's,
        # n-1, n-2 and n-4 among them: the walk runs on min(k, n - k)
        c = curves[name]
        G = c.generator()
        regular = priced(ecsm_comb, c.n // 2, G)[1:]
        off = {k for k in edge_scalars(c)
               if priced(ecsm_comb, k, G)[1:] != regular}
        assert off == set()

    def test_one_record_per_layer(self, curves, monkeypatch):
        # the tick, the resident table's hit and the walk each record once,
        # and so do the window's tick and price, whether the base's rows
        # come from a cache, whose lookups record nothing, or not;
        # double-and-add's walk records once, after the Jacobian baseline's
        # tick; the executors record nothing
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
            # first use, second (builds rows), third (with rows), no cache
            for cached in (cache, cache, cache, None):
                for engine, records in ((scalarmult._comb, 3),
                                        (scalarmult._window, 2)):
                    del calls[:]
                    with counters.scope():
                        engine(k, P, cached)
                    assert len(calls) == records
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
            double_and_add(c, k, Q.x, Q.y)
        assert calls == [] and sc.counters == {} and sc.trace == []

    def test_no_walk_priced_without_a_scope(self, curves, monkeypatch):
        # a registry load prices no walk (its n*G checks run wNAF,
        # unpriced), and the double-and-add engines compute none while no
        # scope is open, as inside counters.isolated(); with a scope open
        # they price as before
        c = curves["secp160r1"]
        G = c.generator()
        calls = []
        walk = scalarmult._walk_events
        monkeypatch.setattr(scalarmult, "_walk_events",
                            lambda *a, **kw: calls.append(a) or walk(*a, **kw))
        with counters.scope() as sc:
            with counters.isolated():
                assert not counters._stack()
                CurveRegistry().load_file(os.path.join(
                    os.path.dirname(scalarmult.__file__), "data",
                    "curves.txt"))
                assert scalar_mul_unchecked(c.n, G) is None
                assert ecsm_jacobian(c.n - 1, G) == \
                    scalar_mul_unchecked(c.n - 1, G)
            assert counters._stack()
        assert sc.counters == {} and calls == []
        k = 0xC0FFEE
        same_price(scalar_mul_unchecked, oracle_unchecked, k, G)
        assert len(calls) == 1

    def test_base_must_be_on_the_curve(self, toy):
        # an off-curve base cannot be made, so it reaches no multiplication
        # and records nothing
        with counters.scope(trace=True) as sc:
            with pytest.raises(CurveError, match="point not on curve"):
                AffinePoint(toy, 1, 1)
        assert sc.counters == {} and sc.trace == []

    @staticmethod
    def meets_bound(curve, w, t):
        """6 mask + 5 < n, mask = sum(2^(r*d)) over the w rows of d."""
        d = t // w
        return 6 * sum(1 << r * d for r in range(w)) + 5 < curve.n

    @pytest.mark.parametrize("name", registered_names(builtin_registry()))
    def test_one_walk_price_where_the_bound_holds(self, registry, name,
                                                  monkeypatch):
        # each k is priced as its own walk, with no memo to return the first
        # one's: where the bound holds, edge and random scalars all price the
        # same at every width 1-5
        c = registry.get(name)
        rng = random.Random(name)
        scalars = edge_scalars(c) + [rng.randrange(1, c.n) for _ in range(200)]
        widths = [w for w in range(1, 6)
                  if self.meets_bound(c, w, comb_digit_count(c.n_bits, w))]
        assert widths == ([1] if name == "toy59" else [1, 2, 3, 4, 5])
        for w in widths:
            t = comb_digit_count(c.n_bits, w)
            prices = set()
            for k in scalars:
                monkeypatch.setattr(scalarmult, "_PRICES", {})
                prices.add(scalarmult._walk_price(c, k, w, t))
            assert len(prices) == 1

    def test_walk_memoised_on_every_curve_but_toy59(self, registry,
                                                    monkeypatch):
        # the walk's price is one constant per curve where the bound holds:
        # at every width 1-5 on each curve but toy59, and at width 1 alone on
        # toy59, whose n = 53 is below 6 mask + 5 at the comb's width
        memo = {}
        monkeypatch.setattr(scalarmult, "_PRICES", memo)
        names = {}
        for name in registered_names(registry):
            c = registry.get(name)
            names[c.n] = name
            for w in range(1, 6):
                scalarmult._walk_price(c, 1, w, comb_digit_count(c.n_bits, w))
        memoised = {(names[key[2]], key[3]) for key in memo}
        assert {name for name, w in memoised if w == COMB_WIDTH} == \
            set(registered_names(registry)) - {"toy59"}
        assert {w for name, w in memoised if name == "toy59"} == {1}
        assert len(memoised) == 4 * 5 + 1

    def test_every_toy59_scalar_matches_the_affine_oracle(self, toy):
        # below the bound every k is priced as its own walk, which the
        # oracle runs point by point: the exact prices, more than one
        G = toy.generator()
        prices = set()
        for k in range(1, toy.n):
            got = priced(ecsm_comb, k, G)
            assert got == priced(oracle_comb, k, G)
            prices.add(tuple(map(tuple, got[1:3])))
        assert len(prices) > 1


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
        P = oracle_double(G)
        cache = CombCache()
        cache.get_or_build(P)                       # first use
        rows = {G: process_rows(G),
                P: cache.get_or_build(P)}           # second: built
        runs = {"fixed": (G, lambda k: scalarmult._fixed_base(
                    toy, rows[G], k)),
                "rows": (P, lambda k: scalarmult._fixed_base(
                    toy, rows[P], k)),
                "wnaf": (P, lambda k: scalarmult._wnaf(toy, k, P.x, P.y))}
        for name, (base, run) in runs.items():
            expected = None
            for k in range(1, 3 * toy.n):
                expected = oracle_add(expected, base)
                if k < toy.n:
                    assert ecsm_comb(k, base) == expected
                    assert comb_through(k, base, cache) == expected
                executor = name
                triple = run(k)
                executor = None
                assert affine(toy, triple) == expected
        assert outcomes == {(name, outcome) for name in runs
                            for outcome in ("double", "identity")}

    @pytest.mark.parametrize("name", registered_names(builtin_registry()))
    def test_edge_scalars_against_double_and_add(self, registry, name):
        c = registry.get(name)
        G = c.generator()
        for P in (G, scalar_mul_unchecked(c.n // 3, G)):
            for k in edge_scalars(c):
                assert ecsm_comb(k, P) == scalar_mul_unchecked(k, P)


@pytest.fixture
def fresh_rows(monkeypatch, registry):
    """A fresh process-wide store of rows for the test: every registered
    curve's G rows, built once per process and never evicted, and no trust
    anchor."""
    generators = {}
    for name in registered_names(registry):
        G = registry.get(name).generator()
        generators[point_identity(G)] = process_rows(G)
    monkeypatch.setattr(scalarmult, "_GENERATOR_ROWS", generators)
    monkeypatch.setattr(scalarmult, "_ANCHOR_ROWS", {})


@pytest.fixture
def built(monkeypatch, fresh_rows):
    """The bases whose rows are built while the test runs, from a fresh
    store."""
    bases = []
    rows = scalarmult._rows

    def spy(curve, x, y):
        bases.append((x, y))
        return rows(curve, x, y)

    monkeypatch.setattr(scalarmult, "_rows", spy)
    return bases


class TestResidentRows:
    # a base a comb cache holds runs from its rows from its second use on

    @pytest.mark.parametrize("name", registered_names(builtin_registry()))
    def test_first_and_later_hits_on_edge_scalars(self, registry, name):
        c = registry.get(name)
        Q = scalar_mul_unchecked(c.n // 3, c.generator())
        cache = CombCache()
        assert comb_through(c.n // 2, Q, cache) == \
            scalar_mul_unchecked(c.n // 2, Q)                   # first use
        for k in edge_scalars(c):                               # with rows
            assert comb_through(k, Q, cache) == scalar_mul_unchecked(k, Q)

    def test_rows_built_on_first_hit_only(self, curves, built):
        c = curves["secp160r1"]
        G = c.generator()
        Q, *others = [scalar_mul_unchecked(k, G) for k in range(2, 9)]
        cache = CombCache()
        k = c.n // 5
        want = scalar_mul_unchecked(k, Q)
        assert comb_through(k, Q, cache) == want        # first use
        assert ecsm_comb(k, Q) == want                  # no cache
        assert built == []
        assert comb_through(k, Q, cache) == want        # second: built
        assert comb_through(k, Q, cache) == want        # later use
        assert built == [(Q.x, Q.y)]
        for P in others:                                # Q goes
            comb_through(k, P, cache)
        assert lookup(cache, Q) == "miss"
        assert built == [(Q.x, Q.y)]
        assert comb_through(k, Q, cache) == want        # second again
        assert built == [(Q.x, Q.y)] * 2

    def test_warm_handshakes_build_long_lived_bases_once(self, built):
        # the CA key when the first session pins it, and the server's and
        # client's keys, each on the side that verifies under it, on its
        # second use there; no ephemeral point
        pairs = warm_handshakes("toy59", 3)
        client, server = pairs[0]
        long_lived = {(P.x, P.y) for P in (client.ca_key, client.peer_key,
                                           server.peer_key)}
        assert len(built) == len(set(built)) == 3
        assert set(built) == long_lived

    def test_hits_record_the_same_price(self, curves):
        # a resident base's price is its class's, whatever rows run it:
        # wNAF on its first use in a cache, rows built on its second, then
        # the built rows, and G's process-wide rows
        c = curves["secp256r1"]
        G = c.generator()
        Q = scalar_mul_unchecked(0xC0FFEE, G)
        k = c.n * 2 // 3 | 1
        cache = CombCache()
        uses = [priced(comb_through, k, Q, cache) for _ in range(3)]
        assert cache.get_or_build(Q) is not None
        on_g = priced(ecsm_comb, k, G)
        assert {use[0] for use in uses} == {scalar_mul_unchecked(k, Q)}
        assert all(use[1:] == on_g[1:] for use in uses)


@pytest.fixture(scope="module")
def p160_pki(curves):
    return generate_pki(curves["secp160r1"], b"fixed-rows-pki")


class TestFixedRows:
    # G's rows and pinned trust anchors' rows are process-wide

    def test_anchor_built_once_however_many_sessions(self, curves, p160_pki,
                                                     built):
        for i in range(3):
            client, _ = _session_pair(curves["secp160r1"], p160_pki,
                                      MODE_FULL, None, b"%d" % i)
        assert built == [(client.ca_key.x, client.ca_key.y)]

    def test_session_init_counters_independent_of_the_store(
            self, curves, p160_pki, built):
        cold, warm = [_session_pair(curves["secp160r1"], p160_pki, MODE_FULL,
                                    None, b"init")[0].session_counters
                      for _ in range(2)]
        assert len(built) == 1                  # by the first session
        assert cold and list(cold.items()) == list(warm.items())

    def test_generator_rows_built_on_first_use_only(self, toy, built,
                                                    monkeypatch):
        monkeypatch.setattr(scalarmult, "_GENERATOR_ROWS", {})
        G = toy.generator()
        rows = process_rows(G)
        assert ecsm_comb(5, G) == scalar_mul_unchecked(5, G)
        assert process_rows(G) is rows
        assert built == [(G.x, G.y)]

    def test_lru_anchors_at_capacity_and_g_never_evicted(self, toy, built):
        G = toy.generator()
        g_rows = process_rows(G)
        anchors = [scalar_mul_unchecked(k, G) for k in range(2, 10)]
        two, three, four, five, six, seven, eight, nine = anchors
        for Q in anchors[:scalarmult.COMB_CACHE_CAPACITY]:
            pin_trust_anchor(Q)
        assert process_rows(two) is not None       # used: refreshed
        pin_trust_anchor(two)                           # resident: no build
        pin_trust_anchor(eight)                         # evicts 3G
        pin_trust_anchor(nine)                          # evicts 4G
        assert list(scalarmult._ANCHOR_ROWS) == [
            point_identity(Q) for Q in (five, six, seven, two, eight, nine)]
        assert process_rows(three) is None
        assert built == [(Q.x, Q.y) for Q in anchors]
        assert process_rows(G) is g_rows

    @pytest.mark.parametrize("name", registered_names(builtin_registry()))
    def test_pinned_rows_on_edge_scalars(self, registry, name, fresh_rows,
                                         monkeypatch):
        c = registry.get(name)
        Q = scalar_mul_unchecked(c.n // 3, c.generator())
        pin_trust_anchor(Q)
        monkeypatch.setattr(scalarmult, "_wnaf", None)  # a call would raise
        for k in edge_scalars(c):
            want = scalar_mul_unchecked(k, Q)
            assert ecsm_comb(k, Q) == want
            assert comb_through(k, Q, CombCache()) == want

    def test_cold_handshake_runs_wnaf_only_on_peer_points(
            self, curves, p160_pki, fresh_rows, monkeypatch):
        c = curves["secp160r1"]
        seen = []
        wnaf = scalarmult._wnaf

        def spy(curve, k, x, y):
            seen.append((x, y))
            return wnaf(curve, k, x, y)

        monkeypatch.setattr(scalarmult, "_wnaf", spy)
        client, server = _session_pair(c, p160_pki, MODE_FULL, None, b"cold")
        assert run_loopback(client, server).established
        peer_points = [client.peer_key, client.peer_eph, server.peer_key,
                       server.peer_eph]
        assert sorted(seen) == sorted((P.x, P.y) for P in peer_points)
        assert (client.ca_key.x, client.ca_key.y) not in seen

    def test_threads_pin_and_read_two_anchors(self, curves, fresh_rows):
        c = curves["secp160r1"]
        G = c.generator()
        anchors = [scalar_mul_unchecked(k, G) for k in (0xA11CE, 0xB0B)]
        want = [scalarmult._rows(c, Q.x, Q.y) for Q in anchors]
        got, errors = [], []

        def worker():
            try:
                for _ in range(5):
                    for Q in anchors:
                        pin_trust_anchor(Q)
                    got.append([process_rows(Q) for Q in anchors])
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(got) == 20 and all(rows == want for rows in got)


class TestWindow:
    # ecsm_window, the one-shot engine: its price against its oracle is in
    # test_formula_prices

    @staticmethod
    def meets_bound(curve):
        """(n + 3)/2 + 2 * 15 < n: k' + c is at most (n + 3)/2, and every
        sum and difference the walk and the tail form stays below n in
        size, odd or nonzero, so none is 0 mod n."""
        return (curve.n + 3) // 2 + 2 * 15 < curve.n

    @pytest.mark.parametrize("name", registered_names(builtin_registry()))
    def test_one_price_where_the_bound_holds(self, registry, name,
                                             monkeypatch):
        # each k is priced as its own schedule, with no memo to return the
        # first one's: where the bound holds, the memoised price is every
        # sampled k's, and toy59, below it, is never memoised
        c = registry.get(name)
        rng = random.Random("window-" + name)
        memo = {}
        monkeypatch.setattr(scalarmult, "_PRICES", memo)
        memoised = scalarmult.window_price(c, c.n // 2)
        assert self.meets_bound(c) == (name != "toy59") == bool(memo)
        if name == "toy59":
            return
        for k in edge_scalars(c) + [rng.randrange(1, c.n)
                                    for _ in range(200)]:
            monkeypatch.setattr(scalarmult, "_PRICES", {})
            assert scalarmult.window_price(c, k) == memoised

    def test_no_comb_kind_and_no_cache_touched(self, curves):
        c = curves["secp160r1"]
        G = c.generator()
        Q = scalar_mul_unchecked(0xC0FFEE, G)
        cache = CombCache()
        for P in (Q, G, Q):       # Q's first use, G's, then Q's second
            cache.get_or_build(P)
        resident = list(cache._bases.items())
        k = c.n * 2 // 3 | 1
        for P in (Q, G, scalar_mul_unchecked(0xBEEF, G)):
            with counters.scope() as sc:
                assert ecsm_window(k, P) == scalar_mul_unchecked(k, P)
            assert sc.counters["ecsm_window"] == 1
            assert not [kind for kind in sc.counters
                        if kind.startswith(("comb", "ecsm_comb"))]
        assert list(cache._bases.items()) == resident

    def test_range_checked(self, toy):
        for k in (0, toy.n, -1):
            with pytest.raises(ScalarRangeError):
                ecsm_window(k, toy.generator())

    def test_below_table_plus_walk_and_the_jacobian_baseline(self,
                                                             registry):
        """The engine a one-shot base is priced on: at the calibration
        scalar, on every registered curve but toy59, `window_price` is below
        both a comb miss (the table, then the walk) and the Jacobian
        baseline, which is itself below the miss (10.004, 12.236 and 17.274
        uJ on secp256r1).  On toy59 the window is still below a comb miss,
        but the Jacobian baseline is cheaper than the window (0.007 against
        0.016 uJ): over a 6-bit n the window's fixed table of 8 affine
        entries outweighs the few projective doublings and additions it
        saves, so there the window is claimed below the miss only."""
        model = default_model()

        def uJ(price):
            with counters.scope() as sc:
                counters.record_all(price)
            return model.estimate(sc.counters).total * 1e6

        for name in registered_names(registry):
            c = registry.get(name)
            k = calibration_scalar(c)
            window = uJ(scalarmult.window_price(c, k))
            jacobian = uJ(scalarmult.jacobian_price(c, k))
            miss = uJ(scalarmult._precompute_price(
                c, COMB_WIDTH, comb_digit_count(c.n_bits, COMB_WIDTH) //
                COMB_WIDTH)) + uJ(scalarmult.comb_walk_price(c, k))
            assert window < miss, name
            if name != "toy59":
                assert window < jacobian < miss, name

    def test_a_resent_ephemeral_point_builds_no_rows(self, curves, p160_pki,
                                                     built, monkeypatch):
        # two cached-mode handshakes share the client's comb cache, and the
        # server's fixed entropy re-sends one ephemeral point: before, the
        # second ECDHE was that point's first comb hit, which built its
        # rows and priced a walk alone
        c = curves["secp160r1"]
        agreed = []
        ecdhe = handshake.ecdhe_shared

        def spy(own, peer):
            with counters.scope() as sc:
                out = ecdhe(own, peer)
            agreed.append((peer, list(sc.counters.items())))
            return out

        monkeypatch.setattr(handshake, "ecdhe_shared", spy)
        client_comb, servers = CombCache(), []
        for tag in (b"first", b"second"):
            client = HandshakeSession(SessionConfig(
                role="client", curve=c, own_cert_der=p160_pki.client.cert_der,
                own_key_d=p160_pki.client.key.d, ca_der=p160_pki.ca_der,
                mode=MODE_CACHED, entropy=b"resent-client-" + tag,
                expected_peer_cn="server", comb_cache=client_comb,
                clock=FIXED_CLOCK))
            servers.append(HandshakeSession(SessionConfig(
                role="server", curve=c, own_cert_der=p160_pki.server.cert_der,
                own_key_d=p160_pki.server.key.d, ca_der=p160_pki.ca_der,
                mode=MODE_FULL, entropy=b"resent-server",
                expected_peer_cn="client", clock=FIXED_CLOCK)))
            assert run_loopback(client, servers[-1]).established
        E = servers[0].eph_key.Q
        assert servers[1].eph_key.Q == E
        prices = [items for peer, items in agreed if peer == E]
        assert len(prices) == 2 and prices[0] == prices[1]
        assert point_identity(E) not in client_comb._bases
        assert (E.x, E.y) not in built

"""The group law's prices against the counted formulas they replaced.

`point_add` and `point_double` compute natively and record each formula's
whole price with one `counters.record_all` call; `ecsm_jacobian` records
the price of its projective formulas and its Fermat inversion, computed
from its scalar, in one call.  The oracles below are those formulas as they
ran before: every modular operation a counted kernel call, so the nesting
of the calls fixed the price.  Both must give the same result, the same
counter items in the same order and the same trace, on every registered
curve and on the exceptional inputs.  `oracle_negate` is the negation the
comb's price counts, for the comb oracle in `test_engine_prices`."""

import random

import pytest

from ecdtls import counters, scalarmult
from ecdtls.curve import AffinePoint, builtin_registry, point_add, \
    point_double
from ecdtls.scalarmult import ecsm_jacobian, scalar_mul_unchecked

CURVES = builtin_registry().names()


# ---------------------------------------------------------------------------
# Counted kernels, one counters.record per kind, as the library had them

def mul(x, y, mod):
    counters.record("mod_mul")
    counters.record("mul_iter", mod.bitlen)
    return x * y % mod.p


def add(x, y, mod):
    counters.record("mod_add")
    s = x + y
    return s - mod.p if s >= mod.p else s


def sub(x, y, mod):
    counters.record("mod_sub")
    d = x - y
    return d + mod.p if d < 0 else d


def inv_euclid(x, mod):
    counters.record("mod_inv_euclid")
    counters.record("inv_work", mod.bitlen)
    return pow(x, -1, mod.p)


def inv_fermat(x, mod):
    counters.record("mod_inv_fermat")
    e = mod.p - 2
    acc = x
    for i in range(e.bit_length() - 2, -1, -1):
        acc = mul(acc, acc, mod)
        if (e >> i) & 1:
            acc = mul(acc, x, mod)
    return acc


# ---------------------------------------------------------------------------
# The counted formulas

def oracle_negate(P):
    if P.at_infinity:
        return P
    return AffinePoint(P.curve, P.x, sub(0, P.y, P.curve.mod))


def oracle_add(P, Q):
    if P.at_infinity:
        return Q
    if Q.at_infinity:
        return P
    mod = P.curve.mod
    if P.x == Q.x:
        if P.y == Q.y:
            return oracle_double(P)
        return P.curve.infinity()
    counters.record("point_add")
    lam = mul(sub(Q.y, P.y, mod), inv_euclid(sub(Q.x, P.x, mod), mod), mod)
    x3 = sub(sub(mul(lam, lam, mod), P.x, mod), Q.x, mod)
    y3 = sub(mul(lam, sub(P.x, x3, mod), mod), P.y, mod)
    return AffinePoint(P.curve, x3, y3)


def oracle_double(P):
    if P.at_infinity:
        return P
    if P.y == 0:
        return P.curve.infinity()
    counters.record("point_double")
    mod = P.curve.mod
    x2 = mul(P.x, P.x, mod)
    num = add(add(x2, x2, mod), add(x2, P.curve.a, mod), mod)
    lam = mul(num, inv_euclid(add(P.y, P.y, mod), mod), mod)
    x3 = sub(sub(mul(lam, lam, mod), P.x, mod), P.x, mod)
    y3 = sub(mul(lam, sub(P.x, x3, mod), mod), P.y, mod)
    return AffinePoint(P.curve, x3, y3)


def oracle_jacobian(k, P):
    """ecsm_jacobian without its range check."""
    curve = P.curve
    counters.record("ecsm_jacobian")
    if P.at_infinity:
        return P
    mod = curve.mod
    a = curve.a

    def jdouble(X1, Y1, Z1):
        if Z1 == 0 or Y1 == 0:
            return (1, 1, 0)
        counters.record("point_double")
        YY = mul(Y1, Y1, mod)
        S = mul(X1, YY, mod)
        S = add(S, S, mod)
        S = add(S, S, mod)
        XX = mul(X1, X1, mod)
        ZZ = mul(Z1, Z1, mod)
        ZZ2 = mul(ZZ, ZZ, mod)
        M = add(add(XX, XX, mod), XX, mod)
        M = add(M, mul(a, ZZ2, mod), mod)
        X3 = sub(mul(M, M, mod), add(S, S, mod), mod)
        YY2 = mul(YY, YY, mod)
        Y8 = add(YY2, YY2, mod)
        Y8 = add(Y8, Y8, mod)
        Y8 = add(Y8, Y8, mod)
        Y3 = sub(mul(M, sub(S, X3, mod), mod), Y8, mod)
        Z3 = mul(add(Y1, Y1, mod), Z1, mod)
        return (X3, Y3, Z3)

    def jadd_mixed(X1, Y1, Z1, x2, y2):
        if Z1 == 0:
            return (x2, y2, 1)
        counters.record("point_add")
        ZZ = mul(Z1, Z1, mod)
        U2 = mul(x2, ZZ, mod)
        ZZZ = mul(ZZ, Z1, mod)
        S2 = mul(y2, ZZZ, mod)
        H = sub(U2, X1, mod)
        R = sub(S2, Y1, mod)
        if H == 0:
            if R == 0:
                return jdouble(X1, Y1, Z1)
            return (1, 1, 0)
        HH = mul(H, H, mod)
        HHH = mul(HH, H, mod)
        V = mul(X1, HH, mod)
        X3 = sub(sub(mul(R, R, mod), HHH, mod), add(V, V, mod), mod)
        Y3 = sub(mul(R, sub(V, X3, mod), mod), mul(Y1, HHH, mod), mod)
        Z3 = mul(Z1, H, mod)
        return (X3, Y3, Z3)

    X, Y, Z = 1, 1, 0
    for i in range(k.bit_length() - 1, -1, -1):
        X, Y, Z = jdouble(X, Y, Z)
        if (k >> i) & 1:
            X, Y, Z = jadd_mixed(X, Y, Z, P.x, P.y)
    if Z == 0:
        return curve.infinity()
    zinv = inv_fermat(Z, mod)
    zz = mul(zinv, zinv, mod)
    x = mul(X, zz, mod)
    y = mul(Y, mul(zz, zinv, mod), mod)
    return AffinePoint(curve, x, y)


# ---------------------------------------------------------------------------

def priced(fn, *args):
    """fn's result, its ordered counter items and its trace, recorded inside
    an outer scope that already holds counts."""
    with counters.scope(trace=True) as outer:
        counters.record("mod_mul", 5)
        with counters.scope(trace=True) as inner:
            out = fn(*args)
    return out, list(inner.counters.items()), inner.trace, \
        list(outer.counters.items()), outer.trace


def same_price(fn, oracle, *args):
    got, want = priced(fn, *args), priced(oracle, *args)
    assert got == want
    return got[0]


@pytest.fixture(params=CURVES)
def curve(request):
    return builtin_registry().get(request.param)


def test_affine_formulas_match_counted_oracles(curve):
    rng = random.Random("formula-prices-" + curve.id)
    G = curve.generator()
    O = curve.infinity()
    points = [G] + [scalar_mul_unchecked(rng.randrange(2, curve.n), G)
                    for _ in range(6)]
    for P in points:
        negP = AffinePoint(curve, P.x, -P.y % curve.mod.p)
        assert point_add(P, negP).at_infinity
        same_price(point_double, oracle_double, P)
        for Q in (P, negP, O, points[0], points[-1]):
            same_price(point_add, oracle_add, P, Q)
            same_price(point_add, oracle_add, Q, P)
    assert same_price(point_double, oracle_double, O).at_infinity
    assert same_price(point_add, oracle_add, O, O).at_infinity


def test_jacobian_matches_counted_oracle(curve, monkeypatch):
    rng = random.Random("jacobian-prices-" + curve.id)
    n = curve.n
    P = scalar_mul_unchecked(rng.randrange(2, n), curve.generator())
    for k in [1, 2, 3, n - 4, n - 2, n - 1] + \
            [rng.randrange(1, n) for _ in range(3)]:
        assert same_price(ecsm_jacobian, oracle_jacobian, k, P) == \
            scalar_mul_unchecked(k, P)
    # past the range check, the mixed addition meets H = 0: at k = n the
    # sum reaches -P + P (infinity), at k = n + 2 it reaches P + P
    monkeypatch.setattr(scalarmult, "_check_range", lambda k, curve: None)
    assert same_price(ecsm_jacobian, oracle_jacobian, n, P).at_infinity
    for k in (n + 1, n + 2):
        assert same_price(ecsm_jacobian, oracle_jacobian, k, P) == \
            scalar_mul_unchecked(k - n, P)

"""The group law's prices against the counted formulas they replaced.

`scalarmult._AFFINE` holds the affine doubling and addition as strings
of datapath letters, which `scalarmult` concatenates into its schedules
and `PrimeModulus.cost` counts; `scalarmult.jacobian_price` is the price of
the projective formulas and the Fermat inversion, computed from the
scalar, which the tests' `ecsm_jacobian` (in `reference_engines`) records
in one call.  `scalarmult.window_price`, which `ecsm_window` records, walks
the same projective formulas over an affine table of odd multiples and
ends in a Euclid inversion.  The oracles below are those formulas as they
ran before: every modular operation a counted kernel call, so the nesting
of the calls fixed the price.  Each price must give the same counter items
in the same order and the same trace as its oracle on every registered
curve, `ecsm_jacobian` the same result on the exceptional inputs too, and
`ecsm_window` the same point as `ecsm_jacobian`.  The affine oracles are
the tests' reference group law: `test_curve` checks them against the group
axioms, and the engine oracles of `test_engine_prices` walk on them with
`oracle_negate`, the negation the comb's price counts.  No `AffinePoint`
is the identity, so the oracles take and return None for it."""

import random

import pytest

from ecdtls import counters, scalarmult
from ecdtls.curve import AffinePoint, builtin_registry
from conftest import registered_names
from reference_engines import ecsm_jacobian, scalar_mul_unchecked

CURVES = registered_names(builtin_registry())


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
    if P is None:
        return None
    return AffinePoint(P.curve, P.x, sub(0, P.y, P.curve.mod))


def oracle_add(P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    mod = P.curve.mod
    if P.x == Q.x:
        if P.y == Q.y:
            return oracle_double(P)
        return None
    counters.record("point_add")
    lam = mul(sub(Q.y, P.y, mod), inv_euclid(sub(Q.x, P.x, mod), mod), mod)
    x3 = sub(sub(mul(lam, lam, mod), P.x, mod), Q.x, mod)
    y3 = sub(mul(lam, sub(P.x, x3, mod), mod), P.y, mod)
    return AffinePoint(P.curve, x3, y3)


def oracle_double(P):
    if P is None:
        return None
    if P.y == 0:
        return None
    counters.record("point_double")
    mod = P.curve.mod
    x2 = mul(P.x, P.x, mod)
    num = add(add(x2, x2, mod), add(x2, P.curve.a, mod), mod)
    lam = mul(num, inv_euclid(add(P.y, P.y, mod), mod), mod)
    x3 = sub(sub(mul(lam, lam, mod), P.x, mod), P.x, mod)
    y3 = sub(mul(lam, sub(P.x, x3, mod), mod), P.y, mod)
    return AffinePoint(P.curve, x3, y3)


def oracle_jdouble(curve, X1, Y1, Z1):
    if Z1 == 0 or Y1 == 0:
        return (1, 1, 0)
    counters.record("point_double")
    mod, a = curve.mod, curve.a
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


def oracle_jadd_mixed(curve, X1, Y1, Z1, x2, y2):
    if Z1 == 0:
        return (x2, y2, 1)
    counters.record("point_add")
    mod = curve.mod
    ZZ = mul(Z1, Z1, mod)
    U2 = mul(x2, ZZ, mod)
    ZZZ = mul(ZZ, Z1, mod)
    S2 = mul(y2, ZZZ, mod)
    H = sub(U2, X1, mod)
    R = sub(S2, Y1, mod)
    if H == 0:
        if R == 0:
            return oracle_jdouble(curve, X1, Y1, Z1)
        return (1, 1, 0)
    HH = mul(H, H, mod)
    HHH = mul(HH, H, mod)
    V = mul(X1, HH, mod)
    X3 = sub(sub(mul(R, R, mod), HHH, mod), add(V, V, mod), mod)
    Y3 = sub(mul(R, sub(V, X3, mod), mod), mul(Y1, HHH, mod), mod)
    Z3 = mul(Z1, H, mod)
    return (X3, Y3, Z3)


def oracle_jacobian(k, P):
    """ecsm_jacobian without its range check."""
    curve = P.curve
    counters.record("ecsm_jacobian")
    mod = curve.mod
    X, Y, Z = 1, 1, 0
    for i in range(k.bit_length() - 1, -1, -1):
        X, Y, Z = oracle_jdouble(curve, X, Y, Z)
        if (k >> i) & 1:
            X, Y, Z = oracle_jadd_mixed(curve, X, Y, Z, P.x, P.y)
    if Z == 0:
        return None
    zinv = inv_fermat(Z, mod)
    zz = mul(zinv, zinv, mod)
    x = mul(X, zz, mod)
    y = mul(Y, mul(zz, zinv, mod), mod)
    return AffinePoint(curve, x, y)


def window_recode(k, count):
    """The odd k as count odd digits in +-{1, 3, ..., 15}, top first, the
    top one positive: each digit is k mod 32 less 16, which leaves
    (k - digit) / 16 odd (Joye and Tunstall, AFRICACRYPT 2009)."""
    assert k & 1
    digits = []
    for _ in range(count - 1):
        digit = k % 32 - 16
        digits.append(digit)
        k = (k - digit) // 16
    assert 1 <= k <= 15
    return [k] + digits[::-1]


def oracle_window(k, P):
    """ecsm_window without its range check, run on k' = min(k, n - k): the
    affine table P, 3P, ..., 15P, built from 2P; the windows of k' + c, c =
    1 + (k' mod 2), top first, each the negation of its digit's entry, four
    Jacobian doublings and the mixed addition of the entry or its negation,
    as the digit's sign selects; the tail, which adds -c*P; the Euclid
    inversion and four products back to affine; and the negation of that
    point, computed whichever k' is chosen, and the one of the two that k
    selects, which is k*P for P of order n."""
    curve = P.curve
    mod, n = curve.mod, curve.n
    counters.record("ecsm_window")
    two = oracle_double(P)
    table = [P]
    for _ in range(7):
        table.append(oracle_add(table[-1], two))
    kp = min(k, n - k)
    c = 1 + kp % 2
    acc = (1, 1, 0)
    for digit in window_recode(kp + c, -(-curve.n_bits // 4)):
        entry = table[abs(digit) // 2]
        neg = oracle_negate(entry)
        term = entry if digit > 0 else neg
        for _ in range(4):
            acc = oracle_jdouble(curve, *acc)
        acc = oracle_jadd_mixed(curve, *acc, term.x, term.y)
    corr = oracle_negate(P if c == 1 else two)
    X, Y, Z = oracle_jadd_mixed(curve, *acc, corr.x, corr.y)
    zinv = inv_euclid(Z, mod)
    zz = mul(zinv, zinv, mod)
    R = AffinePoint(curve, mul(X, zz, mod), mul(Y, mul(zz, zinv, mod), mod))
    neg = oracle_negate(R)
    return R if kp == k else neg


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
    # a generic pair: neither the identity, and distinct x
    rng = random.Random("formula-prices-" + curve.id)
    P = curve.generator()
    Q = scalar_mul_unchecked(rng.randrange(2, curve.n - 1), P)
    assert P.x != Q.x
    double, add = scalarmult._AFFINE
    assert priced(counters.record_all, curve.mod.cost(add))[1:] == \
        priced(oracle_add, P, Q)[1:]
    assert priced(counters.record_all, curve.mod.cost(double))[1:] == \
        priced(oracle_double, P)[1:]


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
    assert same_price(ecsm_jacobian, oracle_jacobian, n, P) is None
    for k in (n + 1, n + 2):
        assert same_price(ecsm_jacobian, oracle_jacobian, k, P) == \
            scalar_mul_unchecked(k - n, P)


def window_scalars(curve):
    """Every k on toy59; elsewhere 1, 2, n - 2, n - 1 and random ones."""
    n = curve.n
    if curve.id == "toy59":
        return range(1, n)
    rng = random.Random("window-prices-" + curve.id)
    return [1, 2, n - 2, n - 1] + [rng.randrange(1, n) for _ in range(12)]


def test_window_matches_counted_oracle(curve):
    rng = random.Random("window-base-" + curve.id)
    P = scalar_mul_unchecked(rng.randrange(2, curve.n), curve.generator())
    for k in window_scalars(curve):
        assert same_price(scalarmult.ecsm_window, oracle_window, k, P) == \
            ecsm_jacobian(k, P)

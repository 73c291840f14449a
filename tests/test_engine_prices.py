"""Each engine's scalar-derived price against the affine engines it
replaced.

`comb_precompute`, `ecsm_comb` and `scalar_mul_unchecked` compute their
price from the scalar in integers and record it in one call; their results
come from executors that record nothing (`ecsm_comb`'s fixed-base table or
wNAF, `scalar_mul_unchecked`'s double-and-add).  The oracles below are
those engines as they ran before, on `point_add` and `point_double`
(themselves checked in `test_formula_prices`) and `oracle_negate`: one
affine operation, one inversion, each, walked point by point.  Both must
give the same result, the same counter items in the same order and the same
trace, on every registered curve, at every comb width, with and without a
comb cache.  The prices are exact for points of the curve's order n; on a
point whose order is not n, only the results are compared."""

import random
from collections import namedtuple

import pytest

from ecdtls import counters, scalarmult
from ecdtls.curve import CurveParams, builtin_registry, point_add, \
    point_double
from ecdtls.scalarmult import (DEFAULT_COMB_WIDTH, CombCache,
                               ScalarRangeError, comb_digit_count,
                               comb_precompute, ecsm_comb, point_identity,
                               scalar_mul_unchecked)
from test_formula_prices import oracle_negate, priced, same_price

# the oracle's table and recoding, which the library no longer builds: it
# prices the table and reads the digits as bits of an integer
class CombTable(namedtuple("CombTable", "base_id w d t entries")):
    rows = None  # a CombCache sets the base's execution rows on a first hit


ZsdScalar = namedtuple("ZsdScalar", "digits c")


def zsd_recode(k, t):
    """k as t zero-less signed digits in {-1, +1}, least significant first,
    summing to k + c: c = 1 + (k mod 2) makes k' = k + c odd, and digit i is
    2*bit_{i+1}(k') - 1 below a +1 top digit."""
    if k < 1:
        raise ScalarRangeError("scalar must be positive")
    c = 1 + (k & 1)
    kp = k + c
    if t < kp.bit_length():
        raise ScalarRangeError("digit count %d too small for scalar" % t)
    digits = tuple(1 if (kp >> (i + 1)) & 1 else -1 for i in range(t - 1))
    return ZsdScalar(digits + (1,), c)


# ---------------------------------------------------------------------------
# The affine engines, one inversion per point operation

def oracle_precompute(P, w=DEFAULT_COMB_WIDTH, t=None):
    if t is None:
        t = comb_digit_count(P.curve.n_bits, w)
    d = -(-t // w)
    counters.record("comb_precompute")
    rows = [P]
    for _ in range(w - 1):
        Q = rows[-1]
        for _ in range(d):
            Q = point_double(Q)
        rows.append(Q)
    top = rows[w - 1]
    entries = []
    for idx in range(1 << (w - 1)):
        acc = top
        for r in range(w - 2, -1, -1):
            term = rows[r] if (idx >> r) & 1 else oracle_negate(rows[r])
            acc = point_add(acc, term)
        entries.append(acc)
    return CombTable(point_identity(P), w, d, t, tuple(entries))


def oracle_comb(k, P, cache=None, w=DEFAULT_COMB_WIDTH):
    """ecsm_comb without its range check; a cache miss builds the table with
    oracle_precompute."""
    curve = P.curve
    counters.record("ecsm_comb")
    t = comb_digit_count(curve.n_bits, w)
    if cache is not None:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scalarmult, "comb_precompute", oracle_precompute)
            table = cache.get_or_build(P, w, t)
    else:
        table = oracle_precompute(P, w, t)
    d = table.d
    zsd = zsd_recode(k, t)
    digits = zsd.digits
    entries = table.entries
    acc = None
    for j in range(d - 1, -1, -1):
        top = digits[(w - 1) * d + j]
        idx = 0
        for r in range(w - 1):
            if digits[r * d + j] == top:
                idx |= 1 << r
        entry = entries[idx]
        neg = oracle_negate(entry)
        term = entry if top == 1 else neg
        if acc is None:
            acc = term
        else:
            acc = point_add(point_double(acc), term)
    dbl = point_double(P)
    corr = P if zsd.c == 1 else dbl
    return point_add(acc, oracle_negate(corr))


def oracle_unchecked(k, P):
    acc = P.curve.infinity()
    for i in range(k.bit_length() - 1, -1, -1):
        acc = point_double(acc)
        if (k >> i) & 1:
            acc = point_add(acc, P)
    return acc


# ---------------------------------------------------------------------------

@pytest.fixture(params=builtin_registry().names())
def curve(request):
    return builtin_registry().get(request.param)


def other_base(curve):
    """A fixed point of the curve that is not its generator."""
    k = random.Random("other-base-" + curve.id).randrange(2, curve.n - 1)
    return oracle_unchecked(k, curve.generator())


def oracle_scalars(curve):
    rng = random.Random("engine-prices-" + curve.id)
    n = curve.n
    edges = set(range(1, min(65, n))) | set(range(max(1, n - 64), n))
    return sorted(edges) + [rng.randrange(1, n) for _ in range(40)]


@pytest.mark.parametrize("base", ["generator", "other"])
def test_comb_matches_affine_oracle(curve, base):
    P = curve.generator() if base == "generator" else other_base(curve)
    for w in range(1, 6):
        scalars = oracle_scalars(curve)
        if w != DEFAULT_COMB_WIDTH:
            # the scalars off the regular schedule lie within 4 of n on the
            # secp curves at every width: fewer will do away from the default
            scalars = [k for k in scalars[:-40] if k <= 8 or k >= curve.n - 8] \
                + scalars[-8:]
        cache, oracle_cache = CombCache(), CombCache()
        for i, k in enumerate(scalars):
            # the first cached call misses, the rest hit
            assert priced(ecsm_comb, k, P, cache, w) == \
                priced(oracle_comb, k, P, oracle_cache, w)
            # without a cache the table's price is the same: every 8th will do
            if i % 8 == 0:
                assert same_price(ecsm_comb, oracle_comb, k, P, None, w) == \
                    oracle_unchecked(k, P)


@pytest.mark.parametrize("w", range(1, 6))
def test_table_entries_match_affine_oracle(curve, w):
    # no entry is built: comb_precompute records what building them costs
    for P in (curve.generator(), other_base(curve)):
        got, want = priced(comb_precompute, P, w), \
            priced(oracle_precompute, P, w)
        assert got[1:] == want[1:]
        table = got[0]
        assert (table.base_id, table.w, table.d, table.t) == want[0][:4]


def test_unchecked_matches_affine_oracle_past_the_order(toy, curves):
    for P in (toy.generator(), other_base(toy), toy.infinity()):
        for k in range(3 * toy.n):
            same_price(scalar_mul_unchecked, oracle_unchecked, k, P)
    # k = n is the registry's own n*G check
    for c in (curves["secp160r1"], curves["secp256r1"]):
        n = c.n
        for P in (c.generator(), other_base(c)):
            for k in (0, 1, 2, n - 2, n - 1, n, n + 1, n + 2, 2 * n):
                same_price(scalar_mul_unchecked, oracle_unchecked, k, P)


def test_engines_match_affine_oracle_on_a_two_torsion_point():
    # no registered curve has a point with y = 0: on y^2 = x^3 + x - 2 over
    # GF(59), (1, 0) doubles to the identity.  Its order is 2, not the n = 53
    # the curve claims, so no engine's price, exact for points of order n,
    # is compared; the results are.
    curve = CurveParams("two-torsion", 59, 1, -2, 1, 0, 53, 0xFE03, "2.999.2")
    T = curve.generator()
    assert T.is_on_curve() and point_double(T).at_infinity
    cache, oracle_cache = CombCache(), CombCache()
    for k in range(1, curve.n):
        assert ecsm_comb(k, T) == oracle_comb(k, T) == \
            (T if k % 2 else curve.infinity())
        assert ecsm_comb(k, T, cache) == oracle_comb(k, T, oracle_cache)
        assert scalar_mul_unchecked(k, T) == oracle_unchecked(k, T)

"""Each engine's scalar-derived price against the affine engines it
replaced.

`comb_precompute`, `ecsm_comb` and `scalar_mul_unchecked` (the tests'
engine in `reference_engines`) compute their price from the scalar in
integers and record it in one call; their results come from executors that
record nothing (`ecsm_comb`'s fixed-base table or wNAF,
`scalar_mul_unchecked`'s double-and-add).  The oracles below are
those engines as they ran before, on the counted affine formulas
`oracle_add`, `oracle_double` and `oracle_negate` of `test_formula_prices`:
one affine operation, one inversion, each, walked point by point.  Both must
give the same result, the same counter items in the same order and the same
trace, on every registered curve, with and without a comb cache.  The
table's price is also checked at other widths, through the price helper that
takes the comb's geometry.  The prices are exact for points of the curve's
order n; on a point whose order is not n, only the results are compared."""

import random
from collections import namedtuple

import pytest

from ecdtls import counters, scalarmult
from ecdtls.curve import CurveError, CurveParams, builtin_registry
from ecdtls.scalarmult import (COMB_WIDTH, CombCache, ScalarRangeError,
                               comb_digit_count, comb_precompute, ecsm_comb)
from conftest import registered_names
from reference_engines import affine, scalar_mul_unchecked
from test_formula_prices import oracle_add, oracle_double, oracle_negate, \
    priced, same_price

# the oracle's recoding, which the library no longer builds: it reads the
# digits as bits of an integer
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

def oracle_precompute(P, w=COMB_WIDTH):
    """The table's entries, each built by affine operations."""
    d = comb_digit_count(P.curve.n_bits, w) // w
    counters.record("comb_precompute")
    rows = [P]
    for _ in range(w - 1):
        Q = rows[-1]
        for _ in range(d):
            Q = oracle_double(Q)
        rows.append(Q)
    top = rows[w - 1]
    entries = []
    for idx in range(1 << (w - 1)):
        acc = top
        for r in range(w - 2, -1, -1):
            term = rows[r] if (idx >> r) & 1 else oracle_negate(rows[r])
            acc = oracle_add(acc, term)
        entries.append(acc)
    return tuple(entries)


def oracle_comb(k, P, cache=None):
    """ecsm_comb without its range check, run on k' = min(k, n - k): the
    walk to k'*P, then its negation, computed whichever k' is chosen, and
    the one of the two that k selects, which is k*P for P of order n.  A
    cache miss builds the table with oracle_precompute, and the cache keeps
    its entries in place of rows."""
    curve = P.curve
    counters.record("ecsm_comb")
    w = COMB_WIDTH
    t = comb_digit_count(curve.n_bits, w)
    d = t // w
    if cache is not None:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scalarmult, "comb_precompute", oracle_precompute)
            entries = cache.get_or_build(P)
    else:
        entries = oracle_precompute(P)
    kp = min(k, curve.n - k)
    zsd = zsd_recode(kp, t)
    digits = zsd.digits
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
            acc = oracle_add(oracle_double(acc), term)
    dbl = oracle_double(P)
    corr = P if zsd.c == 1 else dbl
    R = oracle_add(acc, oracle_negate(corr))
    neg = oracle_negate(R)
    return R if kp == k else neg


def oracle_unchecked(k, P):
    acc = None
    for i in range(k.bit_length() - 1, -1, -1):
        acc = oracle_double(acc)
        if (k >> i) & 1:
            acc = oracle_add(acc, P)
    return acc


# ---------------------------------------------------------------------------

@pytest.fixture(params=registered_names(builtin_registry()))
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
    cache, oracle_cache = CombCache(), CombCache()
    for i, k in enumerate(oracle_scalars(curve)):
        # the first cached call misses, the rest hit
        assert priced(ecsm_comb, k, P, cache) == \
            priced(oracle_comb, k, P, oracle_cache)
        # without a cache the table's price is the same: every 8th will do
        if i % 8 == 0:
            assert same_price(ecsm_comb, oracle_comb, k, P, None) == \
                oracle_unchecked(k, P)


def table_price(curve, w):
    """Record the table's price at width w, as comb_precompute does at
    COMB_WIDTH."""
    counters.record_all(scalarmult._precompute_price(
        curve, w, comb_digit_count(curve.n_bits, w) // w))


@pytest.mark.parametrize("w", range(1, 6))
def test_table_entries_match_affine_oracle(curve, w):
    # no entry is built: the price helper records what building them costs,
    # at every width it takes, and comb_precompute records it at COMB_WIDTH
    for P in (curve.generator(), other_base(curve)):
        want = priced(oracle_precompute, P, w)[1:]
        assert priced(table_price, curve, w)[1:] == want
        if w == COMB_WIDTH:
            assert priced(comb_precompute, P)[1:] == want


def test_unchecked_matches_affine_oracle_past_the_order(toy, curves):
    for P in (toy.generator(), other_base(toy)):
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
    # is compared; the results are.  An even k gives the identity, which no
    # AffinePoint is: there the executors are compared as Jacobian triples,
    # and ecsm_comb refuses to make the point.  The oracle runs the priced
    # algorithm on k' = min(k, n - k), whose selected point is k*T only for
    # a T of order n: here it is k'*T.
    curve = CurveParams("two-torsion", 59, 1, -2, 1, 0, 53, 0xFE03, "2.999.2")
    T = curve.generator()
    assert oracle_double(T) is None
    cache, oracle_cache = CombCache(), CombCache()
    for k in range(1, curve.n):
        want = T if k % 2 else None
        selected = T if min(k, curve.n - k) % 2 else None
        assert oracle_comb(k, T) == selected
        assert oracle_comb(k, T, oracle_cache) == selected
        for c in (None, cache):
            assert affine(curve, scalarmult._comb(k, T, c)) == want
            if want is None:
                with pytest.raises(CurveError):
                    ecsm_comb(k, T, c)
            else:
                assert ecsm_comb(k, T, c) == want
        assert scalar_mul_unchecked(k, T) == oracle_unchecked(k, T) == want

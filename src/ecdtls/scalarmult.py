"""Scalar multiplication: what the counters price, and how Python computes
it.

`ecsm_comb` is priced as the paper's fixed-base comb with zero-less
signed-digit recoding on the affine group law: the table (`comb_precompute`)
on a miss of the six-entry LRU `CombCache`, then a doubling and an addition
per column and a parity-correction tail.  Each point that comb touches is
m*P for an integer m.  A registered curve has cofactor 1 and odd prime
order n, so each exceptional branch of the affine law is a test on m mod n
(m = 0 is the identity, m1 = +-m2 is equal x).  So the price is computed
in integers from schedules memoised per curve and geometry, and the table's
and the columns' are each recorded in one call.  The columns' schedule is
the same for every k except the few that meet such a branch (n-4, n-2 and
n-1 among k within 64 of 0 or n at width 4); the Python's own time varies
with k and the base.

Execution records nothing.  It runs in Jacobian coordinates (Z = 0 the
identity), normalised by shared inversions: k*G sums signed radix-32 digits
of k from a per-curve table of G's multiples, built on first use and never
changed; any other base runs width-5 wNAF.  `scalar_mul_unchecked` (any
k >= 0; the registry checks n*G = O with it) and `ecsm_jacobian` (the energy
fit's projective baseline) share a double-and-add loop that records the
affine or the projective prices step by step.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import counters
from .curve import AffinePoint, CurveError, CurveParams, validate_point
from .field import inv_fermat_int, mul_int

DEFAULT_COMB_WIDTH = 4
COMB_CACHE_CAPACITY = 6
MIN_COMB_WIDTH = 1
MAX_COMB_WIDTH = 8
_RADIX_BITS = 5   # k*G: signed digits in [-15, 16]
_WNAF_WIDTH = 5   # other bases: odd digits in [-15, 15]


class ScalarRangeError(CurveError):
    """Scalar outside [1, n)."""


class CachePoisonedError(CurveError):
    """A cached table does not belong to the requested base point."""


# ---------------------------------------------------------------------------
# Jacobian formulas, unpriced or under a price
#
# A price is (double, add head, add tail), each a `PrimeModulus.cost`.  The
# affine one is (curve.double_cost, None, curve.add_cost): recorded where
# `point_double` and `point_add` record theirs, so an exceptional case that
# the affine law prices at nothing records nothing here either.

_IDENTITY = (1, 1, 0)


def _jdouble(curve: CurveParams, X: int, Y: int, Z: int,
             price: Optional[tuple] = None) -> tuple:
    """2(X, Y, Z); the identity and a point with y = 0 double to the identity
    unpriced."""
    if Z == 0 or Y == 0:
        return _IDENTITY
    if price:
        counters.record_all(price[0])
    p, a = curve.mod.p, curve.a
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    # 3 X^2 + a Z^4, which is 3 (X - Z^2)(X + Z^2) when a = -3
    M = (3 * (X - ZZ) * (X + ZZ) if a == p - 3 else 3 * X * X + a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _jadd(curve: CurveParams, X: int, Y: int, Z: int, x: int, y: int,
          price: Optional[tuple] = None) -> tuple:
    """(X, Y, Z) + (x, y) for an affine (x, y) other than the identity.  An
    identity accumulator is unpriced; equal x (H = 0) goes to the doubling
    when y is equal too (R = 0) and is the identity, unpriced, otherwise."""
    if Z == 0:
        return x, y, 1
    if price and price[1]:
        counters.record_all(price[1])
    p = curve.mod.p
    ZZ = Z * Z % p
    H = (x * ZZ - X) % p
    R = (y * ZZ * Z - Y) % p
    if H == 0:
        if R == 0:
            return _jdouble(curve, X, Y, Z, price)
        return _IDENTITY
    if price:
        counters.record_all(price[2])
    HH = H * H % p
    HHH = HH * H % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z * H % p


def _to_affine(curve: CurveParams, triples: list) -> list:
    """The affine (x, y) of Jacobian triples, None for the identity, by one
    inversion of the product of their Z."""
    p = curve.mod.p
    prefix = []
    acc = 1
    for _, _, Z in triples:
        if Z:
            acc = acc * Z % p
        prefix.append(acc)
    inv = pow(acc, -1, p)
    out = [None] * len(triples)
    for i in range(len(triples) - 1, -1, -1):
        X, Y, Z = triples[i]
        if Z == 0:
            continue
        zinv = inv * prefix[i - 1] % p if i else inv
        inv = inv * Z % p
        zz = zinv * zinv % p
        out[i] = (X * zz % p, Y * zz * zinv % p)
    return out


def _point(curve: CurveParams, triple: tuple) -> AffinePoint:
    xy = _to_affine(curve, [triple])[0]
    return curve.infinity() if xy is None else AffinePoint(curve, *xy)


# ---------------------------------------------------------------------------
# The comb's geometry and price: m stands for the point m*P, P of order n

def comb_digit_count(order_bits: int, w: int) -> int:
    """Digit count padded to a whole number of comb rows."""
    d = -(-(order_bits + 1) // w)
    return w * d


_PRICES: Dict[tuple, tuple] = {}


def _merge(costs: list) -> tuple:
    """One price for a sequence of prices: kinds in first-appearance order,
    traced kinds in execution order."""
    items: Dict[str, int] = {}
    traced: list = []
    for cost_items, cost_traced in costs:
        for kind, n in cost_items:
            items[kind] = items.get(kind, 0) + n
        traced += cost_traced
    return tuple(items.items()), tuple(traced)


def _sum_price(curve: CurveParams, m1: int, m2: int) -> list:
    """The affine law's price of m1 + m2: nothing with an identity operand or
    sum, a doubling for equal operands (y = 0 would need an even n)."""
    n = curve.n
    if m1 % n == 0 or m2 % n == 0 or (m1 + m2) % n == 0:
        return []
    return [curve.double_cost if (m1 - m2) % n == 0 else curve.add_cost]


def _neg_price(curve: CurveParams, m: int) -> list:
    return [curve.mod.cost("s")] if m % curve.n else []


def _precompute_price(curve: CurveParams, w: int, d: int) -> tuple:
    """d doublings per row base past the first, then each entry summed from
    the top row down, negating the rows of its - signs."""
    events = [curve.mod.cost("", "comb_precompute")]
    for i in range((w - 1) * d):
        events += _sum_price(curve, 1 << i, 1 << i)
    for idx in range(1 << (w - 1)):
        acc = 1 << (w - 1) * d
        for r in range(w - 2, -1, -1):
            term = 1 << r * d if idx >> r & 1 else -(1 << r * d)
            events += (_neg_price(curve, term) if term < 0 else []) + \
                _sum_price(curve, acc, term)
            acc += term
    return _merge(events)


def _walk_events(curve: CurveParams, terms: list, c: int) -> list:
    """The column walk over the table terms, top column first, then the
    parity tail.  Every column negates its entry; the first doubles and adds
    to the identity, at no price."""
    events, acc = _neg_price(curve, terms[0]), terms[0]
    for m in terms[1:]:
        events += _neg_price(curve, m) + _sum_price(curve, acc, acc) + \
            _sum_price(curve, 2 * acc, m)
        acc = 2 * acc + m
    return events + _sum_price(curve, 1, 1) + _neg_price(curve, c) + \
        _sum_price(curve, acc, -c)


def _walk_price(curve: CurveParams, k: int, w: int, t: int) -> tuple:
    """The columns and tail at k: the memoised regular schedule unless one
    of them meets an exceptional branch.

    The t zero-less signed digits of k sum to k + c, c = 1 + (k mod 2):
    digit i is +1 exactly when bit i+1 of K = (k + c) | 2^t is set.  So
    column j's term, sum(digit(r*d + j) 2^(r*d)), reads the bits j+1,
    d+j+1, ... of K."""
    n, d, c = curve.n, t // w, 1 + (k & 1)
    mask = sum(1 << r * d for r in range(w))
    K = (k + c) | 1 << t

    def term(j):
        return 2 * (K >> j + 1 & mask) - mask

    acc = term(d - 1)
    regular = acc % n != 0
    for j in range(d - 2, -1, -1):
        m, dbl = term(j), 2 * acc
        # dbl = 0, m = 0 and dbl = +-m are the exceptions.  acc and m are
        # odd, so each needs a wrap mod n: |dbl| + |m| >= n.  n is prime.
        if abs(dbl) + abs(m) >= n:
            regular = regular and dbl * m * (dbl * dbl - m * m) % n != 0
        acc = dbl + m
    regular = regular and acc * (acc * acc - c * c) % n != 0
    key = ("walk", curve.mod.bitlen, n, w, t)
    if regular and key in _PRICES:
        return _PRICES[key]
    terms = [term(j) for j in range(d - 1, -1, -1)]
    price = _merge(_walk_events(curve, terms, c))
    if regular:
        _PRICES[key] = price
    return price


# ---------------------------------------------------------------------------
# Execution, unpriced

_G_TABLES: Dict[tuple, list] = {}


def _add_signed(curve: CurveParams, acc: tuple, point, digit: int) -> tuple:
    """acc + sign(digit) * point, for an affine point or None."""
    if point is None:
        return acc
    x, y = point
    return _jadd(curve, *acc, x, y if digit > 0 else -y % curve.mod.p)


def _fixed_base(curve: CurveParams, k: int) -> tuple:
    """k*G for 0 <= k < 2^bitlen(n), one signed radix-32 digit in [-15, 16]
    per row of j * 32^i * G, j = 1..16.  The table is built once per curve
    (a racing second build makes an equal one); None is the identity."""
    half = 1 << _RADIX_BITS - 1
    key = (curve.mod.p, curve.a, curve.gx, curve.gy, curve.n)
    if key not in _G_TABLES:
        base, triples = (curve.gx, curve.gy), []
        for _ in range(-(-(curve.n_bits + 1) // _RADIX_BITS)):
            acc = _IDENTITY
            for _ in range(half):
                acc = _jadd(curve, *acc, *base) if base else _IDENTITY
                triples.append(acc)
            base = base and _to_affine(curve, [_jdouble(curve, *acc)])[0]
        _G_TABLES[key] = _to_affine(curve, triples)
    table = _G_TABLES[key]
    acc, row = _IDENTITY, 0
    while k:
        digit = ((k + half - 1) & (2 * half - 1)) - half + 1
        k = (k - digit) >> _RADIX_BITS
        if digit:
            acc = _add_signed(curve, acc, table[row + abs(digit) - 1], digit)
        row += half
    return acc


def _wnaf(curve: CurveParams, k: int, x: int, y: int) -> tuple:
    """k*(x, y) by width-5 NAF over the odd multiples 1, 3, ..., 15 of the
    base, made affine by one shared inversion."""
    two = _to_affine(curve, [_jdouble(curve, x, y, 1)])[0]
    odd = [(x, y, 1)]
    for _ in range((1 << _WNAF_WIDTH - 2) - 1):
        odd.append(_jadd(curve, *odd[-1], *two) if two else odd[-1])
    odd = _to_affine(curve, odd)
    half, digits = 1 << _WNAF_WIDTH - 1, []
    while k:
        digits.append(((k + half) & (2 * half - 1)) - half if k & 1 else 0)
        k = (k - digits[-1]) >> 1
    acc = _IDENTITY
    for digit in reversed(digits):
        acc = _jdouble(curve, *acc)
        if digit:
            acc = _add_signed(curve, acc, odd[abs(digit) >> 1], digit)
    return acc


# ---------------------------------------------------------------------------
# Comb residency and cache

def point_identity(P: AffinePoint) -> bytes:
    """Stable identity of a base point: curve name and serialized form."""
    return P.curve.id.encode() + b"|" + P.encode()


class CombTable:
    """The base and geometry of a comb table, whose points are not built."""

    __slots__ = ("base_id", "w", "d", "t")

    def __init__(self, base_id: bytes, w: int, d: int, t: int):
        self.base_id = base_id
        self.w = w
        self.d = d
        self.t = t


def comb_precompute(P: AffinePoint, w: int = DEFAULT_COMB_WIDTH,
                    t: Optional[int] = None) -> CombTable:
    """Record the price of the comb table for base P, entry[j] = sum(s_i
    2^(i*d) P) over the sign pattern j (bit i set -> +1) with the top row
    sign always +1, in one call."""
    validate_point(P)
    if not MIN_COMB_WIDTH <= w <= MAX_COMB_WIDTH:
        raise CurveError("comb width %d out of range" % w)
    curve = P.curve
    if t is None:
        t = comb_digit_count(curve.n_bits, w)
    d = -(-t // w)
    key = ("table", curve.mod.bitlen, curve.n, w, d)
    if key not in _PRICES:
        _PRICES[key] = _precompute_price(curve, w, d)
    counters.record_all(_PRICES[key])
    return CombTable(point_identity(P), w, d, t)


class CombCache:
    """Which bases have a resident comb table, LRU, at most six: a hit skips
    the table's price.  Mutable; callers serialize access (one writer at a
    time)."""

    def __init__(self):
        self._tables: Dict[bytes, CombTable] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def get_or_build(self, P: AffinePoint, w: int = DEFAULT_COMB_WIDTH,
                     t: Optional[int] = None) -> CombTable:
        """Hit: return the stored table (LRU refresh, no point operations).
        Miss: precompute, insert, evict the stalest entry beyond capacity."""
        if t is None:
            t = comb_digit_count(P.curve.n_bits, w)
        key = point_identity(P)
        table = self._tables.get(key)
        if table is not None and table.w == w and table.t == t:
            if table.base_id != key:
                raise CachePoisonedError("cached table base mismatch")
            counters.record("comb_cache_hit")
            self._tables[key] = self._tables.pop(key)  # refresh recency
            return table
        counters.record("comb_cache_miss")
        table = comb_precompute(P, w, t)
        self._tables.pop(key, None)
        self._tables[key] = table
        while len(self._tables) > COMB_CACHE_CAPACITY:
            oldest = next(iter(self._tables))
            del self._tables[oldest]
        return table


# ---------------------------------------------------------------------------
# Scalar multiplication variants

def _check_range(k: int, curve: CurveParams) -> None:
    if not 1 <= k < curve.n:
        raise ScalarRangeError("scalar out of [1, n)")


def ecsm_comb(k: int, P: AffinePoint, cache: Optional[CombCache] = None,
              w: int = DEFAULT_COMB_WIDTH) -> AffinePoint:
    """k*P, priced as the ZSD comb: the table on a cache miss or with no
    cache, then one double and one add per column and a parity-correction
    tail, the same for every scalar but the few near n above.  The price is
    exact for a base of prime order n, which every on-curve point of a
    registered curve is; the identity or a point off the curve raises
    CurveError."""
    curve = P.curve
    _check_range(k, curve)
    counters.record("ecsm_comb")
    validate_point(P)
    t = comb_digit_count(curve.n_bits, w)
    if cache is not None:
        cache.get_or_build(P, w, t)
    else:
        comb_precompute(P, w, t)
    counters.record_all(_walk_price(curve, k, w, t))
    return _point(curve, _fixed_base(curve, k) if (P.x, P.y) == (
        curve.gx, curve.gy) else _wnaf(curve, k, P.x, P.y))


def _double_and_add(k: int, P: AffinePoint, price: tuple) -> tuple:
    """k*P as a Jacobian triple, left to right, under price."""
    curve = P.curve
    acc = _IDENTITY
    if P.at_infinity:
        return acc
    for i in range(k.bit_length() - 1, -1, -1):
        acc = _jdouble(curve, *acc, price)
        if (k >> i) & 1:
            acc = _jadd(curve, *acc, P.x, P.y, price)
    return acc


def scalar_mul_unchecked(k: int, P: AffinePoint) -> AffinePoint:
    """k*P for any k >= 0 at the affine prices."""
    curve = P.curve
    return _point(curve, _double_and_add(
        k, P, (curve.double_cost, None, curve.add_cost)))


def ecsm_jacobian(k: int, P: AffinePoint) -> AffinePoint:
    """Jacobian-coordinate double-and-add with one final Fermat inversion:
    the projective baseline whose inner loop avoids inversions entirely.
    It runs the same formulas as the other engines, but prices them as the
    projective datapath runs them: cost strings of its counted kernels in
    evaluation order."""
    curve = P.curve
    _check_range(k, curve)
    counters.record("ecsm_jacobian")
    mod = curve.mod
    price = (
        # 4 X YY, 3 XX + a Z^4 and 8 YY^2 as chains of additions
        mod.cost("mmaammmaamamasmaaasmsam", "point_double"),
        # U2, S2 and the H = 0 test, then the rest of the mixed addition
        mod.cost("mmmmss", "point_add"),
        mod.cost("mmmmsassmmsm"),
    )
    X, Y, Z = _double_and_add(k, P, price)
    if Z == 0:
        return curve.infinity()
    zinv = inv_fermat_int(Z, mod)
    zz = mul_int(zinv, zinv, mod)
    x = mul_int(X, zz, mod)
    y = mul_int(Y, mul_int(zz, zinv, mod), mod)
    return AffinePoint(curve, x, y)

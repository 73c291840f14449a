"""Scalar multiplication: what the counters price, and how Python computes
it.

Every engine is priced from its scalar, in integers.  Each point it touches
is m*P for an integer m, and a registered curve has cofactor 1 and odd
prime order n, so each exceptional branch of the group law is a test on
m mod n (m = 0 is the identity, m1 = +-m2 is equal x), and the prices are
exact for a base of order n.  `ecsm_comb` is priced as the paper's
fixed-base comb with zero-less signed-digit recoding on the affine law: the
table (`comb_precompute`) on a miss of the six-entry LRU `CombCache`, then a
doubling and an addition per column and a parity tail, from schedules
memoised per curve and geometry.  The columns' schedule is the same for
every k but those that meet an exceptional branch (n-4, n-2 and n-1 among k
within 64 of 0 or n at width 4); the Python's own time varies with k and
the base.  `scalar_mul_unchecked` (any k >= 0; the registry checks n*G = O
with it inside `counters.isolated()`) is priced as double-and-add on the
affine law, and `ecsm_jacobian` (the energy fit's projective baseline) as
that loop on the projective datapath plus one Fermat inversion.  Each walk
is recorded in one call.

Execution records nothing.  It runs in Jacobian coordinates (Z = 0 the
identity), normalised by shared inversions.  The comb sums signed radix-32
digits of k from rows of P's multiples (fixed-base windowing, HMV Guide to
ECC 3.3.2): G's rows are built once per curve on first use and never
changed, another base's when its resident comb table is first hit, and they
go with the table when the cache evicts it.  A base without rows (a cache
miss, no cache, a one-shot point) runs width-5 wNAF.  The other two engines
run plain double-and-add, an independent reference for the comb's results.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from . import counters
from .curve import AffinePoint, CurveError, CurveParams, validate_point

DEFAULT_COMB_WIDTH = 4
COMB_CACHE_CAPACITY = 6
MIN_COMB_WIDTH = 1
MAX_COMB_WIDTH = 8
_RADIX_BITS = 5   # bases with rows: signed digits in [-15, 16]
_WNAF_WIDTH = 5   # bases without: odd digits in [-15, 15]


class ScalarRangeError(CurveError):
    """Scalar outside [1, n)."""


class CachePoisonedError(CurveError):
    """A cached table does not belong to the requested base point."""


# ---------------------------------------------------------------------------
# Jacobian formulas

_IDENTITY = (1, 1, 0)


def _jdouble(curve: CurveParams, X: int, Y: int, Z: int) -> tuple:
    """2(X, Y, Z); the identity and a point with y = 0 double to the
    identity."""
    if Z == 0 or Y == 0:
        return _IDENTITY
    p, a = curve.mod.p, curve.a
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    # 3 X^2 + a Z^4, which is 3 (X - Z^2)(X + Z^2) when a = -3
    M = (3 * (X - ZZ) * (X + ZZ) if a == p - 3 else 3 * X * X + a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _jadd(curve: CurveParams, X: int, Y: int, Z: int, x: int, y: int
          ) -> tuple:
    """(X, Y, Z) + (x, y) for an affine (x, y) other than the identity.
    Equal x (H = 0) goes to the doubling when y is equal too (R = 0) and is
    the identity otherwise."""
    if Z == 0:
        return x, y, 1
    p = curve.mod.p
    ZZ = Z * Z % p
    H = (x * ZZ - X) % p
    R = (y * ZZ * Z - Y) % p
    if H == 0:
        if R == 0:
            return _jdouble(curve, X, Y, Z)
        return _IDENTITY
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
# Prices: m stands for the point m*P, P of order n

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


def _sum_price(curve: CurveParams, m1: int, m2: int, law: tuple = ()) -> list:
    """The price of m1 + m2 under the law (double, add), the affine one by
    default: nothing with an identity operand or sum, the doubling for equal
    operands (y = 0 would need an even n)."""
    n = curve.n
    if m1 % n == 0 or m2 % n == 0 or (m1 + m2) % n == 0:
        return []
    double, add = law or (curve.double_cost, curve.add_cost)
    return [double if (m1 - m2) % n == 0 else add]


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


def _walk_events(curve: CurveParams, terms: Iterable[int], law: tuple = (),
                 head: Optional[tuple] = None, negate: bool = False) -> list:
    """acc = 2 acc + m for each term m in turn from acc = 0, under the law:
    the doubling, then the addition, whose head (what precedes its H = 0
    test; the affine law has none) is priced unless acc or m is the
    identity.  The comb walks its table terms, negating each first."""
    events, acc, n = [], 0, curve.n
    for m in terms:
        if negate:
            events += _neg_price(curve, m)
        events += _sum_price(curve, acc, acc, law)
        acc *= 2
        if head and acc % n and m % n:
            events.append(head)
        events += _sum_price(curve, acc, m, law)
        acc += m
    return events


_WRAP_COLUMNS: Dict[tuple, int] = {}


def _wrap_column(n: int, w: int, t: int) -> int:
    """The highest column j < d-1 at which |2 acc| + |term(j)| can reach n,
    or -1.  Both are at most mask*(2^(d-j) - 1) together, so every column
    above it sums without a wrap, whatever k is."""
    key = (n, w, t)
    if key not in _WRAP_COLUMNS:
        d = t // w
        mask = sum(1 << r * d for r in range(w))
        j = d - 2
        while j >= 0 and mask * ((1 << d - j) - 1) < n:
            j -= 1
        _WRAP_COLUMNS[key] = j
    return _WRAP_COLUMNS[key]


def _walk_regular(n: int, k: int, w: int, t: int) -> bool:
    """Whether no column and no tail of the walk at k meets an exceptional
    branch of the affine law.

    The t zero-less signed digits of k sum to k + c, c = 1 + (k mod 2):
    digit i is +1 exactly when bit i+1 of K = (k + c) | 2^t is set.  So
    column j's term, sum(digit(r*d + j) 2^(r*d)), reads the bits j+1,
    d+j+1, ... of K, and the walk's sum over the columns above the first
    that can wrap reads the bits above it in each row."""
    d, c = t // w, 1 + (k & 1)
    mask = sum(1 << r * d for r in range(w))
    K = (k + c) | 1 << t

    def term(j):
        return 2 * (K >> j + 1 & mask) - mask

    if term(d - 1) % n == 0:
        return False
    top = _wrap_column(n, w, t)
    ones = (1 << d - top - 1) - 1
    acc = 2 * sum((K >> r * d + top + 2 & ones) << r * d
                  for r in range(w)) - ones * mask
    for j in range(top, -1, -1):
        m, dbl = term(j), 2 * acc
        # dbl = 0, m = 0 and dbl = +-m are the exceptions.  acc and m are
        # odd, so each needs a wrap mod n: |dbl| + |m| >= n.  n is prime.
        if abs(dbl) + abs(m) >= n and dbl * m * (dbl * dbl - m * m) % n == 0:
            return False
        acc = dbl + m
    return acc * (acc * acc - c * c) % n != 0


def _walk_price(curve: CurveParams, k: int, w: int, t: int) -> tuple:
    """The columns at k, top column first, then the parity tail, which
    builds 2P and adds -c to the columns' sum k + c: the memoised regular
    schedule unless one of them meets an exceptional branch."""
    n, d = curve.n, t // w
    regular = _walk_regular(n, k, w, t)
    key = ("walk", curve.mod.bitlen, n, w, t)
    if regular and key in _PRICES:
        return _PRICES[key]
    c, mask = 1 + (k & 1), sum(1 << r * d for r in range(w))
    K = (k + c) | 1 << t
    terms = [2 * (K >> j + 1 & mask) - mask for j in range(d - 1, -1, -1)]
    price = _merge(_walk_events(curve, terms, negate=True) +
                   _sum_price(curve, 1, 1) + _neg_price(curve, c) +
                   _sum_price(curve, k + c, -c))
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


def _rows(curve: CurveParams, x: int, y: int) -> list:
    """The affine j * 32^i * (x, y), j = 1..16, row i after row i-1, enough
    rows for any k < 2^bitlen(n); None is the identity.  Each row is made
    affine with the next row's base by one inversion."""
    half = 1 << _RADIX_BITS - 1
    base, rows = (x, y), []
    for _ in range(-(-(curve.n_bits + 1) // _RADIX_BITS)):
        acc, triples = _IDENTITY, []
        for _ in range(half):
            acc = _jadd(curve, *acc, *base) if base else _IDENTITY
            triples.append(acc)
        *row, base = _to_affine(curve, triples + [_jdouble(curve, *acc)])
        rows += row
    return rows


def _generator_rows(curve: CurveParams) -> list:
    """G's rows, built once per curve and never changed (a racing second
    build makes an equal one)."""
    key = (curve.mod.p, curve.a, curve.gx, curve.gy, curve.n)
    if key not in _G_TABLES:
        _G_TABLES[key] = _rows(curve, curve.gx, curve.gy)
    return _G_TABLES[key]


def _fixed_base(curve: CurveParams, rows: list, k: int) -> tuple:
    """k*P for 0 <= k < 2^bitlen(n) from P's rows, one signed radix-32
    digit in [-15, 16] per row."""
    half = 1 << _RADIX_BITS - 1
    acc, row = _IDENTITY, 0
    while k:
        digit = ((k + half - 1) & (2 * half - 1)) - half + 1
        k = (k - digit) >> _RADIX_BITS
        if digit:
            acc = _add_signed(curve, acc, rows[row + abs(digit) - 1], digit)
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
    """The base and geometry of a comb table, whose points are not built,
    and the execution rows of its base (`_rows`): G's shared ones from the
    start, another base's from its first cache hit, None before."""

    __slots__ = ("base_id", "w", "d", "t", "rows")

    def __init__(self, base_id: bytes, w: int, d: int, t: int,
                 rows: Optional[list]):
        self.base_id = base_id
        self.w = w
        self.d = d
        self.t = t
        self.rows = rows


def comb_precompute(P: AffinePoint, w: int = DEFAULT_COMB_WIDTH,
                    t: Optional[int] = None) -> CombTable:
    """Record the price of the comb table for base P, entry[j] = sum(s_i
    2^(i*d) P) over the sign pattern j (bit i set -> +1) with the top row
    sign always +1, in one call.  The table carries G's rows if P is G."""
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
    return CombTable(point_identity(P), w, d, t, _generator_rows(curve) if (
        P.x, P.y) == (curve.gx, curve.gy) else None)


class CombCache:
    """Which bases have a resident comb table, LRU, at most six: a hit skips
    the table's price, and a base's first hit builds its execution rows,
    which go when the table is evicted.  Mutable; callers serialize access
    (one writer at a time)."""

    def __init__(self):
        self._tables: Dict[bytes, CombTable] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def get_or_build(self, P: AffinePoint, w: int = DEFAULT_COMB_WIDTH,
                     t: Optional[int] = None) -> CombTable:
        """Hit: return the stored table (LRU refresh, no priced point
        operation), its rows built if this is its first.  Miss: precompute,
        insert, evict the stalest entry beyond capacity."""
        if t is None:
            t = comb_digit_count(P.curve.n_bits, w)
        key = point_identity(P)
        table = self._tables.get(key)
        if table is not None and table.w == w and table.t == t:
            if table.base_id != key:
                raise CachePoisonedError("cached table base mismatch")
            counters.record("comb_cache_hit")
            self._tables[key] = self._tables.pop(key)  # refresh recency
            if table.rows is None:
                table.rows = _rows(P.curve, P.x, P.y)
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
    tail.  The identity or a point off the curve raises CurveError."""
    curve = P.curve
    _check_range(k, curve)
    validate_point(P)
    counters.record("ecsm_comb")
    t = comb_digit_count(curve.n_bits, w)
    table = cache.get_or_build(P, w, t) if cache is not None else \
        comb_precompute(P, w, t)
    counters.record_all(_walk_price(curve, k, w, t))
    return _point(curve, _fixed_base(curve, table.rows, k) if table.rows
                  else _wnaf(curve, k, P.x, P.y))


def _double_and_add(curve: CurveParams, k: int, x: int, y: int) -> tuple:
    """k*(x, y) as a Jacobian triple, left to right."""
    acc = _IDENTITY
    for i in range(k.bit_length() - 1, -1, -1):
        acc = _jdouble(curve, *acc)
        if (k >> i) & 1:
            acc = _jadd(curve, *acc, x, y)
    return acc


def scalar_mul_unchecked(k: int, P: AffinePoint) -> AffinePoint:
    """k*P for any k >= 0, priced as double-and-add on the affine law."""
    curve = P.curve
    if P.at_infinity:
        return P
    counters.record_all(_merge(_walk_events(curve, map(int, bin(k)[2:]))))
    return _point(curve, _double_and_add(curve, k, P.x, P.y))


def ecsm_jacobian(k: int, P: AffinePoint) -> AffinePoint:
    """k*P, priced as the projective baseline: Jacobian double-and-add,
    whose inner loop avoids inversions, and one final Fermat inversion, as
    cost strings of their counted kernels in evaluation order."""
    curve = P.curve
    _check_range(k, curve)
    counters.record("ecsm_jacobian")
    if P.at_infinity:
        return P
    mod = curve.mod
    # the doubling, with 4 X YY, 3 XX + a Z^4 and 8 YY^2 as chains of
    # additions, and the mixed addition after U2, S2 and the H = 0 test
    events = _walk_events(curve, map(int, bin(k)[2:]), (
        mod.cost("mmaammmaamamasmaaasmsam", "point_double"),
        mod.cost("mmmmsassmmsm")), mod.cost("mmmmss", "point_add"))
    if k % curve.n:
        # x^(p-2) by square-and-multiply, then 4 products back to affine
        e = mod.p - 2
        events.append(mod.cost(
            "m" * (e.bit_length() + 2 + bin(e).count("1")), "mod_inv_fermat"))
    counters.record_all(_merge(events))
    return _point(curve, _double_and_add(curve, k, P.x, P.y))

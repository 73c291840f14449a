"""Scalar multiplication: what the counters price, and how Python computes
it.

Every engine is priced from its scalar, in integers.  Each point it touches
is m*P for an integer m, and a registered curve has cofactor 1 and odd
prime order n, so each exceptional branch of the group law is a test on
m mod n (m = 0 is the identity, m1 = +-m2 is equal x), and the prices are
exact for a base of order n.  `ecsm_comb` is priced as the paper's
fixed-base comb with zero-less signed-digit recoding on the affine law, at
the one width `COMB_WIDTH` = 4 that the energy model is calibrated on: the
table (`comb_precompute`) on a miss of the six-entry LRU `CombCache`, then a
doubling and an addition per column and a parity tail, from schedules
memoised per curve.  The columns' schedule is the same for every k but
those that meet an exceptional branch (n-4, n-2 and n-1 among k within 64
of 0 or n); the Python's own time varies with k and the base.  The price
helpers take the comb's geometry, so the tests can check them at other
widths.  `scalar_mul_unchecked` (any k >= 0; the registry checks n*G = O
with it inside `counters.isolated()`) is priced as double-and-add on the
affine law, and `ecsm_jacobian` (the energy fit's projective baseline) as
that loop on the projective datapath plus one Fermat inversion.  Each walk
is computed only while a counter scope is open, and recorded in one call.

Execution records nothing.  It runs in Jacobian coordinates (Z = 0 the
identity), normalised by shared inversions, and the fast paths share one
kernel, `_execute`: a schedule of steps, each a doubling of the accumulator
and then mixed additions of affine points.  A base with rows (the comb's
tables of its multiples) runs a Lim-Lee comb (Lim and Lee, CRYPTO 1994; HMV
Guide to ECC 3.3.2) of 8 teeth of d bits, d the fewest that cover n rounded
up to a multiple of 4, in 4 blocks of e = d/4: e steps of at most 4
additions from 4 tables of 255 tooth sums (on secp256r1, 7 doublings and at
most 32 additions from 1,020 points).  A process-wide store holds the rows
of the bases the process is configured with: each curve's G, built on first
use and never evicted, and each trust anchor pinned by `pin_trust_anchor`,
built when pinned, at most `COMB_CACHE_CAPACITY` of them, the least
recently used evicted first.  A `CombCache` maps each resident base to its
rows: the process-wide ones, or for any other base rows built on its first
hit, which go when the cache evicts the base.  A base without rows (a cache
miss, no cache, a one-shot point) runs width-5 wNAF, one step per digit.
The other two engines run plain double-and-add on `_jdouble` and `_jadd`,
which the kernel inlines (the a = -3 doubling and the addition; only an
addition at equal x, and a doubling on another a, go to them), so the
double-and-add results are an independent reference for the kernel's
formulas.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

from . import counters
from .curve import AffinePoint, CurveError, CurveParams, validate_point

COMB_WIDTH = 4   # the comb the energy model is calibrated on
COMB_CACHE_CAPACITY = 6
_TEETH, _BLOCKS = 8, 4   # bases with rows: the comb's geometry
_WNAF_WIDTH = 5   # bases without: odd digits in [-15, 15]


class ScalarRangeError(CurveError):
    """Scalar outside [1, n)."""


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

def _execute(curve: CurveParams, steps: Iterable) -> tuple:
    """The Jacobian result of a schedule: from the identity, for each step,
    double the accumulator, then add each affine point of the step.  The
    a = -3 doubling (any other a goes to `_jdouble`) and the mixed addition
    are inline; an addition at equal x (H = 0) goes to `_jadd`."""
    p = curve.mod.p
    a_is_minus_3 = curve.a == p - 3
    X, Y, Z = _IDENTITY
    for step in steps:
        if Z and a_is_minus_3:
            YY = Y * Y % p
            ZZ = Z * Z % p
            S = 4 * X * YY % p
            M = 3 * (X - ZZ) * (X + ZZ) % p
            X = (M * M - 2 * S) % p
            Z = 2 * Y * Z % p
            Y = (M * (S - X) - 8 * YY * YY) % p
        elif Z:
            X, Y, Z = _jdouble(curve, X, Y, Z)
        for x, y in step:
            if Z == 0:
                X, Y, Z = x, y, 1
                continue
            ZZ = Z * Z % p
            H = (x * ZZ - X) % p
            R = (y * ZZ * Z - Y) % p
            if H == 0:
                X, Y, Z = _jadd(curve, X, Y, Z, x, y)
                continue
            HH = H * H % p
            HHH = HH * H % p
            V = X * HH % p
            X = (R * R - HHH - 2 * V) % p
            Y = (R * (V - X) - Y * HHH) % p
            Z = Z * H % p
    return X, Y, Z


def _comb_geometry(curve: CurveParams) -> tuple:
    """(d, e): each of the comb's `_TEETH` teeth spans d bits, d the
    fewest that cover n, rounded up to whole blocks of e bits."""
    d = -(-curve.n_bits // _TEETH)
    d += -d % _BLOCKS
    return d, d // _BLOCKS


def _plus(curve: CurveParams, points: list, Q: tuple) -> list:
    """The affine P + Q for each affine P of points, None the identity,
    for an affine Q other than the identity, by one shared inversion."""
    p = curve.mod.p
    qx, qy = Q
    prefix, acc = [], 1
    for P in points:
        if P is not None and P[0] != qx:
            acc = acc * (P[0] - qx) % p
        prefix.append(acc)
    inv = pow(acc, -1, p)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        P = points[i]
        if P is None:
            out[i] = Q
        elif P[0] == qx:
            # P = Q doubles; P = -Q sums to the identity
            out[i] = _to_affine(curve, [_jdouble(curve, qx, qy, 1)])[0] \
                if P[1] == qy else None
        else:
            x, y = P
            slope = (y - qy) * (inv * prefix[i - 1] % p if i else inv) % p
            inv = inv * (x - qx) % p
            x3 = (slope * slope - x - qx) % p
            out[i] = (x3, (slope * (qx - x3) - qy) % p)
    return out


def _rows(curve: CurveParams, x: int, y: int) -> list:
    """The comb's tables of (x, y) = P (Lim-Lee, HMV Guide to ECC 3.3.2):
    table b holds sum(bit_i(j) 2^(i*d + b*e) P) at j - 1 for j = 1..255,
    None the identity.  Each table is summed one tooth at a time, the
    entries of a tooth made affine by one shared inversion."""
    d, e = _comb_geometry(curve)
    acc = (x, y, 1)
    triples = [acc]
    for _ in range(_TEETH * _BLOCKS - 1):
        for _ in range(e):
            acc = _jdouble(curve, *acc)
        triples.append(acc)
    bases = _to_affine(curve, triples)   # 2^(m*e) P, m = 4i + b, or None
    tables = []
    for b in range(_BLOCKS):
        table = [None]
        for base in bases[b::_BLOCKS]:
            table += _plus(curve, table, base) if base else table
        tables.append(table[1:])
    return tables


_BIT = bytes.maketrans(b"01", b"\0\1")


def _fixed_base(curve: CurveParams, rows: list, k: int) -> tuple:
    """k*P for 0 <= k < 2^(8d) from P's comb tables: e steps, each of a
    doubling and an addition per block whose column is not 0.  Tooth i
    reads bits i*d .. i*d + d - 1 of k, and the column at bit c of block b
    gathers bit b*e + c of every tooth."""
    d, e = _comb_geometry(curve)
    # byte q of bits holds bit q of k; byte q of columns the bits q of the
    # teeth, tooth i at bit i
    bits = int.from_bytes(
        format(k, "0%db" % (_TEETH * d)).encode().translate(_BIT), "big")
    mask = (1 << 8 * d) - 1
    columns = sum((bits >> 8 * i * d & mask) << i for i in range(_TEETH)
                  ).to_bytes(d, "little")
    steps = []
    for c in range(e - 1, -1, -1):
        step = []
        for b in range(_BLOCKS):
            j = columns[b * e + c]
            if j and rows[b][j - 1]:
                step.append(rows[b][j - 1])
        steps.append(step)
    return _execute(curve, steps)


def _wnaf(curve: CurveParams, k: int, x: int, y: int) -> tuple:
    """k*(x, y) by width-5 NAF, one step per digit, over the odd multiples
    +-1, +-3, ..., +-15 of the base, made affine by one shared inversion."""
    p = curve.mod.p
    two = _to_affine(curve, [_jdouble(curve, x, y, 1)])[0]
    odd = [(x, y, 1)]
    for _ in range((1 << _WNAF_WIDTH - 2) - 1):
        odd.append(_jadd(curve, *odd[-1], *two) if two else odd[-1])
    # digit j's point at index j, and so -j's at index -j
    signed = [()] * (1 << _WNAF_WIDTH)
    for j, xy in zip(range(1, 1 << _WNAF_WIDTH - 1, 2),
                     _to_affine(curve, odd)):
        if xy:
            signed[j], signed[-j] = (xy,), ((xy[0], -xy[1] % p),)
    half, steps = 1 << _WNAF_WIDTH - 1, []
    while k:
        digit = ((k + half) & (2 * half - 1)) - half if k & 1 else 0
        k = (k - digit) >> 1
        steps.append(signed[digit])
    steps.reverse()
    return _execute(curve, steps)


# ---------------------------------------------------------------------------
# Fixed-base rows, comb residency and cache

def point_identity(P: AffinePoint) -> bytes:
    """Stable identity of a base point: curve name and serialized form."""
    return P.curve.id.encode() + b"|" + P.encode()


_FIXED_LOCK = threading.Lock()
_GENERATOR_ROWS: Dict[bytes, list] = {}   # never evicted
_ANCHOR_ROWS: Dict[bytes, list] = {}      # least recently used first


def _fixed_rows(P: AffinePoint, key: bytes, pin: bool = False
                ) -> Optional[list]:
    """The process-wide rows of P, whose `point_identity` is key, refreshing
    an anchor's recency: G's built on first use, an anchor's when pinned,
    None for any other base.  Rows are built outside the lock, so a racing
    build makes equal rows, and the first stored is kept."""
    with _FIXED_LOCK:
        rows = _GENERATOR_ROWS.get(key)
        if rows is None and key in _ANCHOR_ROWS:
            rows = _ANCHOR_ROWS[key] = _ANCHOR_ROWS.pop(key)
    curve = P.curve
    generator = (P.x, P.y) == (curve.gx, curve.gy)
    if rows is None and (pin or generator):
        rows = _rows(curve, P.x, P.y)
        with _FIXED_LOCK:
            if generator:
                return _GENERATOR_ROWS.setdefault(key, rows)
            rows = _ANCHOR_ROWS[key] = _ANCHOR_ROWS.pop(key, rows)
            while len(_ANCHOR_ROWS) > COMB_CACHE_CAPACITY:
                del _ANCHOR_ROWS[next(iter(_ANCHOR_ROWS))]
    return rows


def pin_trust_anchor(Q: AffinePoint) -> None:
    """Keep rows of a configured trust anchor's key for the process, so
    every multiplication on it runs fixed-base, with or without a comb
    cache.  Execution only: nothing is recorded.  Only keys the process is
    configured with belong here, never a peer's."""
    validate_point(Q)
    _fixed_rows(Q, point_identity(Q), pin=True)


def comb_precompute(P: AffinePoint) -> Optional[list]:
    """Record the price of the comb table for base P, entry[j] = sum(s_i
    2^(i*d) P) over the sign pattern j (bit i set -> +1) with the top row
    sign always +1, in one call.  Return P's process-wide rows if P is G or
    a pinned anchor, else None."""
    validate_point(P)
    curve = P.curve
    key = ("table", curve.mod.bitlen, curve.n)
    if key not in _PRICES:
        _PRICES[key] = _precompute_price(curve, COMB_WIDTH, comb_digit_count(
            curve.n_bits, COMB_WIDTH) // COMB_WIDTH)
    counters.record_all(_PRICES[key])
    return _fixed_rows(P, point_identity(P))


class CombCache:
    """The bases with a resident comb table (of width `COMB_WIDTH`), LRU,
    at most six, each mapped to its execution rows: a hit skips the table's
    price, and a base's first hit builds its rows unless it holds G's or a
    pinned anchor's already.  The rows go when the base is evicted.  On
    secp256r1 the build takes about 5.4 ms and each later hit saves about
    1.3 ms against wNAF, so a base pays back its build after about 4 hits
    (medians scaled to the benchmark's nominal pace, a 2.1 GHz Xeon vCPU).
    Mutable; callers serialize access (one writer at a time)."""

    def __init__(self):
        self._bases: Dict[bytes, Optional[list]] = {}

    def __len__(self) -> int:
        return len(self._bases)

    def get_or_build(self, P: AffinePoint) -> Optional[list]:
        """Hit: return P's rows (LRU refresh, no priced point operation),
        built if this is its first.  Miss: precompute, insert, evict the
        stalest base beyond capacity, and return what the precompute
        returned."""
        key = point_identity(P)
        if key in self._bases:
            counters.record("comb_cache_hit")
            rows = self._bases.pop(key)
            if rows is None:
                rows = _rows(P.curve, P.x, P.y)
            self._bases[key] = rows  # most recently used last
            return rows
        counters.record("comb_cache_miss")
        rows = self._bases[key] = comb_precompute(P)
        while len(self._bases) > COMB_CACHE_CAPACITY:
            del self._bases[next(iter(self._bases))]
        return rows


# ---------------------------------------------------------------------------
# Scalar multiplication variants

def _check_range(k: int, curve: CurveParams) -> None:
    if not 1 <= k < curve.n:
        raise ScalarRangeError("scalar out of [1, n)")


def ecsm_comb(k: int, P: AffinePoint, cache: Optional[CombCache] = None
              ) -> AffinePoint:
    """k*P, priced as the ZSD comb: the table on a cache miss or with no
    cache, then one double and one add per column and a parity-correction
    tail.  The identity or a point off the curve raises CurveError."""
    curve = P.curve
    _check_range(k, curve)
    validate_point(P)
    counters.record("ecsm_comb")
    rows = cache.get_or_build(P) if cache is not None else comb_precompute(P)
    counters.record_all(_walk_price(curve, k, COMB_WIDTH, comb_digit_count(
        curve.n_bits, COMB_WIDTH)))
    return _point(curve, _fixed_base(curve, rows, k) if rows
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
    if counters.active():
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
    if counters.active():
        mod = curve.mod
        # the doubling, with 4 X YY, 3 XX + a Z^4 and 8 YY^2 as chains of
        # additions, and the mixed addition after U2, S2 and the H = 0 test
        events = _walk_events(curve, map(int, bin(k)[2:]), (
            mod.cost("mmaammmaamamasmaaasmsam", "point_double"),
            mod.cost("mmmmsassmmsm")), mod.cost("mmmmss", "point_add"))
        if k % curve.n:
            # x^(p-2) by square-and-multiply, then 4 products back to affine
            e = mod.p - 2
            events.append(mod.cost("m" * (
                e.bit_length() + 2 + bin(e).count("1")), "mod_inv_fermat"))
        counters.record_all(_merge(events))
    return _point(curve, _double_and_add(curve, k, P.x, P.y))

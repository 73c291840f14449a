"""Scalar multiplication engines.

Three engines, one for each reader:

- `ecsm_comb` is the production path: a fixed-base comb with zero-less
  signed-digit (ZSD) recoding, so every scalar of a given curve drives the
  identical sequence of point operations, with its precomputed tables held
  in a six-entry LRU cache (`CombCache`).
- `scalar_mul_unchecked` is plain double-and-add for any k >= 0.  The curve
  registry checks n*G = O with it, a scalar the comb refuses.
- `ecsm_jacobian` is the projective baseline of the energy model's fit,
  which prices it at `energy.CAL_AFFINE_VS_JACOBIAN` times the comb.

Every engine executes in Jacobian coordinates (x = X/Z^2, y = Y/Z^3, Z = 0
the identity).  What a step records is a price, not a trace of the Python:
the comb and `scalar_mul_unchecked` record the affine datapath's price per
doubling and addition, exactly where the affine group law records it, and
turn their triples affine with one shared, unpriced inversion (Montgomery's
trick); `ecsm_jacobian` records the projective datapath's price and
normalises with its own counted Fermat inversion.  The last two run one
shared double-and-add loop.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import counters
from .curve import AffinePoint, CurveError, CurveParams, point_double
from .field import inv_fermat_int, mul_int

DEFAULT_COMB_WIDTH = 4
COMB_CACHE_CAPACITY = 6
MIN_COMB_WIDTH = 1
MAX_COMB_WIDTH = 8


class ScalarRangeError(CurveError):
    """Scalar outside [1, n)."""


class CachePoisonedError(CurveError):
    """A cached table does not belong to the requested base point."""


# ---------------------------------------------------------------------------
# Jacobian formulas under a price
#
# A price is (double, add head, add tail), each a `PrimeModulus.cost`.  The
# affine one is (curve.double_cost, None, curve.add_cost): recorded where
# `point_double` and `point_add` record theirs, so an exceptional case that
# the affine law prices at nothing records nothing here either.

_IDENTITY = (1, 1, 0)


def _affine_price(curve: CurveParams) -> tuple:
    return curve.double_cost, None, curve.add_cost


def _jdouble(curve: CurveParams, X: int, Y: int, Z: int,
             price: tuple) -> tuple:
    """2(X, Y, Z); the identity and a point with y = 0 double to the identity
    unpriced."""
    if Z == 0 or Y == 0:
        return _IDENTITY
    counters.record_all(price[0])
    p = curve.mod.p
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + curve.a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _jadd(curve: CurveParams, X: int, Y: int, Z: int, Q: AffinePoint,
          price: tuple) -> tuple:
    """(X, Y, Z) + Q for an affine Q.  An identity operand is unpriced; equal
    x (H = 0) goes to the doubling when y is equal too (R = 0) and is the
    identity, unpriced, otherwise."""
    if Q.at_infinity:
        return X, Y, Z
    if Z == 0:
        return Q.x, Q.y, 1
    if price[1] is not None:
        counters.record_all(price[1])
    p = curve.mod.p
    ZZ = Z * Z % p
    H = (Q.x * ZZ - X) % p
    R = (Q.y * ZZ * Z - Y) % p
    if H == 0:
        if R == 0:
            return _jdouble(curve, X, Y, Z, price)
        return _IDENTITY
    counters.record_all(price[2])
    HH = H * H % p
    HHH = HH * H % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z * H % p


def _to_affine(curve: CurveParams, triples: list) -> list:
    """The AffinePoints of Jacobian triples, by one inversion of the product
    of their Z (a Z = 0 triple is the identity).  Unpriced: the affine
    prices already include an inversion per operation."""
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
            out[i] = curve.infinity()
            continue
        zinv = inv * prefix[i - 1] % p if i else inv
        inv = inv * Z % p
        zz = zinv * zinv % p
        out[i] = AffinePoint(curve, X * zz % p, Y * zz * zinv % p)
    return out


# ---------------------------------------------------------------------------
# Zero-less signed-digit recoding

class ZsdScalar:
    """Digits in {-1,+1}, least significant first, summing to k + c."""

    __slots__ = ("digits", "c")

    def __init__(self, digits: Tuple[int, ...], c: int):
        self.digits = digits
        self.c = c


def zsd_recode(k: int, t: int) -> ZsdScalar:
    """Recode k into t nonzero signed digits.

    c = 1 + (k mod 2) makes k' = k + c odd; digit i is 2*bit_{i+1}(k') - 1
    for i < t-1 with a +1 top digit, so sum(d_i 2^i) = k' for any t wide
    enough to hold k'.
    """
    if k < 1:
        raise ScalarRangeError("scalar must be positive")
    c = 1 + (k & 1)
    kp = k + c
    if t < kp.bit_length():
        raise ScalarRangeError("digit count %d too small for scalar" % t)
    digits = tuple(1 if (kp >> (i + 1)) & 1 else -1 for i in range(t - 1)) + (1,)
    return ZsdScalar(digits, c)


def comb_digit_count(order_bits: int, w: int) -> int:
    """Digit count padded to a whole number of comb rows."""
    d = -(-(order_bits + 1) // w)
    return w * d


# ---------------------------------------------------------------------------
# Comb precomputation and cache

def point_identity(P: AffinePoint) -> bytes:
    """Stable identity of a base point: curve name and serialized form."""
    return P.curve.id.encode() + b"|" + P.encode()


class CombTable:
    """All sign-combinations of the w row points, top sign fixed positive."""

    __slots__ = ("base_id", "w", "d", "t", "entries")

    def __init__(self, base_id: bytes, w: int, d: int, t: int,
                 entries: Tuple[AffinePoint, ...]):
        self.base_id = base_id
        self.w = w
        self.d = d
        self.t = t
        self.entries = entries


def comb_precompute(P: AffinePoint, w: int = DEFAULT_COMB_WIDTH,
                    t: Optional[int] = None) -> CombTable:
    """Build the comb table for base P: entry[j] = sum(s_i 2^(i*d) P) over the
    sign pattern j (bit i set -> +1), with the top row sign always +1."""
    if P.at_infinity:
        raise CurveError("cannot build a comb table for the identity")
    if not MIN_COMB_WIDTH <= w <= MAX_COMB_WIDTH:
        raise CurveError("comb width %d out of range" % w)
    if t is None:
        t = comb_digit_count(P.curve.n_bits, w)
    d = -(-t // w)
    counters.record("comb_precompute")
    curve = P.curve
    price = _affine_price(curve)
    # row bases: 2^(r*d) * P
    rows = [(P.x, P.y, 1)]
    for _ in range(w - 1):
        Q = rows[-1]
        for _ in range(d):
            Q = _jdouble(curve, *Q, price)
        rows.append(Q)
    rows = _to_affine(curve, rows)
    top = rows[w - 1]
    entries = []
    for idx in range(1 << (w - 1)):
        acc = _jadd(curve, *_IDENTITY, top, price)
        for r in range(w - 2, -1, -1):
            term = rows[r] if (idx >> r) & 1 else rows[r].negate()
            acc = _jadd(curve, *acc, term, price)
        entries.append(acc)
    return CombTable(point_identity(P), w, d, t,
                     tuple(_to_affine(curve, entries)))


class CombCache:
    """LRU cache of comb tables, at most six resident bases.

    Mutable; callers serialize access (one writer at a time).
    """

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
            # refresh recency
            del self._tables[key]
            self._tables[key] = table
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
    """k*P by the ZSD comb.  One double and one add per column, plus a fixed
    parity-correction tail, for every scalar of the curve."""
    curve = P.curve
    _check_range(k, curve)
    counters.record("ecsm_comb")
    t = comb_digit_count(curve.n_bits, w)
    if cache is not None:
        table = cache.get_or_build(P, w, t)
    else:
        table = comb_precompute(P, w, t)
    d = table.d
    zsd = zsd_recode(k, t)
    digits = zsd.digits
    entries = table.entries
    price = _affine_price(curve)
    acc = _IDENTITY  # doubling it and adding to it are unpriced
    for j in range(d - 1, -1, -1):
        top = digits[(w - 1) * d + j]
        idx = 0
        for r in range(w - 1):
            if digits[r * d + j] == top:
                idx |= 1 << r
        entry = entries[idx]
        neg = entry.negate()  # always executed: keeps the trace sign-blind
        term = entry if top == 1 else neg
        acc = _jadd(curve, *_jdouble(curve, *acc, price), term, price)
    # parity correction: always one doubling and one addition
    dbl = point_double(P)
    corr = P if zsd.c == 1 else dbl
    return _to_affine(curve, [_jadd(curve, *acc, corr.negate(), price)])[0]


def _double_and_add(k: int, P: AffinePoint, price: tuple) -> tuple:
    """k*P as a Jacobian triple, left to right, under price."""
    curve = P.curve
    acc = _IDENTITY
    for i in range(k.bit_length() - 1, -1, -1):
        acc = _jdouble(curve, *acc, price)
        if (k >> i) & 1:
            acc = _jadd(curve, *acc, P, price)
    return acc


def scalar_mul_unchecked(k: int, P: AffinePoint) -> AffinePoint:
    """k*P for any k >= 0 at the affine prices, normalised by `_to_affine`."""
    triple = _double_and_add(k, P, _affine_price(P.curve))
    return _to_affine(P.curve, [triple])[0]


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

"""Scalar multiplication engines.

The production path is a fixed-base comb with zero-less signed-digit (ZSD)
recoding: every scalar of a given curve drives the identical sequence of
point operations, and precomputed tables are held in a six-entry LRU cache.
Double-and-add and Jacobian-plus-Fermat multipliers are kept as correctness
oracles and cost baselines.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import counters
from .curve import AffinePoint, CurveError, CurveParams, point_add, \
    point_double
from .field import add_int, inv_fermat_int, mul_int, sub_int

DEFAULT_COMB_WIDTH = 4
COMB_CACHE_CAPACITY = 6
MIN_COMB_WIDTH = 1
MAX_COMB_WIDTH = 8


class ScalarRangeError(CurveError):
    """Scalar outside [1, n)."""


class CachePoisonedError(CurveError):
    """A cached table does not belong to the requested base point."""


# ---------------------------------------------------------------------------
# Zero-less signed-digit recoding

class ZsdScalar:
    """Digits in {-1,+1}, least significant first, summing to k + c."""

    __slots__ = ("digits", "t", "c")

    def __init__(self, digits: Tuple[int, ...], t: int, c: int):
        self.digits = digits
        self.t = t
        self.c = c

    def reconstruct(self) -> int:
        """The scalar this recoding encodes: sum(d_i 2^i) - c."""
        total = 0
        for i, d in enumerate(self.digits):
            total += d << i
        return total - self.c


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
    return ZsdScalar(digits, t, c)


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

    @property
    def size_bytes(self) -> int:
        """Modeled storage: 2^(w-1) points of two field elements each."""
        width = self.entries[0].curve.mod.byte_len
        return len(self.entries) * 2 * width


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
    # row bases: 2^(r*d) * P
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
            term = rows[r] if (idx >> r) & 1 else rows[r].negate()
            acc = point_add(acc, term)
        entries.append(acc)
    return CombTable(point_identity(P), w, d, t, tuple(entries))


class CombCache:
    """LRU cache of comb tables, at most six resident bases.

    Mutable; callers serialize access (one writer at a time).
    """

    def __init__(self):
        self._tables: Dict[bytes, CombTable] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, P: AffinePoint) -> bool:
        return point_identity(P) in self._tables

    @property
    def total_bytes(self) -> int:
        return sum(t.size_bytes for t in self._tables.values())

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
        if table.base_id != key:
            raise CachePoisonedError("freshly built table base mismatch")
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
    acc = None
    for j in range(d - 1, -1, -1):
        top = digits[(w - 1) * d + j]
        idx = 0
        for r in range(w - 1):
            if digits[r * d + j] == top:
                idx |= 1 << r
        entry = entries[idx]
        neg = entry.negate()  # always executed: keeps the trace sign-blind
        term = entry if top == 1 else neg
        if acc is None:
            acc = term
        else:
            acc = point_add(point_double(acc), term)
    # parity correction: always one doubling and one addition
    dbl = point_double(P)
    corr = P if zsd.c == 1 else dbl
    return point_add(acc, corr.negate())


def ecsm_double_and_add(k: int, P: AffinePoint) -> AffinePoint:
    """Left-to-right binary multiplication: the correctness/cost baseline."""
    _check_range(k, P.curve)
    counters.record("ecsm_double_and_add")
    return scalar_mul_unchecked(k, P)


def scalar_mul_unchecked(k: int, P: AffinePoint) -> AffinePoint:
    acc = P.curve.infinity()
    for i in range(k.bit_length() - 1, -1, -1):
        acc = point_double(acc)
        if (k >> i) & 1:
            acc = point_add(acc, P)
    return acc


def ecsm_jacobian(k: int, P: AffinePoint) -> AffinePoint:
    """Jacobian-coordinate double-and-add with one final Fermat inversion;
    the projective baseline whose inner loop avoids inversions entirely."""
    curve = P.curve
    _check_range(k, curve)
    counters.record("ecsm_jacobian")
    if P.at_infinity:
        return P
    mod = curve.mod
    a = curve.a

    def jdouble(X1, Y1, Z1):
        if Z1 == 0 or Y1 == 0:
            return (1, 1, 0)
        counters.record("point_double")
        YY = mul_int(Y1, Y1, mod)
        S = mul_int(X1, YY, mod)
        S = add_int(S, S, mod)
        S = add_int(S, S, mod)                     # 4 X YY
        XX = mul_int(X1, X1, mod)
        ZZ = mul_int(Z1, Z1, mod)
        ZZ2 = mul_int(ZZ, ZZ, mod)
        M = add_int(add_int(XX, XX, mod), XX, mod)
        M = add_int(M, mul_int(a, ZZ2, mod), mod)  # 3 XX + a Z^4
        X3 = sub_int(mul_int(M, M, mod), add_int(S, S, mod), mod)
        YY2 = mul_int(YY, YY, mod)
        Y8 = add_int(YY2, YY2, mod)
        Y8 = add_int(Y8, Y8, mod)
        Y8 = add_int(Y8, Y8, mod)                  # 8 YY^2
        Y3 = sub_int(mul_int(M, sub_int(S, X3, mod), mod), Y8, mod)
        Z3 = mul_int(add_int(Y1, Y1, mod), Z1, mod)
        return (X3, Y3, Z3)

    def jadd_mixed(X1, Y1, Z1, x2, y2):
        if Z1 == 0:
            return (x2, y2, 1)
        counters.record("point_add")
        ZZ = mul_int(Z1, Z1, mod)
        U2 = mul_int(x2, ZZ, mod)
        ZZZ = mul_int(ZZ, Z1, mod)
        S2 = mul_int(y2, ZZZ, mod)
        H = sub_int(U2, X1, mod)
        R = sub_int(S2, Y1, mod)
        if H == 0:
            if R == 0:
                return jdouble(X1, Y1, Z1)
            return (1, 1, 0)
        HH = mul_int(H, H, mod)
        HHH = mul_int(HH, H, mod)
        V = mul_int(X1, HH, mod)
        X3 = sub_int(sub_int(mul_int(R, R, mod), HHH, mod),
                     add_int(V, V, mod), mod)
        Y3 = sub_int(mul_int(R, sub_int(V, X3, mod), mod),
                     mul_int(Y1, HHH, mod), mod)
        Z3 = mul_int(Z1, H, mod)
        return (X3, Y3, Z3)

    X, Y, Z = 1, 1, 0
    for i in range(k.bit_length() - 1, -1, -1):
        X, Y, Z = jdouble(X, Y, Z)
        if (k >> i) & 1:
            X, Y, Z = jadd_mixed(X, Y, Z, P.x, P.y)
    if Z == 0:
        return curve.infinity()
    zinv = inv_fermat_int(Z, mod)
    zz = mul_int(zinv, zinv, mod)
    x = mul_int(X, zz, mod)
    y = mul_int(Y, mul_int(zz, zinv, mod), mod)
    return AffinePoint(curve, x, y)


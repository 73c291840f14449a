"""Scalar multiplication: what the counters price, and how Python computes
it.

Every engine is priced from its scalar, in integers.  Each point it touches
is m*P for an integer m, and a registered curve has cofactor 1 and odd
prime order n, so each exceptional branch of the group law is a test on
m mod n (m = 0 is the identity, m1 = +-m2 is equal x), and the prices are
exact for a base of order n.  `ecsm_comb` is priced as the walk of the
paper's fixed-base comb with zero-less signed-digit recoding on the affine
law, at the one width `COMB_WIDTH` = 4 that the energy model is calibrated
on: a doubling and an addition per column, a parity tail and a negation,
from schedules memoised per curve.  Its table is priced apart
(`comb_precompute`), where a base becomes resident.  `_comb`, behind every
comb multiplication, records that price and then executes, so each comb
price takes one path.
The walk is priced at k' = min(k, n - k), and the negation of its result
whichever k' is chosen, so wherever 6 mask + 5 < n (`_walk_price`) no
column and no tail meets an exceptional branch and the schedule is the same
for every k in [1, n): on every registered curve but toy59, whose small n
keeps an exact price per k.  The Python's own time varies with k and the
base.
The price helpers take the comb's geometry, so the tests can check them at
other widths.  `comb_sum_x_matches`, ECDSA's verification equation, is
priced as its two multiplications, each by its base's class, and the
affine addition of their results, on the branch that their Jacobian sum
takes.

A multiplication is priced by the class of its base, never by what a
`CombCache` holds:
- A resident base has a comb table provisioned off-session (fixed-base
  precomputation is offline work: Lim and Lee, CRYPTO 1994; HMV 3.3.2), so
  `ecsm_comb` records `ecsm_comb`, `comb_cache_hit` and the walk, and no
  table.  G is resident (`ecdsa`'s key generation Q = d*G, signing R = k*G
  and the u1*G of every verification), and so is the trust anchor's key in
  a certificate check (`comb_sum_x_matches` with `resident`).
- A peer's leaf key that a cached-mode client keeps is resident from the
  insert that pays its table once, `comb_precompute`: `comb_cache_miss`
  and the table.
- Any other base is one-shot, priced as `ecsm_window`, whose table lives
  for the one call: ECDHE's peer ephemeral point in
  `keyagree.ecdhe_shared`, and the u2*Q of a verification under a leaf key
  that no cache keeps.  It is a regular signed window (Joye and Tunstall,
  AFRICACRYPT 2009), the 8 odd multiples P .. 15P on the affine law, then
  4-bit windows, each with one odd nonzero digit, on the projective law,
  and one Euclid inversion (`window_price`).  As the comb's walk does, its
  price runs one schedule for every k in [1, n) on every registered curve
  but toy59.

The energy fit reads two prices and runs no multiplication:
`comb_walk_price`, the comb's walk (a resident base's price less its
`ecsm_comb` and `comb_cache_hit` counts), and `jacobian_price`, the
projective baseline: double-and-add on the projective datapath plus one
Fermat inversion.  The tests' engines in
tests/reference_engines.py record `jacobian_price`, and the same walk on
the affine law for any k >= 0.

Execution records nothing.  It runs in Jacobian coordinates (Z = 0 the
identity), normalised by shared inversions (the verification equation
compares x projectively and inverts nothing), and the fast paths share one
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
recently used evicted first.  A `CombCache`, which prices nothing, maps each
base it has seen to its rows: the process-wide ones, or for any other base
rows built on its second use, which go when the cache evicts the base.  A
base without rows (a first use, no cache, ECDHE's peer point) runs width-5
wNAF, one step per digit, and so does the registry's check of n*G = O,
`order_annihilates_generator`, which prices nothing.  The kernel inlines
the a = -3 doubling and the addition; only an addition at equal x, and a
doubling on another a, go to `_jdouble` and `_jadd`.  The tests'
double-and-add engines
(tests/reference_engines.py) run on those two alone, so their results are
an independent reference for the kernel's formulas.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

from . import counters
from .curve import AffinePoint, CurveError, CurveParams

COMB_WIDTH = 4   # the comb the energy model is calibrated on
COMB_CACHE_CAPACITY = 6
_TEETH, _BLOCKS = 8, 4   # bases with rows: the comb's geometry
_WNAF_WIDTH = 5   # bases without: odd digits in [-15, 15]
_WINDOW_WIDTH = 4   # the one-shot engine's price: odd digits in +-[1, 15]


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
    """The point of a triple; k*P, k in [1, n), is never the identity."""
    xy = _to_affine(curve, [triple])[0]
    if xy is None:
        raise CurveError("the product is the identity")
    return AffinePoint(curve, *xy)


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
    identity.  The comb and `ecsm_window` walk their table terms, negating
    each first."""
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


def _walk_price(curve: CurveParams, k: int, w: int, t: int) -> tuple:
    """The walk at k' = min(k, n - k) (Hedabou, Pinel and Beneteau, ISPEC
    2005): the columns, top first, then the parity tail, which builds 2P
    and adds -c to the columns' sum k' + c, c = 1 + (k' mod 2), then the
    negation of the result, executed whichever k' is chosen.

    The t zero-less signed digits of k' in w rows of d sum to k' + c: digit
    i is +1 exactly when bit i+1 of K = (k' + c) | 2^t is set, so column
    j's term is 2 (K >> j+1 & mask) - mask, mask = sum(2^(r*d)).  The price
    is memoised per curve when 6 mask + 5 < n, for then no column and no
    tail meets an exceptional branch of the affine law, whatever k is:
    - every term and every acc = 2 acc + term past the first column is odd
      and nonzero, with |term| <= mask;
    - acc at column j is (k' + c) less the columns below j, at most
      mask (2^j - 1), over 2^j, so |2 acc| + |term| < (k' + c) + 3 mask
      <= (n + 3)/2 + 3 mask < n: nothing wraps mod n, and an even 2 acc
      is never +-term;
    - k' + c and k' + 2c stay below n, so the tail's sum and addends are
      not the identity and the tail adds no point to itself.
    On a smaller n (toy59's, at every width above 1) each k is priced as
    its own walk, unmemoised."""
    n = curve.n
    key = ("walk", curve.mod.bitlen, n, w, t)
    if key in _PRICES:
        return _PRICES[key]
    d = t // w
    mask = sum(1 << r * d for r in range(w))
    k = min(k, n - k)
    c = 1 + (k & 1)
    K = (k + c) | 1 << t
    terms = [2 * (K >> j + 1 & mask) - mask for j in range(d - 1, -1, -1)]
    price = _merge(_walk_events(curve, terms, negate=True) +
                   _sum_price(curve, 1, 1) + _neg_price(curve, c) +
                   _sum_price(curve, k + c, -c) + [curve.mod.cost("s")])
    if 6 * mask + 5 < n:
        _PRICES[key] = price
    return price


def comb_walk_price(curve: CurveParams, k: int) -> tuple:
    """The price of the walk at k of the comb of width `COMB_WIDTH`: what
    a comb multiplication records past the table, and the energy fit's
    anchor."""
    return _walk_price(curve, k, COMB_WIDTH, comb_digit_count(
        curve.n_bits, COMB_WIDTH))


def _projective_law(curve: CurveParams) -> tuple:
    """((double, add), head) of the Jacobian datapath: the doubling, with
    4 X YY, 3 XX + a Z^4 and 8 YY^2 as chains of additions, and the mixed
    addition of an affine point, whose head computes U2, S2 and the H = 0
    test."""
    mod = curve.mod
    return (mod.cost("mmaammmaamamasmaaasmsam", "point_double"),
            mod.cost("mmmmsassmmsm")), mod.cost("mmmmss", "point_add")


def jacobian_price(curve: CurveParams, k: int) -> tuple:
    """The price of k*P, P of order n, on the projective baseline that the
    energy fit reads: Jacobian double-and-add, whose inner loop avoids
    inversions, and one final Fermat inversion, as cost strings of their
    counted kernels in evaluation order."""
    mod = curve.mod
    events = _walk_events(curve, map(int, bin(k)[2:]), *_projective_law(curve))
    if k % curve.n:
        # x^(p-2) by square-and-multiply, then 4 products back to affine
        e = mod.p - 2
        events.append(mod.cost("m" * (
            e.bit_length() + 2 + bin(e).count("1")), "mod_inv_fermat"))
    return _merge(events)


def _window_digits(k: int, count: int) -> list:
    """The odd k as count odd digits in +-{1, 3, ..., 2^w - 1}, w =
    `_WINDOW_WIDTH`, top first, sum(d_i 2^(w*i)) = k (Joye and Tunstall,
    AFRICACRYPT 2009): each digit is k mod 2^(w+1) less 2^w, which leaves
    (k - d) / 2^w odd, and the top digit is what is left, positive."""
    digits = []
    for _ in range(count - 1):
        d = (k & (2 << _WINDOW_WIDTH) - 1) - (1 << _WINDOW_WIDTH)
        digits.append(d)
        k = (k - d) >> _WINDOW_WIDTH
    return [k] + digits[::-1]


def window_price(curve: CurveParams, k: int) -> tuple:
    """The price of `ecsm_window` at k past its own count: the table of
    the odd multiples P, 3P, ..., 15P on the affine law, one doubling and
    then 2^(w-1) - 1 additions of 2P; then the windows of k' + c, k' =
    min(k, n - k) and c = 1 + (k' mod 2), on the projective law, top first,
    each w doublings and the mixed addition of its digit's entry, negated
    whichever its sign, as the comb's columns are; then the tail, which
    negates c*P and adds it; then one binary Euclid inversion and four
    products back to affine, and the negation of the result, executed
    whichever k' is chosen.  k' + c is odd and at most (n + 3)/2, so over
    ceil(bits of n / w) windows its digits are all odd and nonzero, and the
    top one is in [1, 2^(w-1) + 1].

    The price is memoised per curve when (n + 3)/2 + 2 (2^w - 1) < n, for
    then no table entry, no window and no tail meets an exceptional branch
    of either law, whatever k is:
    - the table adds 2 to each odd m below 2^w - 1, and m + 2 < n;
    - past the top window acc is A_{i+1} = sum(d_j 2^(w(j-i-1)), j > i),
      which is odd and in [1, k' + c], k' + c <= (n + 3)/2 < n, so no
      doubling of it is the identity, and the addition of d_i to
      2^w A_{i+1} = A_i - d_i has the sum A_i and the difference
      A_i - 2 d_i, odd and below n in size, so neither is 0 mod n;
    - k' + c and k' + 2c stay below n, so the tail's sum and addends are
      not the identity and the tail adds no point to itself.
    On a smaller n (toy59's) each k is priced as its own schedule,
    unmemoised."""
    n = curve.n
    key = ("window", curve.mod.bitlen, n)
    if key in _PRICES:
        return _PRICES[key]
    law, head = _projective_law(curve)
    top = (1 << _WINDOW_WIDTH) - 1   # the largest digit
    events = _sum_price(curve, 1, 1)
    for m in range(1, top - 1, 2):
        events += _sum_price(curve, m, 2)
    k = min(k, n - k)
    c = 1 + (k & 1)
    terms = []
    for d in _window_digits(k + c, -(-curve.n_bits // _WINDOW_WIDTH)):
        terms += [0] * (_WINDOW_WIDTH - 1) + [d]
    events += _walk_events(curve, terms, law, head, negate=True)
    # the tail's head is priced as a window's: neither acc nor -c*P is the
    # identity
    events += _neg_price(curve, c) + [head] + \
        _sum_price(curve, k + c, -c, law) + [curve.mod.cost("immmms")]
    price = _merge(events)
    if (n + 3) // 2 + 2 * top < n:
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


def order_annihilates_generator(curve: CurveParams) -> bool:
    """Whether n*G is the identity, by wNAF: the registry's check of a
    record, which prices nothing."""
    return _wnaf(curve, curve.n, curve.gx, curve.gy)[2] == 0


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
    _fixed_rows(Q, point_identity(Q), pin=True)


def comb_precompute(P: AffinePoint) -> None:
    """Record the price of making P's comb table (of width `COMB_WIDTH`)
    resident, once, where a session comes to keep P: `comb_cache_miss`,
    then the table, entry[j] = sum(s_i 2^(i*d) P) over the sign pattern j
    (bit i set -> +1) with the top row sign always +1, in one call.  No
    point is built: execution keeps its rows apart."""
    curve = P.curve
    key = ("table", curve.mod.bitlen, curve.n)
    if key not in _PRICES:
        _PRICES[key] = _precompute_price(curve, COMB_WIDTH, comb_digit_count(
            curve.n_bits, COMB_WIDTH) // COMB_WIDTH)
    counters.record("comb_cache_miss")
    counters.record_all(_PRICES[key])


class CombCache:
    """Execution only: the bases a configuration has multiplied, LRU, at
    most six, each mapped to its rows.  A base's first use stores its
    process-wide rows, G's or a pinned anchor's, or none, and so runs wNAF;
    its second builds rows unless it has them, which go when the base is
    evicted.  On secp256r1 the build takes about 5.4 ms and each later use
    saves about 1.3 ms against wNAF, so a base pays back its build after
    about 4 uses (medians scaled to the benchmark's nominal pace, a 2.1 GHz
    Xeon vCPU).  Nothing is recorded: a multiplication is priced by its
    base's class, never by what a cache holds.  Mutable; callers serialize
    access (one writer at a time)."""

    def __init__(self):
        self._bases: Dict[bytes, Optional[list]] = {}

    def __len__(self) -> int:
        return len(self._bases)

    def get_or_build(self, P: AffinePoint) -> Optional[list]:
        """P's rows, built if this is its second use, or on its first the
        process-wide ones or None; P becomes the most recently used, and
        the stalest base beyond capacity is evicted."""
        key = point_identity(P)
        if key in self._bases:
            rows = self._bases.pop(key)
            if rows is None:
                rows = _rows(P.curve, P.x, P.y)
        else:
            rows = _fixed_rows(P, key)
        self._bases[key] = rows  # most recently used last
        while len(self._bases) > COMB_CACHE_CAPACITY:
            del self._bases[next(iter(self._bases))]
        return rows


# ---------------------------------------------------------------------------
# Scalar multiplication variants

def _check_range(k: int, curve: CurveParams) -> None:
    if not 1 <= k < curve.n:
        raise ScalarRangeError("scalar out of [1, n)")


def _times(k: int, P: AffinePoint, cache: Optional[CombCache]) -> tuple:
    """k*P as a Jacobian triple, unpriced: from P's rows in the cache, or
    with no cache its process-wide rows, or by wNAF for a base without
    them."""
    rows = cache.get_or_build(P) if cache is not None else \
        _fixed_rows(P, point_identity(P))
    curve = P.curve
    return _fixed_base(curve, rows, k) if rows else _wnaf(curve, k, P.x, P.y)


def _comb(k: int, P: AffinePoint, cache: Optional[CombCache] = None
          ) -> tuple:
    """k*P as a Jacobian triple for a resident base, priced as `ecsm_comb`:
    check k in [1, n), count the multiplication and its resident table
    (`comb_cache_hit`), price the walk at k, then execute (`_times`)."""
    curve = P.curve
    _check_range(k, curve)
    counters.record("ecsm_comb")
    counters.record("comb_cache_hit")
    counters.record_all(comb_walk_price(curve, k))
    return _times(k, P, cache)


def _window(k: int, P: AffinePoint, cache: Optional[CombCache] = None
            ) -> tuple:
    """k*P as a Jacobian triple for a one-shot base, priced as
    `ecsm_window`: check k in [1, n), count the multiplication, price it
    as `window_price`, then execute (`_times`)."""
    curve = P.curve
    _check_range(k, curve)
    counters.record("ecsm_window")
    counters.record_all(window_price(curve, k))
    return _times(k, P, cache)


def ecsm_comb(k: int, P: AffinePoint) -> AffinePoint:
    """k*P for a resident base, priced as the walk of its ZSD comb table:
    one double and one add per column, a parity-correction tail and a
    negation, and no table.  k outside [1, n) raises `ScalarRangeError`."""
    return _point(P.curve, _comb(k, P))


def ecsm_window(k: int, P: AffinePoint) -> AffinePoint:
    """k*P for a one-shot base, priced as `window_price`: a regular
    signed-window multiplication whose table of 8 entries is built for
    this call alone.  k outside [1, n) raises `ScalarRangeError`."""
    return _point(P.curve, _window(k, P))


def _jsum(curve: CurveParams, A: tuple, B: tuple) -> tuple:
    """(A + B, its price) for Jacobian A and B, B not the identity,
    priced as `curve.add_cost`, or `double_cost` at A = B, and nothing when
    A or the sum is the identity."""
    X1, Y1, Z1 = A
    X2, Y2, Z2 = B
    if Z1 == 0:
        return B, None
    p = curve.mod.p
    Z1Z1, Z2Z2 = Z1 * Z1 % p, Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    S1 = Y1 * Z2 * Z2Z2 % p
    H = (X2 * Z1Z1 - U1) % p
    R = (Y2 * Z1 * Z1Z1 - S1) % p
    if H == 0:
        if R == 0:
            return _jdouble(curve, X1, Y1, Z1), curve.double_cost
        return _IDENTITY, None
    HH = H * H % p
    HHH = HH * H % p
    V = U1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return (X3, (R * (V - X3) - S1 * HHH) % p, Z1 * Z2 * H % p), \
        curve.add_cost


def comb_sum_x_matches(u1: int, u2: int, Q: AffinePoint, r: int,
                       cache: Optional[CombCache] = None,
                       resident: bool = False) -> bool:
    """Whether u1*G + u2*Q, for u1 in [0, n) and u2 in [1, n), is not the
    identity and has an x of r mod n: the ECDSA verification equation.
    Priced in turn as `ecsm_comb` of u1*G, G being resident, when u1 is
    nonzero; u2*Q as `ecsm_comb` when Q's table is resident and as
    `ecsm_window` when Q is one-shot; then the affine addition of the two.
    Q's rows come from cache when one is given.  The sum stays Jacobian,
    and its x is compared projectively, X = x Z^2 for each x = r mod n
    below p, so nothing is inverted."""
    curve = Q.curve
    A = _comb(u1, curve.generator()) if u1 else _IDENTITY
    (X, _, Z), price = _jsum(curve, A, (_comb if resident else _window)(
        u2, Q, cache))
    if price:
        counters.record_all(price)
    if Z == 0:
        return False
    p = curve.mod.p
    ZZ = Z * Z % p
    return any(X == x * ZZ % p for x in range(r, p, curve.n))

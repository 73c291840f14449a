"""Scalar multiplication: what the counters price, and how Python computes
it.

Every engine is priced from its scalar, in integers.  Each point it touches
is m*P for an integer m, and a registered curve has cofactor 1 and odd
prime order n, so each exceptional branch of the group law is a test on
m mod n (m = 0 is the identity, m1 = +-m2 is equal x), and the prices are
exact for a base of order n.  Each engine's whole price is one string of
`field._KERNELS` letters, its engine's capital and then the group law's
formulas (`_AFFINE`, `_PROJECTIVE`), counted once by `PrimeModulus.cost`
and memoised per curve where the schedule is the same for every k.  Each
multiplication records it in one call before it executes, in `_times`:
- `comb_price`, a resident base's `ecsm_comb`: the walk of the paper's
  fixed-base comb with zero-less signed-digit recoding on the affine law,
  at the one width `COMB_WIDTH` = 4 that the energy model is calibrated
  on: a doubling and an addition per column, a parity tail and a negation.
- `table_price`, `comb_precompute`: the comb's table, paid once where a
  base becomes resident.
- `window_price`, a one-shot base's `ecsm_window`.
- `jacobian_price`, `ecsm_jacobian`: the projective baseline,
  double-and-add on the projective datapath plus one Fermat inversion,
  which no session runs.
The energy fit reads `comb_price` and `jacobian_price` at its calibration
scalar and runs no multiplication; the tests' engines in
tests/reference_engines.py record `jacobian_price`, and the same walk on
the affine law for any k >= 0.
The walk is priced at k' = min(k, n - k), and the negation of its result
whichever k' is chosen, so wherever 6 mask + 5 < n (`comb_price`) no
column and no tail meets an exceptional branch and the schedule is the same
for every k in [1, n): on every registered curve but toy59, whose small n
keeps an exact price per k.  The Python's own time varies with k and the
base.

`comb_sum_x_matches`, ECDSA's verification equation u1*G + u2*Q, is priced
as one joint (Straus) multiplication, `_joint_price`, recorded in one call
with one class count per base: G's comb shares its doublings with u2*Q's
engine, on the affine law beside a resident Q's comb and as mixed
additions in the last doublings of a one-shot Q's window chain.  Its steps
add a*G + b*Q to one another, so their exceptional branches are tests on
a + b log_G Q mod n.  On toy59 the price is exact, log_G Q found by search.
On every other registered curve it is memoised per curve and class, and
this is where the "same operations for every scalar" claim is narrowed:
the price is exact unless log_G Q lies in a set of at most 3 values per
step that adds a term of one base to an accumulator holding the other's,
a set fixed by (u1, u2).  Outside it the schedule is the same for every
(u1, u2) with u1 nonzero.  Inside it (say Q = G and u1 = u2, whose
columns add equal points) execution still takes the right branch and the
verdict is exact; only the price is the regular schedule's.

A multiplication is priced by the class of its base, never by what a
`CombCache` holds:
- A resident base has a comb table provisioned off-session (fixed-base
  precomputation is offline work: Lim and Lee, CRYPTO 1994; HMV 3.3.2), so
  it records `comb_price` and no table.  G is resident (`ecdsa`'s key
  generation Q = d*G, signing R = k*G and the u1*G of every verification's
  joint price), and so is the trust anchor's key in a certificate check
  (`comb_sum_x_matches` with `resident`).
- A peer's leaf key that a cached-mode client keeps is resident from the
  insert that pays its table once, `comb_precompute`.
- Any other base is one-shot, priced as `ecsm_window`, whose table lives
  for the one call: ECDHE's peer ephemeral point in
  `keyagree.ecdhe_shared`, and the u2*Q of a verification under a leaf key
  that no cache keeps.  It is a regular signed window (Joye and Tunstall,
  AFRICACRYPT 2009), the 8 odd multiples P .. 15P on the affine law, then
  4-bit windows, each with one odd nonzero digit, on the projective law,
  and one Euclid inversion.  As the comb's walk does, its price runs one
  schedule for every k in [1, n) on every registered curve but toy59.

Execution records nothing.  It runs in Jacobian coordinates (Z = 0 the
identity), normalised by shared inversions (the verification equation
compares x projectively and inverts nothing), and the fast paths share one
kernel, `_execute`: a schedule of steps, each a doubling of the accumulator
and then mixed additions of affine points.  A verification runs one merged
Straus schedule: G's steps are added to the last steps of Q's.  A base
with rows (the comb's tables of its multiples) runs a Lim-Lee comb (Lim
and Lee, CRYPTO 1994; HMV
Guide to ECC 3.3.2) of 8 teeth of d bits, d the fewest that cover n rounded
up to a multiple of 4, in 4 blocks of e = d/4: e steps of at most 4
additions from 4 tables of 255 tooth sums (on secp256r1, 7 doublings and at
most 32 additions from 1,020 points).  The class prices a multiplication
and picks no rows.  A point's `rows` are None until `provision` builds them,
where a credential is provisioned (`handshake`): on G, one set per curve,
and on the trust anchor's key, one set per anchor key among the stored
endpoints (at most `handshake.ENDPOINT_CAPACITY`), which share it.  A racing
`provision` builds equal rows, and one complete list is ever assigned.  Any
other base, a kept leaf as a one-shot one, has rows only in a `CombCache`,
which prices nothing: none on its first use, rows built on its second,
which go when the cache evicts the base.  A base without rows (no cache, or
its first use in one; ECDHE's peer point) runs width-5 wNAF, one step per
digit, and so does the registry's check of n*G = O,
`order_annihilates_generator`, which prices nothing.  The kernel inlines
the a = -3 doubling and the addition; only an addition at equal x, and a
doubling on another a, go to `_jdouble` and `_jadd`.  The tests'
double-and-add engines (tests/reference_engines.py) run on those two
alone, so their results are an independent reference for the kernel's
formulas.
"""

from __future__ import annotations

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

_PRICES: Dict[tuple, tuple] = {}
_LOGS: Dict[tuple, dict] = {}   # G -> {xy of k*G: k}, small n only

# (double, add) of the affine law, each a point tick and then its kernels
# in datapath order; 3 x^2 + a is 3 additions
_AFFINE = ("Dmaaaaimmsssms", "Assimmsssms")
# (double, add) of the Jacobian datapath: the doubling, with 4 X YY,
# 3 XX + a Z^4 and 8 YY^2 as chains of additions, and the mixed addition of
# an affine point past its head, which computes U2, S2 and the H = 0 test
_PROJECTIVE = ("Dmmaammmaamamasmaaasmsam", "mmmmsassmmsm")
_PROJECTIVE_HEAD = "Ammmmss"


def _sum_price(curve: CurveParams, m1: int, m2: int, law: tuple = _AFFINE
               ) -> str:
    """The price of m1 + m2 under the law (double, add): nothing with an
    identity operand or sum, the doubling for equal operands (y = 0 would
    need an even n)."""
    n = curve.n
    if m1 % n == 0 or m2 % n == 0 or (m1 + m2) % n == 0:
        return ""
    return law[0] if (m1 - m2) % n == 0 else law[1]


def _neg_price(curve: CurveParams, m: int) -> str:
    return "s" if m % curve.n else ""


def table_price(curve: CurveParams) -> tuple:
    """The price of making a base's comb table resident: its count,
    `comb_precompute`, then the table of the comb of `COMB_WIDTH` rows of d
    digits, d = ceil((bits of n + 1) / w).  entry[j] = sum(s_i 2^(i*d) P)
    over the sign pattern j (bit i set -> +1), the top row's sign always
    +1: d doublings per row base past the first, then each entry summed
    from the top row down, negating the rows of its - signs.  Memoised per
    curve."""
    key = ("table", curve.mod.bitlen, curve.n)
    if key not in _PRICES:
        w = COMB_WIDTH
        d = -(-(curve.n_bits + 1) // w)
        ops = "P"
        for i in range((w - 1) * d):
            ops += _sum_price(curve, 1 << i, 1 << i)
        for idx in range(1 << (w - 1)):
            acc = 1 << (w - 1) * d
            for r in range(w - 2, -1, -1):
                term = 1 << r * d if idx >> r & 1 else -(1 << r * d)
                ops += (_neg_price(curve, term) if term < 0 else "") + \
                    _sum_price(curve, acc, term)
                acc += term
        _PRICES[key] = curve.mod.cost(ops)
    return _PRICES[key]


def _adds(null, acc: tuple, terms: list, law: tuple, head: str) -> tuple:
    """(the letters, acc) of acc + each term m in turn, m = (a, b) the point
    a*G + b*Q and null(a, b) its test for the identity: each addition,
    whose head (what precedes its H = 0 test; the affine law has none) is
    priced unless acc or m is the identity, is nothing with an identity
    operand or sum and the doubling for equal operands."""
    ops = ""
    for m in terms:
        a1, b1 = acc
        a2, b2 = m
        if head and not null(a1, b1) and not null(a2, b2):
            ops += head
        if not (null(a1, b1) or null(a2, b2) or null(a1 + a2, b1 + b2)):
            ops += law[0] if null(a1 - a2, b1 - b2) else law[1]
        acc = a1 + a2, b1 + b2
    return ops, acc


def _walk(null, steps: Iterable[list], law: tuple, head: str = "",
          negate: bool = True) -> tuple:
    """(the letters, acc) of acc = 2 acc + the terms of each step, from
    acc = 0, terms as in `_adds`: each term's negation first, where negate
    is set and the term is not the identity, then the doubling, nothing
    for the identity (y = 0 would need an even n), then `_adds`."""
    ops, acc = "", (0, 0)
    for step in steps:
        if negate:
            ops += "s" * sum(not null(*m) for m in step)
        if not null(*acc):
            ops += law[0]
        events, acc = _adds(null, (2 * acc[0], 2 * acc[1]), step, law, head)
        ops += events
    return ops, acc


def _walk_events(curve: CurveParams, terms: Iterable[int],
                 law: tuple = _AFFINE, head: str = "", negate: bool = False
                 ) -> str:
    """The `_walk` of one base, a term m*P per step, under the law.  The comb
    and `ecsm_window` walk their table terms, negating each first."""
    n = curve.n
    return _walk(lambda a, b: a % n == 0, ([(m, 0)] for m in terms), law,
                 head, negate)[0]


def _comb_walk(curve: CurveParams, k: int) -> tuple:
    """(k', c, the column terms top first) of the comb of width w =
    `COMB_WIDTH` at k' = min(k, n - k), c = 1 + (k' mod 2).

    The t = w*d zero-less signed digits of k' in w rows of d, d = ceil((bits
    of n + 1) / w), sum to k' + c: digit i is +1 exactly when bit i+1 of
    K = (k' + c) | 2^t is set, so column j's term is 2 (K >> j+1 & mask) -
    mask, mask = sum(2^(r*d))."""
    w = COMB_WIDTH
    d = -(-(curve.n_bits + 1) // w)
    mask = sum(1 << r * d for r in range(w))
    k = min(k, curve.n - k)
    c = 1 + (k & 1)
    K = (k + c) | 1 << w * d
    return k, c, [2 * (K >> j + 1 & mask) - mask
                  for j in range(d - 1, -1, -1)]


def _comb_regular(curve: CurveParams) -> bool:
    """6 mask + 5 < n: the comb's walk meets no exceptional branch, whatever
    k is (see `comb_price`)."""
    d = -(-(curve.n_bits + 1) // COMB_WIDTH)
    return 6 * sum(1 << r * d for r in range(COMB_WIDTH)) + 5 < curve.n


def comb_price(curve: CurveParams, k: int) -> tuple:
    """The price of `ecsm_comb` at k, a resident base's multiplication and
    the energy fit's anchor: its count, then the walk of the comb of width
    w = `COMB_WIDTH` at k' = min(k, n - k) (Hedabou, Pinel and Beneteau,
    ISPEC 2005) over the column terms of `_comb_walk`: the columns, top
    first, then the parity tail, which builds 2P and adds -c to the
    columns' sum k' + c, c = 1 + (k' mod 2), then the negation of the
    result, executed whichever k' is chosen.

    The price is memoised per curve when 6 mask + 5 < n (`_comb_regular`),
    for then no column and no tail meets an exceptional branch of the
    affine law, whatever k is:
    - every term and every acc = 2 acc + term past the first column is odd
      and nonzero, with |term| <= mask;
    - acc at column j is (k' + c) less the columns below j, at most
      mask (2^j - 1), over 2^j, so |2 acc| + |term| < (k' + c) + 3 mask
      <= (n + 3)/2 + 3 mask < n: nothing wraps mod n, and an even 2 acc
      is never +-term;
    - k' + c and k' + 2c stay below n, so the tail's sum and addends are
      not the identity and the tail adds no point to itself.
    On a smaller n (toy59's) each k is priced as its own walk, unmemoised."""
    key = ("comb", curve.mod.bitlen, curve.n)
    if key in _PRICES:
        return _PRICES[key]
    k, c, terms = _comb_walk(curve, k)
    price = curve.mod.cost("C" + _walk_events(curve, terms, negate=True) +
                           _sum_price(curve, 1, 1) + _neg_price(curve, c) +
                           _sum_price(curve, k + c, -c) + "s")
    if _comb_regular(curve):
        _PRICES[key] = price
    return price


def jacobian_price(curve: CurveParams, k: int) -> tuple:
    """The price of k*P, P of order n, on the projective baseline that the
    energy fit reads: its count, `ecsm_jacobian`, then Jacobian
    double-and-add, whose inner loop avoids inversions, and one final Fermat
    inversion."""
    ops = "J" + _walk_events(curve, map(int, bin(k)[2:]), _PROJECTIVE,
                             _PROJECTIVE_HEAD)
    if k % curve.n:
        # x^(p-2) by square-and-multiply, then 4 products back to affine
        e = curve.mod.p - 2
        ops += "F" + "m" * (e.bit_length() + 2 + bin(e).count("1"))
    return curve.mod.cost(ops)


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


def _window_walk(curve: CurveParams, k: int) -> tuple:
    """(k', c, the digits of k' + c top first) of the one-shot window at
    k' = min(k, n - k), c = 1 + (k' mod 2): ceil(bits of n / w) digits."""
    k = min(k, curve.n - k)
    c = 1 + (k & 1)
    return k, c, _window_digits(k + c, -(-curve.n_bits // _WINDOW_WIDTH))


def _window_regular(curve: CurveParams) -> bool:
    """(n + 3)/2 + 2 (2^w - 1) < n: the window meets no exceptional branch,
    whatever k is (see `window_price`)."""
    return (curve.n + 3) // 2 + 2 * ((1 << _WINDOW_WIDTH) - 1) < curve.n


def _table_events(curve: CurveParams) -> str:
    """The one-shot window's table of the odd multiples P, 3P, ..., 15P on
    the affine law: one doubling, then 2^(w-1) - 1 additions of 2P."""
    ops = _sum_price(curve, 1, 1)
    for m in range(1, (1 << _WINDOW_WIDTH) - 2, 2):
        ops += _sum_price(curve, m, 2)
    return ops


def window_price(curve: CurveParams, k: int) -> tuple:
    """The price of `ecsm_window` at k: its count, then the table of
    `_table_events`; then the windows of k' + c, k' = min(k, n - k) and
    c = 1 + (k' mod 2), on the projective law, top first, each w doublings
    and the mixed addition of its digit's entry, negated whichever its
    sign, as the comb's columns are; then the tail, which negates c*P and
    adds it; then one binary Euclid inversion and four products back to
    affine, and the negation of the result, executed whichever k' is
    chosen.  k' + c is odd and at most (n + 3)/2, so over ceil(bits of n /
    w) windows its digits are all odd and nonzero, and the top one is in
    [1, 2^(w-1) + 1].

    The price is memoised per curve when (n + 3)/2 + 2 (2^w - 1) < n
    (`_window_regular`), for then no table entry, no window and no tail
    meets an exceptional branch of either law, whatever k is:
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
    key = ("window", curve.mod.bitlen, curve.n)
    if key in _PRICES:
        return _PRICES[key]
    k, c, digits = _window_walk(curve, k)
    terms = []
    for d in digits:
        terms += [0] * (_WINDOW_WIDTH - 1) + [d]
    ops = "W" + _table_events(curve) + _walk_events(
        curve, terms, _PROJECTIVE, _PROJECTIVE_HEAD, negate=True)
    # the tail's head is priced as a window's: neither acc nor -c*P is the
    # identity
    ops += _neg_price(curve, c) + _PROJECTIVE_HEAD + \
        _sum_price(curve, k + c, -c, _PROJECTIVE) + "immmms"
    price = curve.mod.cost(ops)
    if _window_regular(curve):
        _PRICES[key] = price
    return price


def _log(curve: CurveParams, Q: AffinePoint) -> int:
    """log_G Q, the k in [1, n) with k*G = Q, by search over the n - 1
    multiples of G, made affine by one inversion and memoised per curve:
    the exact joint price needs it only where n is small."""
    key = (curve.id, curve.gx, curve.gy)
    if key not in _LOGS:
        acc, multiples = _IDENTITY, []
        for _ in range(curve.n - 1):
            acc = _jadd(curve, *acc, curve.gx, curve.gy)
            multiples.append(acc)
        _LOGS[key] = {xy: k for k, xy in
                      enumerate(_to_affine(curve, multiples), 1)}
    return _LOGS[key][Q.x, Q.y]


def _joint_price(curve: CurveParams, u1: int, u2: int, Q: AffinePoint,
                 resident: bool) -> tuple:
    """The price of u1*G + u2*Q, u1 in [0, n) and u2 in [1, n): at u1 = 0
    u2*Q's own engine price, else one joint (Straus) schedule (HMV Guide
    to ECC 3.3.3; Moller, SAC 2001): the count of each base's class,
    `ecsm_comb` for G and for a resident Q, `ecsm_window` for a one-shot
    Q; then one chain of doublings, top first, each followed by the
    additions of its step's terms, Q's and then G's, each term's entry
    negated first; then Q's parity tail and G's.  Each base runs on k' =
    min(k, n - k) as its engine does, and where k' is n - k the signs of
    its terms and its tail flip, so no result is negated.
    - Resident Q: the two combs of `_comb_walk` share one column chain on
      the affine law: one doubling per column, then both tables' terms.
      Each tail builds its 2P and adds -c*P.
    - One-shot Q: `_table_events` builds Q's odd multiples, and Q's
      windows of `_window_walk` run on the projective law, w doublings
      each; G's d column terms are mixed additions after the last d
      doublings; Q's tail adds -c*Q, G's builds 2G on the affine law and
      adds -c*G; then one Euclid inversion and four products back to
      affine, unless the sum is the identity.
    A joint step's operands are a*G + b*Q, so its exceptional branches
    depend on q = log_G Q.  Where both engines are regular
    (`_comb_regular`, and `_window_regular` for a one-shot Q), the price is
    that of the branch taken for every q, with a*G + b*Q the identity only
    for a = b = 0 mod n, and memoised per curve and class: every step that
    adds a term to an accumulator with a part of the other base is an
    addition, as each engine's own steps are.  It is exact unless q lies
    in a set of at most 3 values per such step, fixed by (u1, u2): those
    where the accumulator is the identity, or equals the term or its
    negation.  Elsewhere (toy59, whose small n fails both bounds) each
    step is priced exactly from `_log`, unmemoised."""
    if not u1:
        return (comb_price if resident else window_price)(curve, u2)
    n = curve.n
    regular = _comb_regular(curve) and (resident or _window_regular(curve))
    key = ("joint comb" if resident else "joint window", curve.mod.bitlen, n)
    if regular and key in _PRICES:
        return _PRICES[key]
    if regular:
        def null(a, b):
            return a % n == 0 and b % n == 0
    else:
        q = _log(curve, Q)

        def null(a, b):
            return (a + b * q) % n == 0
    k1, c1, terms = _comb_walk(curve, u1)
    s1 = 1 if k1 == u1 else -1
    g_terms = [(s1 * t, 0) for t in terms]
    if resident:
        k2, c2, terms = _comb_walk(curve, u2)
        s2 = 1 if k2 == u2 else -1
        steps = [[(0, s2 * t), g] for t, g in zip(terms, g_terms)]
        ops, law, head = "CC", _AFFINE, ""
        q_double = _AFFINE[0]   # the tail's 2Q
    else:
        k2, c2, digits = _window_walk(curve, u2)
        s2 = 1 if k2 == u2 else -1
        steps = []
        for d in digits:
            steps += [[] for _ in range(_WINDOW_WIDTH - 1)] + [[(0, s2 * d)]]
        for step, g in zip(steps[-len(g_terms):], g_terms):
            step.append(g)
        ops = "CW" + _table_events(curve)
        law, head = _PROJECTIVE, _PROJECTIVE_HEAD
        q_double = ""           # 2Q is in the table
    events, acc = _walk(null, steps, law, head)
    ops += events
    for double, corr in ((q_double, (0, -s2 * c2)),
                         (_AFFINE[0], (-s1 * c1, 0))):
        events, acc = _adds(null, acc, [corr], law, head)
        ops += double + "s" + events
    if not resident and not null(*acc):
        ops += "immmm"
    price = curve.mod.cost(ops)
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


def _fixed_base(curve: CurveParams, rows: list, k: int) -> list:
    """The schedule of k*P for 0 <= k < 2^(8d) from P's comb tables: e
    steps, each an addition per block whose column is not 0.  Tooth i
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
    return steps


def _wnaf(curve: CurveParams, k: int, x: int, y: int) -> list:
    """The schedule of k*(x, y) by width-5 NAF, one step per digit, over
    the odd multiples +-1, +-3, ..., +-15 of the base, made affine by one
    shared inversion."""
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
    return steps


def order_annihilates_generator(curve: CurveParams) -> bool:
    """Whether n*G is the identity, by wNAF: the registry's check of a
    record, run where the curve is registered, at the first lookup for a
    shipped record, and so inside any scope open there; it prices
    nothing."""
    return _execute(curve, _wnaf(curve, curve.n, curve.gx, curve.gy))[2] == 0


# ---------------------------------------------------------------------------
# Fixed-base rows: provisioned, or in a cache

def point_identity(P: AffinePoint) -> bytes:
    """Stable identity of a base point: curve name and serialized form."""
    return P.curve.id.encode() + b"|" + P.encode()


def provision(P: AffinePoint) -> None:
    """Build P's rows and keep them on P, unless it has them: the offline
    precomputation of a fixed base, which records nothing.  Racing calls
    build equal rows, and each assigns one complete list."""
    if P.rows is None:
        P.rows = _rows(P.curve, P.x, P.y)


def comb_precompute(P: AffinePoint) -> None:
    """Record `table_price`, the price of making P's comb table resident,
    in one call, once, where a session comes to keep P.  No point is built:
    execution keeps its rows apart."""
    counters.record_all(table_price(P.curve))


class CombCache:
    """Execution only: the bases without rows of their own that a
    configuration has multiplied, LRU, at most `COMB_CACHE_CAPACITY`: peer
    leaves, a kept one included.  A base's first use stores no rows, and so
    runs wNAF; its second builds rows, which go when the base is evicted.
    On secp256r1 the build takes about 5.9 ms and each later use saves
    about 1.3 ms against wNAF, so a base pays back its build after about
    4.4 uses (medians scaled to the benchmark's nominal pace, a 2.1 GHz
    Xeon vCPU).  A provisioned base never comes here: `_times` runs its own
    rows.  Nothing is recorded: a multiplication is priced by its base's
    class, never by what a cache holds.  Mutable; callers serialize access
    (one writer at a time)."""

    def __init__(self):
        self._bases: Dict[bytes, Optional[list]] = {}

    def __len__(self) -> int:
        return len(self._bases)

    def get_or_build(self, P: AffinePoint) -> Optional[list]:
        """P's rows, built if this is its second use, or None on its first;
        P becomes the most recently used, and the stalest base beyond
        capacity is evicted."""
        key = point_identity(P)
        rows = None
        if key in self._bases:
            rows = self._bases.pop(key) or _rows(P.curve, P.x, P.y)
        self._bases[key] = rows  # most recently used last
        while len(self._bases) > COMB_CACHE_CAPACITY:
            del self._bases[next(iter(self._bases))]
        return rows


# ---------------------------------------------------------------------------
# Scalar multiplication variants

def _check_range(k: int, curve: CurveParams) -> None:
    if not 1 <= k < curve.n:
        raise ScalarRangeError("scalar out of [1, n)")


def _schedule(k: int, P: AffinePoint, cache: Optional[CombCache]) -> list:
    """The schedule of k*P from P's provisioned rows, else from its rows in
    the cache, or by wNAF without them."""
    rows = P.rows or (cache.get_or_build(P) if cache is not None else None)
    return _fixed_base(P.curve, rows, k) if rows else \
        _wnaf(P.curve, k, P.x, P.y)


def _times(k: int, P: AffinePoint, resident: bool,
           cache: Optional[CombCache] = None) -> tuple:
    """k*P as a Jacobian triple: check k in [1, n), record the price of P's
    class in one call, `comb_price` for a resident base and `window_price`
    for a one-shot one, then execute P's `_schedule`.  The class picks only
    the price."""
    curve = P.curve
    _check_range(k, curve)
    counters.record_all((comb_price if resident else window_price)(curve, k))
    return _execute(curve, _schedule(k, P, cache))


def ecsm_comb(k: int, P: AffinePoint) -> AffinePoint:
    """k*P for a resident base, priced as `comb_price`, the walk of its ZSD
    comb table: one double and one add per column, a parity-correction tail
    and a negation, and no table.  k outside [1, n) raises
    `ScalarRangeError`."""
    return _point(P.curve, _times(k, P, True))


def ecsm_window(k: int, P: AffinePoint) -> AffinePoint:
    """k*P for a one-shot base, priced as `window_price`: a regular
    signed-window multiplication whose table of 8 entries is built for
    this call alone.  k outside [1, n) raises `ScalarRangeError`."""
    return _point(P.curve, _times(k, P, False))


def comb_sum_x_matches(u1: int, u2: int, Q: AffinePoint, r: int,
                       cache: Optional[CombCache] = None,
                       resident: bool = False) -> bool:
    """Whether u1*G + u2*Q, for u1 in [0, n) and u2 in [1, n), is not the
    identity and has an x of r mod n: the ECDSA verification equation.
    Priced in one call as `_joint_price`, the joint schedule of Q's class,
    resident when Q's table is and one-shot otherwise, or at u1 = 0 as
    u2*Q alone.  Executed as one merged Straus schedule: G's steps, from
    its provisioned rows (else wNAF), are folded into the last steps of
    Q's `_schedule`.  The sum stays Jacobian, and its x is compared
    projectively, X = x Z^2 for each x = r mod n below p, so nothing is
    inverted."""
    curve = Q.curve
    _check_range(u2, curve)
    if u1:
        _check_range(u1, curve)
    counters.record_all(_joint_price(curve, u1, u2, Q, resident))
    steps = _schedule(u2, Q, cache)
    if u1:
        folded = _schedule(u1, curve.generator(), None)
        steps = [()] * (len(folded) - len(steps)) + steps
        cut = len(steps) - len(folded)
        steps = steps[:cut] + [[*a, *b] for a, b in zip(steps[cut:], folded)]
    X, _, Z = _execute(curve, steps)
    if Z == 0:
        return False
    p = curve.mod.p
    ZZ = Z * Z % p
    return any(X == x * ZZ % p for x in range(r, p, curve.n))

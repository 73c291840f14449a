"""Modular arithmetic over arbitrary odd primes up to 256 bits.

Residues are plain ints in [0, p), and every result is computed natively
with Python's own integer arithmetic: exact, and far cheaper than a
simulation of the hardware loop.  The counters price the hardware algorithms
the paper describes: a bit-serial interleaved multiplier that runs exactly
bitlen(p) iterations per product whatever the operands, binary extended
Euclid inversion priced at bitlen(p) units of work, and one count per modular
addition or subtraction.  Every ECC price is one string of `_KERNELS`
letters, one per datapath unit in evaluation order, a capital for a tick
with no per-bit work, which `PrimeModulus.cost` counts once for one
`counters.record_all` call.  Fermat inversion, the projective baseline's,
is priced only in such a string: an `F` and the products
square-and-multiply performs.

`PrimeModulus` checks its modulus with the Baillie-PSW test (Baillie and
Wagstaff, Math. Comp. 35, 1980; FIPS 186-4 App. C.3): trial division by the
primes below 100, one strong probable-prime test to base 2, a perfect-square
guard, and a strong Lucas test with Selfridge's Method A parameters.  It is
at least as strong as the 64 Miller-Rabin rounds it replaced:

- No composite is known to pass it, and none exists below 2^64: every
  base-2 strong pseudoprime below 2^64 is on Feitsma's list, and Gilchrist
  checked that the Lucas test refuses each of them.
- The Miller-Rabin bases were drawn from `random.Random(n)`, a fixed
  function of n, so their 4^-64 error bound held only for an n not chosen
  against them.  Albrecht, Massimo, Paterson and Somorovsky ("Prime and
  Prejudice", CCS 2018) build composites that pass Miller-Rabin under
  predictable bases, and recommend Baillie-PSW for adversarial input.
- A registry text is such input: `CurveRegistry.load_text` accepts it from
  its callers.

The check is not priced: it runs once per modulus, when a curve is built,
which for a shipped record is at the first lookup that names it, and it
records nothing even there.  On a Xeon VM a 256-bit curve's p and n take
about 1.1 ms, and all 10 moduli of the builtin registry about 3.3 ms,
against about 80 ms for the Miller-Rabin rounds.
"""

from __future__ import annotations

import math

from . import counters


class FieldError(Exception):
    """Base class for field arithmetic errors."""


class NonInvertibleError(FieldError):
    """Inverse of zero requested."""


class NotPrimeError(FieldError):
    """Modulus failed validation."""


# letter -> its kind counted once per letter, then any counted bitlen(p)
_KERNELS = {
    "m": ("mod_mul", "mul_iter"),          # interleaved product
    "i": ("mod_inv_euclid", "inv_work"),   # binary Euclid inversion
    "a": ("mod_add",),
    "s": ("mod_sub",),
    "A": ("point_add",),
    "D": ("point_double",),
    "F": ("mod_inv_fermat",),
    "C": ("ecsm_comb",),
    "W": ("ecsm_window",),
    "J": ("ecsm_jacobian",),
    "P": ("comb_precompute",),
}
# deletes every letter whose kind is not traced
_UNTRACED = str.maketrans("", "", "".join(
    op for op, kinds in _KERNELS.items()
    if kinds[0] not in counters.TRACED_KINDS))
_KIND = {op: kinds[0] for op, kinds in _KERNELS.items()}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _is_probable_prime(n: int) -> bool:
    """Baillie-PSW: trial division by _SMALL_PRIMES, then a strong
    probable-prime test to base 2 and a strong Lucas test (Selfridge's
    Method A).  Deterministic, and exact below 2^64."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    return _strong_base2(n) and _strong_lucas(n)


def _strong_base2(n: int) -> bool:
    """Strong probable-prime test to base 2 of an odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) of any integer a, for an odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 2 under Selfridge's
    Method A: D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4."""
    # no D has (D/n) = -1 for a square: the search would run until |D|
    # met a factor of n
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n, walking k down the bits of d from k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V  # 2 U_(k+1), 2 V_(k+1) with P = 1
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class PrimeModulus:
    """An odd prime p, 3 < p < 2^256, validated once at construction by the
    Baillie-PSW test (see the module docstring), with the prices of one
    product and one inversion counted once."""

    __slots__ = ("p", "bitlen", "byte_len", "mul_price", "inv_price")

    def __init__(self, p: int):
        if not isinstance(p, int) or p <= 3:
            raise NotPrimeError("modulus must be an integer > 3")
        if p % 2 == 0:
            raise NotPrimeError("modulus must be odd")
        if p.bit_length() > 256:
            raise NotPrimeError("modulus wider than 256 bits")
        if not _is_probable_prime(p):
            raise NotPrimeError("modulus failed primality check")
        self.p = p
        self.bitlen = p.bit_length()
        self.byte_len = (self.bitlen + 7) // 8
        self.mul_price = self.cost("m")
        self.inv_price = self.cost("i")

    def cost(self, ops: str) -> tuple:
        """(items, traced) of the units `ops` names, one `_KERNELS` letter
        each in evaluation order: (kind, n) pairs in first-appearance order,
        and the TRACED_KINDS in execution order.  Counted by `str.count`
        and `str.translate`, not letter by letter in Python: a schedule
        runs to thousands of letters."""
        items = []
        for op in sorted(filter(ops.__contains__, _KERNELS), key=ops.find):
            n = ops.count(op)
            kernel, *work = _KERNELS[op]
            items += [(kernel, n)] + [(kind, n * self.bitlen) for kind in work]
        return tuple(items), tuple(map(_KIND.__getitem__,
                                       ops.translate(_UNTRACED)))


# ---------------------------------------------------------------------------
# Counted integer kernels.  These operate on plain ints already reduced mod p
# and record the price that `PrimeModulus` counted once per modulus.

def mul_int(x: int, y: int, mod: PrimeModulus) -> int:
    """x*y mod p, priced as one bit-serial interleaved product: one
    shift-accumulate-reduce iteration per bit of p."""
    counters.record_all(mod.mul_price)
    return x * y % mod.p


def inv_euclid_int(x: int, mod: PrimeModulus) -> int:
    """x^-1 mod p, priced as one binary extended Euclid inversion."""
    if x % mod.p == 0:
        raise NonInvertibleError("inverse of zero")
    counters.record_all(mod.inv_price)
    return pow(x, -1, mod.p)


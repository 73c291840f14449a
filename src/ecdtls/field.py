"""Modular arithmetic over arbitrary odd primes up to 256 bits.

Residues are plain ints in [0, p), and every result is computed natively
with Python's own integer arithmetic: exact, and far cheaper than a
simulation of the hardware loop.  The counters price the hardware algorithms
the paper describes: a bit-serial interleaved multiplier that runs exactly
bitlen(p) iterations per product whatever the operands, binary extended
Euclid inversion priced at bitlen(p) units of work, and one count per modular
addition or subtraction.  `PrimeModulus.cost` prices a whole formula from a
string of kernel letters, for one `counters.record_all` call.  Fermat
inversion, the projective baseline's, is priced only as such a string: a
`mod_inv_fermat` head and the products square-and-multiply performs.
"""

from __future__ import annotations

import random

from . import counters


class FieldError(Exception):
    """Base class for field arithmetic errors."""


class NonInvertibleError(FieldError):
    """Inverse of zero requested."""


class NotPrimeError(FieldError):
    """Modulus failed validation."""


# kernel letter -> its kind counted once per call, then any counted bitlen(p)
_KERNELS = {
    "m": ("mod_mul", "mul_iter"),          # interleaved product
    "i": ("mod_inv_euclid", "inv_work"),   # binary Euclid inversion
    "a": ("mod_add",),
    "s": ("mod_sub",),
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _is_probable_prime(n: int, rounds: int = 64) -> bool:
    """Miller-Rabin with `rounds` pseudorandom bases (deterministic per n)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus:
    """An odd prime p, 3 < p < 2^256, validated once at construction."""

    __slots__ = ("p", "bitlen", "byte_len")

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

    def cost(self, ops: str, head: str = "") -> tuple:
        """(items, traced) of the kernel calls `ops` names, one letter each in
        evaluation order, after one count of `head`: (kind, n) pairs in
        first-appearance order, and the TRACED_KINDS in execution order."""
        steps = [(head, 1)] if head else []
        for op in ops:
            kernel, *work = _KERNELS[op]
            steps += [(kernel, 1)] + [(kind, self.bitlen) for kind in work]
        items = {}
        for kind, n in steps:
            items[kind] = items.get(kind, 0) + n
        traced = tuple(k for k, _ in steps if k in counters.TRACED_KINDS)
        return tuple(items.items()), traced


# ---------------------------------------------------------------------------
# Counted integer kernels.  These operate on plain ints already reduced mod p
# and record their price through `PrimeModulus.cost`.

def mul_int(x: int, y: int, mod: PrimeModulus) -> int:
    """x*y mod p, priced as one bit-serial interleaved product: one
    shift-accumulate-reduce iteration per bit of p."""
    counters.record_all(mod.cost("m"))
    return x * y % mod.p


def inv_euclid_int(x: int, mod: PrimeModulus) -> int:
    """x^-1 mod p, priced as one binary extended Euclid inversion."""
    if x % mod.p == 0:
        raise NonInvertibleError("inverse of zero")
    counters.record_all(mod.cost("i"))
    return pow(x, -1, mod.p)


"""Modular arithmetic over arbitrary odd primes up to 256 bits.

Residues are plain ints in [0, p).  Each counted kernel below takes them with
the `PrimeModulus` they belong to and returns the reduced result.

The counters price the hardware algorithms the paper describes: a bit-serial
interleaved multiplier that runs exactly bitlen(p) iterations per product
whatever the operands, and binary extended Euclid inversion, priced at
bitlen(p) units of work.  Execution is native: each result is computed with
Python's own integer arithmetic, which is exact and far cheaper than a
simulation of the hardware loop.  Fermat inversion (square-and-multiply) is
kept as the comparison baseline and is priced through the multiplications it
performs.
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

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeModulus) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return "PrimeModulus(0x%x)" % self.p


# ---------------------------------------------------------------------------
# Counted integer kernels.  These operate on plain ints already reduced mod p;
# every modular operation of the curve formulas routes through them, so each
# is tallied exactly once.

def mul_int(x: int, y: int, mod: PrimeModulus) -> int:
    """x*y mod p, priced as one bit-serial interleaved product: one
    shift-accumulate-reduce iteration per bit of p."""
    counters.record("mod_mul")
    counters.record("mul_iter", mod.bitlen)
    return x * y % mod.p


def add_int(x: int, y: int, mod: PrimeModulus) -> int:
    counters.record("mod_add")
    s = x + y
    return s - mod.p if s >= mod.p else s


def sub_int(x: int, y: int, mod: PrimeModulus) -> int:
    counters.record("mod_sub")
    d = x - y
    return d + mod.p if d < 0 else d


def inv_euclid_int(x: int, mod: PrimeModulus) -> int:
    """x^-1 mod p, priced as one binary extended Euclid inversion."""
    if x % mod.p == 0:
        raise NonInvertibleError("inverse of zero")
    counters.record("mod_inv_euclid")
    counters.record("inv_work", mod.bitlen)
    return pow(x, -1, mod.p)


def inv_fermat_int(x: int, mod: PrimeModulus) -> int:
    """x^(p-2) by square-and-multiply; each step is a counted mod_mul."""
    if x % mod.p == 0:
        raise NonInvertibleError("inverse of zero")
    counters.record("mod_inv_fermat")
    e = mod.p - 2
    acc = x
    for i in range(e.bit_length() - 2, -1, -1):
        acc = mul_int(acc, acc, mod)
        if (e >> i) & 1:
            acc = mul_int(acc, x, mod)
    return acc


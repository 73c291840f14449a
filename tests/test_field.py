import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls import counters
from ecdtls.curve import builtin_registry
from ecdtls.field import (NonInvertibleError, NotPrimeError, PrimeModulus,
                          inv_euclid_int, inv_fermat_int, mul_int)

P256 = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
MOD256 = PrimeModulus(P256)

CURVE_PRIMES = {
    160: 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
    192: 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    224: 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
    256: P256,
}


# ---------------------------------------------------------------------------
# Bit-serial reference algorithms.  The counters price these hardware
# algorithms; the library computes the same results natively, and these
# oracles check that the two agree.

def bit_serial_mul(x, y, p):
    """Interleaved-reduction product: one shift-accumulate step per bit of p,
    with both trailing conditional subtractions evaluated every iteration.
    Returns (product, iterations)."""
    acc = 0
    iterations = 0
    for ch in format(x, "0%db" % p.bit_length()):
        acc += acc
        if ch == "1":
            acc += y
        if acc >= p:
            acc -= p
        if acc >= p:
            acc -= p
        iterations += 1
    return acc, iterations


def binary_euclid_inv(x, p):
    """Binary extended Euclid (almost-inverse family); no exponentiation."""
    u, v = x, p
    x1, x2 = 1, 0
    while u != 1 and v != 1:
        while not u & 1:
            u >>= 1
            x1 = x1 >> 1 if not x1 & 1 else (x1 + p) >> 1
        while not v & 1:
            v >>= 1
            x2 = x2 >> 1 if not x2 & 1 else (x2 + p) >> 1
        if u >= v:
            u -= v
            x1 -= x2
        else:
            v -= u
            x2 -= x1
    return x1 % p if u == 1 else x2 % p


def _registered_moduli():
    registry = builtin_registry()
    return [pytest.param(getattr(registry.get(name), attr),
                         id="%s-%s" % (name, label))
            for name in registry.names()
            for attr, label in (("mod", "p"), ("n_mod", "n"))]


@pytest.mark.parametrize("mod", _registered_moduli())
class TestNativeAgainstBitSerial:
    def test_mul_matches_interleaved_multiplier(self, mod):
        p = mod.p
        rng = random.Random(p)
        operands = [(0, 0), (1, p - 1), (p - 1, p - 1)] + \
            [(rng.randrange(p), rng.randrange(p)) for _ in range(200)]
        for x, y in operands:
            want, iterations = bit_serial_mul(x, y, p)
            with counters.scope() as sc:
                assert mul_int(x, y, mod) == want
            assert sc.counters["mul_iter"] == iterations == mod.bitlen
            assert sc.counters["mod_mul"] == 1

    def test_inverse_matches_binary_euclid(self, mod):
        p = mod.p
        rng = random.Random(p + 1)
        for x in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(100)]:
            with counters.scope() as sc:
                assert inv_euclid_int(x, mod) == binary_euclid_inv(x, p)
            assert dict(sc.counters) == {"mod_inv_euclid": 1,
                                         "inv_work": mod.bitlen}

    def test_multiples_of_modulus_not_invertible(self, mod):
        for x in (0, mod.p, 2 * mod.p, -mod.p):
            with counters.scope() as sc:
                with pytest.raises(NonInvertibleError):
                    inv_euclid_int(x, mod)
                with pytest.raises(NonInvertibleError):
                    inv_fermat_int(x, mod)
            assert not sc.counters


class TestPrimeModulus:
    def test_bitlen(self):
        assert MOD256.bitlen == 256
        assert PrimeModulus(7).bitlen == 3

    @pytest.mark.parametrize("bad", [4, 9, 15, 2**255, 1, 0, 3])
    def test_rejects_nonprime_and_small(self, bad):
        with pytest.raises(NotPrimeError):
            PrimeModulus(bad)

    def test_rejects_wide(self):
        with pytest.raises(NotPrimeError):
            PrimeModulus(2**257 + 2221)


class TestMul:
    def test_zero_and_one(self):
        b = 0x55AA
        assert mul_int(0, b, MOD256) == 0
        assert mul_int(1, b, MOD256) == b

    @pytest.mark.parametrize("bits", sorted(CURVE_PRIMES))
    def test_against_wide_multiply_oracle(self, bits):
        p = CURVE_PRIMES[bits]
        mod = PrimeModulus(p)
        rng = random.Random(bits)
        for _ in range(500):
            a, b = rng.randrange(p), rng.randrange(p)
            got = mul_int(a, b, mod)
            assert got == a * b % p

    def test_iteration_count_depends_only_on_bitlen(self, rng):
        for a, b in [(1, 1), (0, 0), (P256 - 1, P256 - 1),
                     (rng.randrange(P256), rng.randrange(P256))]:
            with counters.scope() as sc:
                mul_int(a, b, MOD256)
            assert sc.counters["mul_iter"] == 256
            assert sc.counters["mod_mul"] == 1

    def test_serialized_width_fixed(self):
        assert MOD256.byte_len == 32
        mod161 = PrimeModulus(0x0100000000000000000001F4C8F927AED3CA752257)
        assert mod161.byte_len == 21


class TestRingAxioms:
    @pytest.mark.parametrize("bits", sorted(CURVE_PRIMES))
    def test_associativity_distributivity(self, bits):
        p = CURVE_PRIMES[bits]
        mod = PrimeModulus(p)
        rng = random.Random(1000 + bits)
        for _ in range(1000):
            a, b, c = (rng.randrange(p) for _ in range(3))
            assert mul_int(mul_int(a, b, mod), c, mod) == \
                mul_int(a, mul_int(b, c, mod), mod)
            assert mul_int(a, (b + c) % p, mod) == \
                (mul_int(a, b, mod) + mul_int(a, c, mod)) % p

    @given(st.integers(0, P256 - 1), st.integers(0, P256 - 1))
    @settings(max_examples=50, deadline=None)
    def test_closure_and_canonical(self, a, b):
        assert 0 <= mul_int(a, b, MOD256) < P256


class TestInversion:
    def test_inv_one(self):
        assert inv_euclid_int(1, MOD256) == 1
        assert inv_fermat_int(1, MOD256) == 1

    def test_inv_3_mod_7_bruteforce(self):
        mod7 = PrimeModulus(7)
        expected = next(x for x in range(1, 7) if 3 * x % 7 == 1)
        assert expected == 5
        assert inv_euclid_int(3, mod7) == expected

    def test_zero_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            inv_euclid_int(0, MOD256)
        with pytest.raises(NonInvertibleError):
            inv_fermat_int(0, MOD256)

    def test_inverse_property(self, rng):
        for _ in range(100):
            a = rng.randrange(1, P256)
            assert mul_int(a, inv_euclid_int(a, MOD256), MOD256) == 1

    def test_euclid_agrees_with_fermat(self, rng):
        for _ in range(100):
            a = rng.randrange(1, P256)
            assert inv_euclid_int(a, MOD256) == inv_fermat_int(a, MOD256)

    def test_fermat_mul_count(self):
        e = P256 - 2
        expected = (e.bit_length() - 1) + bin(e).count("1") - 1
        with counters.scope() as sc:
            inv_fermat_int(0x1234567, MOD256)
        assert sc.counters["mod_mul"] == expected
        # square-and-multiply averages ~1.5 multiplications per exponent bit
        assert expected == pytest.approx(1.5 * 256, rel=0.08)

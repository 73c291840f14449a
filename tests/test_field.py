import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls import counters
from ecdtls.curve import builtin_registry
from ecdtls.field import (FieldElement, FieldError, ModulusMismatchError,
                          NonInvertibleError, NotPrimeError, PrimeModulus,
                          inv_euclid_int, inv_fermat_int, mul_int)

P256 = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
MOD256 = PrimeModulus(P256)

CURVE_PRIMES = {
    160: 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
    192: 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    224: 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
    256: P256,
}


def fe(v, mod=MOD256):
    return FieldElement(v % mod.p, mod)


def fermat_inverse(a):
    return FieldElement(inv_fermat_int(a.value, a.modulus), a.modulus)


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


class TestAddSub:
    def test_additive_identity(self):
        b = fe(0x1234)
        assert fe(0) + b == b

    def test_additive_inverse(self):
        a = fe(0xABCDEF)
        assert (a + fe(P256 - 0xABCDEF)).value == 0

    def test_sub_self_and_zero(self):
        a = fe(99)
        assert (a - a).value == 0
        assert (fe(0) - fe(7)).value == P256 - 7

    def test_random_against_bigint_oracle(self, rng):
        for _ in range(300):
            a, b = rng.randrange(P256), rng.randrange(P256)
            assert (fe(a) + fe(b)).value == (a + b) % P256
            assert (fe(a) - fe(b)).value == (a - b) % P256

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            fe(1) + FieldElement(1, PrimeModulus(7))


class TestMul:
    def test_zero_and_one(self):
        b = fe(0x55AA)
        assert (fe(0) * b).value == 0
        assert fe(1) * b == b

    @pytest.mark.parametrize("bits", sorted(CURVE_PRIMES))
    def test_against_wide_multiply_oracle(self, bits):
        p = CURVE_PRIMES[bits]
        mod = PrimeModulus(p)
        rng = random.Random(bits)
        for _ in range(500):
            a, b = rng.randrange(p), rng.randrange(p)
            got = FieldElement(a, mod) * FieldElement(b, mod)
            assert got.value == a * b % p

    def test_iteration_count_depends_only_on_bitlen(self, rng):
        for a, b in [(1, 1), (0, 0), (P256 - 1, P256 - 1),
                     (rng.randrange(P256), rng.randrange(P256))]:
            with counters.scope() as sc:
                fe(a) * fe(b)
            assert sc.counters["mul_iter"] == 256
            assert sc.counters["mod_mul"] == 1

    def test_serialized_width_fixed(self):
        assert len(fe(0).to_bytes()) == 32
        assert len(fe(1).to_bytes()) == 32
        mod161 = PrimeModulus(0x0100000000000000000001F4C8F927AED3CA752257)
        assert len(FieldElement(1, mod161).to_bytes()) == 21


class TestRingAxioms:
    @pytest.mark.parametrize("bits", sorted(CURVE_PRIMES))
    def test_associativity_distributivity(self, bits):
        p = CURVE_PRIMES[bits]
        mod = PrimeModulus(p)
        rng = random.Random(1000 + bits)
        for _ in range(1000):
            a, b, c = (FieldElement(rng.randrange(p), mod) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    @given(st.integers(0, P256 - 1), st.integers(0, P256 - 1))
    @settings(max_examples=50, deadline=None)
    def test_closure_and_canonical(self, a, b):
        for out in (fe(a) + fe(b), fe(a) - fe(b), fe(a) * fe(b)):
            assert 0 <= out.value < P256


class TestInversion:
    def test_inv_one(self):
        assert fe(1).inverse().value == 1
        assert fermat_inverse(fe(1)).value == 1

    def test_inv_3_mod_7_bruteforce(self):
        mod7 = PrimeModulus(7)
        expected = next(x for x in range(1, 7) if 3 * x % 7 == 1)
        assert expected == 5
        assert FieldElement(3, mod7).inverse().value == expected

    def test_zero_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            fe(0).inverse()
        with pytest.raises(NonInvertibleError):
            fermat_inverse(fe(0))

    def test_inverse_property(self, rng):
        for _ in range(100):
            a = fe(rng.randrange(1, P256))
            assert (a * a.inverse()).value == 1

    def test_euclid_agrees_with_fermat(self, rng):
        for _ in range(100):
            a = fe(rng.randrange(1, P256))
            assert a.inverse() == fermat_inverse(a)

    def test_fermat_mul_count(self):
        e = P256 - 2
        expected = (e.bit_length() - 1) + bin(e).count("1") - 1
        with counters.scope() as sc:
            fermat_inverse(fe(0x1234567))
        assert sc.counters["mod_mul"] == expected
        # square-and-multiply averages ~1.5 multiplications per exponent bit
        assert expected == pytest.approx(1.5 * 256, rel=0.08)


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(20):
            a = fe(rng.randrange(P256))
            assert FieldElement.from_bytes(a.to_bytes(), MOD256) == a

    def test_rejects_value_at_or_above_p(self):
        data = P256.to_bytes(32, "big")
        with pytest.raises(FieldError):
            FieldElement.from_bytes(data, MOD256)

    def test_rejects_wrong_width(self):
        with pytest.raises(FieldError):
            FieldElement.from_bytes(b"\x01" * 31, MOD256)

    def test_hex(self):
        assert fe(1).hex() == "00" * 31 + "01"

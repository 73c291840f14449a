import pytest

from ecdtls import wire
from ecdtls.curve import (AffinePoint, CurveError, CurveParams, CurveRegistry,
                          PointDecodeError, builtin_registry, parse_registry_text,
                          point_add, point_double, validate_point)
from ecdtls.scalarmult import scalar_mul_unchecked


def test_builtin_registry_contents(registry):
    names = set(registry.names())
    assert {"secp160r1", "secp192r1", "secp224r1", "secp256r1",
            "toy59", "curve25519"} <= names


def test_builtin_tls_codes_unchanged(registry):
    assert {name: wire.tls_curve_id(name) for name in registry.names()} == {
        "secp160r1": 0x10, "secp192r1": 0x13, "secp224r1": 0x15,
        "secp256r1": 0x17, "toy59": 0xFECA, "curve25519": 0xFE2B}


def test_registered_generators_on_curve(registry):
    for name in registry.names():
        c = registry.get(name)
        assert c.equation_holds(c.gx, c.gy)
        assert c.discriminant_ok()
        assert c.mod.bitlen <= 256


class TestGroupLaw:
    def test_identity(self, curves):
        c = curves["secp256r1"]
        G = c.generator()
        assert point_add(G, c.infinity()) == G
        assert point_add(c.infinity(), G) == G

    def test_inverse(self, curves):
        G = curves["secp256r1"].generator()
        assert point_add(G, G.negate()).at_infinity

    def test_add_equal_points_dispatches_to_double(self, curves):
        G = curves["secp256r1"].generator()
        assert point_add(G, G) == point_double(G)

    def test_double_infinity(self, curves):
        inf = curves["secp192r1"].infinity()
        assert point_double(inf).at_infinity

    def test_double_two_torsion_point(self):
        # y^2 = x^3 - x over GF(59) has (0, 0) as a 2-torsion point
        c = CurveParams("torsion59", "weierstrass", 59, 58, 0, 3, 24, 53, 1)
        assert c.equation_holds(0, 0)
        P = AffinePoint(c, 0, 0)
        assert point_double(P).at_infinity

    def test_double_g_matches_independent_formula(self, curves):
        c = curves["secp192r1"]
        p, a = c.p, c.a
        lam = (3 * c.gx * c.gx + a) * pow(2 * c.gy, p - 2, p) % p
        x3 = (lam * lam - 2 * c.gx) % p
        y3 = (lam * (c.gx - x3) - c.gy) % p
        got = point_double(c.generator())
        assert (got.x, got.y) == (x3, y3)

    def test_mixed_curves_rejected(self, curves):
        with pytest.raises(CurveError):
            point_add(curves["secp192r1"].generator(),
                      curves["secp224r1"].generator())

    def test_commutativity_and_associativity(self, toy, rng):
        G = toy.generator()
        pts = [scalar_mul_unchecked(k, G) for k in range(1, toy.n)]
        for _ in range(500):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert point_add(P, Q) == point_add(Q, P)
            assert point_add(point_add(P, Q), R) == point_add(P, point_add(Q, R))

    def test_order_annihilates_generator(self, registry):
        for name in ("secp160r1", "secp192r1", "secp224r1", "secp256r1", "toy59"):
            c = registry.get(name)
            assert scalar_mul_unchecked(c.n, c.generator()).at_infinity


class TestEncoding:
    def test_uncompressed_round_trip(self, curves):
        for c in curves.values():
            G = c.generator()
            data = G.encode()
            assert data[0] == 0x04
            assert len(data) == 1 + 2 * c.mod.byte_len
            assert AffinePoint.decode(data, c) == G

    def test_decode_rejects_off_curve(self, curves):
        c = curves["secp256r1"]
        data = bytearray(c.generator().encode())
        data[-1] ^= 1
        with pytest.raises(PointDecodeError):
            AffinePoint.decode(bytes(data), c)

    def test_decode_rejects_oversize_coordinate(self, curves):
        c = curves["secp256r1"]
        data = b"\x04" + c.p.to_bytes(32, "big") + c.gy.to_bytes(32, "big")
        with pytest.raises(PointDecodeError):
            AffinePoint.decode(data, c)

    def test_infinity_not_encodable(self, curves):
        with pytest.raises(CurveError):
            curves["secp256r1"].infinity().encode()


class TestValidation:
    def test_validate_rejects_infinity(self, curves):
        with pytest.raises(CurveError):
            validate_point(curves["secp256r1"].infinity())

    def test_validate_rejects_off_curve(self, curves):
        c = curves["secp256r1"]
        P = AffinePoint(c, c.gx, (c.gy + 1) % c.p)
        with pytest.raises(CurveError):
            validate_point(P)

    def test_validate_accepts_generator(self, registry):
        for name in registry.names():
            c = registry.get(name)
            if c.kind == "weierstrass":
                validate_point(c.generator())


class TestRegistryParsing:
    def test_parse_round_trip(self):
        text = """
        # comment
        [tiny]
        kind = weierstrass
        p = 3b
        a = 02
        b = 0b
        gx = 05
        gy = 15
        n = 35
        h = 01
        """
        (params,) = parse_registry_text(text)
        assert params.id == "tiny"
        assert params.p == 59 and params.n == 53

    def test_missing_field_rejected(self):
        with pytest.raises(CurveError):
            parse_registry_text("[x]\nkind = weierstrass\np = 3b\n")

    def test_register_rejects_bad_generator(self):
        bad = CurveParams("bad59", "weierstrass", 59, 2, 11, 5, 22, 53, 1)
        reg = CurveRegistry()
        with pytest.raises(CurveError):
            reg.register(bad)

    def test_register_rejects_wrong_order(self):
        bad = CurveParams("bad59n", "weierstrass", 59, 2, 11, 5, 21, 59, 1)
        with pytest.raises(CurveError):
            CurveRegistry().register(bad)

    def test_register_rejects_colliding_tls_code(self, toy):
        # an anagram has the same byte sum, so the same private code point
        anagram = CurveParams("yot59", toy.kind, toy.p, toy.a, toy.b,
                              toy.gx, toy.gy, toy.n, toy.h)
        assert wire.tls_curve_id("yot59") == wire.tls_curve_id("toy59")
        reg = CurveRegistry()
        reg.register(toy)
        with pytest.raises(CurveError, match="0xfeca"):
            reg.register(anagram)
        assert reg.names() == ["toy59"]
        reg.register(toy)  # replacing a curve under its own id still works

    def test_register_rejects_singular(self):
        sing = CurveParams("sing", "weierstrass", 59, 0, 0, 1, 1, 53, 1)
        with pytest.raises(CurveError):
            CurveRegistry().register(sing)

    def test_montgomery_registration_validates_by_ladder(self, registry):
        c = registry.get("curve25519")
        assert c.kind == "montgomery"
        assert c.n_bits == 253

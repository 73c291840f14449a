import pytest

from ecdtls.curve import (AffinePoint, CurveError, CurveParams, CurveRegistry,
                          PointDecodeError, parse_registry_text, point_add,
                          point_double, validate_point)
from ecdtls.scalarmult import scalar_mul_unchecked

# TLS code point and OID for curves built in a test; no builtin curve has them
PRIVATE_IDS = (0xFE01, "1.3.6.1.4.1.55555.2")

TINY_RECORD = """[tiny]
kind = weierstrass
tls = fe01
oid = 1.3.6.1.4.1.55555.2
p = 3b
a = 02
b = 0b
gx = 05
gy = 15
n = 35
h = 01
"""


def test_builtin_registry_contents(registry):
    names = set(registry.names())
    assert {"secp160r1", "secp192r1", "secp224r1", "secp256r1",
            "toy59"} <= names


def test_builtin_tls_codes_unchanged(registry):
    assert {name: registry.get(name).tls_code
            for name in registry.names()} == {
        "secp160r1": 0x10, "secp192r1": 0x13, "secp224r1": 0x15,
        "secp256r1": 0x17, "toy59": 0xFECA}


def test_builtin_oids_unchanged(registry):
    assert {name: registry.get(name).oid for name in registry.names()} == {
        "secp160r1": "1.3.132.0.8", "secp192r1": "1.2.840.10045.3.1.1",
        "secp224r1": "1.3.132.0.33", "secp256r1": "1.2.840.10045.3.1.7",
        "toy59": "1.3.6.1.4.1.55555.1.116.111.121.53.57"}


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
        c = curves["secp256r1"]
        G = c.generator()
        assert point_add(G, AffinePoint(c, G.x, c.mod.p - G.y)).at_infinity

    def test_add_equal_points_dispatches_to_double(self, curves):
        G = curves["secp256r1"].generator()
        assert point_add(G, G) == point_double(G)

    def test_double_infinity(self, curves):
        inf = curves["secp192r1"].infinity()
        assert point_double(inf).at_infinity

    def test_double_two_torsion_point(self):
        # y^2 = x^3 - x over GF(59) has (0, 0) as a 2-torsion point
        c = CurveParams("torsion59", 59, 58, 0, 3, 24, 53, *PRIVATE_IDS)
        assert c.equation_holds(0, 0)
        P = AffinePoint(c, 0, 0)
        assert point_double(P).at_infinity

    def test_double_g_matches_independent_formula(self, curves):
        c = curves["secp192r1"]
        p, a = c.mod.p, c.a
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
        data = b"\x04" + c.mod.p.to_bytes(32, "big") + c.gy.to_bytes(32, "big")
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
        P = AffinePoint(c, c.gx, (c.gy + 1) % c.mod.p)
        with pytest.raises(CurveError):
            validate_point(P)

    def test_validate_accepts_generator(self, registry):
        for name in registry.names():
            validate_point(registry.get(name).generator())


class TestRegistryParsing:
    def test_parse_round_trip(self):
        text = """
        # comment
        [tiny]
        kind = weierstrass
        tls = fe01
        oid = 1.3.6.1.4.1.55555.2
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
        assert params.mod.p == 59 and params.n == 53
        assert params.tls_code == 0xFE01
        assert params.oid == "1.3.6.1.4.1.55555.2"

    def test_missing_field_rejected(self):
        with pytest.raises(CurveError):
            parse_registry_text("[x]\nkind = weierstrass\np = 3b\n")

    def test_register_rejects_bad_generator(self):
        bad = CurveParams("bad59", 59, 2, 11, 5, 22, 53, *PRIVATE_IDS)
        reg = CurveRegistry()
        with pytest.raises(CurveError):
            reg.register(bad)

    def test_register_rejects_wrong_order(self):
        bad = CurveParams("bad59n", 59, 2, 11, 5, 21, 59, *PRIVATE_IDS)
        with pytest.raises(CurveError):
            CurveRegistry().register(bad)

    def test_register_rejects_colliding_tls_code(self, toy):
        anagram = CurveParams("yot59", toy.mod.p, toy.a, toy.b,
                              toy.gx, toy.gy, toy.n, toy.tls_code,
                              PRIVATE_IDS[1])
        reg = CurveRegistry()
        reg.register(toy)
        with pytest.raises(CurveError, match="0xfeca"):
            reg.register(anagram)
        assert reg.names() == ["toy59"]
        reg.register(toy)  # replacing a curve under its own id still works

    def test_register_rejects_colliding_oid(self, toy):
        twin = CurveParams("yot59", toy.mod.p, toy.a, toy.b, toy.gx, toy.gy,
                           toy.n, PRIVATE_IDS[0], toy.oid)
        reg = CurveRegistry()
        reg.register(toy)
        with pytest.raises(CurveError, match="OID"):
            reg.register(twin)
        assert reg.names() == ["toy59"]

    def test_register_rejects_singular(self):
        sing = CurveParams("sing", 59, 0, 0, 1, 1, 53, *PRIVATE_IDS)
        with pytest.raises(CurveError):
            CurveRegistry().register(sing)

    def test_other_curve_form_refused(self):
        # a Montgomery record reuses the same keys; it must not be read as
        # the Weierstrass curve those numbers would describe
        text = TINY_RECORD.replace("weierstrass", "montgomery")
        assert parse_registry_text(text.replace("montgomery", "weierstrass"))
        with pytest.raises(CurveError, match="montgomery"):
            parse_registry_text(text)

    @pytest.mark.parametrize("line, replacement", [
        ("tls = fe01\n", ""),
        ("oid = 1.3.6.1.4.1.55555.2\n", ""),
        ("tls = fe01\n", "tls = 10000\n"),
        ("tls = fe01\n", "tls = -1\n"),
        ("oid = 1.3.6.1.4.1.55555.2\n", "oid = 1.3.6.1.4.1.fe\n"),
        ("oid = 1.3.6.1.4.1.55555.2\n", "oid = tiny\n"),
        ("oid = 1.3.6.1.4.1.55555.2\n", "oid = 1.45.1\n"),
        ("h = 01\n", "h = 02\n"),
        ("p = 3b\n", "p = 231\n"),  # 561 = 3 * 11 * 17
        ("n = 35\n", "n = 231\n"),
    ])
    def test_bad_record_refused(self, line, replacement):
        assert parse_registry_text(TINY_RECORD)
        assert line in TINY_RECORD
        with pytest.raises(CurveError, match="bad registry record 'tiny'"):
            CurveRegistry().load_text(TINY_RECORD.replace(line, replacement))

    # a second record that parses, with its own code point and OID, but
    # whose generator (5, 22) is off the curve
    OFF_CURVE = (TINY_RECORD.replace("[tiny]", "[tiny2]")
                 .replace("fe01", "fe02").replace("55555.2", "55555.3")
                 .replace("gy = 15", "gy = 16"))

    def test_failed_load_registers_nothing(self, toy):
        reg = CurveRegistry()
        reg.register(toy)
        with pytest.raises(CurveError):
            reg.load_text(TINY_RECORD + self.OFF_CURVE)
        assert reg.names() == ["toy59"]
        reg.load_text(TINY_RECORD)
        assert reg.names() == ["toy59", "tiny"]

    def test_validation_error_names_its_record(self):
        with pytest.raises(CurveError, match="bad registry record 'tiny2': "
                                             "generator not on curve"):
            CurveRegistry().load_text(TINY_RECORD + self.OFF_CURVE)

    def test_duplicate_record_refused(self):
        twin = TINY_RECORD.replace("fe01", "fe02").replace("55555.2", "55555.3")
        with pytest.raises(CurveError, match="duplicate registry record 'tiny'"):
            parse_registry_text(TINY_RECORD + twin)

    def test_repeated_key_refused(self):
        with pytest.raises(CurveError, match="repeated key 'gy'"):
            parse_registry_text(TINY_RECORD + "gy = 15\n")

    def test_unknown_key_refused(self):
        with pytest.raises(CurveError, match="unknown key 'q'"):
            parse_registry_text(TINY_RECORD + "q = 05\n")

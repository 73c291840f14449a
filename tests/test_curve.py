import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls import counters
from ecdtls.curve import (AffinePoint, CurveError, CurveParams, CurveRegistry,
                          PointDecodeError, _pending_registry,
                          builtin_registry, parse_registry_text)
from ecdtls.ecdsa import KeyPair
from ecdtls.scalarmult import ecsm_comb, order_annihilates_generator
from ecdtls.x509 import UnsupportedCurveError, make_certificate, x509_parse
from conftest import SHIPPED_TEXT, registered_names
from reference_engines import scalar_mul_unchecked
from test_formula_prices import oracle_add, oracle_double
from test_scalarmult import run_threads

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
    names = set(registered_names(registry))
    assert {"secp160r1", "secp192r1", "secp224r1", "secp256r1",
            "toy59"} <= names


def test_builtin_tls_codes_unchanged(registry):
    assert {name: registry.get(name).tls_code
            for name in registered_names(registry)} == {
        "secp160r1": 0x10, "secp192r1": 0x13, "secp224r1": 0x15,
        "secp256r1": 0x17, "toy59": 0xFECA}


def test_builtin_oids_unchanged(registry):
    assert {name: registry.get(name).oid
            for name in registered_names(registry)} == {
        "secp160r1": "1.3.132.0.8", "secp192r1": "1.2.840.10045.3.1.1",
        "secp224r1": "1.3.132.0.33", "secp256r1": "1.2.840.10045.3.1.7",
        "toy59": "1.3.6.1.4.1.55555.1.116.111.121.53.57"}


def test_registered_generators_on_curve(registry):
    for name in registered_names(registry):
        c = registry.get(name)
        assert c.equation_holds(c.gx, c.gy)
        assert c.discriminant_ok()
        assert c.mod.bitlen <= 256


class TestGroupLaw:
    # the oracles stand for the identity by None, which no AffinePoint is
    def test_identity(self, curves):
        c = curves["secp256r1"]
        G = c.generator()
        assert oracle_add(G, None) == G
        assert oracle_add(None, G) == G

    def test_inverse(self, curves):
        c = curves["secp256r1"]
        G = c.generator()
        assert oracle_add(G, AffinePoint(c, G.x, c.mod.p - G.y)) is None

    def test_add_equal_points_dispatches_to_double(self, curves):
        G = curves["secp256r1"].generator()
        assert oracle_add(G, G) == oracle_double(G)

    def test_double_infinity(self):
        assert oracle_double(None) is None

    def test_double_two_torsion_point(self):
        # y^2 = x^3 - x over GF(59) has (0, 0) as a 2-torsion point
        c = CurveParams("torsion59", 59, 58, 0, 3, 24, 53, *PRIVATE_IDS)
        assert c.equation_holds(0, 0)
        P = AffinePoint(c, 0, 0)
        assert oracle_double(P) is None

    def test_double_g_matches_independent_formula(self, curves):
        c = curves["secp192r1"]
        p, a = c.mod.p, c.a
        lam = (3 * c.gx * c.gx + a) * pow(2 * c.gy, p - 2, p) % p
        x3 = (lam * lam - 2 * c.gx) % p
        y3 = (lam * (c.gx - x3) - c.gy) % p
        got = oracle_double(c.generator())
        assert (got.x, got.y) == (x3, y3)

    def test_commutativity_and_associativity(self, toy, rng):
        G = toy.generator()
        pts = [scalar_mul_unchecked(k, G) for k in range(1, toy.n)]
        for _ in range(500):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert oracle_add(P, Q) == oracle_add(Q, P)
            assert oracle_add(oracle_add(P, Q), R) == \
                oracle_add(P, oracle_add(Q, R))

    def test_order_annihilates_generator(self, registry):
        for name in ("secp160r1", "secp192r1", "secp224r1", "secp256r1", "toy59"):
            c = registry.get(name)
            assert scalar_mul_unchecked(c.n, c.generator()) is None
            assert order_annihilates_generator(c)


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
        # SEC1 encodes the identity as the single byte 00; no point is the
        # identity, so no point decodes from it
        c = curves["secp256r1"]
        for data in (b"\x00", b"\x04" + bytes(2 * c.mod.byte_len)):
            with pytest.raises(PointDecodeError):
                AffinePoint.decode(data, c)


def decodes_to_its_input_or_refuses(data: bytes, curve: CurveParams) -> None:
    """decode either returns a point that encodes back to data or raises
    PointDecodeError; any other exception escapes and fails the test."""
    try:
        P = AffinePoint.decode(data, curve)
    except PointDecodeError:
        return
    assert P.encode() == data


@pytest.mark.parametrize("name", registered_names(builtin_registry()))
class TestDecodeProperty:
    # the one place a point comes from outside: what a peer or a
    # certificate sends reaches AffinePoint only through decode
    @given(data=st.data())
    @settings(max_examples=100)
    def test_arbitrary_bytes_of_the_point_width(self, name, data):
        curve = builtin_registry().get(name)
        width = 1 + 2 * curve.mod.byte_len
        # half of the draws lead with the uncompressed tag, so that the
        # coordinates' checks are reached
        decodes_to_its_input_or_refuses(data.draw(st.one_of(
            st.binary(min_size=width, max_size=width),
            st.binary(min_size=width - 1, max_size=width - 1).map(
                lambda rest: b"\x04" + rest))), curve)

    @given(k=st.integers(1), at=st.integers(0), byte=st.integers(0, 255))
    @settings(max_examples=100)
    def test_one_byte_mutations_of_valid_encodings(self, name, k, at, byte):
        curve = builtin_registry().get(name)
        data = bytearray(ecsm_comb(k % (curve.n - 1) + 1,
                                   curve.generator()).encode())
        data[at % len(data)] = byte
        decodes_to_its_input_or_refuses(bytes(data), curve)


class TestValidation:
    # a point is checked once, when it is made
    def test_validate_rejects_infinity(self, curves):
        # the identity has no affine coordinates, and (0, 0), which some
        # libraries use for it, is off every curve with b != 0
        for c in curves.values():
            with pytest.raises(CurveError, match="point not on curve"):
                AffinePoint(c, 0, 0)

    def test_validate_rejects_off_curve(self, curves):
        c = curves["secp256r1"]
        with pytest.raises(CurveError, match="point not on curve"):
            AffinePoint(c, c.gx, (c.gy + 1) % c.mod.p)

    def test_out_of_range_point_cannot_be_made(self, curves):
        c = curves["secp256r1"]
        for x, y in ((c.gx + c.mod.p, c.gy), (c.gx, c.gy - c.mod.p)):
            with pytest.raises(CurveError, match="field range"):
                AffinePoint(c, x, y)

    def test_validate_accepts_generator(self, registry):
        for name in registered_names(registry):
            c = registry.get(name)
            G = c.generator()
            assert (G.x, G.y) == (c.gx, c.gy)


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
        # a = 2, so the kernel doubles through _jdouble
        bad = CurveParams("bad59n", 59, 2, 11, 5, 21, 59, *PRIVATE_IDS)
        with pytest.raises(CurveError, match="n \\* G is not the identity"):
            CurveRegistry().register(bad)

    def test_register_rejects_wrong_order_on_a_minus_3(self, curves):
        # secp160r1 with n the next prime above its order: a = -3, so the
        # kernel's inline doubling is what refuses it
        c = curves["secp160r1"]
        n = 0x0100000000000000000001F4C8F927AED3CA752397
        assert n.bit_length() == c.n_bits and n != c.n
        bad = CurveParams("bad160n", c.mod.p, c.a, c.b, c.gx, c.gy, n,
                          *PRIVATE_IDS)
        assert not order_annihilates_generator(bad)
        with pytest.raises(CurveError, match="n \\* G is not the identity"):
            CurveRegistry().register(bad)

    def test_cofactor_above_one_refused(self):
        # y^2 = x^3 + 2x + 7 over GF(101) has 106 = 2 * 53 points.  G has
        # the prime order 53, so n*G = O holds, but the record's h = 1 is
        # false: its point (0x45, 0) has order 2, and d*(0x45, 0) would
        # leak d mod 2 (Lim and Lee, CRYPTO 1997).  53 is outside the Hasse
        # interval of p = 101, so the record is refused.
        text = (TINY_RECORD.replace("p = 3b", "p = 65")
                .replace("b = 0b", "b = 07").replace("gx = 05", "gx = 49")
                .replace("gy = 15", "gy = 2c"))
        (params,) = parse_registry_text(text)
        assert params.equation_holds(0x45, 0)
        assert order_annihilates_generator(params)
        with pytest.raises(CurveError, match="bad registry record 'tiny': "
                                             "n does not prove cofactor 1"):
            CurveRegistry().load_text(text)

    def test_registry_load_records_nothing(self):
        with counters.scope(trace=True) as sc:
            CurveRegistry().load_text(SHIPPED_TEXT)
        assert sc.counters == {} and sc.trace == []

    def test_register_rejects_colliding_tls_code(self, toy):
        anagram = CurveParams("yot59", toy.mod.p, toy.a, toy.b,
                              toy.gx, toy.gy, toy.n, toy.tls_code,
                              PRIVATE_IDS[1])
        reg = CurveRegistry()
        reg.register(toy)
        with pytest.raises(CurveError, match="0xfeca"):
            reg.register(anagram)
        assert registered_names(reg) == ["toy59"]
        reg.register(toy)  # replacing a curve under its own id still works

    def test_register_rejects_colliding_oid(self, toy):
        twin = CurveParams("yot59", toy.mod.p, toy.a, toy.b, toy.gx, toy.gy,
                           toy.n, PRIVATE_IDS[0], toy.oid)
        reg = CurveRegistry()
        reg.register(toy)
        with pytest.raises(CurveError, match="OID"):
            reg.register(twin)
        assert registered_names(reg) == ["toy59"]

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
        # plain hex digits only, and a, b, gx and gy below p
        ("a = 02\n", "a = 0x02\n"),
        ("a = 02\n", "a = +02\n"),
        ("a = 02\n", "a = 0_2\n"),
        ("a = 02\n", "a = -3\n"),
        ("a = 02\n", "a = 3d\n"),   # 61 = 2 + 59
        ("gx = 05\n", "gx = 40\n"),  # 64 = 5 + 59
        ("gy = 15\n", "gy = 50\n"),  # 80 = 21 + 59
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
        assert registered_names(reg) == ["toy59"]
        reg.load_text(TINY_RECORD)
        assert registered_names(reg) == ["toy59", "tiny"]

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


def proved_names(registry) -> list:
    return [name for name in registered_names(registry)
            if isinstance(registry._curves[name], CurveParams)]


class TestFirstLookup:
    # a shipped-format text gets every check but the proofs when it is
    # read, and each record its proof at the first lookup that names it

    # n = 61 is prime and passes the Hasse bound, but G has order 53
    WRONG_N = TINY_RECORD.replace("n = 35", "n = 3d")

    def test_reading_proves_nothing(self):
        reg = _pending_registry(SHIPPED_TEXT)
        assert registered_names(reg) == registered_names(builtin_registry())
        assert registered_names(reg) == ["secp160r1", "secp192r1",
                                         "secp224r1", "secp256r1", "toy59"]
        assert proved_names(reg) == []
        assert reg.by_oid("1.3.132.0.33").id == "secp224r1"
        assert proved_names(reg) == ["secp224r1"]

    def test_bad_record_refused_at_every_lookup(self, toy):
        with pytest.raises(CurveError) as eager:
            CurveRegistry().load_text(self.WRONG_N)
        assert str(eager.value) == ("bad registry record 'tiny': "
                                    "n * G is not the identity")
        reg = _pending_registry(SHIPPED_TEXT + self.WRONG_N)
        assert reg.get("toy59").n == toy.n
        lookups = ((reg.get, "tiny"), (reg.by_oid, PRIVATE_IDS[1]))
        for lookup, key in lookups * 2:
            with pytest.raises(CurveError) as lazy:
                lookup(key)
            assert str(lazy.value) == str(eager.value)
        assert proved_names(reg) == ["toy59"]
        tiny = CurveParams("tiny", 59, 2, 11, 5, 21, 61, *PRIVATE_IDS)
        der = make_certificate("leaf", "ca", 2, AffinePoint(tiny, 5, 21),
                               KeyPair(7, toy), 0, 1)
        with pytest.raises(UnsupportedCurveError, match="'tiny': n \\* G"):
            x509_parse(der, reg)

    @pytest.mark.parametrize("tail, error", [
        (TINY_RECORD.replace("weierstrass", "montgomery"), "montgomery"),
        (TINY_RECORD.replace("h = 01", "h = 02"), "cofactor"),
        (TINY_RECORD.replace("gy = 15\n", ""), "missing key 'gy'"),
        (TINY_RECORD + "q = 05\n", "unknown key 'q'"),
        (TINY_RECORD + "q\n", "unparseable"),
        (TINY_RECORD.replace("tiny", "toy59"), "duplicate registry record"),
        (TINY_RECORD.replace("fe01", "feca"), "0xfeca of 'tiny' is taken"),
        (TINY_RECORD.replace(PRIVATE_IDS[1],
                             "1.3.6.1.4.1.55555.1.116.111.121.53.57"),
         "OID .* of 'tiny' is taken by 'toy59'"),
    ])
    def test_file_faults_refused_when_read(self, tail, error):
        with pytest.raises(CurveError, match=error):
            _pending_registry(SHIPPED_TEXT + tail)

    @pytest.mark.parametrize("ids", [(0xFECA, PRIVATE_IDS[1]),
                                     (PRIVATE_IDS[0], "1.3.132.0.8")])
    def test_register_refuses_what_a_pending_record_holds(self, toy, ids):
        reg = _pending_registry(SHIPPED_TEXT)
        twin = CurveParams("yot59", toy.mod.p, toy.a, toy.b, toy.gx, toy.gy,
                           toy.n, *ids)
        with pytest.raises(CurveError, match="is taken by"):
            reg.register(twin)
        assert "yot59" not in registered_names(reg)
        assert proved_names(reg) == []

    def test_first_lookup_records_nothing(self):
        reg = _pending_registry(SHIPPED_TEXT + self.WRONG_N)
        with counters.scope(trace=True) as sc:
            for name in registered_names(reg):
                try:
                    reg.get(name)
                except CurveError:
                    assert name == "tiny"
        assert sc.counters == {} and sc.trace == []
        assert len(proved_names(reg)) == 5

    @pytest.mark.parametrize("attempt", range(3))
    def test_racing_first_lookups_share_one_curve(self, attempt):
        reg = _pending_registry(SHIPPED_TEXT)
        seen = [None] * 4
        start = threading.Barrier(4, timeout=60)

        def first_lookup(i):
            start.wait()
            curve = reg.by_oid("1.3.132.0.8") if i % 2 else \
                reg.get("secp160r1")
            seen[i] = (curve, curve.generator())

        assert run_threads(first_lookup, 4) == []
        assert len({id(curve) for curve, _ in seen}) == 1
        assert len({id(G) for _, G in seen}) == 1

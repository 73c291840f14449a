import calendar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls.credentials import (CA_CN, NOT_AFTER, NOT_BEFORE, SERVER_CN,
                                generate_pki)
from ecdtls.curve import CurveParams, CurveRegistry
from ecdtls.der import (TAG_BIT_STRING, TAG_INTEGER, TAG_OID, TAG_SEQUENCE,
                        TAG_SET, TAG_UTCTIME, TAG_UTF8, DerCursor, DerError,
                        der_oid, der_tlv, der_utctime)
from ecdtls.drbg import HmacDrbg
from ecdtls.ecdsa import EcdsaSignature, KeyPair, SignatureError
from ecdtls.x509 import (CertCache, MalformedDerError, X509Error,
                         make_certificate, x509_parse)

HYPOTHESIS = settings(derandomize=True, deadline=None, max_examples=200)

UTC_FIRST = calendar.timegm((1950, 1, 1, 0, 0, 0))
UTC_LAST = calendar.timegm((2049, 12, 31, 23, 59, 59))
OID_COMMON_NAME = "2.5.4.3"


def read(encoding, method):
    """Read one element with a DerCursor method; the whole input must be
    consumed."""
    cur = DerCursor(encoding)
    value = getattr(cur, method)()
    cur.expect_done()
    return value


@st.composite
def dotted_oids(draw):
    first = draw(st.integers(0, 2))
    second = draw(st.integers(0, 39 if first < 2 else 2**40))
    rest = draw(st.lists(st.integers(0, 2**70), max_size=6))
    return ".".join(map(str, [first, second] + rest))


class TestOid:
    @given(dotted_oids())
    @HYPOTHESIS
    def test_round_trip(self, oid):
        assert read(der_oid(oid), "read_oid") == oid

    @given(st.lists(st.sampled_from([0x00, 0x01, 0x28, 0x4F, 0x50, 0x7F,
                                     0x80, 0x81, 0x88, 0xFF])
                    | st.integers(0, 255), max_size=10).map(bytes))
    @HYPOTHESIS
    def test_decoded_contents_re_encode_exactly(self, contents):
        encoding = der_tlv(TAG_OID, contents)
        try:
            oid = read(encoding, "read_oid")
        except DerError:
            return
        assert der_oid(oid) == encoding

    @pytest.mark.parametrize("contents, oid", [
        ("8837" "01", "2.999.1"),
        ("2a8648ce3d030107", "1.2.840.10045.3.1.7"),
        ("4f", "1.39"),
        ("50", "2.0"),
        ("00", "0.0"),
    ])
    def test_known_encodings(self, contents, oid):
        encoding = der_tlv(TAG_OID, bytes.fromhex(contents))
        assert read(encoding, "read_oid") == oid
        assert der_oid(oid) == encoding

    @pytest.mark.parametrize("contents", [
        "",          # empty
        "2a86",      # last subidentifier truncated
        "2a8001",    # subidentifier padded with a leading 80
        "8001",      # first subidentifier padded
    ])
    def test_bad_encodings_refused(self, contents):
        with pytest.raises(DerError):
            read(der_tlv(TAG_OID, bytes.fromhex(contents)), "read_oid")

    @pytest.mark.parametrize("oid", [
        "1.45.1", "0.40", "3.1", "1", "", "1.2.", ".1.2", "1..2", "1.02",
        "1.2.-3", "1.+2", "1. 2", "1.2_0", "1.٢", "tiny", "1.3.6.1.4.1.fe",
    ])
    def test_non_canonical_dotted_decimal_refused(self, oid):
        with pytest.raises(DerError):
            der_oid(oid)


class TestUtcTime:
    @given(st.integers(UTC_FIRST, UTC_LAST))
    @HYPOTHESIS
    def test_round_trip(self, epoch):
        assert read(der_utctime(epoch), "read_utctime") == epoch

    @pytest.mark.parametrize("epoch", [UTC_FIRST - 1, UTC_LAST + 1])
    def test_encoder_range(self, epoch):
        with pytest.raises(DerError):
            der_utctime(epoch)

    def test_leap_day_and_century_window(self):
        assert read(der_tlv(TAG_UTCTIME, b"240229000000Z"),
                    "read_utctime") == calendar.timegm((2024, 2, 29, 0, 0, 0))
        assert read(der_tlv(TAG_UTCTIME, b"500101000000Z"),
                    "read_utctime") == UTC_FIRST
        assert read(der_tlv(TAG_UTCTIME, b"491231235959Z"),
                    "read_utctime") == UTC_LAST

    @pytest.mark.parametrize("text", [
        b"240231000000Z",   # Feb 31
        b"230229000000Z",   # Feb 29 outside a leap year
        b"241301000000Z",   # month 13
        b"240001000000Z",   # month 0
        b"240100000000Z",   # day 0
        b"240431000000Z",   # Apr 31
        b"240101240000Z",   # hour 24
        b"240101006000Z",   # minute 60
        b"240101000060Z",   # second 60
        b"2401010000Z",     # no seconds
        b"240101000000",    # no Z
        b"240101000000+0000",
        b"2401010000+0Z",
        b"24010100 000Z",
    ])
    def test_impossible_or_malformed_refused(self, text):
        with pytest.raises(DerError):
            read(der_tlv(TAG_UTCTIME, text), "read_utctime")


class TestCursor:
    def test_whole_refuses_trailing_bytes(self):
        encoding = der_tlv(TAG_SEQUENCE, der_tlv(TAG_INTEGER, b"\x05"))
        assert DerCursor.whole(encoding, TAG_SEQUENCE).read_uint() == 5
        with pytest.raises(DerError):
            DerCursor.whole(encoding + b"\x00", TAG_SEQUENCE)
        with pytest.raises(DerError):
            DerCursor.whole(encoding, TAG_SET)

    def test_read_raw_is_the_full_encoding(self):
        inner = der_tlv(TAG_SEQUENCE, b"\x05\x00" * 100)
        cur = DerCursor(inner + der_tlv(TAG_INTEGER, b"\x01"))
        assert cur.read_raw(TAG_SEQUENCE) == inner
        assert cur.read_uint() == 1 and cur.done()

    @pytest.mark.parametrize("contents", ["", "01ff", "0700"])
    def test_bit_string_needs_zero_unused_bits(self, contents):
        assert read(der_tlv(TAG_BIT_STRING, b"\x00\xab"),
                    "read_bit_string") == b"\xab"
        with pytest.raises(DerError):
            read(der_tlv(TAG_BIT_STRING, bytes.fromhex(contents)),
                 "read_bit_string")


# ---------------------------------------------------------------------------
# Mutated encodings raise only the parser's own error type

@pytest.fixture(scope="module")
def fixture_certs(registry):
    ders = []
    for name in ("toy59", "secp256r1"):
        pki = generate_pki(registry.get(name), b"der-mutation" * 3)
        ders += [pki.ca_der, pki.server.cert_der]
    return ders


@st.composite
def mutations(draw):
    """One mutation of a byte string: bit flip, truncation, extension or
    byte overwrite, as a function of the original."""
    kind = draw(st.sampled_from(["flip", "truncate", "extend", "overwrite"]))
    where = draw(st.integers(0, 2**16))
    byte = draw(st.integers(0, 255))
    tail = draw(st.binary(min_size=1, max_size=4))

    def mutate(data):
        i = where % len(data)
        if kind == "flip":
            return data[:i] + bytes([data[i] ^ 1 << byte % 8]) + data[i + 1:]
        if kind == "truncate":
            return data[:i]
        if kind == "extend":
            return data + tail
        return data[:i] + bytes([byte]) + data[i + 1:]
    return mutate


class TestMutations:
    @given(st.integers(0, 3), mutations())
    @HYPOTHESIS
    def test_certificate_raises_only_x509_error(self, registry,
                                                fixture_certs, which,
                                                mutate):
        try:
            x509_parse(mutate(fixture_certs[which]), registry)
        except X509Error:
            pass

    @given(st.integers(1, 2**256), st.integers(1, 2**256), mutations())
    @HYPOTHESIS
    def test_signature_raises_only_signature_error(self, r, s, mutate):
        try:
            EcdsaSignature.from_der(mutate(EcdsaSignature(r, s).to_der()))
        except SignatureError:
            pass


# ---------------------------------------------------------------------------
# Pinned certificate cases

def _atv(value_tlv):
    return der_tlv(TAG_SEQUENCE, der_oid(OID_COMMON_NAME) + value_tlv)


class TestNames:
    @pytest.fixture(scope="class")
    def pki(self, registry):
        return generate_pki(registry.get("toy59"), b"der-names" * 4)

    @pytest.fixture(scope="class")
    def leaf(self, pki):
        return pki.server.cert_der

    @pytest.mark.parametrize("cn", [SERVER_CN, CA_CN])
    def test_rdn_holding_an_integer_refused(self, registry, leaf, cn):
        # swap the subject's (or issuer's) AttributeTypeAndValue for an
        # INTEGER of the same length, so no outer length changes
        atv = _atv(der_tlv(TAG_UTF8, cn.encode()))
        assert leaf.count(atv) == 1
        integer = der_tlv(TAG_INTEGER, b"\x01" * (len(atv) - 2))
        assert len(integer) == len(atv)
        with pytest.raises(MalformedDerError):
            x509_parse(leaf.replace(atv, integer), registry)

    @pytest.mark.parametrize("value", [
        der_tlv(TAG_INTEGER, b"\x01\x02\x03\x04\x05\x06"),   # not a string
        der_tlv(TAG_UTF8, b"\xff\xfe\xfd\xfc\xfb\xfa"),      # not UTF-8
    ])
    def test_bad_common_name_value_refused(self, registry, leaf, value):
        atv = _atv(der_tlv(TAG_UTF8, SERVER_CN.encode()))
        assert leaf.count(atv) == 1 and len(value) == 2 + len(SERVER_CN)
        with pytest.raises(MalformedDerError):
            x509_parse(leaf.replace(atv, _atv(value)), registry)

    def test_names_read(self, registry, pki, leaf):
        cert = x509_parse(leaf, registry)
        ca = x509_parse(pki.ca_der, registry)
        assert (cert.subject_cn, ca.subject_cn) == (SERVER_CN, CA_CN)
        assert cert.issuer == ca.subject == ca.issuer
        assert cert.subject in leaf and cert.subject[0] == TAG_SEQUENCE

    def test_cache_file_keeps_subject_cn(self, registry, pki, leaf,
                                         tmp_path):
        cn = der_oid(OID_COMMON_NAME) + der_tlv(TAG_UTF8, b"server")
        surname = der_oid("2.5.4.4") + der_tlv(TAG_UTF8, b"server")
        assert leaf.count(cn) == 1
        unicode_cn = make_certificate("s\u00e9rveur \u2713", CA_CN, 9,
                                      pki.server.key.Q, pki.ca_key,
                                      NOT_BEFORE, NOT_AFTER)
        anchor = pki.ca_key.Q
        path = str(tmp_path / "cache.txt")
        for der, expected in [(leaf.replace(cn, surname), None),
                              (unicode_cn, "s\u00e9rveur \u2713")]:
            cache = CertCache()
            cache.insert(x509_parse(der, registry), anchor)
            cache.save(path)
            entry = CertCache.load(path, registry).check(der, anchor,
                                                        NOT_BEFORE)
            assert entry.subject_cn == expected


def test_curve_under_arc_2_round_trips(toy):
    twin = CurveParams("toy2999", toy.p, toy.a, toy.b, toy.gx, toy.gy, toy.n,
                       0xFE02, "2.999.1")
    reg = CurveRegistry()
    reg.register(twin)
    key = KeyPair.generate(twin, HmacDrbg(b"arc-two" * 5))
    der = make_certificate("t", "t", 7, key.Q, key, UTC_FIRST, UTC_LAST)
    assert der_oid("2.999.1") in der
    cert = x509_parse(der, reg)
    assert cert.public_key.curve is twin
    assert cert.public_key == key.Q

import calendar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls.credentials import CA_CN, SERVER_CN, generate_pki
from ecdtls.curve import CurveParams, CurveRegistry
from ecdtls.der import (TAG_BIT_STRING, TAG_CTX3, TAG_INTEGER,
                        TAG_OCTET_STRING, TAG_OID, TAG_PRINTABLE, TAG_SEQUENCE,
                        TAG_SET, TAG_UTCTIME, TAG_UTF8, DerCursor, DerError,
                        _timegm, der_integer, der_oid, der_tlv,
                        der_utctime)
from ecdtls.drbg import HmacDrbg
from ecdtls.ecdsa import EcdsaSignature, KeyPair, SignatureError
from ecdtls.x509 import (MalformedDerError, X509Error, make_certificate,
                         x509_parse)

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

    def test_timegm_is_calendar_timegm(self):
        # linear in the day and time fields past their ranges too, which is
        # what lets the gmtime round trip refuse Feb 31 and hour 24
        for year in range(1950, 2050):
            for month in range(1, 13):
                for day in (-1, 0, 1, 15, 28, 29, 30, 31, 32, 99):
                    for hms in ((0, 0, 0), (23, 59, 59), (24, 0, 0),
                                (99, 99, 99)):
                        fields = (year, month, day, *hms)
                        assert _timegm(*fields) == calendar.timegm(fields)

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


def _set_of_sequences(values):
    """A SET OF SEQUENCE { INTEGER }, its elements in the order given."""
    return der_tlv(TAG_SET, b"".join(der_tlv(TAG_SEQUENCE, der_integer(v))
                                     for v in values))


class TestSetOf:
    @pytest.mark.parametrize("values", [[1], [1, 2], [1, 1], [2, 300]])
    def test_der_order_read(self, values):
        cur = DerCursor(_set_of_sequences(values))
        assert [e.read_uint() for e in cur.enter_set_of(TAG_SEQUENCE)] == \
            values
        cur.expect_done()

    @pytest.mark.parametrize("values", [[2, 1], [1, 3, 2], [300, 2]])
    def test_out_of_order_refused(self, values):
        with pytest.raises(DerError):
            DerCursor(_set_of_sequences(values)).enter_set_of(TAG_SEQUENCE)

    def test_element_tag_checked(self):
        cur = DerCursor(der_tlv(TAG_SET, der_integer(1)))
        with pytest.raises(DerError):
            cur.enter_set_of(TAG_SEQUENCE)


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


def with_tbs_field(cert_der, index, encoding):
    """cert_der with field `index` of its TBSCertificate replaced by
    encoding and every length around it re-encoded.  The signature no longer
    matches, which parsing does not check."""
    top = DerCursor.whole(cert_der, TAG_SEQUENCE)
    tbs = DerCursor.whole(top.read_raw(TAG_SEQUENCE), TAG_SEQUENCE)
    fields = []
    while not tbs.done():
        fields.append(tbs.read_raw(tbs.peek_tag()))
    fields[index] = encoding
    return der_tlv(TAG_SEQUENCE, der_tlv(TAG_SEQUENCE, b"".join(fields)) +
                   top.data[top.pos:])


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

    def test_multi_valued_rdn_in_der_order(self, registry, leaf):
        # X.690 11.6: a countryName "US" encodes shorter than commonName
        # "server", so it sorts first within the SET
        cn = _atv(der_tlv(TAG_UTF8, SERVER_CN.encode()))
        country = der_tlv(TAG_SEQUENCE, der_oid("2.5.4.6") +
                          der_tlv(TAG_PRINTABLE, b"US"))
        assert country < cn

        def subject(*atvs):
            return der_tlv(TAG_SEQUENCE, der_tlv(TAG_SET, b"".join(atvs)))
        assert with_tbs_field(leaf, SUBJECT, subject(cn)) == leaf
        with pytest.raises(MalformedDerError):
            x509_parse(with_tbs_field(leaf, SUBJECT, subject(cn, country)),
                       registry)
        cert = x509_parse(with_tbs_field(leaf, SUBJECT, subject(country, cn)),
                          registry)
        assert cert.subject_cn == SERVER_CN


# TBSCertificate field positions: version, serial, signature, issuer,
# validity, subject, subjectPublicKeyInfo, extensions
SUBJECT = 5
EXTENSIONS = 7
BASIC_CONSTRAINTS = der_oid("2.5.29.19")
CRITICAL = b"\x01\x01\xff"
CA_TRUE = b"\x01\x01\xff"


def _extensions(*exts):
    return der_tlv(TAG_CTX3, der_tlv(TAG_SEQUENCE, b"".join(exts)))


def _basic_constraints(contents, critical=CRITICAL):
    return der_tlv(TAG_SEQUENCE, BASIC_CONSTRAINTS + critical + der_tlv(
        TAG_OCTET_STRING, der_tlv(TAG_SEQUENCE, contents)))


class TestExtensions:
    @pytest.fixture(scope="class")
    def ca(self, registry):
        ca_der = generate_pki(registry.get("toy59"), b"der-exts" * 4).ca_der
        assert with_tbs_field(ca_der, EXTENSIONS, _extensions(
            _basic_constraints(CA_TRUE))) == ca_der
        return ca_der

    def parse(self, registry, ca, *exts):
        return x509_parse(with_tbs_field(ca, EXTENSIONS, _extensions(*exts)),
                          registry)

    @pytest.mark.parametrize("path_len", [0, 1, 200])
    def test_path_len_constraint_read(self, registry, ca, path_len):
        cert = self.parse(registry, ca, _basic_constraints(
            CA_TRUE + der_integer(path_len)))
        assert cert.is_ca

    @pytest.mark.parametrize("contents", [
        pytest.param(bytes.fromhex("0101ff 04046a756e6b 0c0178"),
                     id="octet-and-utf8-after-ca"),
        pytest.param(CA_TRUE + bytes.fromhex("0201ff"), id="negative"),
        pytest.param(CA_TRUE + bytes.fromhex("02020001"), id="non-minimal"),
        pytest.param(CA_TRUE + der_integer(0) + der_integer(0),
                     id="two-path-lens"),
        pytest.param(CA_TRUE + der_integer(0) + b"\x05\x00",
                     id="null-after-path-len"),
        pytest.param(CA_TRUE + b"\x05\x00", id="null-for-path-len"),
        # RFC 5280 4.2.1.9: a pathLenConstraint only where cA is TRUE
        pytest.param(der_integer(0), id="path-len-without-ca"),
    ])
    def test_anything_else_in_basic_constraints_refused(self, registry, ca,
                                                        contents):
        with pytest.raises(MalformedDerError):
            self.parse(registry, ca, _basic_constraints(contents))

    def test_empty_extensions_refused(self, registry, ca):
        # RFC 5280 4.1: Extensions is SEQUENCE SIZE (1..MAX); none is no field
        assert _extensions() == bytes.fromhex("a302 3000")
        with pytest.raises(MalformedDerError):
            self.parse(registry, ca)

    def test_repeated_extension_refused(self, registry, ca):
        # RFC 5280 4.2: a second, empty basicConstraints after the critical
        # cA TRUE one would otherwise override it
        with pytest.raises(MalformedDerError):
            self.parse(registry, ca, _basic_constraints(CA_TRUE),
                       _basic_constraints(b"", critical=b""))
        other = der_tlv(TAG_SEQUENCE, der_oid("2.5.29.99") + der_tlv(
            TAG_OCTET_STRING, b""))
        assert self.parse(registry, ca, _basic_constraints(CA_TRUE),
                          other).is_ca
        with pytest.raises(MalformedDerError):
            self.parse(registry, ca, other, _basic_constraints(CA_TRUE),
                       other)


def test_curve_under_arc_2_round_trips(toy):
    twin = CurveParams("toy2999", toy.mod.p, toy.a, toy.b, toy.gx, toy.gy,
                       toy.n, 0xFE02, "2.999.1")
    reg = CurveRegistry()
    reg.register(twin)
    key = KeyPair.generate(twin, HmacDrbg(b"arc-two" * 5))
    der = make_certificate("t", "t", 7, key.Q, key, UTC_FIRST, UTC_LAST)
    assert der_oid("2.999.1") in der
    cert = x509_parse(der, reg)
    assert cert.public_key.curve is twin
    assert cert.public_key == key.Q

import pytest

from ecdtls import counters
from ecdtls.der import (TAG_CTX3, TAG_OCTET_STRING, TAG_SEQUENCE, DerCursor,
                        der_read_tlv, der_tlv)
from ecdtls.drbg import HmacDrbg
from ecdtls.ecdsa import KeyPair
from ecdtls.x509 import (ACCEPTED, CertCache, MalformedDerError,
                         REJECT_BAD_SIGNATURE, REJECT_EXPIRED, X509Error,
                         UnknownCriticalExtensionError,
                         UnsupportedAlgorithmError, UnsupportedCurveError,
                         make_certificate, x509_parse, x509_verify)

NOT_BEFORE = 1704067200   # 2024-01-01T00:00:00Z
NOT_AFTER = 2335219200    # 2044-01-01T00:00:00Z
NOW = 1754784000          # mid-window

BASIC_CONSTRAINTS_OID = b"\x06\x03\x55\x1d\x13"
DER_TRUE = b"\x01\x01\xff"
# BOOLEAN spellings DER refuses: TRUE is the single byte ff, and an explicit
# FALSE is the DEFAULT value, which DER omits
NON_DER_BOOLEANS = [b"\x01\x01\x01", b"\x01\x01\x7f", b"\x01\x00",
                    b"\x01\x02\xff\xff", b"\x01\x01\x00"]


def with_extension(ca_der, oid=BASIC_CONSTRAINTS_OID, critical=DER_TRUE,
                   ca_flag=DER_TRUE):
    """The fixture CA with its one extension rebuilt from the OID TLV, the
    critical-flag TLV and the cA-flag TLV inside basicConstraints (b""
    omits a flag), and every length around them re-encoded.  The signature
    no longer matches, which parsing does not check."""
    _, body, _ = der_read_tlv(ca_der, 0)
    top = DerCursor(body)
    _, tbs_body = top.read(TAG_SEQUENCE)
    tbs_end = top.pos
    tbs = DerCursor(tbs_body)
    while tbs.peek_tag() != TAG_CTX3:
        tbs.read()
    ext = der_tlv(TAG_SEQUENCE, oid + critical + der_tlv(
        TAG_OCTET_STRING, der_tlv(TAG_SEQUENCE, ca_flag)))
    new_tbs = der_tlv(TAG_SEQUENCE, tbs_body[:tbs.pos] + der_tlv(
        TAG_CTX3, der_tlv(TAG_SEQUENCE, ext)))
    return der_tlv(TAG_SEQUENCE, new_tbs + body[tbs_end:])


@pytest.fixture(scope="module")
def fixture_pki(registry):
    c = registry.get("secp256r1")
    drbg = HmacDrbg(b"fixture-pki" * 3)
    ca_key = KeyPair.generate(c, drbg)
    leaf_key = KeyPair.generate(c, drbg)
    ca_der = make_certificate("test ca", "test ca", 1, ca_key.Q, ca_key,
                              NOT_BEFORE, NOT_AFTER, ca=True)
    leaf_der = make_certificate("server", "test ca", 2, leaf_key.Q, ca_key,
                                NOT_BEFORE, NOT_AFTER)
    return dict(ca_key=ca_key, leaf_key=leaf_key, ca_der=ca_der,
                leaf_der=leaf_der)


class TestParse:
    def test_round_trip_fields(self, registry, fixture_pki):
        cert = x509_parse(fixture_pki["leaf_der"], registry)
        assert cert.serial == 2
        assert cert.subject_cn == "server"
        assert cert.public_key.curve.id == "secp256r1"
        assert cert.public_key == fixture_pki["leaf_key"].Q
        assert cert.not_before == NOT_BEFORE
        assert cert.not_after == NOT_AFTER
        assert not cert.is_ca

    def test_ca_flag_parsed(self, registry, fixture_pki):
        cert = x509_parse(fixture_pki["ca_der"], registry)
        assert cert.is_ca
        assert cert.issuer == cert.subject

    def test_tbs_span_hashes_back(self, registry, fixture_pki):
        cert = x509_parse(fixture_pki["leaf_der"], registry)
        assert cert.raw_tbs in fixture_pki["leaf_der"]
        assert cert.raw_tbs[0] == 0x30

    def test_truncation_always_typed_error(self, registry, fixture_pki):
        der = fixture_pki["leaf_der"]
        for cut in range(len(der)):
            with pytest.raises(X509Error):
                x509_parse(der[:cut], registry)

    def test_unknown_curve_oid(self, registry, fixture_pki, toy):
        drbg = HmacDrbg(b"toyca" * 8)
        toy_key = KeyPair.generate(toy, drbg)
        der = make_certificate("t", "t", 9, toy_key.Q, toy_key,
                               NOT_BEFORE, NOT_AFTER)
        # parses fine while toy59 is registered
        assert x509_parse(der, registry).public_key.curve.id == "toy59"
        from ecdtls.curve import CurveRegistry
        empty = CurveRegistry()
        with pytest.raises(UnsupportedCurveError):
            x509_parse(der, empty)

    def test_oid_of_no_registered_curve(self, registry, fixture_pki):
        # prime239v3 (1.2.840.10045.3.1.6) is one arc away from secp256r1
        # and is not registered
        from ecdtls.der import der_oid
        der = fixture_pki["leaf_der"]
        old = der_oid(registry.get("secp256r1").oid)
        new = der_oid("1.2.840.10045.3.1.6")
        assert len(old) == len(new) and old in der
        with pytest.raises(UnsupportedCurveError):
            x509_parse(der.replace(old, new), registry)

    def test_non_ecdsa_sha256_algorithm_rejected(self, registry, fixture_pki):
        # splice ecdsa-with-SHA384 over ecdsa-with-SHA256 (same length)
        from ecdtls.der import der_oid
        der = fixture_pki["leaf_der"]
        old = der_oid("1.2.840.10045.4.3.2")
        new = der_oid("1.2.840.10045.4.3.3")
        assert len(old) == len(new)
        with pytest.raises(UnsupportedAlgorithmError):
            x509_parse(der.replace(old, new), registry)

    def test_indefinite_length_rejected(self, registry, fixture_pki):
        der = bytearray(fixture_pki["leaf_der"])
        der[1] = 0x80
        with pytest.raises(MalformedDerError):
            x509_parse(bytes(der), registry)

    @pytest.mark.parametrize("serial", [
        b"\x02\x02\x00\x02",   # padded with a zero octet it does not need
        b"\x02\x01\x82",       # negative
        b"\x02\x00",           # empty
    ])
    def test_non_canonical_serial_rejected(self, registry, fixture_pki,
                                           serial):
        version_and_serial = b"\xa0\x03\x02\x01\x02\x02\x01\x02"

        def with_serial(enc):
            _, body, _ = der_read_tlv(fixture_pki["leaf_der"], 0)
            _, tbs, tbs_end = der_read_tlv(body, 0)
            assert tbs.count(version_and_serial) == 1
            tbs = tbs.replace(version_and_serial,
                              version_and_serial[:5] + enc)
            return der_tlv(TAG_SEQUENCE,
                           der_tlv(TAG_SEQUENCE, tbs) + body[tbs_end:])

        assert x509_parse(with_serial(b"\x02\x01\x02"), registry).serial == 2
        with pytest.raises(MalformedDerError):
            x509_parse(with_serial(serial), registry)

    def test_unknown_critical_extension_rejected(self, registry,
                                                 fixture_pki):
        # basicConstraints (2.5.29.19) turned into the unassigned 2.5.29.99,
        # followed by its critical flag
        der = fixture_pki["ca_der"]
        known = b"\x06\x03\x55\x1d\x13\x01\x01\xff"
        assert der.count(known) == 1
        unknown = b"\x06\x03\x55\x1d\x63\x01\x01"
        # not critical: DER omits the DEFAULT FALSE flag, and an explicit
        # FALSE is not DER
        cert = x509_parse(with_extension(der, b"\x06\x03\x55\x1d\x63",
                                         critical=b""), registry)
        assert not cert.is_ca
        with pytest.raises(MalformedDerError):
            x509_parse(der.replace(known, unknown + b"\x00"), registry)
        with pytest.raises(UnknownCriticalExtensionError):
            x509_parse(der.replace(known, unknown + b"\xff"), registry)

    @pytest.mark.parametrize("flag", ["critical", "ca_flag"])
    def test_non_der_boolean_rejected(self, registry, fixture_pki, flag):
        der = fixture_pki["ca_der"]
        assert der.count(BASIC_CONSTRAINTS_OID + DER_TRUE) == 1
        assert with_extension(der) == der
        assert x509_parse(der, registry).is_ca
        for spelling in NON_DER_BOOLEANS:
            with pytest.raises(MalformedDerError):
                x509_parse(with_extension(der, **{flag: spelling}), registry)
        # the DER spelling of FALSE is no flag at all
        omitted = x509_parse(with_extension(der, **{flag: b""}), registry)
        assert omitted.is_ca == (flag == "critical")

    def test_fuzz_floor_no_crashes(self, registry, fixture_pki, rng):
        der = fixture_pki["leaf_der"]
        for _ in range(2000):
            mutated = bytearray(der)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                x509_parse(bytes(mutated), registry)
            except X509Error:
                pass


class TestVerify:
    def test_valid_leaf_accepts(self, registry, fixture_pki):
        cert = x509_parse(fixture_pki["leaf_der"], registry)
        ok, reason = x509_verify(cert, fixture_pki["ca_key"].Q, NOW)
        assert ok and reason == ACCEPTED

    def test_flipped_tbs_byte_rejects(self, registry, fixture_pki):
        der = bytearray(fixture_pki["leaf_der"])
        # flip a subject-CN byte (still valid DER, breaks the signature)
        idx = der.index(b"server")
        der[idx] ^= 0x01
        cert = x509_parse(bytes(der), registry)
        ok, reason = x509_verify(cert, fixture_pki["ca_key"].Q, NOW)
        assert not ok and reason == REJECT_BAD_SIGNATURE

    def test_expired_rejects_with_reason(self, registry, fixture_pki):
        cert = x509_parse(fixture_pki["leaf_der"], registry)
        ok, reason = x509_verify(cert, fixture_pki["ca_key"].Q,
                                 NOT_AFTER + 10)
        assert not ok and reason == REJECT_EXPIRED

    def test_wrong_issuer_key_rejects(self, registry, fixture_pki):
        cert = x509_parse(fixture_pki["leaf_der"], registry)
        ok, reason = x509_verify(cert, fixture_pki["leaf_key"].Q, NOW)
        assert not ok and reason == REJECT_BAD_SIGNATURE


class TestCertCache:
    def test_hit_skips_parse_and_verify(self, registry, fixture_pki):
        cache = CertCache()
        der = fixture_pki["leaf_der"]
        anchor = fixture_pki["ca_key"].Q
        assert cache.check(der, anchor, NOW) is None
        cache.insert(x509_parse(der, registry), anchor)
        with counters.scope() as sc:
            entry = cache.check(der, anchor, NOW)
        assert entry is not None
        assert sc.counters["ecdsa_verify"] == 0
        assert sc.counters["x509_parse"] == 0
        assert sc.counters["cert_cache_hit"] == 1

    def test_hit_returns_same_key_as_fresh_parse(self, registry, fixture_pki):
        cache = CertCache()
        anchor = fixture_pki["ca_key"].Q
        cache.insert(x509_parse(fixture_pki["leaf_der"], registry), anchor)
        entry = cache.check(fixture_pki["leaf_der"], anchor, NOW)
        fresh = x509_parse(fixture_pki["leaf_der"], registry)
        assert entry.public_key == fresh.public_key
        assert entry.subject_cn == fresh.subject_cn

    def test_any_byte_change_misses(self, registry, fixture_pki, rng):
        cache = CertCache()
        der = fixture_pki["leaf_der"]
        anchor = fixture_pki["ca_key"].Q
        cache.insert(x509_parse(der, registry), anchor)
        for _ in range(20):
            mutated = bytearray(der)
            mutated[rng.randrange(len(mutated))] ^= 0xFF
            assert cache.check(bytes(mutated), anchor, NOW) is None

    def test_lru_eviction_at_capacity(self, registry, fixture_pki):
        cache = CertCache()
        c = registry.get("secp256r1")
        drbg = HmacDrbg(b"evict" * 7)
        ca = fixture_pki["ca_key"]
        ders = []
        for i in range(5):
            key = KeyPair.generate(c, drbg)
            der = make_certificate("peer%d" % i, "test ca", 10 + i, key.Q, ca,
                                   NOT_BEFORE, NOT_AFTER)
            ders.append(der)
            cache.insert(x509_parse(der, registry), ca.Q)
        assert len(cache) == 4
        assert cache.check(ders[0], ca.Q, NOW) is None       # evicted
        assert cache.check(ders[1], ca.Q, NOW) is not None


class TestOidHelpers:
    def test_standard_oids_round_trip(self, registry):
        for name in ("secp160r1", "secp192r1", "secp224r1", "secp256r1"):
            assert registry.by_oid(registry.get(name).oid).id == name

    def test_private_arc_round_trip(self, registry):
        assert registry.by_oid(registry.get("toy59").oid).id == "toy59"

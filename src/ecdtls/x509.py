"""Minimal X.509: the v3 ECDSA certificate schema over the `der` codec, a
fixture certificate builder, and the fingerprint cache behind
cached-verification handshakes.

Parsing walks the certificate's fields in order with `der.DerCursor`; no
byte-level code lives here.  Only ecdsa-with-SHA256 signatures and
named-curve EC subject keys are supported; everything else is a typed error.
A subject key's curve is the registered curve whose record carries the
key's namedCurve OID (`CurveParams.oid`).  Signature checks always hash the
exact TBSCertificate bytes as received.  A signature's r and s are checked
only by `ecdsa_verify`, against the order of the issuer's curve, which need
not be the subject's.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import counters
from .curve import AffinePoint, CurveError, CurveRegistry, PointDecodeError
from .der import (PRINTABLE_CHARACTERS, TAG_BIT_STRING, TAG_BOOLEAN,
                  TAG_CTX0, TAG_CTX3, TAG_OCTET_STRING, TAG_PRINTABLE,
                  TAG_SEQUENCE, TAG_SET, TAG_UTF8, DerCursor, DerError,
                  der_integer, der_oid, der_tlv, der_utctime)
from .ecdsa import EcdsaSignature, KeyPair, SignatureError, ecdsa_sign, \
    ecdsa_verify
from .sha256 import sha256


class X509Error(Exception):
    pass


class MalformedDerError(X509Error):
    """Input is not strict DER or not the expected structure."""


class UnsupportedAlgorithmError(X509Error):
    """Certificate uses a signature or key algorithm we do not speak."""


class UnsupportedCurveError(X509Error):
    """EC key on a curve absent from the registry."""


class UnknownCriticalExtensionError(X509Error):
    """A critical extension this parser does not recognise; RFC 5280 §4.2
    requires the certificate to be rejected."""


OID_ECDSA_SHA256 = "1.2.840.10045.4.3.2"
OID_EC_PUBLIC_KEY = "1.2.840.10045.2.1"
OID_COMMON_NAME = "2.5.4.3"
OID_COUNTRY_NAME = "2.5.4.6"
OID_BASIC_CONSTRAINTS = "2.5.29.19"


# ---------------------------------------------------------------------------
# Certificate

class Certificate:
    """Parsed fields plus the exact TBS bytes used for signatures."""

    __slots__ = ("raw", "raw_tbs", "serial", "issuer", "subject",
                 "subject_cn", "not_before", "not_after", "public_key",
                 "signature", "is_ca")

    def __init__(self, raw, raw_tbs, serial, issuer, subject, subject_cn,
                 not_before, not_after, public_key, signature, is_ca):
        self.raw = raw
        self.raw_tbs = raw_tbs
        self.serial = serial
        self.issuer = issuer
        self.subject = subject
        self.subject_cn = subject_cn
        self.not_before = not_before
        self.not_after = not_after
        self.public_key = public_key
        self.signature = signature
        self.is_ca = is_ca


def _read_name(tbs: DerCursor) -> Tuple[bytes, Optional[str]]:
    """A Name, SEQUENCE OF SET SIZE (1..MAX) OF {type OID, value}, each SET
    in DER order and each value a UTF8String or a PrintableString within its
    character set (RFC 5280 4.1.2.4), a countryName a PrintableString of
    two characters (RFC 5280 Appendix A): its full encoding and its first
    commonName, non-empty."""
    raw = tbs.read_raw(TAG_SEQUENCE)
    rdns = DerCursor.whole(raw, TAG_SEQUENCE)
    cn = None
    while not rdns.done():
        rdn = rdns.enter_set_of(TAG_SEQUENCE)
        if not rdn:
            raise MalformedDerError("empty RelativeDistinguishedName")
        for atv in rdn:
            oid = atv.read_oid()
            tag, value = atv.read()
            atv.expect_done()
            if oid == OID_COUNTRY_NAME and (tag != TAG_PRINTABLE or
                                            len(value) != 2):
                raise MalformedDerError(
                    "countryName is not a two-character PrintableString")
            if tag == TAG_PRINTABLE:
                if value.translate(None, PRINTABLE_CHARACTERS):
                    raise MalformedDerError(
                        "PrintableString holds a character outside its set")
            elif tag != TAG_UTF8:
                raise MalformedDerError(
                    "Name value is neither UTF8String nor PrintableString")
            text = value.decode("utf-8")
            if oid == OID_COMMON_NAME:
                if not text:
                    raise MalformedDerError("empty commonName")
                cn = cn or text
    return raw, cn


def _read_ecdsa_sha256(cur: DerCursor) -> None:
    """ecdsa-with-SHA256, with its parameters absent (RFC 5758 3.2)."""
    alg = cur.enter(TAG_SEQUENCE)
    oid = alg.read_oid()
    alg.expect_done()
    if oid != OID_ECDSA_SHA256:
        raise UnsupportedAlgorithmError("signature algorithm %s" % oid)


def x509_parse(der: bytes, registry: CurveRegistry) -> Certificate:
    """Parse a DER v3 certificate; raises typed errors, never crashes."""
    if not isinstance(der, (bytes, bytearray)):
        raise MalformedDerError("certificate must be bytes")
    try:
        return _parse_certificate(bytes(der), registry)
    except (DerError, UnicodeDecodeError) as exc:
        raise MalformedDerError(str(exc)) from None


def _parse_certificate(der: bytes, registry: CurveRegistry) -> Certificate:
    top = DerCursor.whole(der, TAG_SEQUENCE)
    raw_tbs = top.read_raw(TAG_SEQUENCE)
    tbs = DerCursor.whole(raw_tbs, TAG_SEQUENCE)

    # version [0] EXPLICIT INTEGER: require v3, whose value is 2
    version = tbs.enter(TAG_CTX0)
    if version.read_uint() != 2:
        raise UnsupportedAlgorithmError("only X.509 v3 is supported")
    version.expect_done()
    serial = tbs.read_uint()
    _read_ecdsa_sha256(tbs)
    issuer, _ = _read_name(tbs)
    validity = tbs.enter(TAG_SEQUENCE)
    not_before = validity.read_utctime()
    not_after = validity.read_utctime()
    validity.expect_done()
    subject, subject_cn = _read_name(tbs)

    spki = tbs.enter(TAG_SEQUENCE)
    spki_alg = spki.enter(TAG_SEQUENCE)
    if spki_alg.read_oid() != OID_EC_PUBLIC_KEY:
        raise UnsupportedAlgorithmError("subject key is not EC")
    try:
        curve = registry.by_oid(spki_alg.read_oid())
    except CurveError as exc:
        raise UnsupportedCurveError(str(exc)) from None
    spki_alg.expect_done()
    try:
        public_key = AffinePoint.decode(spki.read_bit_string(), curve)
    except PointDecodeError as exc:
        raise MalformedDerError("bad subject point: %s" % exc) from None
    spki.expect_done()

    is_ca = False
    seen = set()
    if tbs.peek_tag() == TAG_CTX3:
        exts = DerCursor.whole(tbs.read(TAG_CTX3)[1], TAG_SEQUENCE)
        if exts.done():  # RFC 5280 4.1: SIZE (1..MAX), else omitted
            raise MalformedDerError("empty extensions")
        while not exts.done():
            ext = exts.enter(TAG_SEQUENCE)
            ext_oid = ext.read_oid()
            critical = ext.read_default_false()
            ext_value = ext.read(TAG_OCTET_STRING)[1]
            ext.expect_done()
            if ext_oid in seen:  # RFC 5280 4.2: at most one instance each
                raise MalformedDerError("repeated extension %s" % ext_oid)
            seen.add(ext_oid)
            if ext_oid == OID_BASIC_CONSTRAINTS:
                # cA, then a non-negative pathLenConstraint only under cA
                # TRUE (RFC 5280 4.2.1.9)
                constraints = DerCursor.whole(ext_value, TAG_SEQUENCE)
                is_ca = constraints.read_default_false()
                if is_ca and not constraints.done():
                    constraints.read_uint()
                constraints.expect_done()
            elif critical:
                raise UnknownCriticalExtensionError(
                    "unknown critical extension %s" % ext_oid)
    tbs.expect_done()

    _read_ecdsa_sha256(top)
    sig_bits = top.read_bit_string()
    top.expect_done()
    try:
        signature = EcdsaSignature.from_der(sig_bits)
    except SignatureError as exc:
        raise MalformedDerError("bad signature encoding: %s" % exc) from None

    counters.record("x509_parse")
    return Certificate(der, raw_tbs, serial, issuer, subject, subject_cn,
                       not_before, not_after, public_key, signature, is_ca)


REJECT_BAD_SIGNATURE = "bad_signature"
REJECT_EXPIRED = "expired"
REJECT_NOT_YET_VALID = "not_yet_valid"
ACCEPTED = "ok"


def x509_verify(cert: Certificate, issuer_key: AffinePoint, now: int
                ) -> Tuple[bool, str]:
    """Signature over the exact TBS bytes plus validity window; the clock is
    supplied by the caller.  The issuer is the trust anchor, whose key is a
    resident base."""
    if now < cert.not_before:
        return False, REJECT_NOT_YET_VALID
    if now > cert.not_after:
        return False, REJECT_EXPIRED
    digest = sha256(cert.raw_tbs)
    if not ecdsa_verify(issuer_key, digest, cert.signature, resident=True):
        return False, REJECT_BAD_SIGNATURE
    return True, ACCEPTED


# ---------------------------------------------------------------------------
# Certificate cache ((trust anchor, fingerprint) -> verified certificate)

CERT_CACHE_CAPACITY = 4


def _cache_key(der: bytes, anchor: AffinePoint) -> bytes:
    return anchor.encode() + sha256(der)


class CertCache:
    """Bounded LRU of verified certificates keyed by the encoded trust-anchor
    key plus the certificate's SHA-256 fingerprint, so a hit never accepts
    what the full path would reject under the same anchor and clock."""

    def __init__(self):
        self._entries: Dict[bytes, Certificate] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def check(self, der: bytes, anchor: AffinePoint,
              now: int) -> Optional[Certificate]:
        """A hit returns the stored certificate with no parse or signature
        check.  An entry outside its validity window at now is a miss."""
        key = _cache_key(der, anchor)
        entry = self._entries.get(key)
        if entry is None or not entry.not_before <= now <= entry.not_after:
            counters.record("cert_cache_miss")
            return None
        counters.record("cert_cache_hit")
        del self._entries[key]
        self._entries[key] = entry
        return entry

    def insert(self, cert: Certificate, anchor: AffinePoint) -> None:
        """Remember cert as verified under the trust anchor's key."""
        key = _cache_key(cert.raw, anchor)
        self._entries.pop(key, None)
        self._entries[key] = cert
        while len(self._entries) > CERT_CACHE_CAPACITY:
            del self._entries[next(iter(self._entries))]


# ---------------------------------------------------------------------------
# Fixture certificate builder

def _encode_name(cn: str) -> bytes:
    atv = der_tlv(TAG_SEQUENCE, der_oid(OID_COMMON_NAME) +
                  der_tlv(TAG_UTF8, cn.encode()))
    return der_tlv(TAG_SEQUENCE, der_tlv(TAG_SET, atv))


def make_certificate(subject_cn: str, issuer_cn: str, serial: int,
                     subject_key: AffinePoint, issuer_keypair: KeyPair,
                     not_before: int, not_after: int,
                     ca: bool = False) -> bytes:
    """Build and sign a v3 certificate; deterministic for fixed inputs."""
    spki = der_tlv(TAG_SEQUENCE,
                   der_tlv(TAG_SEQUENCE,
                           der_oid(OID_EC_PUBLIC_KEY) +
                           der_oid(subject_key.curve.oid)) +
                   der_tlv(TAG_BIT_STRING, b"\x00" + subject_key.encode()))
    sig_alg = der_tlv(TAG_SEQUENCE, der_oid(OID_ECDSA_SHA256))
    tbs_fields = [
        der_tlv(TAG_CTX0, der_integer(2)),
        der_integer(serial),
        sig_alg,
        _encode_name(issuer_cn),
        der_tlv(TAG_SEQUENCE,
                der_utctime(not_before) + der_utctime(not_after)),
        _encode_name(subject_cn),
        spki,
    ]
    if ca:
        bc_value = der_tlv(TAG_SEQUENCE, der_tlv(TAG_BOOLEAN, b"\xff"))
        ext = der_tlv(TAG_SEQUENCE,
                      der_oid(OID_BASIC_CONSTRAINTS) +
                      der_tlv(TAG_BOOLEAN, b"\xff") +
                      der_tlv(TAG_OCTET_STRING, bc_value))
        tbs_fields.append(der_tlv(TAG_CTX3, der_tlv(TAG_SEQUENCE, ext)))
    tbs = der_tlv(TAG_SEQUENCE, b"".join(tbs_fields))
    digest = sha256(tbs)
    signature = ecdsa_sign(issuer_keypair, digest)  # RFC 6979 nonce
    sig_bits = der_tlv(TAG_BIT_STRING, b"\x00" + signature.to_der())
    return der_tlv(TAG_SEQUENCE, tbs + sig_alg + sig_bits)

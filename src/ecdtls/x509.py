"""Minimal X.509: strict-DER parsing of v3 ECDSA certificates, a fixture
certificate builder, and the fingerprint cache behind cached-verification
handshakes.

Only ecdsa-with-SHA256 signatures and named-curve EC subject keys are
supported; everything else is a typed error.  Signature checks always hash
the exact TBSCertificate bytes as received.
"""

from __future__ import annotations

import calendar
from typing import Dict, Optional, Tuple

from . import counters
from .curve import AffinePoint, CurveParams, CurveRegistry, PointDecodeError
from .der import (TAG_BIT_STRING, TAG_BOOLEAN, TAG_CTX0, TAG_CTX3,
                  TAG_INTEGER, TAG_OCTET_STRING, TAG_OID, TAG_PRINTABLE,
                  TAG_SEQUENCE, TAG_SET, TAG_UTCTIME, TAG_UTF8, DerCursor,
                  DerError, der_integer, der_read_tlv, der_tlv)
from .ecdsa import EcdsaSignature, KeyPair, SignatureError, ecdsa_sign, \
    ecdsa_verify
from .scalarmult import CombCache
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
OID_BASIC_CONSTRAINTS = "2.5.29.19"

STANDARD_CURVE_OIDS = {
    "secp160r1": "1.3.132.0.8",
    "secp192r1": "1.2.840.10045.3.1.1",
    "secp224r1": "1.3.132.0.33",
    "secp256r1": "1.2.840.10045.3.1.7",
}
# curves without a standard assignment get a private arc with the name
# encoded as trailing arcs
PRIVATE_CURVE_ARC = "1.3.6.1.4.1.55555.1"


def curve_oid(curve_id: str) -> str:
    std = STANDARD_CURVE_OIDS.get(curve_id)
    if std:
        return std
    return PRIVATE_CURVE_ARC + "." + ".".join(str(b) for b in curve_id.encode())


def curve_from_oid(oid: str, registry: CurveRegistry) -> CurveParams:
    for name, std in STANDARD_CURVE_OIDS.items():
        if oid == std:
            if name not in registry:
                raise UnsupportedCurveError("curve %s not registered" % name)
            return registry.get(name)
    prefix = PRIVATE_CURVE_ARC + "."
    if oid.startswith(prefix):
        try:
            name = bytes(int(a) for a in oid[len(prefix):].split(".")).decode()
        except (ValueError, UnicodeDecodeError):
            raise UnsupportedCurveError("bad private curve arc") from None
        if name in registry:
            return registry.get(name)
    raise UnsupportedCurveError("unknown curve OID %s" % oid)


# ---------------------------------------------------------------------------
# Object identifiers

def decode_oid(contents: bytes) -> str:
    if not contents:
        raise MalformedDerError("empty OID")
    arcs = [contents[0] // 40, contents[0] % 40]
    val = 0
    pending = False
    for b in contents[1:]:
        val = (val << 7) | (b & 0x7F)
        pending = True
        if not b & 0x80:
            arcs.append(val)
            val = 0
            pending = False
    if pending:
        raise MalformedDerError("truncated OID arc")
    return ".".join(str(a) for a in arcs)


def encode_oid(oid: str) -> bytes:
    arcs = [int(a) for a in oid.split(".")]
    out = bytearray([arcs[0] * 40 + arcs[1]])
    for arc in arcs[2:]:
        chunk = [arc & 0x7F]
        arc >>= 7
        while arc:
            chunk.append((arc & 0x7F) | 0x80)
            arc >>= 7
        out.extend(reversed(chunk))
    return der_tlv(TAG_OID, bytes(out))


def _parse_utctime(contents: bytes) -> int:
    try:
        text = contents.decode("ascii")
    except UnicodeDecodeError:
        raise MalformedDerError("bad time encoding") from None
    if len(text) != 13 or not text.endswith("Z"):
        raise MalformedDerError("expected YYMMDDHHMMSSZ UTCTime")
    try:
        yy = int(text[0:2])
        mo, dd, hh, mi, ss = (int(text[i:i + 2]) for i in range(2, 12, 2))
    except ValueError:
        raise MalformedDerError("non-numeric time") from None
    if not (1 <= mo <= 12 and 1 <= dd <= 31 and hh < 24 and mi < 60 and ss < 60):
        raise MalformedDerError("impossible time value")
    year = 2000 + yy if yy < 50 else 1900 + yy
    return calendar.timegm((year, mo, dd, hh, mi, ss))


def _encode_utctime(epoch: int) -> bytes:
    import time
    tm = time.gmtime(epoch)
    if not 1950 <= tm.tm_year < 2050:
        raise X509Error("UTCTime only covers 1950..2049")
    text = "%02d%02d%02d%02d%02d%02dZ" % (tm.tm_year % 100, tm.tm_mon,
                                          tm.tm_mday, tm.tm_hour, tm.tm_min,
                                          tm.tm_sec)
    return der_tlv(TAG_UTCTIME, text.encode())


# ---------------------------------------------------------------------------
# Certificate

class Certificate:
    """Parsed fields plus the exact TBS byte span used for signatures."""

    __slots__ = ("raw", "raw_tbs", "serial", "issuer", "subject",
                 "not_before", "not_after", "public_key", "curve_id",
                 "signature", "sig_alg", "is_ca")

    def __init__(self, raw, raw_tbs, serial, issuer, subject, not_before,
                 not_after, public_key, curve_id, signature, sig_alg, is_ca):
        self.raw = raw
        self.raw_tbs = raw_tbs
        self.serial = serial
        self.issuer = issuer
        self.subject = subject
        self.not_before = not_before
        self.not_after = not_after
        self.public_key = public_key
        self.curve_id = curve_id
        self.signature = signature
        self.sig_alg = sig_alg
        self.is_ca = is_ca

    def fingerprint(self) -> bytes:
        return sha256(self.raw)

    def subject_cn(self) -> Optional[str]:
        return _dn_common_name(self.subject)


def _dn_common_name(dn_der: bytes) -> Optional[str]:
    try:
        rdns = DerCursor(*_contents_of(dn_der, TAG_SEQUENCE))
        while not rdns.done():
            rdn = rdns.enter(TAG_SET)
            atv = rdn.enter(TAG_SEQUENCE)
            _, oid_body, _, _ = atv.read(TAG_OID)
            if decode_oid(oid_body) == OID_COMMON_NAME:
                tag, value, _, _ = atv.read()
                if tag in (TAG_UTF8, TAG_PRINTABLE):
                    return value.decode("utf-8", "replace")
    except (X509Error, DerError):
        return None
    return None


def _contents_of(data: bytes, tag: int) -> Tuple[bytes, int]:
    got, contents, coff, end = der_read_tlv(data, 0)
    if got != tag or end != len(data):
        raise MalformedDerError("unexpected outer element")
    return contents, coff


def _parse_algorithm(cur: DerCursor) -> str:
    alg = cur.enter(TAG_SEQUENCE)
    _, oid_body, _, _ = alg.read(TAG_OID)
    return decode_oid(oid_body)


def x509_parse(der: bytes, registry: CurveRegistry) -> Certificate:
    """Parse a DER v3 certificate; raises typed errors, never crashes."""
    try:
        return _parse_certificate(der, registry)
    except DerError as exc:
        raise MalformedDerError(str(exc)) from None


def _parse_certificate(der: bytes, registry: CurveRegistry) -> Certificate:
    if not isinstance(der, (bytes, bytearray)):
        raise MalformedDerError("certificate must be bytes")
    der = bytes(der)
    tag, cert_body, coff, end = der_read_tlv(der, 0)
    if tag != TAG_SEQUENCE:
        raise MalformedDerError("certificate is not a SEQUENCE")
    if end != len(der):
        raise MalformedDerError("trailing bytes after certificate")
    top = DerCursor(cert_body, coff)

    # TBSCertificate: keep the exact span for signature hashing
    tbs_tag = top.peek_tag()
    if tbs_tag != TAG_SEQUENCE:
        raise MalformedDerError("TBSCertificate is not a SEQUENCE")
    _, tbs_body, tbs_span, tbs_base = top.read(TAG_SEQUENCE)
    raw_tbs = der[tbs_span[0]:tbs_span[1]]
    tbs = DerCursor(tbs_body, tbs_base)

    # version [0] EXPLICIT INTEGER: require v3
    if tbs.peek_tag() != TAG_CTX0:
        raise MalformedDerError("missing v3 version element")
    ver = tbs.enter(TAG_CTX0)
    _, ver_body, _, _ = ver.read(TAG_INTEGER)
    if ver_body != b"\x02":
        raise UnsupportedAlgorithmError("only X.509 v3 is supported")

    serial = tbs.read_uint()

    tbs_sig_alg = _parse_algorithm(tbs)
    if tbs_sig_alg != OID_ECDSA_SHA256:
        raise UnsupportedAlgorithmError("signature algorithm %s" % tbs_sig_alg)

    _, _, issuer_span, _ = tbs.read(TAG_SEQUENCE)
    issuer = der[issuer_span[0]:issuer_span[1]]

    validity = tbs.enter(TAG_SEQUENCE)
    vtag, nb_body, _, _ = validity.read()
    if vtag != TAG_UTCTIME:
        raise MalformedDerError("notBefore must be UTCTime")
    not_before = _parse_utctime(nb_body)
    vtag, na_body, _, _ = validity.read()
    if vtag != TAG_UTCTIME:
        raise MalformedDerError("notAfter must be UTCTime")
    not_after = _parse_utctime(na_body)

    _, _, subject_span, _ = tbs.read(TAG_SEQUENCE)
    subject = der[subject_span[0]:subject_span[1]]

    spki = tbs.enter(TAG_SEQUENCE)
    spki_alg = spki.enter(TAG_SEQUENCE)
    _, alg_oid_body, _, _ = spki_alg.read(TAG_OID)
    if decode_oid(alg_oid_body) != OID_EC_PUBLIC_KEY:
        raise UnsupportedAlgorithmError("subject key is not EC")
    _, curve_oid_body, _, _ = spki_alg.read(TAG_OID)
    curve = curve_from_oid(decode_oid(curve_oid_body), registry)
    _, point_body, _, _ = spki.read(TAG_BIT_STRING)
    if not point_body or point_body[0] != 0:
        raise MalformedDerError("bad BIT STRING padding on key")
    try:
        public_key = AffinePoint.decode(point_body[1:], curve)
    except PointDecodeError as exc:
        raise MalformedDerError("bad subject point: %s" % exc) from None

    is_ca = False
    if not tbs.done() and tbs.peek_tag() == TAG_CTX3:
        exts = tbs.enter(TAG_CTX3).enter(TAG_SEQUENCE)
        while not exts.done():
            ext = exts.enter(TAG_SEQUENCE)
            _, ext_oid_body, _, _ = ext.read(TAG_OID)
            critical = ext.read_default_false()
            _, ext_value, _, _ = ext.read(TAG_OCTET_STRING)
            ext_oid = decode_oid(ext_oid_body)
            if ext_oid == OID_BASIC_CONSTRAINTS:
                bc = DerCursor(*_contents_of(ext_value, TAG_SEQUENCE))
                is_ca = bc.read_default_false()
            elif critical:
                raise UnknownCriticalExtensionError(
                    "unknown critical extension %s" % ext_oid)
    if not tbs.done():
        raise MalformedDerError("unexpected data after TBS extensions")

    outer_sig_alg = _parse_algorithm(top)
    if outer_sig_alg != tbs_sig_alg:
        raise MalformedDerError("signature algorithm mismatch")
    _, sig_body, _, _ = top.read(TAG_BIT_STRING)
    if not top.done():
        raise MalformedDerError("trailing data after signature")
    if not sig_body or sig_body[0] != 0:
        raise MalformedDerError("bad BIT STRING padding on signature")
    try:
        signature = EcdsaSignature.from_der(sig_body[1:])
    except SignatureError as exc:
        raise MalformedDerError("bad signature encoding: %s" % exc) from None
    if not signature.in_range(curve.n):
        raise MalformedDerError("signature component out of range")

    counters.record("x509_parse")
    return Certificate(der, raw_tbs, serial, issuer, subject, not_before,
                       not_after, public_key, curve.id, signature,
                       tbs_sig_alg, is_ca)


REJECT_BAD_SIGNATURE = "bad_signature"
REJECT_EXPIRED = "expired"
REJECT_NOT_YET_VALID = "not_yet_valid"
ACCEPTED = "ok"


def x509_verify(cert: Certificate, issuer_key: AffinePoint, now: int,
                cache: Optional[CombCache] = None) -> Tuple[bool, str]:
    """Signature over the exact TBS bytes plus validity window; the clock is
    supplied by the caller."""
    if now < cert.not_before:
        return False, REJECT_NOT_YET_VALID
    if now > cert.not_after:
        return False, REJECT_EXPIRED
    digest = sha256(cert.raw_tbs)
    if not ecdsa_verify(issuer_key, digest, cert.signature, cache):
        return False, REJECT_BAD_SIGNATURE
    return True, ACCEPTED


# ---------------------------------------------------------------------------
# Certificate cache ((trust anchor, fingerprint) -> verified subject key)

CERT_CACHE_CAPACITY = 4


class CertCacheEntry:
    __slots__ = ("subject", "public_key", "curve_id", "not_before",
                 "not_after")

    def __init__(self, subject: bytes, public_key: AffinePoint, curve_id: str,
                 not_before: int, not_after: int):
        self.subject = subject
        self.public_key = public_key
        self.curve_id = curve_id
        self.not_before = not_before
        self.not_after = not_after


class CertCache:
    """Bounded LRU of verified certificates keyed by the encoded trust-anchor
    key plus the certificate's SHA-256 fingerprint, so a hit never accepts
    what the full path would reject under the same anchor and clock."""

    def __init__(self):
        self._entries: Dict[bytes, CertCacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def check(self, der: bytes, anchor: AffinePoint,
              now: int) -> Optional[CertCacheEntry]:
        """A hit returns the stored key with no parsing or signature check.
        An entry outside its validity window at now counts as a miss."""
        key = anchor.encode() + sha256(der)
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
        key = anchor.encode() + cert.fingerprint()
        self._entries.pop(key, None)
        self._entries[key] = CertCacheEntry(cert.subject, cert.public_key,
                                            cert.curve_id, cert.not_before,
                                            cert.not_after)
        while len(self._entries) > CERT_CACHE_CAPACITY:
            del self._entries[next(iter(self._entries))]

    def save(self, path: str) -> None:
        """Persist as text, one entry per line: key (anchor || fingerprint),
        curve, subject, point, notBefore, notAfter."""
        lines = []
        for key, e in self._entries.items():
            lines.append("%s %s %s %s %d %d" % (
                key.hex(), e.curve_id, e.subject.hex(),
                e.public_key.encode().hex(), e.not_before, e.not_after))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path: str, registry: CurveRegistry) -> "CertCache":
        """Read what save wrote.  Lines run oldest first, so only the last
        CERT_CACHE_CAPACITY lines are kept."""
        cache = cls()
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        for line in lines[-CERT_CACHE_CAPACITY:]:
            key_hex, curve_id, subj_hex, point_hex, not_before, \
                not_after = line.split()
            curve = registry.get(curve_id)
            point = AffinePoint.decode(bytes.fromhex(point_hex), curve)
            cache._entries[bytes.fromhex(key_hex)] = CertCacheEntry(
                bytes.fromhex(subj_hex), point, curve_id,
                int(not_before), int(not_after))
        return cache


# ---------------------------------------------------------------------------
# Fixture certificate builder

def _encode_name(cn: str) -> bytes:
    atv = der_tlv(TAG_SEQUENCE, encode_oid(OID_COMMON_NAME) +
                  der_tlv(TAG_UTF8, cn.encode()))
    return der_tlv(TAG_SEQUENCE, der_tlv(TAG_SET, atv))


def make_certificate(subject_cn: str, issuer_cn: str, serial: int,
                     subject_key: AffinePoint, issuer_keypair: KeyPair,
                     not_before: int, not_after: int,
                     ca: bool = False) -> bytes:
    """Build and sign a v3 certificate; deterministic for fixed inputs."""
    curve_id = subject_key.curve.id
    spki = der_tlv(TAG_SEQUENCE,
                   der_tlv(TAG_SEQUENCE,
                           encode_oid(OID_EC_PUBLIC_KEY) +
                           encode_oid(curve_oid(curve_id))) +
                   der_tlv(TAG_BIT_STRING, b"\x00" + subject_key.encode()))
    sig_alg = der_tlv(TAG_SEQUENCE, encode_oid(OID_ECDSA_SHA256))
    tbs_fields = [
        der_tlv(TAG_CTX0, der_integer(2)),
        der_integer(serial),
        sig_alg,
        _encode_name(issuer_cn),
        der_tlv(TAG_SEQUENCE,
                _encode_utctime(not_before) + _encode_utctime(not_after)),
        _encode_name(subject_cn),
        spki,
    ]
    if ca:
        bc_value = der_tlv(TAG_SEQUENCE, der_tlv(TAG_BOOLEAN, b"\xff"))
        ext = der_tlv(TAG_SEQUENCE,
                      encode_oid(OID_BASIC_CONSTRAINTS) +
                      der_tlv(TAG_BOOLEAN, b"\xff") +
                      der_tlv(TAG_OCTET_STRING, bc_value))
        tbs_fields.append(der_tlv(TAG_CTX3, der_tlv(TAG_SEQUENCE, ext)))
    tbs = der_tlv(TAG_SEQUENCE, b"".join(tbs_fields))
    digest = sha256(tbs)
    signature = ecdsa_sign(issuer_keypair, digest, deterministic=True)
    sig_bits = der_tlv(TAG_BIT_STRING, b"\x00" + signature.to_der())
    return der_tlv(TAG_SEQUENCE, tbs + sig_alg + sig_bits)

"""DTLS 1.2 handshake message encoding and parsing (RFC 6347 / 5246 / 4492).

Handshake header: msg_type(1) length(3) message_seq(2) fragment_offset(3)
fragment_length(3).  Fragmentation is never produced: offset 0, fragment
length equal to length.

A curve appears on the wire as the TLS NamedCurve code point its registry
record carries (`CurveParams.tls_code`); this module only moves the number.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

HT_CLIENT_HELLO = 1
HT_SERVER_HELLO = 2
HT_HELLO_VERIFY_REQUEST = 3
HT_CERTIFICATE = 11
HT_SERVER_KEY_EXCHANGE = 12
HT_CERTIFICATE_REQUEST = 13
HT_SERVER_HELLO_DONE = 14
HT_CERTIFICATE_VERIFY = 15
HT_CLIENT_KEY_EXCHANGE = 16
HT_FINISHED = 20

HANDSHAKE_HEADER_LEN = 12

CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256 = 0xC02B
COMPRESSION_NULL = 0

EXT_SUPPORTED_GROUPS = 0x000A
EXT_EC_POINT_FORMATS = 0x000B
EXT_SIGNATURE_ALGORITHMS = 0x000D

SIGALG_ECDSA_SHA256 = b"\x04\x03"  # hash sha256, signature ecdsa
CURVE_TYPE_NAMED = 3
POINT_FORMAT_UNCOMPRESSED = 0


class WireError(Exception):
    """Malformed handshake message."""


# ---------------------------------------------------------------------------
# Handshake message framing

def pack_handshake(msg_type: int, message_seq: int, body: bytes) -> bytes:
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + \
        message_seq.to_bytes(2, "big") + b"\x00\x00\x00" + \
        len(body).to_bytes(3, "big") + body


def parse_handshake(data: bytes) -> Tuple[int, int, bytes]:
    """Returns (msg_type, message_seq, body); single-fragment messages only."""
    if len(data) < HANDSHAKE_HEADER_LEN:
        raise WireError("handshake header truncated")
    msg_type = data[0]
    length = int.from_bytes(data[1:4], "big")
    message_seq = int.from_bytes(data[4:6], "big")
    frag_off = int.from_bytes(data[6:9], "big")
    frag_len = int.from_bytes(data[9:12], "big")
    body = data[HANDSHAKE_HEADER_LEN:]
    if frag_off != 0 or frag_len != length or len(body) != length:
        raise WireError("fragmented or inconsistent handshake message")
    return msg_type, message_seq, body


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireError("message truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def int_(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def vector(self, length_width: int) -> bytes:
        return self.take(self.int_(length_width))

    def done(self) -> bool:
        return self.pos == len(self.data)

    def expect_done(self) -> None:
        if not self.done():
            raise WireError("trailing bytes in message")


def _vec(data: bytes, length_width: int) -> bytes:
    return len(data).to_bytes(length_width, "big") + data


# ---------------------------------------------------------------------------
# ClientHello / ServerHello / HelloVerifyRequest

def _extensions(r: _Reader) -> Dict[int, bytes]:
    """The optional extensions vector ending a hello, as type -> body.  A
    repeated type (RFC 5246 7.4.1.4) or a byte after the vector is refused."""
    found: Dict[int, bytes] = {}
    if not r.done():
        exts = _Reader(r.vector(2))
        while not exts.done():
            ext_type = exts.int_(2)
            if ext_type in found:
                raise WireError("repeated extension %d" % ext_type)
            found[ext_type] = exts.vector(2)
    r.expect_done()
    return found


def build_client_hello(random: bytes, cookie: bytes, curve_code: int) -> bytes:
    exts = b""
    exts += EXT_SUPPORTED_GROUPS.to_bytes(2, "big") + \
        _vec(_vec(curve_code.to_bytes(2, "big"), 2), 2)
    exts += EXT_EC_POINT_FORMATS.to_bytes(2, "big") + \
        _vec(_vec(bytes([POINT_FORMAT_UNCOMPRESSED]), 1), 2)
    exts += EXT_SIGNATURE_ALGORITHMS.to_bytes(2, "big") + \
        _vec(_vec(SIGALG_ECDSA_SHA256, 2), 2)
    return (b"\xfe\xfd" + random + _vec(b"", 1) + _vec(cookie, 1) +
            _vec(CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256.to_bytes(2, "big"), 2) +
            _vec(bytes([COMPRESSION_NULL]), 1) + _vec(exts, 2))


class ClientHello:
    def __init__(self, random: bytes, cookie: bytes, cipher_suites: List[int],
                 curve_codes: List[int]):
        self.random = random
        self.cookie = cookie
        self.cipher_suites = cipher_suites
        self.curve_codes = curve_codes


def parse_client_hello(body: bytes) -> ClientHello:
    r = _Reader(body)
    if r.take(2) != b"\xfe\xfd":
        raise WireError("unsupported client_version")
    random = r.take(32)
    if len(r.vector(1)) > 32:  # SessionID<0..32> (RFC 5246 7.4.1.2)
        raise WireError("session_id longer than 32 bytes")
    cookie = r.vector(1)
    suites_raw = r.vector(2)
    if not suites_raw:  # cipher_suites<2..2^16-2> (RFC 5246 7.4.1.2)
        raise WireError("empty cipher_suites list")
    if len(suites_raw) % 2:
        raise WireError("odd cipher_suites length")
    suites = [int.from_bytes(suites_raw[i:i + 2], "big")
              for i in range(0, len(suites_raw), 2)]
    compression = r.vector(1)
    if COMPRESSION_NULL not in compression:
        raise WireError("null compression not offered")
    curve_codes: List[int] = []
    groups_body = _extensions(r).get(EXT_SUPPORTED_GROUPS)
    if groups_body is not None:
        ext_body = _Reader(groups_body)
        groups = _Reader(ext_body.vector(2))
        ext_body.expect_done()
        # elliptic_curve_list<1..2^16-1> (RFC 4492 5.1.1)
        if groups.done():
            raise WireError("empty supported_groups list")
        while not groups.done():
            curve_codes.append(groups.int_(2))
    return ClientHello(random, cookie, suites, curve_codes)


def build_hello_verify_request(cookie: bytes) -> bytes:
    return b"\xfe\xfd" + _vec(cookie, 1)


def parse_hello_verify_request(body: bytes) -> bytes:
    r = _Reader(body)
    if r.take(2) not in (b"\xfe\xff", b"\xfe\xfd"):  # RFC 6347 4.2.1
        raise WireError("unsupported server_version")
    cookie = r.vector(1)
    r.expect_done()
    return cookie


def build_server_hello(random: bytes) -> bytes:
    exts = EXT_EC_POINT_FORMATS.to_bytes(2, "big") + \
        _vec(_vec(bytes([POINT_FORMAT_UNCOMPRESSED]), 1), 2)
    return (b"\xfe\xfd" + random + _vec(b"", 1) +
            CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256.to_bytes(2, "big") +
            bytes([COMPRESSION_NULL]) + _vec(exts, 2))


class ServerHello:
    def __init__(self, random: bytes, cipher_suite: int):
        self.random = random
        self.cipher_suite = cipher_suite


def parse_server_hello(body: bytes) -> ServerHello:
    r = _Reader(body)
    if r.take(2) != b"\xfe\xfd":
        raise WireError("unsupported server_version")
    random = r.take(32)
    if len(r.vector(1)) > 32:  # SessionID<0..32> (RFC 5246 7.4.1.2)
        raise WireError("session_id longer than 32 bytes")
    suite = r.int_(2)
    if r.int_(1) != COMPRESSION_NULL:
        raise WireError("unexpected compression method")
    _extensions(r)  # none are acted on
    return ServerHello(random, suite)


# ---------------------------------------------------------------------------
# Certificate / key exchange / verify / finished

def build_certificate(cert_ders: List[bytes]) -> bytes:
    chain = b"".join(_vec(der, 3) for der in cert_ders)
    return _vec(chain, 3)


def parse_certificate(body: bytes) -> List[bytes]:
    r = _Reader(body)
    chain = _Reader(r.vector(3))
    r.expect_done()
    certs = []
    while not chain.done():
        certs.append(chain.vector(3))
        if not certs[-1]:  # ASN.1Cert<1..2^24-1> (RFC 5246 7.4.2)
            raise WireError("empty certificate entry")
    return certs


def build_server_ecdh_params(curve_code: int, point: bytes) -> bytes:
    """ServerECDHParams: the bytes the server signs and then sends."""
    return bytes([CURVE_TYPE_NAMED]) + curve_code.to_bytes(2, "big") + \
        _vec(point, 1)


def build_server_key_exchange(params: bytes, signature_der: bytes) -> bytes:
    return params + SIGALG_ECDSA_SHA256 + _vec(signature_der, 2)


class ServerKeyExchange:
    def __init__(self, curve_code: int, point: bytes, signature_der: bytes,
                 signed_params: bytes):
        self.curve_code = curve_code
        self.point = point
        self.signature_der = signature_der
        self.signed_params = signed_params


def parse_server_key_exchange(body: bytes) -> ServerKeyExchange:
    r = _Reader(body)
    if r.int_(1) != CURVE_TYPE_NAMED:
        raise WireError("only named curves supported")
    curve_code = r.int_(2)
    point = r.vector(1)
    params_end = r.pos
    if r.take(2) != SIGALG_ECDSA_SHA256:
        raise WireError("unsupported SignatureAndHashAlgorithm")
    signature = r.vector(2)
    r.expect_done()
    return ServerKeyExchange(curve_code, point, signature, body[:params_end])


def build_certificate_request() -> bytes:
    # ecdsa_sign(64), sha256/ecdsa, no CA name constraints
    return _vec(bytes([64]), 1) + _vec(SIGALG_ECDSA_SHA256, 2) + _vec(b"", 2)


def parse_certificate_request(body: bytes) -> None:
    r = _Reader(body)
    cert_types = r.vector(1)
    if 64 not in cert_types:
        raise WireError("server does not accept ECDSA client certs")
    algs = r.vector(2)
    # supported_signature_algorithms<2..2^16-2> (RFC 5246 7.4.4)
    if not algs or len(algs) % 2:
        raise WireError("bad supported_signature_algorithms length")
    if SIGALG_ECDSA_SHA256 not in [algs[i:i + 2]
                                   for i in range(0, len(algs), 2)]:
        raise WireError("server does not accept ECDSA-SHA256 signatures")
    r.vector(2)
    r.expect_done()


def build_client_key_exchange(point: bytes) -> bytes:
    return _vec(point, 1)


def parse_client_key_exchange(body: bytes) -> bytes:
    r = _Reader(body)
    point = r.vector(1)
    r.expect_done()
    return point


def build_certificate_verify(signature_der: bytes) -> bytes:
    return SIGALG_ECDSA_SHA256 + _vec(signature_der, 2)


def parse_certificate_verify(body: bytes) -> bytes:
    r = _Reader(body)
    if r.take(2) != SIGALG_ECDSA_SHA256:
        raise WireError("unsupported CertificateVerify algorithm")
    signature = r.vector(2)
    r.expect_done()
    return signature


def server_key_exchange_signed_data(client_random: bytes, server_random: bytes,
                                    signed_params: bytes) -> bytes:
    """RFC 4492: the signature covers both randoms and ServerECDHParams."""
    return client_random + server_random + signed_params

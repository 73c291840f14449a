import pytest

from ecdtls import wire

RANDOM = bytes(range(32))


class TestServerHello:
    def test_round_trip(self):
        hello = wire.parse_server_hello(wire.build_server_hello(RANDOM))
        assert hello.random == RANDOM
        assert hello.cipher_suite == \
            wire.CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256

    def test_without_extensions_parses(self):
        # the extensions vector is optional (RFC 5246 7.4.1.3)
        body = wire.build_server_hello(RANDOM)
        bare = body[:2 + 32 + 1 + 2 + 1]
        assert body[len(bare):] != b""
        assert wire.parse_server_hello(bare).random == RANDOM

    @pytest.mark.parametrize("tail", [b"\xde\xad", b"\x00", b"\x00\x00"])
    def test_trailing_bytes_refused(self, tail):
        body = wire.build_server_hello(RANDOM)
        with pytest.raises(wire.WireError):
            wire.parse_server_hello(body + tail)

    def test_extensions_walked_like_the_client_hellos(self):
        # the ServerHello's extensions are framed as the ClientHello's
        # (RFC 5246 7.4.1.4): each a type and a length-prefixed body, at
        # most one of each type, and nothing else inside the vector
        formats = extension(wire.EXT_EC_POINT_FORMATS, b"\x01\x00")
        assert wire.parse_server_hello(server_hello(formats)).random == RANDOM
        assert wire.parse_server_hello(server_hello()).random == RANDOM
        for exts in (formats + formats, b"\xde", formats + b"\x00\x0b",
                     formats[:-1]):
            with pytest.raises(wire.WireError):
                wire.parse_server_hello(server_hello(exts))



def extension(ext_type: int, body: bytes) -> bytes:
    return ext_type.to_bytes(2, "big") + len(body).to_bytes(2, "big") + body


def server_hello(*extensions: bytes) -> bytes:
    """A ServerHello body carrying the given bytes as its extensions."""
    exts = b"".join(extensions)
    bare = wire.build_server_hello(RANDOM)[:2 + 32 + 1 + 2 + 1]
    return bare + len(exts).to_bytes(2, "big") + exts


def groups(*codes: int, tail: bytes = b"") -> bytes:
    """A supported_groups extension listing codes, then tail."""
    listed = b"".join(code.to_bytes(2, "big") for code in codes)
    return extension(wire.EXT_SUPPORTED_GROUPS,
                     len(listed).to_bytes(2, "big") + listed + tail)


def client_hello(*extensions: bytes, suites: bytes = b"\xc0\x2b") -> bytes:
    """A ClientHello body with no cookie, the given suites (by default the
    one this library offers), null compression and the given extensions."""
    exts = b"".join(extensions)
    return (b"\xfe\xfd" + RANDOM + b"\x00" + b"\x00" +
            len(suites).to_bytes(2, "big") + suites +
            b"\x01\x00" + len(exts).to_bytes(2, "big") + exts)


def with_session_id(body: bytes, length: int) -> bytes:
    """A ClientHello or ServerHello body with an empty session_id, given a
    session_id of length bytes instead."""
    assert body[34] == 0
    return body[:34] + bytes([length]) + b"\x5a" * length + body[35:]


@pytest.mark.parametrize("length", [33, 200])
@pytest.mark.parametrize("parse,body", [
    (wire.parse_client_hello, wire.build_client_hello(RANDOM, b"", 23)),
    (wire.parse_server_hello, wire.build_server_hello(RANDOM)),
], ids=["client_hello", "server_hello"])
def test_session_id_longer_than_32_bytes_refused(parse, body, length):
    # SessionID<0..32> (RFC 5246 7.4.1.2)
    assert parse(with_session_id(body, 32)).random == RANDOM
    with pytest.raises(wire.WireError, match="session_id"):
        parse(with_session_id(body, length))


class TestClientHello:
    def test_round_trip(self):
        body = wire.build_client_hello(RANDOM, b"", 23)
        assert body.startswith(client_hello()[:-2])
        hello = wire.parse_client_hello(body)
        assert (hello.random, hello.cookie, hello.cipher_suites,
                hello.curve_codes) == (
            RANDOM, b"", [wire.CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256], [23])
        assert wire.parse_client_hello(client_hello(groups(23, 24))
                                       ).curve_codes == [23, 24]

    def test_bytes_after_the_group_list_refused(self):
        with pytest.raises(wire.WireError):
            wire.parse_client_hello(client_hello(groups(23, tail=b"\x00\x17")))

    def test_empty_cipher_suites_refused(self):
        # cipher_suites<2..2^16-2> (RFC 5246 7.4.1.2)
        with pytest.raises(wire.WireError, match="empty cipher_suites"):
            wire.parse_client_hello(client_hello(groups(23), suites=b""))

    def test_empty_group_list_refused(self):
        # elliptic_curve_list<1..2^16-1> (RFC 4492 5.1.1); leaving the
        # extension out altogether is still allowed
        with pytest.raises(wire.WireError, match="empty supported_groups"):
            wire.parse_client_hello(client_hello(groups()))
        assert wire.parse_client_hello(client_hello()).curve_codes == []

    def test_repeated_extension_refused(self):
        # RFC 5246 7.4.1.4: at most one extension of each type
        formats = extension(wire.EXT_EC_POINT_FORMATS, b"\x01\x00")
        for exts in ((groups(23), groups(23)), (formats, groups(23), formats)):
            with pytest.raises(wire.WireError):
                wire.parse_client_hello(client_hello(*exts))


class TestHelloVerifyRequest:
    @pytest.mark.parametrize("version", [b"\xfe\xff", b"\xfe\xfd"],
                             ids=["fe_ff", "fe_fd"])
    def test_either_dtls_version_accepted(self, version):
        # RFC 6347 4.2.1: a HelloVerifyRequest may carry fe ff or fe fd
        body = version + wire.build_hello_verify_request(b"cookie")[2:]
        assert wire.parse_hello_verify_request(body) == b"cookie"

    @pytest.mark.parametrize("version", [b"\x03\x03", b"\xfe\xfc",
                                         b"\x00\x00"],
                             ids=["tls_1_2", "fe_fc", "zero"])
    def test_other_server_version_refused(self, version):
        body = version + wire.build_hello_verify_request(b"cookie")[2:]
        with pytest.raises(wire.WireError, match="server_version"):
            wire.parse_hello_verify_request(body)


def certificate_request(algs: bytes) -> bytes:
    """A CertificateRequest body for ECDSA client certificates with the
    given supported_signature_algorithms and no CA names."""
    return b"\x01\x40" + len(algs).to_bytes(2, "big") + algs + b"\x00\x00"


class TestCertificateRequest:
    def test_round_trip(self):
        assert wire.build_certificate_request() == \
            certificate_request(wire.SIGALG_ECDSA_SHA256)
        wire.parse_certificate_request(wire.build_certificate_request())
        wire.parse_certificate_request(certificate_request(
            b"\x05\x03" + wire.SIGALG_ECDSA_SHA256))

    @pytest.mark.parametrize("algs", [
        b"", b"\x04\x03\x05", b"\x05\x03", b"\x03\x04\x03\x05"],
        ids=["empty", "odd", "without_04_03", "04_03_straddling_pairs"])
    def test_bad_signature_algorithms_refused(self, algs):
        # RFC 5246 7.4.4: the client signs its CertificateVerify with an
        # algorithm from this list, and it signs only with ECDSA-SHA256
        with pytest.raises(wire.WireError):
            wire.parse_certificate_request(certificate_request(algs))


class TestCertificate:
    def test_chain_round_trip(self):
        chain = [b"\x30\x01\x00", b"\x30\x02\x00\x00", b"\x30\x00"]
        body = wire.build_certificate(chain)
        assert wire.parse_certificate(body) == chain
        assert wire.parse_certificate(wire.build_certificate([])) == []

    @pytest.mark.parametrize("chain", [[b""], [b"\x30\x00", b""],
                                       [b"", b"\x30\x00"]],
                             ids=["only", "last", "first"])
    def test_empty_entry_refused(self, chain):
        # ASN.1Cert<1..2^24-1> (RFC 5246 7.4.2): no entry is empty
        with pytest.raises(wire.WireError, match="empty certificate entry"):
            wire.parse_certificate(wire.build_certificate(chain))

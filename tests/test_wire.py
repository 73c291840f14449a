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

import pytest

from ecdtls import counters
from ecdtls.prf import tls_prf_sha256
from ecdtls.sha256 import HmacKey

# Published TLS 1.2 PRF (SHA-256) interop vector
PRF_SECRET = bytes.fromhex("9bbe436ba940f017b17652849a71db35")
PRF_SEED = bytes.fromhex("a0ba9f936cda311827a6f796ffd5198c")
PRF_LABEL = b"test label"
PRF_OUT = bytes.fromhex(
    "e3f229ba727be17b8d122620557cd453c2aab21d07c3d495329b52d4e61edb5a"
    "6b301791e90d35c9c9a46b4e14baf9af0fa022f7077def17abfd3797c0564bab"
    "4fbc91666e9def9b97fce34f796789baa48082d122ee42c5a72e5a5110fff701"
    "87347b66")


def test_published_interop_vector():
    assert tls_prf_sha256(HmacKey(PRF_SECRET), PRF_LABEL, PRF_SEED,
                          100) == PRF_OUT


@pytest.mark.parametrize("n", [12, 48, 72])
def test_output_length_exact(n):
    assert len(tls_prf_sha256(HmacKey(b"s"), b"l", b"seed", n)) == n


def test_labels_separate_streams():
    key = HmacKey(b"secret")
    a = tls_prf_sha256(key, b"client finished", b"seed", 16)
    b = tls_prf_sha256(key, b"server finished", b"seed", 16)
    assert a[:16] != b[:16]


def test_prefix_consistency():
    key = HmacKey(b"s")
    long = tls_prf_sha256(key, b"label", b"seed", 100)
    short = tls_prf_sha256(key, b"label", b"seed", 37)
    assert long[:37] == short


def test_master_secret_absorbs_the_key_once():
    # 48 bytes are two blocks of P_SHA256, four MACs under one key: the
    # key's two pad compressions, then 3 + 3 + 2 + 3 for the MACs of the
    # 77-byte label and seed, A(1) and the seed, A(1), and A(2) and the seed
    with counters.scope() as sc:
        tls_prf_sha256(HmacKey(bytes(48)), b"master secret", bytes(64), 48)
    assert dict(sc.counters) == {"sha_compress": 13, "hmac": 4,
                                 "sha_message": 8}

import pytest

from ecdtls import counters
from ecdtls.drbg import DrbgError, HmacDrbg, ReseedRequiredError

# A NIST CAVP HMAC_DRBG (SHA-256) vector: no-reseed, no additional input,
# first count.
CAVP_NO_RESEED = dict(
    entropy=bytes.fromhex(
        "ca851911349384bffe89de1cbdc46e6831e44d34a4fb935ee285dd14b71a7488"),
    nonce=bytes.fromhex("659ba96c601dc69fc902940805ec0ca8"),
    returned=bytes.fromhex(
        "e528e9abf2dece54d47c7e75e5fe302149f817ea9fb4bee6f4199697d04d5b89"
        "d54fbb978a15b5c443c9ec21036d2460b6f73ebad0dc2aba6e624abf07745bc1"
        "07694bb7547bb0995f70de25d6b29e2d3011bb19d27676c07162c8b5ccde0668"
        "961df86803482cb37ed6d5c0bb8d50cf1f50d476aa0458bdaba806f48be9dcb8"),
)


class TestCavpVectors:
    def test_no_reseed_vector(self):
        v = CAVP_NO_RESEED
        drbg = HmacDrbg(v["entropy"], v["nonce"])
        drbg.generate(128)
        assert drbg.generate(128) == v["returned"]


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = HmacDrbg(b"e" * 32, b"n" * 16, b"pers")
        b = HmacDrbg(b"e" * 32, b"n" * 16, b"pers")
        assert a.generate(64) == b.generate(64)
        assert a.generate(64) == b.generate(64)

    def test_personalization_separates_streams(self):
        a = HmacDrbg(b"e" * 32, b"n" * 16, b"one")
        b = HmacDrbg(b"e" * 32, b"n" * 16, b"two")
        assert a.generate(32) != b.generate(32)


class TestPrice:
    def test_generate_absorbs_the_key_once(self):
        # 72 bytes are three blocks of V, each a MAC under the state's key
        # (its pads were absorbed when it was made), two compressions each;
        # then the update's two MACs, two each, and its new key's two pad
        # compressions
        drbg = HmacDrbg(b"e" * 32, b"n" * 16)
        with counters.scope() as sc:
            drbg.generate(72)
        assert dict(sc.counters) == {"drbg_generate": 1, "sha_compress": 12,
                                     "hmac": 5, "sha_message": 10}


    def test_instantiate_absorbs_each_key_once(self):
        # three keys, the all-zero K and the two the update derives, two pad
        # compressions each; four MACs, 3 + 2 + 3 + 2 for V || tag and the
        # 48-byte seed, then V
        with counters.scope() as sc:
            HmacDrbg(b"e" * 32, b"n" * 16)
        assert dict(sc.counters) == {"sha_compress": 16, "hmac": 4,
                                     "sha_message": 8}


class TestLimits:
    def test_reseed_counter_bound(self):
        drbg = HmacDrbg(b"e" * 32, b"n" * 16)
        drbg.reseed_counter = (1 << 48) + 1  # injected: simulate exhaustion
        with pytest.raises(ReseedRequiredError):
            drbg.generate(16)

    def test_request_size_bound(self):
        drbg = HmacDrbg(b"e" * 32, b"n" * 16)
        with pytest.raises(DrbgError):
            drbg.generate((1 << 16) + 1)

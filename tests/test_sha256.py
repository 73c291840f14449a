import hashlib
import hmac as stdlib_hmac

import pytest

from ecdtls import counters
from ecdtls.sha256 import HmacKey, Sha256, sha256

# FIPS 180-4 known-answer vectors
SHA_KATS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     b"ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"),
]

# RFC 4231 HMAC-SHA-256 test cases
HMAC_KATS = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
]


class TestSha256:
    @pytest.mark.parametrize("msg,want", SHA_KATS)
    def test_published_kats(self, msg, want):
        assert sha256(msg).hex() == want

    def test_incremental_equals_one_shot(self):
        ctx = Sha256()
        ctx.update(b"ab")
        ctx.update(b"c")
        assert ctx.digest() == sha256(b"abc")

    def test_all_split_points_of_1kb(self, rng):
        msg = bytes(rng.randrange(256) for _ in range(1024))
        want = hashlib.sha256(msg).digest()
        assert sha256(msg) == want
        for cut in range(0, 1025, 89):
            ctx = Sha256()
            ctx.update(msg[:cut])
            ctx.update(msg[cut:])
            assert ctx.digest() == want

    def test_copy_keeps_original_usable(self):
        ctx = Sha256(b"hello ")
        snap = ctx.copy().update(b"snapshot").digest()
        ctx.update(b"world")
        assert snap == sha256(b"hello snapshot")
        assert ctx.digest() == sha256(b"hello world")
        # a fork past a block boundary, updated on both sides
        base = Sha256(b"a" * 70)
        fork = base.copy().update(b"fork side")
        base.update(b"base side")
        assert fork.digest() == hashlib.sha256(b"a" * 70 + b"fork side").digest()
        assert base.digest() == hashlib.sha256(b"a" * 70 + b"base side").digest()
        with counters.scope() as sc:
            base.copy().digest()
        assert sc.counters["sha_compress"] == 1

    def test_compression_counter(self):
        with counters.scope() as sc:
            sha256(b"x" * 200)  # 200 + 9 pad -> 4 blocks
        assert sc.counters["sha_compress"] == 4
        assert sc.counters["sha_message"] == 1

    def test_against_stdlib_on_random_lengths(self, rng):
        for n in (0, 1, 55, 56, 63, 64, 65, 119, 120, 500):
            msg = bytes(rng.randrange(256) for _ in range(n))
            assert sha256(msg) == hashlib.sha256(msg).digest()

    def test_block_count_exact_for_every_length_and_split(self, rng):
        # FIPS 180-4 padding appends 0x80 and an 8-byte length, so a
        # message of n bytes runs the compression function (n + 8)//64 + 1
        # times, however update() splits it
        for n in range(201):
            msg = bytes(rng.randrange(256) for _ in range(n))
            cuts = sorted(rng.randrange(n + 1) for _ in range(rng.randrange(4)))
            with counters.scope() as sc:
                ctx = Sha256()
                for lo, hi in zip([0] + cuts, cuts + [n]):
                    ctx.update(msg[lo:hi])
                got = ctx.digest()
            assert got == hashlib.sha256(msg).digest()
            assert sc.counters["sha_compress"] == (n + 8) // 64 + 1
            assert sc.counters["sha_message"] == 1

    def test_digest_does_not_finalize_context(self):
        ctx = Sha256(b"abc")
        first = ctx.digest()
        assert ctx.digest() == first
        assert ctx.update(b"d").digest() == sha256(b"abcd")


# Per-call ticks of the block-by-block reference implementation, by key
# length and by message length (a MAC costs the same under every key).
HMAC_KEY_TICKS = {
    0: {"sha_compress": 2}, 20: {"sha_compress": 2}, 64: {"sha_compress": 2},
    65: {"sha_compress": 4, "sha_message": 1},
    131: {"sha_compress": 5, "sha_message": 1},
}
HMAC_MAC_TICKS = {
    0: 2, 1: 2, 55: 2, 56: 3, 63: 3, 64: 3, 119: 3, 120: 4, 200: 5,
}


class TestHmacSha256:
    @pytest.mark.parametrize("key_len", sorted(HMAC_KEY_TICKS))
    def test_tick_counts_match_reference(self, key_len):
        with counters.scope() as sc:
            key = HmacKey(b"k" * key_len)
        assert dict(sc.counters) == HMAC_KEY_TICKS[key_len]
        for msg_len, compress in HMAC_MAC_TICKS.items():
            with counters.scope() as sc:
                key.mac(b"m" * msg_len)
            assert dict(sc.counters) == {"hmac": 1, "sha_message": 2,
                                         "sha_compress": compress}

    @pytest.mark.parametrize("key,msg,want", HMAC_KATS)
    def test_rfc4231_kats(self, key, msg, want):
        assert HmacKey(key).mac(msg).hex() == want

    def test_empty_key_and_message_against_oracle(self):
        want = stdlib_hmac.new(b"", b"", hashlib.sha256).digest()
        assert HmacKey(b"").mac(b"") == want

    def test_distinct_messages_distinct_macs(self, rng):
        key = HmacKey(b"k" * 16)
        seen = set()
        for i in range(50):
            seen.add(key.mac(b"msg-%d" % i))
        assert len(seen) == 50

    def test_random_against_oracle(self, rng):
        for _ in range(30):
            key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 100)))
            msg = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            assert HmacKey(key).mac(msg) == \
                stdlib_hmac.new(key, msg, hashlib.sha256).digest()

    @pytest.mark.parametrize("key_len", sorted(HMAC_KEY_TICKS))
    def test_price_order_matches_block_by_block(self, key_len):
        # a fresh scope lists kinds in the order the block-by-block run
        # first reaches them: the key's compressions (and the digest of a
        # long key), then the MAC's hmac tick and its two digests
        key = b"k" * key_len
        short = key_len <= 64
        for msg_len, compress in HMAC_MAC_TICKS.items():
            msg = b"m" * msg_len
            with counters.scope() as sc:
                got = HmacKey(key).mac(msg)
            assert got == stdlib_hmac.new(key, msg, hashlib.sha256).digest()
            ticks = HMAC_KEY_TICKS[key_len]
            kinds = ["sha_compress", "hmac", "sha_message"] if short else \
                ["sha_compress", "sha_message", "hmac"]
            assert list(sc.counters.items()) == [(kind, {
                "hmac": 1,
                "sha_compress": ticks["sha_compress"] + compress,
                "sha_message": ticks.get("sha_message", 0) + 2}[kind])
                for kind in kinds]
            # under a built key, the inner digest absorbs a whole block of
            # the message before either digest finalizes
            hkey = HmacKey(key)
            with counters.scope() as sc:
                hkey.mac(msg)
            assert list(sc.counters) == ["hmac"] + (
                ["sha_compress", "sha_message"] if msg_len >= 64 else
                ["sha_message", "sha_compress"])

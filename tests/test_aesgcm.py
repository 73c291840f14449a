import hashlib
import random
import tracemalloc

import pytest

from ecdtls import counters
from ecdtls.aesgcm import (_LANE_MIN_BLOCKS, _LANES, _NARROW, _RCON, _SBOX,
                           AeadError, AeadKey, Aes128, AuthenticationError,
                           GcmContext, _GhashKey, aes_gcm_open, aes_gcm_seal)

# McGrew-Viega AES-128-GCM test cases (SP 800-38D validation set)
GCM_K3 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
GCM_IV3 = bytes.fromhex("cafebabefacedbaddecaf888")
GCM_P3 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")
GCM_C3 = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985")
GCM_T3 = bytes.fromhex("4d5c2af327cd64a62cf35abd2ba6fab4")
GCM_A4 = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
GCM_T4 = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")


def encrypt(aes, block):
    """One block through the keystream: E(block) is its one-block run."""
    return bytes(aes.keystream(int.from_bytes(block, "big"), 1))


class TestAesCore:
    def test_fips197_appendix_c_vector(self):
        aes = Aes128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        got = encrypt(aes, bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert got.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_sp800_38a_ecb_vectors(self):
        aes = Aes128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        pairs = [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
        ]
        for pt, ct in pairs:
            assert encrypt(aes, bytes.fromhex(pt)).hex() == ct

    def test_block_counter(self):
        # the hash subkey H = E(0) is the one block a key costs up front
        with counters.scope() as sc:
            GcmContext(b"\x00" * 16)
        assert dict(sc.counters) == {"aes_block": 1}

    def test_bad_key_length(self):
        with pytest.raises(AeadError):
            Aes128(b"short")


class TestGcmKats:
    def test_case1_empty_everything(self):
        ctx = GcmContext(b"\x00" * 16)
        sealed = ctx.seal(b"\x00" * 12, b"", b"")
        assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case2_single_zero_block(self):
        ctx = GcmContext(b"\x00" * 16)
        sealed = ctx.seal(b"\x00" * 12, b"", b"\x00" * 16)
        assert sealed[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert sealed[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case3_four_blocks(self):
        ctx = GcmContext(GCM_K3)
        sealed = ctx.seal(GCM_IV3, b"", GCM_P3)
        assert sealed[:-16] == GCM_C3
        assert sealed[-16:] == GCM_T3

    def test_case4_with_aad(self):
        ctx = GcmContext(GCM_K3)
        sealed = ctx.seal(GCM_IV3, GCM_A4, GCM_P3[:60])
        assert sealed[:-16] == GCM_C3[:60]
        assert sealed[-16:] == GCM_T4

    def test_decrypt_vector(self):
        ctx = GcmContext(GCM_K3)
        assert ctx.open(GCM_IV3, GCM_A4, GCM_C3[:60] + GCM_T4) == GCM_P3[:60]


class TestGcmBehaviour:
    def test_round_trip_all_lengths(self, rng):
        key = AeadKey(b"\x01" * 16, b"salt")
        for n in list(range(0, 49)) + [63, 64, 65, 127, 128, 255, 511, 512]:
            pt = bytes(rng.randrange(256) for _ in range(n))
            aad = bytes(rng.randrange(256) for _ in range(rng.randrange(20)))
            explicit = n.to_bytes(8, "big")
            sealed = aes_gcm_seal(key, explicit, aad, pt)
            assert len(sealed) == n + 16
            assert aes_gcm_open(key, explicit, aad, sealed) == pt

    def test_tampered_ciphertext_fails(self):
        key = AeadKey(b"\x02" * 16, b"\x00" * 4)
        sealed = bytearray(aes_gcm_seal(key, b"\x00" * 8, b"ad", b"payload"))
        sealed[0] ^= 1
        with pytest.raises(AuthenticationError):
            aes_gcm_open(key, b"\x00" * 8, b"ad", bytes(sealed))

    def test_tampered_aad_fails(self):
        key = AeadKey(b"\x02" * 16, b"\x00" * 4)
        sealed = aes_gcm_seal(key, b"\x00" * 8, b"ad", b"payload")
        with pytest.raises(AuthenticationError):
            aes_gcm_open(key, b"\x00" * 8, b"AD", sealed)

    def test_short_input_is_format_error(self):
        key = AeadKey(b"\x02" * 16, b"\x00" * 4)
        with pytest.raises(AeadError):
            aes_gcm_open(key, b"\x00" * 8, b"", b"\x00" * 15)

    def test_nonce_is_salt_plus_explicit(self):
        key = AeadKey(b"\x07" * 16, b"\xaa\xbb\xcc\xdd")
        assert key.nonce(b"\x01" * 8) == b"\xaa\xbb\xcc\xdd" + b"\x01" * 8

    def test_block_accounting_1kb(self):
        key = AeadKey(b"\x03" * 16, b"\x00" * 4)
        with counters.scope() as sc:
            aes_gcm_seal(key, b"\x00" * 8, b"\x00" * 13, b"\x00" * 1024)
        # 64 CTR blocks + 1 tag mask; 1 aad + 64 data + 1 length block
        assert sc.counters["aes_block"] == 65
        assert sc.counters["ghash_block"] == 66


# ---------------------------------------------------------------------------
# Byte-wise and bit-serial reference algorithms.  The counters price one AES
# block and one GHASH block; the library computes AES byte-sliced over a
# whole run and GHASH with an 8-bit multiplication table or in lanes, and
# these oracles check that the two agree.

def bytewise_round_keys(key):
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        tmp = list(words[i - 1])
        if i % 4 == 0:
            tmp = tmp[1:] + tmp[:1]
            tmp = [_SBOX[b] for b in tmp]
            tmp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], tmp)])
    return [sum((words[4 * r + c] for c in range(4)), []) for r in range(11)]


def shift_rows(s):
    # column-major state: byte (row r, col c) sits at index 4c + r
    return [s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11]]


def xtime(v):
    # v times x in GF(2^8) mod x^8 + x^4 + x^3 + x + 1
    return (v << 1 ^ 0x11B) if v & 0x80 else v << 1


def mix_columns(s):
    out = []
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
        out.extend((
            xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3,
            a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3,
            a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3),
            (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3),
        ))
    return out


def bytewise_encrypt_block(key, block):
    rk = bytewise_round_keys(key)
    state = [b ^ k for b, k in zip(block, rk[0])]
    for rnd in range(1, 10):
        state = [_SBOX[b] for b in state]
        state = shift_rows(state)
        state = mix_columns(state)
        state = [b ^ k for b, k in zip(state, rk[rnd])]
    state = [_SBOX[b] for b in state]
    state = shift_rows(state)
    return bytes(b ^ k for b, k in zip(state, rk[10]))


def bit_serial_gf_mul(h, y):
    """y * H in GF(2^128) in GCM bit order: xor H * x^i for every set
    coefficient x^i of y (the coefficient of x^i lives at integer bit
    127 - i)."""
    acc = 0
    v = h
    for i in range(128):
        if y >> (127 - i) & 1:
            acc ^= v
        v = (v >> 1) ^ (0xE1 << 120) if v & 1 else v >> 1
    return acc


def horner_absorb(gh, y, data):
    """GHASH of data from state y one block at a time, the last block
    zero-padded: y = (y ^ block) * H."""
    data += bytes(-len(data) % 16)
    for off in range(0, len(data), 16):
        y = gh.mul(y ^ int.from_bytes(data[off:off + 16], "big"))
    return y


class TestKernelsAgainstOracles:
    def test_aes_matches_bytewise_rounds(self):
        rng = random.Random(0xAE5)
        for _ in range(64):
            key = bytes(rng.randrange(256) for _ in range(16))
            aes = Aes128(key)
            for _ in range(4):
                block = bytes(rng.randrange(256) for _ in range(16))
                assert encrypt(aes, block) == bytewise_encrypt_block(key, block)

    def test_folded_keystream_matches_bytewise_rounds(self):
        # every call wider than _NARROW translates each slice through the
        # S-box table of its round key byte: 64 keys reach every one of the
        # 256 tables
        rng = random.Random(0xF01D)
        table_keys = set()
        for _ in range(64):
            key = rng.randbytes(16)
            table_keys.update(*bytewise_round_keys(key)[:10])
            j0 = rng.getrandbits(128)
            want = b"".join(
                bytewise_encrypt_block(key, (
                    j0 & ~0xFFFFFFFF | (j0 + i) & 0xFFFFFFFF).to_bytes(
                        16, "big"))
                for i in range(_NARROW + 1))
            assert Aes128(key).keystream(j0, _NARROW + 1) == want
        assert len(table_keys) == 256

    def test_keystream_records_nothing(self):
        aes = Aes128(b"\x00" * 16)
        with counters.scope() as sc:
            aes.keystream(0, 5)
        assert not sc.counters

    @pytest.mark.parametrize("low", [0x00000002, 0xFFFFFFFA])
    @pytest.mark.parametrize("blocks", sorted({
        *range(1, 10), _NARROW - 1, _NARROW, _NARROW + 1, 24,
        63, 64, 65, 257,
        1025, 1026}))
    def test_sliced_keystream_matches_bytewise_rounds(self, blocks, low):
        # low = 0xFFFFFFFA wraps the 32-bit counter inside a run of 7 or
        # more blocks (inc32); a run of up to 6 blocks is computed _NARROW
        # wide, so it wraps inc32 inside the discarded blocks
        key = bytes(range(0x40, 0x50))
        prefix = int.from_bytes(GCM_IV3, "big") << 32
        want = b"".join(
            bytewise_encrypt_block(
                key, (prefix | (low + i) & 0xFFFFFFFF).to_bytes(16, "big"))
            for i in range(blocks))
        assert Aes128(key).keystream(prefix | low, blocks) == want

    def test_one_key_answers_interleaved_widths_as_fresh_ones(self):
        # narrow calls run on the key's spread round keys and wider ones
        # fold them into SubBytes: neither may leave state that changes the
        # next call
        key = bytes(range(0x40, 0x50))
        aes = Aes128(key)
        j0 = int.from_bytes(GCM_IV3, "big") << 32 | 0xFFFFFFF0
        for blocks in (1, 5, 9, 1026, 1, 9, 5, 1026, 65, 1):
            assert aes.keystream(j0, blocks) == \
                Aes128(key).keystream(j0, blocks)
            j0 += 1

    def test_large_record_transient_peaks(self):
        # a 16 KiB record's keystream, and so its seal, peaks at about
        # 148 KiB under CPython 3.11 with the round keys folded into
        # SubBytes and xtime on the int (164 KiB with xtime by table, 227
        # KiB with each key spread over the state), and its open, which
        # also holds the sealed input, at about 164 KiB; a peak much past
        # these pushes a large echo into the allocator's heap
        # trim-and-regrow cycle
        aes = Aes128(bytes(range(16)))
        ctx = GcmContext(bytes(range(16)))
        plaintext = bytes(16384)
        sealed = ctx.seal(GCM_IV3, b"ad", plaintext)
        aes.keystream(5, 1026)
        ctx.open(GCM_IV3, b"ad", sealed)
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: aes.keystream(5, 1026),
                        lambda: ctx.seal(GCM_IV3, b"ad", plaintext),
                        lambda: ctx.open(GCM_IV3, b"ad", sealed)):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 200 * 1024
        assert peaks[1] <= 180 * 1024
        assert peaks[2] <= 200 * 1024

    def test_each_record_makes_one_keystream_call(self, monkeypatch):
        calls = []
        keystream = Aes128.keystream

        def spy(aes, j0, blocks):
            calls.append(blocks)
            return keystream(aes, j0, blocks)

        ctx = GcmContext(GCM_K3)
        monkeypatch.setattr(Aes128, "keystream", spy)
        for blocks in (0, 1, 4, 5, 1025):
            sealed = ctx.seal(GCM_IV3, b"ad", bytes(16 * blocks))
            ctx.open(GCM_IV3, b"ad", sealed)
            # E(J0) for the tag, then the CTR blocks, once each way
            assert calls == [blocks + 1] * 2
            calls.clear()

    @pytest.mark.parametrize("blocks", [0, 4, 1025])
    def test_refused_open_counts_ghash_and_the_tag_block(self, blocks):
        ctx = GcmContext(GCM_K3)
        sealed = bytearray(ctx.seal(GCM_IV3, b"ad", bytes(16 * blocks)))
        sealed[-1] ^= 1
        with counters.scope() as sc:
            with pytest.raises(AuthenticationError):
                ctx.open(GCM_IV3, b"ad", bytes(sealed))
        # the CTR blocks are priced only after the tags match
        assert list(sc.counters.items()) == [
            ("ghash_block", blocks + 2), ("aes_block", 1)]

    # 23-25 and 43 fill some of the lanes, with a different number of
    # leading zero blocks each
    @pytest.mark.parametrize("blocks", sorted({
        _LANE_MIN_BLOCKS - 1, _LANE_MIN_BLOCKS, _LANE_MIN_BLOCKS + 1,
        23, 24, 25, 43, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1,
        3 * _LANES - 1, 5 * _LANES + 3, 1025, 1026}))
    def test_absorb_matches_horner(self, blocks):
        rng = random.Random(blocks)
        for h in ((1 << 128) - 1, rng.getrandbits(128)):
            gh = _GhashKey(h)
            for tail in (0, 5):  # whole blocks, or a zero-padded last one
                data = rng.randbytes(16 * blocks - tail)
                y = rng.getrandbits(128)
                assert gh.absorb(y, data) == horner_absorb(gh, y, data)

    def test_lane_windows_are_the_powers_of_h(self):
        # window i is H^(2^i), built by squaring; each is checked against
        # the power by repeated multiplication, for every 2^i up to _LANES
        rng = random.Random(0x5C)
        for h in (1 << 127, (1 << 128) - 1, rng.getrandbits(128)):
            gh = _GhashKey(h)
            windows = gh._windows()
            assert len(windows) == _LANES.bit_length()
            power = h
            for i in range(_LANES.bit_length()):
                assert windows[i] == tuple(
                    (power >> 124 - shift & 15, shift)
                    for shift in range(0, 128, 4)
                    if power >> 124 - shift & 15)
                for _ in range(1 << i):
                    power = gh.mul(power)

    def test_ghash_takes_the_lane_path_from_the_threshold(self, monkeypatch):
        calls = []
        lanes = _GhashKey._absorb_lanes

        def spy(gh, y, data):
            calls.append(len(data) // 16)
            return lanes(gh, y, data)

        monkeypatch.setattr(_GhashKey, "_absorb_lanes", spy)
        ctx = GcmContext(GCM_K3)
        for blocks in (1, _LANE_MIN_BLOCKS - 1, _LANE_MIN_BLOCKS, 1025):
            ctx.seal(GCM_IV3, b"", bytes(16 * blocks))
            ctx.seal(GCM_IV3, bytes(16 * blocks), b"")
        # the ciphertext's run, then the AAD's
        assert calls == [_LANE_MIN_BLOCKS] * 2 + [1025] * 2

    def test_ghash_mul_matches_bit_serial(self):
        rng = random.Random(0x6C)
        edges = [0, 1, 1 << 127, (1 << 128) - 1]
        subkeys = edges + [rng.getrandbits(128) for _ in range(8)]
        for h in subkeys:
            gh = _GhashKey(h)
            for y in edges + [rng.getrandbits(128) for _ in range(16)]:
                assert gh.mul(y) == bit_serial_gf_mul(h, y)


# (plaintext length, AAD length) -> SHA-256 of the sealed output under key
# 000102...0f and nonce GCM_IV3, with plaintext byte i = 7i mod 256 and AAD
# byte i = d0 + i mod 256.  Computed once, offline, with the `cryptography`
# package's AESGCM.  112 B is 7 CTR blocks, 113 and 128 B are 8, 129 B is 9
# and 16384 B is 1024.  An AAD of 368 B is 23 GHASH blocks and 369 B is 24,
# both in the lane form (from _LANE_MIN_BLOCKS = 16 blocks).
SEAL_SHA256 = {
    (0, 0): "bc182de37d27c4aaab5c70d1b402fa85c25799a696644d8c8d2a4543b8209f7b",
    (0, 13): "4b03fadd77ed5c06f7b7720acbdb866a571cbe568c7c866d75c6572da823a84a",
    (112, 0): "806fcab4939c4c4f84ce8a51bc423ae0841f29bf177f9abab261584f4d0b3bac",
    (112, 13): "4576b330e14ddc5c118b41b040bc0f48666e6f258ee251e8a1599e6a5e6b9d21",
    (113, 0): "720787ac1dd47c0cb843c8ac2ecc05ab214a4609590a23f8fd6f761c92a53a8c",
    (113, 13): "999392d1dc4d095fc4032b0b30b25c6a7af79cc41f049e32ed0c891538855554",
    (128, 0): "fa3eb6cba8ad3e6fd32982488c858839197670991f6c7c31f7680a7092f8a1f1",
    (128, 13): "e894e96f0eb6928271acda123d62e932e6967d7af3620478688e7df852467261",
    (129, 0): "b5996a89217c958c2d571aabb72ef50a2b990e31bf9d916bc82e002f27832498",
    (129, 13): "ee826a8fc28e48257e438ccf99b4e9fe0bbe66d2966d43a57fd75eaf7015f347",
    (16384, 0): "414a55a392513bb64d17d4f2c8a4fcbfcd6ef4988aa8d90cbebc69bc2b2797e3",
    (16384, 13): "0a5e614e8ccafe9e8bc9ec9e6bad7540f575846638edcfd895880d8acf4de0ce",
    (0, 368): "fb5dcdfac426f5bc61baffaa99e5dd865df0ee07428221446871ae59c2bcb4a1",
    (0, 369): "98849b68b8edcd6f319af2acd0eb3465032a841b213eddb8c05931b673692d06",
    (129, 1000): "6598e4dbec7edadb8d2825eccd72a26a9f4013e3b2b5c8feaf16e9e08c08d9b7",
    (16384, 16384): "27f04169cf279865a5b19e4b49b104b7b8ec0c5ea73605e399fc059c1f90f9b2",
}


@pytest.mark.parametrize("n,aad_len", sorted(SEAL_SHA256))
def test_seal_known_answers_across_the_sliced_threshold(n, aad_len):
    ctx = GcmContext(bytes(range(16)))
    pt = bytes(i * 7 & 0xFF for i in range(n))
    aad = bytes(0xD0 + i & 0xFF for i in range(aad_len))
    sealed = ctx.seal(GCM_IV3, aad, pt)
    assert hashlib.sha256(sealed).hexdigest() == SEAL_SHA256[(n, aad_len)]
    assert ctx.open(GCM_IV3, aad, sealed) == pt


# (plaintext length, AAD length) -> counter items of seal, then of open, in
# the order each kind first appears (energy.estimate sums in dict order)
GCM_COUNTER_ITEMS = {
    (0, 0): ([("ghash_block", 1), ("aes_block", 1)],
             [("ghash_block", 1), ("aes_block", 1)]),
    (0, 13): ([("ghash_block", 2), ("aes_block", 1)],
              [("ghash_block", 2), ("aes_block", 1)]),
    (1, 0): ([("aes_block", 2), ("ghash_block", 2)],
             [("ghash_block", 2), ("aes_block", 2)]),
    (1, 13): ([("aes_block", 2), ("ghash_block", 3)],
              [("ghash_block", 3), ("aes_block", 2)]),
    (15, 0): ([("aes_block", 2), ("ghash_block", 2)],
              [("ghash_block", 2), ("aes_block", 2)]),
    (15, 13): ([("aes_block", 2), ("ghash_block", 3)],
               [("ghash_block", 3), ("aes_block", 2)]),
    (16, 0): ([("aes_block", 2), ("ghash_block", 2)],
              [("ghash_block", 2), ("aes_block", 2)]),
    (16, 13): ([("aes_block", 2), ("ghash_block", 3)],
               [("ghash_block", 3), ("aes_block", 2)]),
    (17, 0): ([("aes_block", 3), ("ghash_block", 3)],
              [("ghash_block", 3), ("aes_block", 3)]),
    (17, 13): ([("aes_block", 3), ("ghash_block", 4)],
               [("ghash_block", 4), ("aes_block", 3)]),
    (64, 0): ([("aes_block", 5), ("ghash_block", 5)],
              [("ghash_block", 5), ("aes_block", 5)]),
    (64, 13): ([("aes_block", 5), ("ghash_block", 6)],
               [("ghash_block", 6), ("aes_block", 5)]),
    (16384, 0): ([("aes_block", 1025), ("ghash_block", 1025)],
                 [("ghash_block", 1025), ("aes_block", 1025)]),
    (16384, 13): ([("aes_block", 1025), ("ghash_block", 1026)],
                  [("ghash_block", 1026), ("aes_block", 1025)]),
}


@pytest.mark.parametrize("n,aad_len", sorted(GCM_COUNTER_ITEMS))
def test_counter_items_in_order(n, aad_len):
    key = AeadKey(bytes(range(16)), b"salt")
    pt = bytes(i * 7 & 0xFF for i in range(n))
    aad = b"\x0d" * aad_len
    with counters.scope() as sealing:
        sealed = aes_gcm_seal(key, b"\x01" * 8, aad, pt)
    with counters.scope() as opening:
        assert aes_gcm_open(key, b"\x01" * 8, aad, sealed) == pt
    assert (list(sealing.counters.items()), list(opening.counters.items())) \
        == GCM_COUNTER_ITEMS[(n, aad_len)]

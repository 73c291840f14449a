import random

import pytest

from ecdtls import counters
from ecdtls.aesgcm import (_RCON, _SBOX, _XTIME, AeadError, AeadKey, Aes128,
                           AuthenticationError, GcmContext, _GhashKey,
                           aes_gcm_open, aes_gcm_seal)

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


class TestAesCore:
    def test_fips197_appendix_c_vector(self):
        aes = Aes128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        got = aes.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
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
            assert aes.encrypt_block(bytes.fromhex(pt)).hex() == ct

    def test_block_counter(self):
        aes = Aes128(b"\x00" * 16)
        with counters.scope() as sc:
            aes.encrypt_block(b"\x00" * 16)
        assert sc.counters["aes_block"] == 1

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
# block and one GHASH block; the library computes them with T-tables and an
# 8-bit multiplication table, and these oracles check that the two agree.

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


def mix_columns(s):
    out = []
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
        out.extend((
            _XTIME[a0] ^ (_XTIME[a1] ^ a1) ^ a2 ^ a3,
            a0 ^ _XTIME[a1] ^ (_XTIME[a2] ^ a2) ^ a3,
            a0 ^ a1 ^ _XTIME[a2] ^ (_XTIME[a3] ^ a3),
            (_XTIME[a0] ^ a0) ^ a1 ^ a2 ^ _XTIME[a3],
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


class TestKernelsAgainstOracles:
    def test_aes_matches_bytewise_rounds(self):
        rng = random.Random(0xAE5)
        for _ in range(64):
            key = bytes(rng.randrange(256) for _ in range(16))
            aes = Aes128(key)
            for _ in range(4):
                block = bytes(rng.randrange(256) for _ in range(16))
                want = bytewise_encrypt_block(key, block)
                assert aes.encrypt_block(block) == want
                assert aes.encrypt_int(int.from_bytes(block, "big")) == \
                    int.from_bytes(want, "big")

    def test_int_path_records_nothing(self):
        aes = Aes128(b"\x00" * 16)
        with counters.scope() as sc:
            aes.encrypt_int(0)
        assert not sc.counters

    def test_ghash_mul_matches_bit_serial(self):
        rng = random.Random(0x6C)
        edges = [0, 1, 1 << 127, (1 << 128) - 1]
        subkeys = edges + [rng.getrandbits(128) for _ in range(8)]
        for h in subkeys:
            gh = _GhashKey(h)
            for y in edges + [rng.getrandbits(128) for _ in range(16)]:
                assert gh.mul(y) == bit_serial_gf_mul(h, y)


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

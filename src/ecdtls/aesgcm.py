"""AES-128 (FIPS 197) and GCM (SP 800-38D), built from the block cipher up.

Only the forward cipher exists: GCM's CTR mode and tag path never decrypt a
block.  Rounds 1-9 use four 256-entry T-tables (S-box, ShiftRows and
MixColumns folded into one lookup per state byte), so each output column is
four lookups and xors; the last round is S-box only.  GHASH multiplies by the
hash subkey H one byte at a time (Shoup's method): one 256-entry table of H
times every byte value per key, plus one 256-entry reduction table shared by
all keys.

Counters price the algorithm, not this code: `aes_block` per block
encryption, `ghash_block` per 16-byte GHASH block, recorded per call in the
order the blocks run.

Nothing here is constant-time: table indices depend on the key and the data,
as the S-box lookups of any byte-wise pure-Python AES do.
"""

from __future__ import annotations

from . import counters


class AeadError(Exception):
    """GCM usage or format error."""


class AuthenticationError(AeadError):
    """Tag verification failed; no plaintext is released."""


def _build_sbox():
    # multiplicative inverse in GF(2^8) followed by the affine map
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    sbox = [0] * 256
    for v in range(256):
        inv = 0 if v == 0 else exp[255 - log[v]]
        b = inv
        res = 0x63
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            res ^= b
        sbox[v] = res ^ inv
    return bytes(sbox)


_SBOX = _build_sbox()
_XTIME = bytes(((v << 1) ^ 0x1B) & 0xFF if v & 0x80 else (v << 1) for v in range(256))
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)
_WORD = 0xFFFFFFFF

# _TE0[a] is the column that MixColumns makes of S(a) in row 0: rows
# (2, 1, 1, 3) * S(a), row 0 in the top byte.  _TE1.._TE3 serve rows 1-3 and
# are _TE0 rotated right by 8, 16 and 24 bits.
_TE0 = tuple((_XTIME[s] << 24) | (s << 16) | (s << 8) | (_XTIME[s] ^ s)
             for s in _SBOX)
_TE1 = tuple((t >> 8) | (t << 24) & _WORD for t in _TE0)
_TE2 = tuple((t >> 16) | (t << 16) & _WORD for t in _TE0)
_TE3 = tuple((t >> 24) | (t << 8) & _WORD for t in _TE0)


class Aes128:
    """AES-128 forward cipher with expanded round keys."""

    __slots__ = ("_round_keys",)

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise AeadError("AES-128 key must be 16 bytes")
        sb = _SBOX
        w = [int.from_bytes(key[i:i + 4], "big") for i in range(0, 16, 4)]
        for i in range(4, 44):
            t = w[i - 1]
            if i % 4 == 0:
                # RotWord, SubWord, Rcon
                t = ((sb[t >> 16 & 255] ^ _RCON[i // 4 - 1]) << 24 |
                     sb[t >> 8 & 255] << 16 | sb[t & 255] << 8 | sb[t >> 24])
            w.append(w[i - 4] ^ t)
        # the four column words of each round joined into one 128-bit int
        self._round_keys = tuple(
            w[i] << 96 | w[i + 1] << 64 | w[i + 2] << 32 | w[i + 3]
            for i in range(0, 44, 4))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise AeadError("block must be 16 bytes")
        counters.record("aes_block")
        return self.encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    def encrypt_int(self, x: int) -> int:
        """The 128-bit block x (big-endian) encrypted.  Records nothing: the
        caller records one `aes_block` per block it encrypts."""
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        rk = self._round_keys
        x ^= rk[0]
        for k in rk[1:10]:
            # state byte (row r, column c) is b[4c + r]; output column c
            # takes row r from column c + r (ShiftRows)
            (b0, b1, b2, b3, b4, b5, b6, b7,
             b8, b9, b10, b11, b12, b13, b14, b15) = x.to_bytes(16, "big")
            x = ((te0[b0] ^ te1[b5] ^ te2[b10] ^ te3[b15]) << 96 |
                 (te0[b4] ^ te1[b9] ^ te2[b14] ^ te3[b3]) << 64 |
                 (te0[b8] ^ te1[b13] ^ te2[b2] ^ te3[b7]) << 32 |
                 te0[b12] ^ te1[b1] ^ te2[b6] ^ te3[b11]) ^ k
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = x.to_bytes(16, "big")
        sb = _SBOX
        return int.from_bytes(bytes((
            sb[b0], sb[b5], sb[b10], sb[b15], sb[b4], sb[b9], sb[b14], sb[b3],
            sb[b8], sb[b13], sb[b2], sb[b7], sb[b12], sb[b1], sb[b6], sb[b11],
        )), "big") ^ rk[10]


# ---------------------------------------------------------------------------
# GCM
#
# An element of GF(2^128) is a 128-bit int whose top bit is the coefficient
# of x^0 and whose bottom bit is that of x^127, so multiplying by x is a right
# shift, reduced by x^128 = 1 + x + x^2 + x^7 when x^127 falls off.

_R = 0xE1 << 120


def _gf_mul_x(v: int) -> int:
    return (v >> 1) ^ _R if v & 1 else v >> 1


def _mul_x8_reductions():
    out = []
    for b in range(256):
        for _ in range(8):
            b = _gf_mul_x(b)
        out.append(b)
    return tuple(out)


# _R8[b]: what the low byte b of z contributes to z * x^8, so that
# z * x^8 == (z >> 8) ^ _R8[z & 255]
_R8 = _mul_x8_reductions()


class _GhashKey:
    """Multiplication by the hash subkey H, one byte of the multiplier at a
    time, from a table of H times every byte value."""

    __slots__ = ("table",)

    def __init__(self, h: int):
        # the byte b in the top byte of an element is a polynomial of degree
        # < 8, and its bit 0x80 >> i is the coefficient of x^i
        table = [0] * 256
        for i in range(8):
            table[0x80 >> i] = h
            h = _gf_mul_x(h)
        for bit in (2, 4, 8, 16, 32, 64, 128):
            for low in range(1, bit):
                table[bit | low] = table[bit] ^ table[low]
        self.table = table

    def mul(self, y: int) -> int:
        """y * H by Horner's rule over the bytes of y, highest degree first."""
        m, r8 = self.table, _R8
        z = 0
        for b in y.to_bytes(16, "little"):
            z = (z >> 8) ^ r8[z & 255] ^ m[b]
        return z

    def absorb(self, y: int, data: bytes) -> int:
        """Fold each 16-byte block of data, the last zero-padded, into the
        GHASH state y: y = (y ^ block) * H."""
        mul = self.mul
        if len(data) % 16:
            data = data + bytes(16 - len(data) % 16)
        for off in range(0, len(data), 16):
            y = mul(y ^ int.from_bytes(data[off:off + 16], "big"))
        return y


class GcmContext:
    """AES-128-GCM bound to one key; nonces are 96-bit (the fast path)."""

    def __init__(self, key: bytes):
        self._aes = Aes128(key)
        h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._ghash_key = _GhashKey(h)

    def _tag(self, j0: int, aad: bytes, ciphertext: bytes) -> bytes:
        """GHASH over aad, ciphertext and their bit lengths, masked with
        the encrypted pre-counter block J0."""
        counters.record("ghash_block", (len(aad) + 15) // 16 +
                        (len(ciphertext) + 15) // 16 + 1)
        gh = self._ghash_key
        y = gh.absorb(gh.absorb(0, aad), ciphertext)
        s = gh.mul(y ^ (len(aad) * 8 << 64 | len(ciphertext) * 8))
        counters.record("aes_block")
        return (self._aes.encrypt_int(j0) ^ s).to_bytes(16, "big")

    def _ctr(self, j0: int, data: bytes) -> bytes:
        """data xor the keystream E(J0 + 1), E(J0 + 2), ... whose counter is
        the low 32 bits of the block."""
        n = len(data)
        if not n:
            return b""
        blocks = (n + 15) // 16
        counters.record("aes_block", blocks)
        encrypt = self._aes.encrypt_int
        prefix, counter = j0 & ~_WORD, j0 & _WORD
        keystream = bytearray()
        for i in range(1, blocks + 1):
            keystream += encrypt(prefix | (counter + i) & _WORD).to_bytes(16, "big")
        del keystream[n:]
        return (int.from_bytes(data, "big") ^
                int.from_bytes(keystream, "big")).to_bytes(n, "big")

    def seal(self, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
        if len(nonce) != 12:
            raise AeadError("GCM nonce must be 96 bits")
        j0 = int.from_bytes(nonce, "big") << 32 | 1
        ciphertext = self._ctr(j0, plaintext)
        return ciphertext + self._tag(j0, aad, ciphertext)

    def open(self, nonce: bytes, aad: bytes, sealed: bytes) -> bytes:
        if len(nonce) != 12:
            raise AeadError("GCM nonce must be 96 bits")
        if len(sealed) < 16:
            raise AeadError("input shorter than the tag")
        ciphertext, tag = sealed[:-16], sealed[-16:]
        j0 = int.from_bytes(nonce, "big") << 32 | 1
        # full 16-byte comparison before any plaintext is produced
        if self._tag(j0, aad, ciphertext) != tag:
            raise AuthenticationError("GCM tag mismatch")
        return self._ctr(j0, ciphertext)


class AeadKey:
    """AES-128-GCM key with the 4-byte implicit nonce salt."""

    __slots__ = ("key", "implicit_salt", "_ctx")

    def __init__(self, key: bytes, implicit_salt: bytes):
        if len(key) != 16 or len(implicit_salt) != 4:
            raise AeadError("need a 16-byte key and 4-byte salt")
        self.key = key
        self.implicit_salt = implicit_salt
        self._ctx = GcmContext(key)

    def nonce(self, explicit: bytes) -> bytes:
        if len(explicit) != 8:
            raise AeadError("explicit nonce part must be 8 bytes")
        return self.implicit_salt + explicit


def aes_gcm_seal(key: AeadKey, explicit_nonce: bytes, aad: bytes,
                 plaintext: bytes) -> bytes:
    """ciphertext || 16-byte tag under nonce = salt || explicit part."""
    return key._ctx.seal(key.nonce(explicit_nonce), aad, plaintext)


def aes_gcm_open(key: AeadKey, explicit_nonce: bytes, aad: bytes,
                 sealed: bytes) -> bytes:
    """Inverse of seal; raises AuthenticationError on any mismatch."""
    return key._ctx.open(key.nonce(explicit_nonce), aad, sealed)

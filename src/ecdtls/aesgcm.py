"""AES-128 (FIPS 197) and GCM (SP 800-38D), built from the block cipher up.

Only the forward cipher exists: GCM's CTR mode and tag path never decrypt a
block.  AES runs in one of two forms, chosen by how many blocks a call
encrypts:

- One block at a time.  Rounds 1-9 use four 256-entry T-tables (S-box,
  ShiftRows and MixColumns folded into one lookup per state byte), so each
  output column is four lookups and xors; the last round is S-box only.
  The tag's E(J0) and every CTR run shorter than `_SLICED_MIN_BLOCKS`
  blocks take this form.
- Byte-sliced, for the CTR keystream of a longer run (Kasper-Schwabe's
  bitslicing, CHES 2009, done with bytes).  The n counter blocks are laid
  out as 16 slices of n bytes, one per state position, so each AES step is
  a few operations over the whole run: SubBytes and xtime are
  `bytes.translate`, ShiftRows and MixColumns' row rotations are slicing
  and big-int shifts.  Its fixed cost per call is about that of 4-5
  T-table blocks, so the two forms cross at about 5 blocks.  Measured
  under CPython 3.11 on a Xeon VM, the sliced form is 1.3-1.6x faster at
  8 blocks and 6-8x at 1025 (a 16 KiB record).

GHASH also runs in one of two forms, chosen by how many blocks a call
absorbs:

- Horner's rule, one block at a time, multiplying by the hash subkey H one
  byte at a time (Shoup's method): one 256-entry table of H times every
  byte value per key, plus one 256-entry reduction table shared by all
  keys.  Runs shorter than `_LANE_MIN_BLOCKS` blocks take this form, so
  every 64 B record and Finished record runs it, as does the tag's
  length block.
- Lane-parallel, for a longer run (the aggregated Horner form of
  Gueron-Kounavis, Intel's CLMUL/GCM white paper, 2010).  `_LANES` lanes
  of 256-bit slots sit on one big int; each step xors in the next
  `_LANES` blocks and multiplies every lane by the constant H^`_LANES`
  with one shift and one xor per non-zero 4-bit window of that constant,
  then reduces every slot with two folds.  The only state kept per key is
  that window list.  The steps quantise the run to whole groups of lanes,
  so the two forms cross at 14-20 blocks, and from 24 blocks up the lane
  form wins at every length.  Measured under CPython 3.11 on a Xeon VM,
  it is 1.4x faster at 24 blocks and 2.6x at 1025 (a 16 KiB record).

Counters price the algorithm, not this code: `aes_block` per block
encryption, `ghash_block` per 16-byte GHASH block, recorded per call in the
order the blocks run, whichever form of AES computes them.

Nothing here is constant-time: table indices and `translate` lookups depend
on the key and the data, as the S-box lookups of any byte-wise pure-Python
AES do.
"""

from __future__ import annotations

import hmac
import struct

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

# A CTR run of at least this many blocks takes the byte-sliced keystream;
# shorter ones are cheaper one T-table block at a time.
_SLICED_MIN_BLOCKS = 8

# The sliced state of n blocks is 16 slices of n bytes in row-major order:
# slice 4r + c holds the byte at row r, column c of every block, which is
# block byte _SLICE_BYTES[4r + c] = 4c + r.  As one big-endian int, row r
# is the r-th quarter from the top.
_SLICE_BYTES = tuple(4 * c + r for r in range(4) for c in range(4))
_TABLE_PAD = bytes(240)


def _spread(pattern: bytes, block: int) -> int:
    """The 128-bit block laid out as a sliced state, every block equal to
    it.  pattern is each slice's block-byte index repeated n times."""
    return int.from_bytes(
        pattern.translate(block.to_bytes(16, "big") + _TABLE_PAD), "big")


def _sub_shift(x: int, n: int) -> bytes:
    """SubBytes then ShiftRows of the sliced state x: row r of the result
    is row r of S(x) rotated left by r slices."""
    s = x.to_bytes(16 * n, "big").translate(_SBOX)
    row = 4 * n
    return b"".join((
        s[:row],
        s[row + n:2 * row], s[row:row + n],
        s[2 * row + 2 * n:3 * row], s[2 * row:2 * row + 2 * n],
        s[3 * row + 3 * n:], s[3 * row:3 * row + 3 * n]))


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

    def sliced_keystream(self, j0: int, blocks: int) -> bytearray:
        """E(J0 + 1) || ... || E(J0 + blocks), whose counter is the low 32
        bits of the block and wraps mod 2^32 (inc32), all blocks computed
        together on a byte-sliced state.  Records nothing."""
        n = blocks
        size = 16 * n
        pattern = b"".join(bytes((i,)) * n for i in _SLICE_BYTES)
        rk = self._round_keys
        first = (j0 & _WORD) + 1
        wrapped = max(0, first + n - 1 - _WORD)
        ctr = struct.pack(">%dI" % n, *range(first, first + n - wrapped),
                          *range(wrapped))
        state = bytearray(
            pattern.translate(j0.to_bytes(16, "big") + _TABLE_PAD))
        for r in range(4):
            # the counter is column 3: row r is its byte r (big-endian)
            state[(4 * r + 3) * n:(4 * r + 4) * n] = ctr[r::4]
        x = int.from_bytes(state, "big") ^ _spread(pattern, rk[0])
        # rotating the state left by one, two or three rows as a big int
        s1, s2, s3 = 32 * n, 64 * n, 96 * n
        m1, m2, m3 = (1 << s3) - 1, (1 << s2) - 1, (1 << s1) - 1
        xt = _XTIME
        for k in rk[1:10]:
            a = int.from_bytes(_sub_shift(x, n), "big")
            # MixColumns, row r of the output:
            # xtime(a_r ^ a_{r+1}) ^ a_{r+1} ^ a_{r+2} ^ a_{r+3}
            b = (a & m1) << s1 | a >> s3
            c = (a & m2) << s2 | a >> s2
            d = (a & m3) << s3 | a >> s1
            t = int.from_bytes(
                (a ^ b).to_bytes(size, "big").translate(xt), "big")
            x = t ^ b ^ c ^ d ^ _spread(pattern, k)
        s = (int.from_bytes(_sub_shift(x, n), "big") ^
             _spread(pattern, rk[10])).to_bytes(size, "big")
        keystream = bytearray(size)
        for p, i in enumerate(_SLICE_BYTES):
            keystream[i::16] = s[p * n:(p + 1) * n]
        return keystream


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


# A GHASH run of at least this many blocks takes the lane form
# (`_GhashKey._absorb_lanes`); shorter ones are cheaper one byte-wise
# Horner step per block.
_LANE_MIN_BLOCKS = 24
_LANES = 8
# The lane vector is _LANES slots of 256 bits on one int, lane 0 on top.
# A lane's value sits in the top 128 bits of its slot, so a product by a
# 128-bit element fits in the slot and its terms of degree 128 and up fall
# into the slot's low 128 bits.
_SLOT_LOW = sum(((1 << 128) - 1) << (256 * j) for j in range(_LANES))
_SLOT_HIGH = _SLOT_LOW << 128


def _mul_lanes(v: int, windows: tuple) -> int:
    """Every lane of v times the constant whose non-zero 4-bit windows are
    `windows`, reduced mod x^128 + x^7 + x^2 + x + 1."""
    v1, v2, v3 = v >> 1, v >> 2, v >> 3
    v12, v13, v23 = v1 ^ v2, v1 ^ v3, v2 ^ v3
    v123 = v12 ^ v3
    # multiples[d]: v times the window value d, whose bit 3 is the
    # coefficient of x^0 and bit 0 that of x^3
    multiples = (0, v3, v2, v23, v1, v13, v12, v123, v, v ^ v3, v ^ v2,
                 v ^ v23, v ^ v1, v ^ v13, v ^ v12, v ^ v123)
    z = 0
    for d, shift in windows:
        z ^= multiples[d] >> shift
    # two folds of x^128 = 1 + x + x^2 + x^7: the first leaves terms of
    # degree 128 to 134, the second none of degree 128 or more
    for _ in range(2):
        t = (z & _SLOT_LOW) << 128
        z = (z & _SLOT_HIGH) ^ t ^ t >> 1 ^ t >> 2 ^ t >> 7
    return z


class _GhashKey:
    """Multiplication by the hash subkey H, one byte of the multiplier at a
    time, from a table of H times every byte value."""

    __slots__ = ("table", "_lane_windows")

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
        self._lane_windows = None

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
        if len(data) % 16:
            data = data + bytes(16 - len(data) % 16)
        if len(data) >= 16 * _LANE_MIN_BLOCKS:
            return self._absorb_lanes(y, data)
        mul = self.mul
        for off in range(0, len(data), 16):
            y = mul(y ^ int.from_bytes(data[off:off + 16], "big"))
        return y

    def _absorb_lanes(self, y: int, data: bytes) -> int:
        """absorb by the aggregated Horner form: with y xored into block 1,
        the result is the sum of block i (from 1) times H^(n + 1 - i).  Lane
        j (from 0) takes blocks j + 1, j + 1 + L, ... (L = _LANES); each
        step xors the next L blocks into the lanes and multiplies every
        lane by H^L, the last step only xors.  Lane j then still owes
        H^(L - j), which a Horner pass over the lanes pays with L
        multiplications by H.  Leading zero blocks pad n to a multiple of
        L without changing the sum."""
        n = len(data) // 16
        pad = -n % _LANES
        # block i (from 0) in the top half of 32-byte slot pad + i
        slots = bytearray(32 * (n + pad))
        for b in range(16):
            slots[32 * pad + b::32] = data[b::16]
        windows = self._windows()
        step = 32 * _LANES
        acc = y << (128 + 256 * (_LANES - 1 - pad))
        for off in range(0, len(slots) - step, step):
            acc = _mul_lanes(
                acc ^ int.from_bytes(slots[off:off + step], "big"), windows)
        lanes = (acc ^ int.from_bytes(slots[-step:], "big")).to_bytes(
            step, "big")
        mul = self.mul
        y = 0
        for off in range(0, step, 32):
            y = mul(y ^ int.from_bytes(lanes[off:off + 16], "big"))
        return y

    def _windows(self) -> tuple:
        """The non-zero 4-bit windows of H^_LANES as (value, shift) pairs,
        computed on first use: H^_LANES is the sum of value * x^shift, with
        bit 3 of value the coefficient of x^0 and bit 0 that of x^3."""
        if self._lane_windows is None:
            c = self.table[0x80]  # H times x^0
            for _ in range(_LANES - 1):
                c = self.mul(c)
            self._lane_windows = tuple(
                (c >> 124 - shift & 15, shift)
                for shift in range(0, 128, 4) if c >> 124 - shift & 15)
        return self._lane_windows


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
        if blocks >= _SLICED_MIN_BLOCKS:
            keystream = self._aes.sliced_keystream(j0, blocks)
        else:
            encrypt = self._aes.encrypt_int
            prefix, counter = j0 & ~_WORD, j0 & _WORD
            keystream = bytearray()
            for i in range(1, blocks + 1):
                keystream += encrypt(
                    prefix | (counter + i) & _WORD).to_bytes(16, "big")
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
        # full 16-byte comparison, in time independent of where the tags
        # differ, before any plaintext is produced
        if not hmac.compare_digest(self._tag(j0, aad, ciphertext), tag):
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

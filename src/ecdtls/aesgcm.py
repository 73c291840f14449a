"""AES-128 (FIPS 197) and GCM (SP 800-38D), built from the block cipher up.

Only the forward cipher exists: GCM's CTR mode and tag path never decrypt a
block.  AES runs in one form, byte-sliced (Kasper-Schwabe's bitslicing,
CHES 2009, done with bytes): `Aes128.keystream` encrypts a run of n counter
blocks together, laid out as 16 slices of n bytes, one per state position,
so each AES step is a few operations over the whole run.  SubBytes and
xtime are `bytes.translate`, ShiftRows is slicing, MixColumns takes two
row rotations (big-int shifts), and the last round's ShiftRows is folded
into the unslicing.  Each record makes one call, whose first block E(J0)
masks the tag and whose rest is the CTR keystream; the hash subkey H is a
one-block call.

A call of up to `_NARROW` = 8 blocks runs 8 blocks wide, on round keys
spread over that width once per key (key-only work moved to key setup, as
table-driven AES does with its tables: Bernstein-Schwabe, INDOCRYPT 2008),
and drops the blocks past its own; a longer call spreads each round key
over its own width just before its round, so one wide key is alive at a
time (a 16 KiB record's transient peak is 227 KiB, against 381 KiB with all
ten spread first).  8 is the
widest of the short calls: H is 1 block, a Finished record 3 and a 64 B
record 5, E(J0) included.  Measured under CPython 3.11 on a Xeon VM (best
of many runs), a call costs about 30 us for 1 block, 31 us for 3, 32 us
for 5 or 8, 45 us for 9 and 1.3 ms for the 1026 of a 16 KiB record.

GHASH runs in one of two forms, chosen by how many blocks a call
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
encryption, `ghash_block` per 16-byte GHASH block, recorded in the order
GCM uses the blocks.  `open` computes its whole keystream before it
compares tags, so a refused record has run its CTR blocks through AES; the
counters record those blocks only after a match, so that work is unpriced
(no benchmark workload forges a record longer than 64 B).  So are the
blocks a short call computes past its own and drops: the algorithm never
uses them.

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

# The sliced state of n blocks is 16 slices of n bytes in row-major order:
# slice 4r + c holds the byte at row r, column c of every block, which is
# block byte 4c + r.  As one big-endian int, row r is the r-th quarter from
# the top.

# The last round's (block byte, slice) pairs, ShiftRows folded in: it moves
# row r left by r columns, so block byte 4c + r comes from slice
# 4r + (c + r) % 4 of the SubBytes output.
_UNSLICE = tuple((4 * c + r, 4 * r + (c + r) % 4)
                 for r in range(4) for c in range(4))
_TABLE_PAD = bytes(240)
# the width of a short call (module docstring)
_NARROW = 8


def _pattern(n: int) -> bytes:
    """Each slice number repeated n times: translating 16 bytes in slice
    order (padded to 256) through it spreads them over 16 slices of n."""
    return b"".join(bytes((p,)) * n for p in range(16))


def _by_slice(block: bytes) -> bytes:
    """The 16 bytes of a block in slice order, row by row, padded to a
    translate table."""
    return block[::4] + block[1::4] + block[2::4] + block[3::4] + _TABLE_PAD


_NARROW_PATTERN = _pattern(_NARROW)


class Aes128:
    """AES-128 forward cipher: round keys 0-9 spread over a sliced state of
    `_NARROW` blocks, and the last round key in block order."""

    __slots__ = ("_narrow_keys", "_last_key")

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
        # the four column words of each round, as 16 block-order bytes
        keys = [struct.pack(">4I", *w[i:i + 4]) for i in range(0, 44, 4)]
        self._narrow_keys = tuple(
            int.from_bytes(_NARROW_PATTERN.translate(_by_slice(k)), "big")
            for k in keys[:10])
        self._last_key = keys[10]

    def keystream(self, j0: int, blocks: int) -> bytes:
        """E(J0) || E(J0 + 1) || ... || E(J0 + blocks - 1), whose counter is
        the low 32 bits of the block and wraps mod 2^32 (inc32), all blocks
        computed together on a byte-sliced state.  A call of fewer than
        `_NARROW` blocks computes `_NARROW` and drops the rest.  Records
        nothing: the caller records one `aes_block` per block it prices, so
        the dropped blocks are never priced."""
        n = max(blocks, _NARROW)
        size = 16 * n
        if n == _NARROW:
            pattern, keys = _NARROW_PATTERN, iter(self._narrow_keys)
        else:
            # spread just before each round (module docstring); slice p of
            # a narrow key is its byte p, _NARROW times
            pattern = _pattern(n)
            keys = (int.from_bytes(pattern.translate(
                k.to_bytes(16 * _NARROW, "big")[::_NARROW] + _TABLE_PAD),
                "big") for k in self._narrow_keys)
        first = j0 & _WORD
        wrapped = max(0, first + n - 1 - _WORD)
        ctr = struct.pack(">%dI" % n, *range(first, first + n - wrapped),
                          *range(wrapped))
        state = bytearray(
            pattern.translate(_by_slice(j0.to_bytes(16, "big"))))
        for r in range(4):
            # the counter is column 3: row r is its byte r (big-endian)
            state[(4 * r + 3) * n:(4 * r + 4) * n] = ctr[r::4]
        x = int.from_bytes(state, "big") ^ next(keys)
        # rotating the state up by one or two rows as a big int
        s1, s2, s3 = 32 * n, 64 * n, 96 * n
        m1, m2 = (1 << s3) - 1, (1 << s2) - 1
        # the byte offsets of row r (r_r) and of its slice r (c_r)
        r1, r2, r3 = 4 * n, 8 * n, 12 * n
        c1, c2, c3 = r1 + n, r2 + 2 * n, r3 + 3 * n
        sb, xt = _SBOX, _XTIME
        for k in keys:
            # SubBytes, then ShiftRows: row r rotated left by r slices
            s = x.to_bytes(size, "big").translate(sb)
            a = int.from_bytes(b"".join((
                s[:r1], s[c1:r2], s[r1:c1], s[c2:r3], s[r2:c2], s[c3:],
                s[r3:c3])), "big")
            # MixColumns, row r of the output:
            # xtime(a_r ^ a_{r+1}) ^ a_{r+1} ^ a_{r+2} ^ a_{r+3}; with b the
            # state a rotated up one row and f = a ^ b, that is
            # xtime(f) ^ b ^ f rotated up two rows
            b = (a & m1) << s1 | a >> s3
            f = a ^ b
            x = (int.from_bytes(f.to_bytes(size, "big").translate(xt), "big")
                 ^ b ^ ((f & m2) << s2 | f >> s2) ^ k)
        # the last round: SubBytes, ShiftRows in the unslicing, then the last
        # round key in block order
        s = x.to_bytes(size, "big").translate(sb)
        out = bytearray(16 * blocks)
        for i, p in _UNSLICE:
            out[i::16] = s[p * n:p * n + blocks]
        return (int.from_bytes(out, "big") ^
                int.from_bytes(self._last_key * blocks, "big")
                ).to_bytes(16 * blocks, "big")


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
        counters.record("aes_block")
        h = int.from_bytes(self._aes.keystream(0, 1), "big")
        self._ghash_key = _GhashKey(h)

    def _keystream(self, nonce: bytes, n: int) -> bytes:
        """E(J0) || the CTR keystream of an n-byte record."""
        if len(nonce) != 12:
            raise AeadError("GCM nonce must be 96 bits")
        j0 = int.from_bytes(nonce, "big") << 32 | 1
        return self._aes.keystream(j0, (n + 15) // 16 + 1)

    def _tag(self, keystream: bytes, aad: bytes,
             ciphertext: bytes) -> bytes:
        """GHASH over aad, ciphertext and their bit lengths, masked with
        E(J0), the keystream's first block."""
        counters.record("ghash_block", (len(aad) + 15) // 16 +
                        (len(ciphertext) + 15) // 16 + 1)
        gh = self._ghash_key
        y = gh.absorb(gh.absorb(0, aad), ciphertext)
        s = gh.mul(y ^ (len(aad) * 8 << 64 | len(ciphertext) * 8))
        counters.record("aes_block")
        return (int.from_bytes(keystream[:16], "big") ^ s).to_bytes(16, "big")

    @staticmethod
    def _ctr(keystream: bytes, data: bytes) -> bytes:
        """data xor the keystream after E(J0): E(J0 + 1), E(J0 + 2), ..."""
        n = len(data)
        if not n:
            return b""
        counters.record("aes_block", (n + 15) // 16)
        return (int.from_bytes(data, "big") ^
                int.from_bytes(keystream[16:16 + n], "big")).to_bytes(n, "big")

    def seal(self, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
        keystream = self._keystream(nonce, len(plaintext))
        ciphertext = self._ctr(keystream, plaintext)
        return ciphertext + self._tag(keystream, aad, ciphertext)

    def open(self, nonce: bytes, aad: bytes, sealed: bytes) -> bytes:
        if len(sealed) < 16:
            raise AeadError("input shorter than the tag")
        ciphertext, tag = sealed[:-16], sealed[-16:]
        keystream = self._keystream(nonce, len(ciphertext))
        # full 16-byte comparison, in time independent of where the tags
        # differ, before any plaintext is produced
        if not hmac.compare_digest(self._tag(keystream, aad, ciphertext), tag):
            raise AuthenticationError("GCM tag mismatch")
        return self._ctr(keystream, ciphertext)


class AeadKey:
    """AES-128-GCM key with the 4-byte implicit nonce salt."""

    __slots__ = ("implicit_salt", "_ctx")

    def __init__(self, key: bytes, implicit_salt: bytes):
        if len(key) != 16 or len(implicit_salt) != 4:
            raise AeadError("need a 16-byte key and 4-byte salt")
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

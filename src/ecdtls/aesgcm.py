"""AES-128 (FIPS 197) and GCM (SP 800-38D), built from the block cipher up.

Only the forward cipher exists: GCM's CTR mode and tag path never decrypt a
block.  AES runs in one form, byte-sliced (Kasper-Schwabe's bitslicing,
CHES 2009, done with bytes): `Aes128.keystream` encrypts a run of n counter
blocks together, laid out as 16 slices of n bytes, one per state position,
so each AES step is a few operations over the whole run.  SubBytes is
`bytes.translate`, ShiftRows is slicing, and MixColumns runs on the state
as one big int: its two row rotations are shifts, and its xtime doubles
every byte at once, with each byte's top bit masked off and reduced back
in as 0x1B (the SWAR xtime of table-free AES: Bernstein-Schwabe,
INDOCRYPT 2008, and Kasper-Schwabe).  The last round's ShiftRows is
folded into the unslicing.  Each record makes one call, whose first block
E(J0) masks the tag and whose rest is the CTR keystream; the hash subkey H
is a one-block call.

A call takes one of two forms by its width, both on this layout:

- Up to `_NARROW` = 8 blocks, it runs 8 blocks wide on round keys spread
  over that width once per key (key-only work moved to key setup, as
  table-driven AES does with its tables: Bernstein-Schwabe, INDOCRYPT
  2008), and drops the blocks past its own.  8 is the widest of the short
  calls: H is 1 block, a Finished record 3 and a 64 B record 5, E(J0)
  included.
- Wider, it spreads no key.  Every byte of slice p meets the same byte k
  of a round key, so AddRoundKey and the next SubBytes are one translate
  of the slice through S_k[v] = S[v ^ k].  `_SK` holds all 256 such tables
  (64 KiB, about 0.4 ms at import).  A round joins its input slices into
  one int for MixColumns, drops them, and translates the 16 slices of the
  result in ShiftRows order; the last round's slices go straight to the
  unslicing, and only the last round key is added in block order.  The 16
  translates cost a few us a round at any width, so the fold pays on long
  runs: against spreading each key over the width before its round, it
  took 1.4x as long at 9 blocks, 1.13x at 32, as long at 63-64 and 0.78x
  at the 1026 blocks of a 16 KiB record (both with xtime by table), whose
  transient peak it also cut from 227 KiB to 164 KiB.  xtime on the int,
  which makes no byte copy of the state, and a round that drops its input
  bytes once they are joined bring that peak to 148 KiB.  No record the
  handshake or the benchmark sends falls between 9 and 63 blocks.

Measured under CPython 3.11 on a Xeon VM (best of 301 runs, five rounds),
a call costs about 33 us for 1 to 8 blocks, 70 us for 9, 0.12 ms for 64
and 0.86 ms for the 1026 of a 16 KiB record; with xtime through a
256-byte table, in the same runs, 35 us, 72 us, 0.14 ms and 1.08 ms.

GHASH runs in one of two forms, chosen by how many blocks a call
absorbs:

- Horner's rule, one block at a time, multiplying by the hash subkey H one
  byte at a time (Shoup's method): one 256-entry table of H times every
  byte value per key, plus one 256-entry reduction table shared by all
  keys.  Runs shorter than `_LANE_MIN_BLOCKS` = 16 blocks take this form,
  so every 64 B record and Finished record runs it, as does the tag's
  length block.
- Lane-parallel, for a longer run (the aggregated Horner form of
  Gueron-Kounavis, Intel's CLMUL/GCM white paper, 2010).  `_LANES` = 64
  lanes of 256-bit slots sit on one big int; each step xors in the next
  64 blocks and multiplies every lane by the constant H^64 with one shift
  and one xor per non-zero 4-bit window of that constant, then reduces
  every slot with two folds.  Lane j is then owed H^(64 - j), which six
  halvings pay: each multiplies the top half of the lanes by H^32, H^16,
  ..., H and xors it into the bottom half, and one multiplication by H is
  left.  The only state kept per key is the window lists of H, H^2, H^4,
  ..., H^64, built by squaring on first use (about 0.15 ms).  The steps
  quantise the run to whole groups of lanes, and the two forms cross at
  15-16 blocks.  Measured under CPython 3.11 on a Xeon VM in interleaved
  runs, 64 lanes beat 8 by 1.44x at 1025 blocks (a 16 KiB record) and
  tie them at 24-32; 128 lanes beat 64 by 1.1x at 1025 but lose to them
  by 1.1x at 24.

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
import operator
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


def _keyed_sboxes():
    """_SK[k][v] = S[v ^ k]: AddRoundKey with the key byte k, then SubBytes,
    as one translate table."""
    identity = int.from_bytes(bytes(range(256)), "big")
    ones = int.from_bytes(b"\x01" * 256, "big")
    return tuple((identity ^ k * ones).to_bytes(256, "big").translate(_SBOX)
                 for k in range(256))


_SK = _keyed_sboxes()
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
# A folded round's (slice, key byte) pairs in ShiftRows order: slice 4r + c
# of its output comes from slice p = 4r + (c + r) % 4 of its input, whose
# round key byte is block byte 4 * (p % 4) + p // 4.
_SHIFTED = tuple((p, 4 * (p % 4) + p // 4) for _, p in _UNSLICE)
_SHIFTED_KEY = operator.itemgetter(*(i for _, i in _SHIFTED))
_TABLE_PAD = bytes(240)
# the width of a short call (module docstring)
_NARROW = 8
# Each slice number repeated _NARROW times: translating 16 bytes in slice
# order (padded to 256) through it spreads them over 16 slices of _NARROW.
_NARROW_PATTERN = bytes(p for p in range(16) for _ in range(_NARROW))
# the low bit of every byte of a narrow state, for xtime on the int
_NARROW_ONES = int.from_bytes(b"\x01" * 16 * _NARROW, "big")


def _by_slice(block: bytes) -> bytes:
    """The 16 bytes of a block in slice order, row by row, padded to a
    translate table."""
    return block[::4] + block[1::4] + block[2::4] + block[3::4] + _TABLE_PAD


class Aes128:
    """AES-128 forward cipher: round keys 0-9 spread over a sliced state of
    `_NARROW` blocks, and all eleven in block order."""

    __slots__ = ("_narrow_keys", "_keys")

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
        self._keys = tuple(keys)

    def keystream(self, j0: int, blocks: int) -> bytes:
        """E(J0) || E(J0 + 1) || ... || E(J0 + blocks - 1), whose counter is
        the low 32 bits of the block and wraps mod 2^32 (inc32), all blocks
        computed together on a byte-sliced state.  A call of fewer than
        `_NARROW` blocks computes `_NARROW` and drops the rest.  Records
        nothing: the caller records one `aes_block` per block it prices, so
        the dropped blocks are never priced."""
        n = max(blocks, _NARROW)
        first = j0 & _WORD
        wrapped = max(0, first + n - 1 - _WORD)
        ctr = struct.pack(">%dI" % n, *range(first, first + n - wrapped),
                          *range(wrapped))
        if n > _NARROW:
            return self._folded_keystream(j0, ctr, n)
        size = 16 * n
        keys = iter(self._narrow_keys)
        state = bytearray(
            _NARROW_PATTERN.translate(_by_slice(j0.to_bytes(16, "big"))))
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
        sb, ones = _SBOX, _NARROW_ONES
        for k in keys:
            # SubBytes, then ShiftRows: row r rotated left by r slices
            s = x.to_bytes(size, "big").translate(sb)
            a = int.from_bytes(b"".join((
                s[:r1], s[c1:r2], s[r1:c1], s[c2:r3], s[r2:c2], s[c3:],
                s[r3:c3])), "big")
            # MixColumns, row r of the output:
            # xtime(a_r ^ a_{r+1}) ^ a_{r+1} ^ a_{r+2} ^ a_{r+3}; with b the
            # state a rotated up one row and f = a ^ b (kept in a), that is
            # xtime(f) ^ b ^ f rotated up two rows.  xtime works on every
            # byte of the int at once: hi holds each byte's top bit moved to
            # its bit 0; the byte less that bit is doubled and, where hi is
            # set, reduced by 0x1B.  No bit crosses into the next byte.
            b = (a & m1) << s1 | a >> s3
            a ^= b
            b ^= (a & m2) << s2 | a >> s2
            hi = a >> 7 & ones
            x = ((a ^ hi << 7) << 1) ^ hi * 0x1B ^ b ^ k
        # the last round: SubBytes, ShiftRows in the unslicing, then the last
        # round key in block order
        s = x.to_bytes(size, "big").translate(sb)
        out = bytearray(16 * blocks)
        for i, p in _UNSLICE:
            out[i::16] = s[p * n:p * n + blocks]
        return (int.from_bytes(out, "big") ^
                int.from_bytes(self._keys[10] * blocks, "big")
                ).to_bytes(16 * blocks, "big")

    def _folded_keystream(self, j0: int, ctr: bytes, n: int) -> bytes:
        """keystream for n > `_NARROW` blocks, ctr their packed
        counters: round key i - 1 is folded into round i's SubBytes, slice
        by slice (module docstring)."""
        size = 16 * n
        sk, keys = _SK, self._keys
        # round 1's slices are J0's bytes, n times, except column 3, the
        # counter
        block, k = j0.to_bytes(16, "big"), keys[0]
        parts = [ctr[p // 4::4].translate(sk[k[i]]) if p % 4 == 3
                 else bytes((sk[k[i]][block[i]],)) * n
                 for p, i in _SHIFTED]
        cuts = [slice(p * n, p * n + n) for p, _ in _SHIFTED]
        s1, s2, s3 = 32 * n, 64 * n, 96 * n
        m1, m2 = (1 << s3) - 1, (1 << s2) - 1
        ones = int.from_bytes(b"\x01" * size, "big")
        for k in keys[1:10]:
            # MixColumns, as in keystream; the previous round's bytes are
            # dropped once joined, which keeps the transient peak down
            a = int.from_bytes(b"".join(parts), "big")
            s = parts = None
            b = (a & m1) << s1 | a >> s3
            a ^= b
            b ^= (a & m2) << s2 | a >> s2
            hi = a >> 7 & ones
            s = (((a ^ hi << 7) << 1) ^ hi * 0x1B ^ b).to_bytes(size, "big")
            parts = map(bytes.translate, map(s.__getitem__, cuts),
                        map(sk.__getitem__, _SHIFTED_KEY(k)))
        # the unslicing needs none of the round's ints; kept alive, they
        # would raise the transient peak by about 33 KiB
        del a, b, hi, m1, m2, ones
        # the last round's SubBytes and ShiftRows are done: unslice, then add
        # the last round key in block order
        out = bytearray(size)
        for (i, _), part in zip(_UNSLICE, parts):
            out[i::16] = part
        return (int.from_bytes(out, "big") ^
                int.from_bytes(keys[10] * n, "big")).to_bytes(size, "big")


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
_LANE_MIN_BLOCKS = 16
# a power of two, for the halving in `_GhashKey._absorb_lanes`
_LANES = 64
# The lane vector is _LANES slots of 256 bits on one int, lane 0 on top.
# A lane's value sits in the top 128 bits of its slot, so a product by a
# 128-bit element fits in the slot and its terms of degree 128 and up fall
# into the slot's low 128 bits.
_SLOT_LOW = sum(((1 << 128) - 1) << (256 * j) for j in range(_LANES))
_SLOT_HIGH = _SLOT_LOW << 128


def _windows_of(c: int) -> tuple:
    """The non-zero 4-bit windows of the element c as (value, shift) pairs:
    c is the sum of value * x^shift, with bit 3 of value the coefficient of
    x^0 and bit 0 that of x^3."""
    return tuple((c >> 124 - shift & 15, shift)
                 for shift in range(0, 128, 4) if c >> 124 - shift & 15)


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
        H^(L - j).  Halving the lanes pays it in log2 L steps: the top half
        owes H^(L/2) times what the bottom half owes, so it is multiplied by
        H^(L/2) and xored into the bottom half, until one lane owing H is
        left.  Leading zero blocks pad n to a multiple of L without changing
        the sum."""
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
                acc ^ int.from_bytes(slots[off:off + step], "big"),
                windows[-1])
        acc ^= int.from_bytes(slots[-step:], "big")
        for i in reversed(range(len(windows) - 1)):
            # 2^i lanes in each half
            bits = 256 << i
            acc = _mul_lanes(acc >> bits, windows[i]) ^ acc & (1 << bits) - 1
        return self.mul(acc >> 128)

    def _windows(self) -> tuple:
        """The window lists of H^1, H^2, H^4, ..., H^_LANES, computed on
        first use by squaring through `_mul_lanes`."""
        if self._lane_windows is None:
            c = self.table[0x80]  # H times x^0
            chain = [_windows_of(c)]
            for _ in range(_LANES.bit_length() - 1):
                c = _mul_lanes(c << 128, chain[-1]) >> 128
                chain.append(_windows_of(c))
            self._lane_windows = tuple(chain)
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

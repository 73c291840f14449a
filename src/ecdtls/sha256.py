"""SHA-256 (FIPS 180-4) with an incremental context, and HMAC (RFC 2104).

The counters price the hardware algorithm: one `sha_compress` tick per 64-byte
block the compression function absorbs, one `sha_message` tick per finalized
digest.  Execution is native (`hashlib`).  FIPS 180-4 padding is
deterministic, so the block count follows from byte lengths alone: every whole
block absorbed by `update`, plus one final block in `digest`, or two when the
0x80 byte and the 8-byte length no longer fit after the last partial block.

`HmacKey` is the one MAC, priced as a keyed HMAC unit runs it block by
block: a key absorbs its ipad and opad blocks once, where the key is made (2
compressions, after hashing a key longer than a block), and each MAC
finishes an inner and an outer digest.  So each secret is made an `HmacKey`
once, and every MAC under it goes through that key.  It executes each MAC
as one `hmac.digest` and records each price in one call, its kinds in the
order the block-by-block run first reaches them.
"""

from __future__ import annotations

import functools
import hashlib
import hmac

from . import counters


class Sha256:
    """Incremental hashing context: update/digest/copy."""

    def __init__(self, data: bytes = b""):
        self._h = hashlib.sha256()
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Sha256":
        before = self._length
        self._length += len(data)
        self._h.update(data)
        self._compress(self._length // 64 - before // 64)
        return self

    def _compress(self, blocks: int) -> None:
        """Price `blocks` runs of the compression function.  Zero runs
        record nothing, so no zero-valued entry appears in a tally."""
        if blocks:
            counters.record("sha_compress", blocks)

    def copy(self) -> "Sha256":
        clone = Sha256.__new__(Sha256)
        clone._h = self._h.copy()
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        counters.record("sha_message")
        self._compress(2 if self._length % 64 >= 56 else 1)
        return self._h.digest()


def sha256(data: bytes) -> bytes:
    return Sha256(data).digest()


def _blocks(length: int) -> int:
    """Compressions of a padded message of length bytes."""
    return (length + 8) // 64 + 1


_SHORT_KEY_PRICE = ((("sha_compress", 2),), ())


@functools.lru_cache(maxsize=128)
def _mac_price(length: int) -> tuple:
    """The price of a MAC of a length-byte message: the inner digest
    absorbs the message's whole blocks before it finalizes, then the outer
    one finalizes in one block."""
    compress, message = ("sha_compress", _blocks(64 + length)), \
        ("sha_message", 2)
    return (("hmac", 1),) + ((compress, message) if length >= 64
                             else (message, compress)), ()


class HmacKey:
    """HMAC-SHA256 key (RFC 2104; a key longer than a block is hashed
    first), priced with the ipad/opad block states absorbed once, here, so
    every MAC under it skips the two key-schedule compressions."""

    __slots__ = ("_key",)

    def __init__(self, key: bytes):
        if len(key) > 64:
            counters.record_all(((("sha_compress", _blocks(len(key)) + 2),
                                  ("sha_message", 1)), ()))
            key = hashlib.sha256(key).digest()
        else:
            counters.record_all(_SHORT_KEY_PRICE)
        self._key = key

    def mac(self, message: bytes) -> bytes:
        counters.record_all(_mac_price(len(message)))
        return hmac.digest(self._key, message, "sha256")

"""SHA-256 (FIPS 180-4) with an incremental context, and HMAC (RFC 2104).

The counters price the hardware algorithm: one `sha_compress` tick per 64-byte
block the compression function absorbs, one `sha_message` tick per finalized
digest.  Execution is native (`hashlib`).  FIPS 180-4 padding is
deterministic, so the block count follows from byte lengths alone: every whole
block absorbed by `update`, plus one final block in `digest`, or two when the
0x80 byte and the 8-byte length no longer fit after the last partial block.
"""

from __future__ import annotations

import hashlib

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


class HmacKey:
    """HMAC-SHA256 key with the ipad/opad block states absorbed once, so
    repeated MACs under one key skip the two key-schedule compressions."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > 64:
            key = sha256(key)
        key = key + b"\x00" * (64 - len(key))
        self._inner = Sha256(bytes(k ^ 0x36 for k in key))
        self._outer = Sha256(bytes(k ^ 0x5C for k in key))

    def mac(self, message: bytes) -> bytes:
        counters.record("hmac")
        inner = self._inner.copy().update(message).digest()
        return self._outer.copy().update(inner).digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC 2104 over SHA-256; keys longer than one block are pre-hashed."""
    return HmacKey(key).mac(message)

"""HMAC_DRBG over SHA-256 per SP 800-90A: deterministic given seed material.

The state's K is held as an `HmacKey`, made each time K changes, so each K
absorbs its pads once however many MACs run under it.
"""

from __future__ import annotations

from . import counters
from .sha256 import HmacKey

RESEED_INTERVAL = 1 << 48
MAX_REQUEST_BYTES = 1 << 16


class DrbgError(Exception):
    pass


class ReseedRequiredError(DrbgError):
    """Generate called past the reseed interval."""


class HmacDrbg:
    """K/V state machine; generate mutates the state in place."""

    def __init__(self, entropy: bytes, nonce: bytes = b"",
                 personalization: bytes = b""):
        self._key = HmacKey(b"\x00" * 32)
        self.V = b"\x01" * 32
        self._update(entropy + nonce + personalization)
        self.reseed_counter = 1

    def _update(self, data: bytes) -> None:
        for tag in (b"\x00", b"\x01") if data else (b"\x00",):
            self._key = HmacKey(self._key.mac(self.V + tag + data))
            self.V = self._key.mac(self.V)

    def generate(self, n: int) -> bytes:
        if n > MAX_REQUEST_BYTES:
            raise DrbgError("at most %d bytes per request" % MAX_REQUEST_BYTES)
        if self.reseed_counter > RESEED_INTERVAL:
            raise ReseedRequiredError("reseed interval exceeded")
        counters.record("drbg_generate")
        out = b""
        while len(out) < n:
            self.V = self._key.mac(self.V)
            out += self.V
        self._update(b"")
        self.reseed_counter += 1
        return out[:n]

"""HMAC_DRBG over SHA-256 per SP 800-90A: deterministic given seed material."""

from __future__ import annotations

from . import counters
from .sha256 import HmacKey, hmac_sha256

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
        self.K = b"\x00" * 32
        self.V = b"\x01" * 32
        self._update(entropy + nonce + personalization)
        self.reseed_counter = 1

    def _update(self, data: bytes) -> None:
        self.K = hmac_sha256(self.K, self.V + b"\x00" + data)
        self.V = hmac_sha256(self.K, self.V)
        if data:
            self.K = hmac_sha256(self.K, self.V + b"\x01" + data)
            self.V = hmac_sha256(self.K, self.V)

    def generate(self, n: int) -> bytes:
        if n > MAX_REQUEST_BYTES:
            raise DrbgError("at most %d bytes per request" % MAX_REQUEST_BYTES)
        if self.reseed_counter > RESEED_INTERVAL:
            raise ReseedRequiredError("reseed interval exceeded")
        counters.record("drbg_generate")
        key = HmacKey(self.K)   # K holds until the update below
        out = b""
        while len(out) < n:
            self.V = key.mac(self.V)
            out += self.V
        self._update(b"")
        self.reseed_counter += 1
        return out[:n]

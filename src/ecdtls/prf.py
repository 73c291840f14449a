"""TLS 1.2 pseudo-random function: P_SHA256 expansion (RFC 5246 section 5)."""

from __future__ import annotations

from .sha256 import HmacKey


def tls_prf_sha256(secret: HmacKey, label: bytes, seed: bytes,
                   n: int) -> bytes:
    """First n bytes of P_SHA256(secret, label || seed).  The secret comes
    as its `HmacKey`, made once by its owner, so every PRF under one secret
    shares its absorbed pads."""
    full_seed = label + seed
    out = b""
    a = full_seed
    while len(out) < n:
        a = secret.mac(a)
        out += secret.mac(a + full_seed)
    return out[:n]

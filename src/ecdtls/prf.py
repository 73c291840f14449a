"""TLS 1.2 pseudo-random function: P_SHA256 expansion (RFC 5246 section 5)."""

from __future__ import annotations

from .sha256 import HmacKey


def tls_prf_sha256(secret: bytes, label: bytes, seed: bytes, n: int) -> bytes:
    """First n bytes of P_SHA256(secret, label || seed), every block under
    one `HmacKey`, so the key's pads are absorbed once."""
    key = HmacKey(secret)
    full_seed = label + seed
    out = b""
    a = full_seed
    while len(out) < n:
        a = key.mac(a)
        out += key.mac(a + full_seed)
    return out[:n]

"""Ephemeral ECDH key agreement for the ECDHE-ECDSA handshake."""

from __future__ import annotations

from typing import Optional

from .curve import AffinePoint
from .ecdsa import KeyPair
from .scalarmult import CombCache, ecsm_comb


class KeyAgreementError(Exception):
    """The peer point is on another curve."""


def ecdhe_shared(own: KeyPair, peer: AffinePoint,
                 cache: Optional[CombCache] = None) -> bytes:
    """x-coordinate of d_own * peer, big-endian at the fixed width of the
    curve's field; the peer point was checked when it was made."""
    if peer.curve != own.curve:
        raise KeyAgreementError("peer point on a different curve")
    shared = ecsm_comb(own.d, peer, cache)
    return shared.x.to_bytes(own.curve.mod.byte_len, "big")

"""Ephemeral ECDH key agreement for the ECDHE-ECDSA handshake."""

from __future__ import annotations

from typing import Optional

from .curve import AffinePoint, CurveError, validate_point
from .ecdsa import KeyPair
from .scalarmult import CombCache, ecsm_comb


class KeyAgreementError(Exception):
    """Shared-secret computation failed (bad peer data or identity result)."""


def ecdhe_shared(own: KeyPair, peer: AffinePoint,
                 cache: Optional[CombCache] = None) -> bytes:
    """x-coordinate of d_own * peer after validating the peer point,
    big-endian at the fixed width of the curve's field."""
    if peer.curve != own.curve:
        raise KeyAgreementError("peer point on a different curve")
    try:
        validate_point(peer)
    except CurveError as exc:
        raise KeyAgreementError("peer point invalid: %s" % exc) from None
    shared = ecsm_comb(own.d, peer, cache)
    if shared.at_infinity:
        raise KeyAgreementError("shared point at infinity")
    return shared.x.to_bytes(own.curve.mod.byte_len, "big")

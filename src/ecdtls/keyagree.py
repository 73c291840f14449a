"""Ephemeral ECDH key agreement for the ECDHE-ECDSA handshake."""

from __future__ import annotations

from . import scalarmult
from .curve import AffinePoint
from .ecdsa import KeyPair
from .scalarmult import ecsm_window

# bound here though ECDHE no longer calls it: the benchmark's span tracer
# (perfbench/tracing.py) wraps `ecsm_comb` by name on this module
ecsm_comb = scalarmult.ecsm_comb


class KeyAgreementError(Exception):
    """The peer point is on another curve."""


def ecdhe_shared(own: KeyPair, peer: AffinePoint) -> bytes:
    """x-coordinate of d_own * peer, big-endian at the fixed width of the
    curve's field; the peer point was checked when it was made.  The peer's
    ephemeral point is used once, so it is multiplied as a one-shot base,
    `ecsm_window`, and no comb cache sees it."""
    if peer.curve != own.curve:
        raise KeyAgreementError("peer point on a different curve")
    shared = ecsm_window(own.d, peer)
    return shared.x.to_bytes(own.curve.mod.byte_len, "big")

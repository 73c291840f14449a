"""ECDSA (X9.62 semantics, SHA-256 digests) over any registered curve.

Nonces come from a session DRBG when one is given, and otherwise from the
RFC 6979 HMAC construction (reproducible fixtures and test vectors).
Verification prices two comb multiplications through the shared table cache
and their affine sum, and compares x projectively, with no inversion.
"""

from __future__ import annotations

from typing import Optional

from . import counters
from .curve import AffinePoint, CurveError, CurveParams
from .der import TAG_SEQUENCE, DerCursor, DerError, der_integer, der_tlv
from .drbg import HmacDrbg
from .field import inv_euclid_int, mul_int
from .scalarmult import CombCache, comb_sum_x_matches, ecsm_comb
from .sha256 import hmac_sha256

MAX_SIGN_RETRIES = 8


class SignatureError(Exception):
    """Signing could not produce a valid signature."""


class EcdsaSignature:
    """An (r, s) pair; components are validated into [1, n-1] at parse."""

    __slots__ = ("r", "s")

    def __init__(self, r: int, s: int):
        self.r = r
        self.s = s

    def __eq__(self, other) -> bool:
        return isinstance(other, EcdsaSignature) and \
            (self.r, self.s) == (other.r, other.s)

    def __repr__(self) -> str:
        return "EcdsaSignature(r=0x%x, s=0x%x)" % (self.r, self.s)

    def in_range(self, n: int) -> bool:
        return 1 <= self.r < n and 1 <= self.s < n

    def to_der(self) -> bytes:
        return der_tlv(TAG_SEQUENCE, der_integer(self.r) + der_integer(self.s))

    @classmethod
    def from_der(cls, data: bytes) -> "EcdsaSignature":
        """Strict DER: minimal lengths and minimal non-negative INTEGERs."""
        try:
            body = DerCursor.whole(data, TAG_SEQUENCE)
            r = body.read_uint()
            s = body.read_uint()
            body.expect_done()
        except DerError as exc:
            raise SignatureError("bad DER signature: %s" % exc) from None
        return cls(r, s)


class KeyPair:
    """Private scalar and its public point; Q = d*G is checked on load."""

    __slots__ = ("d", "Q", "curve")

    def __init__(self, d: int, curve: CurveParams,
                 Q: Optional[AffinePoint] = None,
                 cache: Optional[CombCache] = None):
        self.d = d
        self.curve = curve
        self.Q = ecsm_comb(d, curve.generator(), cache)
        if Q is not None and Q != self.Q:
            raise CurveError("public point does not match private scalar")

    @staticmethod
    def generate(curve: CurveParams, drbg: HmacDrbg,
                 cache: Optional[CombCache] = None) -> "KeyPair":
        d = _scalar_from_drbg(curve, drbg)
        return KeyPair(d, curve, cache=cache)


def _scalar_from_drbg(curve: CurveParams, drbg: HmacDrbg) -> int:
    # extra 64 bits before reduction keeps the modular bias negligible
    raw = drbg.generate(curve.n_bytes + 8)
    return int.from_bytes(raw, "big") % (curve.n - 1) + 1


def digest_to_scalar(digest: bytes, curve: CurveParams) -> int:
    """Leftmost bitlen(n) bits of the digest, as an integer mod n."""
    z = int.from_bytes(digest, "big")
    excess = len(digest) * 8 - curve.n_bits
    if excess > 0:
        z >>= excess
    return z % curve.n


def rfc6979_nonce(d: int, digest: bytes, curve: CurveParams,
                  retry: int = 0) -> int:
    """Deterministic nonce via the RFC 6979 HMAC chain."""
    n = curve.n
    qlen = curve.n_bits
    rlen = curve.n_bytes

    def int2octets(v: int) -> bytes:
        return v.to_bytes(rlen, "big")

    def bits2int(data: bytes) -> int:
        v = int.from_bytes(data, "big")
        excess = len(data) * 8 - qlen
        return v >> excess if excess > 0 else v

    h1 = bits2int(digest) % n
    V = b"\x01" * 32
    K = b"\x00" * 32
    seed = int2octets(d) + int2octets(h1)
    K = hmac_sha256(K, V + b"\x00" + seed)
    V = hmac_sha256(K, V)
    K = hmac_sha256(K, V + b"\x01" + seed)
    V = hmac_sha256(K, V)
    skipped = 0
    while True:
        t = b""
        while len(t) < rlen:
            V = hmac_sha256(K, V)
            t += V
        k = bits2int(t[:rlen])
        if 1 <= k < n:
            if skipped == retry:
                return k
            skipped += 1
        K = hmac_sha256(K, V + b"\x00")
        V = hmac_sha256(K, V)


def ecdsa_sign(key: KeyPair, digest: bytes, drbg: Optional[HmacDrbg] = None,
               cache: Optional[CombCache] = None) -> EcdsaSignature:
    """Sign a digest, with RFC 6979 nonces when no DRBG is given; retries on
    the degenerate r = 0 / s = 0 cases."""
    counters.record("ecdsa_sign")
    curve = key.curve
    n = curve.n
    n_mod = curve.n_mod
    z = digest_to_scalar(digest, curve)
    G = curve.generator()
    for attempt in range(MAX_SIGN_RETRIES):
        if drbg is None:
            k = rfc6979_nonce(key.d, digest, curve, retry=attempt)
        else:
            k = _scalar_from_drbg(curve, drbg)
        R = ecsm_comb(k, G, cache)
        r = R.x % n
        if r == 0:
            continue
        kinv = inv_euclid_int(k, n_mod)
        s = mul_int(kinv, (z + mul_int(r, key.d % n, n_mod)) % n, n_mod)
        if s == 0:
            continue
        return EcdsaSignature(r, s)
    raise SignatureError("degenerate signature retries exhausted")


def ecdsa_verify(pub: AffinePoint, digest: bytes, sig: EcdsaSignature,
                 cache: Optional[CombCache] = None) -> bool:
    """Accept iff (u1*G + u2*pub).x == r mod n.  Out-of-range components
    reject; they are not errors."""
    curve = pub.curve
    n = curve.n
    if not sig.in_range(n):
        return False
    counters.record("ecdsa_verify")
    n_mod = curve.n_mod
    z = digest_to_scalar(digest, curve)
    sinv = inv_euclid_int(sig.s, n_mod)
    u1 = mul_int(z % n, sinv, n_mod)
    u2 = mul_int(sig.r % n, sinv, n_mod)
    return comb_sum_x_matches(u1, curve.generator(), u2, pub, sig.r, cache)

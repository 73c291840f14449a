"""ECDSA (X9.62 semantics, SHA-256 digests) over any registered curve.

Nonces come from a session DRBG when one is given, and otherwise from RFC
6979 (reproducible fixtures and test vectors), run as its §3.3 states it: an
`HmacDrbg` seeded with the private key and the digest, whose successive
generates are the candidates for k.
G is a resident base (see `scalarmult`): every k*G, in key generation,
signing and verification, walks its provisioned table, and no caller prices
G's table.  Verification prices u1*G + u2*Q as one joint multiplication by
the class of Q's key, resident or one-shot, and compares x projectively,
with no inversion.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import counters
from .curve import AffinePoint, CurveError, CurveParams
from .der import TAG_SEQUENCE, DerCursor, DerError, der_integer, der_tlv
from .drbg import HmacDrbg
from .field import inv_euclid_int, mul_int
from .scalarmult import CombCache, comb_sum_x_matches, ecsm_comb

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
                 Q: Optional[AffinePoint] = None):
        self.d = d
        self.curve = curve
        self.Q = ecsm_comb(d, curve.generator())
        if Q is not None and Q != self.Q:
            raise CurveError("public point does not match private scalar")

    @staticmethod
    def generate(curve: CurveParams, drbg: HmacDrbg) -> "KeyPair":
        return KeyPair(_scalar_from_drbg(curve, drbg), curve)


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


def rfc6979_nonces(d: int, digest: bytes,
                   curve: CurveParams) -> Iterator[int]:
    """RFC 6979's candidates for k, in order (§3.3): HMAC_DRBG instantiated
    with int2octets(d) and bits2octets(h1), each candidate the leftmost
    qlen bits of one rlen-byte generate, those outside [1, n) skipped."""
    rlen = curve.n_bytes
    h1 = digest_to_scalar(digest, curve)
    drbg = HmacDrbg(d.to_bytes(rlen, "big"), h1.to_bytes(rlen, "big"))
    while True:
        k = int.from_bytes(drbg.generate(rlen), "big") >> \
            (8 * rlen - curve.n_bits)
        if 1 <= k < curve.n:
            yield k


def ecdsa_sign(key: KeyPair, digest: bytes, drbg: Optional[HmacDrbg] = None
               ) -> EcdsaSignature:
    """Sign a digest, with RFC 6979 nonces when no DRBG is given; retries on
    the degenerate r = 0 / s = 0 cases."""
    counters.record("ecdsa_sign")
    curve = key.curve
    n = curve.n
    n_mod = curve.n_mod
    z = digest_to_scalar(digest, curve)
    G = curve.generator()
    nonces = rfc6979_nonces(key.d, digest, curve) if drbg is None else None
    for _ in range(MAX_SIGN_RETRIES):
        k = next(nonces) if drbg is None else _scalar_from_drbg(curve, drbg)
        R = ecsm_comb(k, G)
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
                 cache: Optional[CombCache] = None,
                 resident: bool = False) -> bool:
    """Accept iff (u1*G + u2*pub).x == r mod n.  Out-of-range components
    reject; they are not errors.  The joint multiplication is priced with
    pub's table resident when resident is set (a trust anchor's key, a peer
    leaf that a cached-mode client keeps), and pub one-shot otherwise.  The
    price picks no rows: pub runs its own when provisioned (a trust
    anchor's key), else its rows in cache when one is given, else wNAF."""
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
    return comb_sum_x_matches(u1, u2, pub, sig.r, cache, resident)

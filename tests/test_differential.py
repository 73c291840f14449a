"""ecdtls against the `cryptography` package, an independent implementation
(OpenSSL underneath).

- AES-GCM: seeded random keys, nonces, AAD and plaintexts, sealed here and
  opened there, the reverse, and a one-bit forgery both sides must refuse.
- ECDSA and ECDH on secp192r1, secp224r1 and secp256r1 (`cryptography`
  cannot load secp160r1), with Hypothesis drawing keys and messages,
  bounded and derandomized: signed here and verified there, the reverse,
  and equal ECDH shared secrets.
- X.509: fixture leaves and fixed variants of them, parsed and verified on
  both sides, with every verdict that differs pinned in DIVERGENCES.

The file skips when `cryptography` is not installed; the package itself
never imports it.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdtls.aesgcm import AuthenticationError, GcmContext
from ecdtls.credentials import (CA_CN, NOT_AFTER, NOT_BEFORE, SERVER_CN,
                                generate_pki)
from ecdtls.der import DerCursor
from ecdtls.ecdsa import EcdsaSignature, KeyPair, ecdsa_sign, ecdsa_verify
from ecdtls.keyagree import ecdhe_shared
from ecdtls.x509 import X509Error, make_certificate, x509_parse, x509_verify

AESGCM = pytest.importorskip(
    "cryptography.hazmat.primitives.ciphers.aead").AESGCM
exceptions = pytest.importorskip("cryptography.exceptions")
InvalidTag = exceptions.InvalidTag
InvalidSignature = exceptions.InvalidSignature
ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
dss = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.utils")
hashes = pytest.importorskip("cryptography.hazmat.primitives.hashes")
cx509 = pytest.importorskip("cryptography.x509")

SEEDS = range(24)


def draw(seed):
    """key, nonce, aad, plaintext.  Odd seeds draw lengths up to 16 KiB
    (long keystream runs and the lane GHASH); even ones up to 512 B,
    across the 24-block GHASH threshold.  Every third seed draws an AAD of
    up to 1 KiB, which takes the lane GHASH from 24 blocks (384 B); the
    others one under 64 B."""
    rng = random.Random(seed)
    n = rng.randrange(16385 if seed % 2 else 513)
    aad_len = rng.randrange(1025 if seed % 3 == 0 else 64)
    return (rng.randbytes(16), rng.randbytes(12),
            rng.randbytes(aad_len), rng.randbytes(n))


@pytest.mark.parametrize("seed", SEEDS)
def test_seal_here_open_there(seed):
    key, nonce, aad, pt = draw(seed)
    sealed = GcmContext(key).seal(nonce, aad, pt)
    assert AESGCM(key).decrypt(nonce, sealed, aad) == pt


@pytest.mark.parametrize("seed", SEEDS)
def test_seal_there_open_here(seed):
    key, nonce, aad, pt = draw(seed)
    sealed = AESGCM(key).encrypt(nonce, pt, aad)
    assert GcmContext(key).open(nonce, aad, sealed) == pt


@pytest.mark.parametrize("seed", SEEDS)
def test_both_refuse_a_flipped_bit(seed):
    key, nonce, aad, pt = draw(seed)
    sealed = bytearray(AESGCM(key).encrypt(nonce, pt, aad))
    aad = bytearray(aad)
    rng = random.Random(~seed)
    # a bit of the ciphertext, the tag or the AAD
    target = rng.choice([buf for buf in (sealed, aad) if buf])
    target[rng.randrange(len(target))] ^= 1 << rng.randrange(8)
    with pytest.raises(InvalidTag):
        AESGCM(key).decrypt(nonce, bytes(sealed), bytes(aad))
    with pytest.raises(AuthenticationError):
        GcmContext(key).open(nonce, bytes(aad), bytes(sealed))


# ---------------------------------------------------------------------------
# ECDSA and ECDH

ECC_CURVES = {"secp192r1": ec.SECP192R1, "secp224r1": ec.SECP224R1,
              "secp256r1": ec.SECP256R1}
ECC_DRAWS = settings(derandomize=True, deadline=None, max_examples=6)
PREHASHED = ec.ECDSA(dss.Prehashed(hashes.SHA256()))
scalars = st.integers(1, 2**256)


def key_pair(curve, k):
    """The key pair of private scalar k mapped into [1, n - 1], here and
    there; the two public keys must agree."""
    d = k % (curve.n - 1) + 1
    here = KeyPair(d, curve)
    there = ec.derive_private_key(d, ECC_CURVES[curve.id]())
    numbers = there.public_key().public_numbers()
    assert (here.Q.x, here.Q.y) == (numbers.x, numbers.y)
    return here, there


@pytest.mark.parametrize("name", sorted(ECC_CURVES))
@given(k=scalars, message=st.binary(max_size=64))
@ECC_DRAWS
def test_ecdsa_signed_here_verifies_there(curves, name, k, message):
    here, there = key_pair(curves[name], k)
    digest = hashlib.sha256(message).digest()
    sig = ecdsa_sign(here, digest)
    der = dss.encode_dss_signature(sig.r, sig.s)
    there.public_key().verify(der, digest, PREHASHED)
    with pytest.raises(InvalidSignature):
        there.public_key().verify(der, hashlib.sha256(digest).digest(),
                                  PREHASHED)


@pytest.mark.parametrize("name", sorted(ECC_CURVES))
@given(k=scalars, message=st.binary(max_size=64))
@ECC_DRAWS
def test_ecdsa_signed_there_verifies_here(curves, name, k, message):
    here, there = key_pair(curves[name], k)
    digest = hashlib.sha256(message).digest()
    sig = EcdsaSignature(*dss.decode_dss_signature(
        there.sign(digest, PREHASHED)))
    assert ecdsa_verify(here.Q, digest, sig)
    assert not ecdsa_verify(here.Q, hashlib.sha256(digest).digest(), sig)


@pytest.mark.parametrize("name", sorted(ECC_CURVES))
@given(k1=scalars, k2=scalars)
@ECC_DRAWS
def test_ecdh_secret_equals_theirs(curves, name, k1, k2):
    own_here, own_there = key_pair(curves[name], k1)
    peer_here, peer_there = key_pair(curves[name], k2)
    assert ecdhe_shared(own_here, peer_here.Q) == \
        own_there.exchange(ec.ECDH(), peer_there.public_key())


# ---------------------------------------------------------------------------
# X.509

def leaf_ending_in(pki, low_bit):
    """A server leaf issued by pki's CA whose encoding, and so whose
    signature, ends in a byte with the given low bit: the first serial
    from 2 that gives one (signing is deterministic)."""
    for serial in itertools.count(2):
        der = make_certificate(SERVER_CN, CA_CN, serial, pki.server.key.Q,
                               pki.ca_key, NOT_BEFORE, NOT_AFTER)
        if der[-1] & 1 == low_bit:
            return der


def with_one_unused_bit(der):
    """der with its signatureValue BIT STRING declaring 1 unused bit (the
    last bit of the signature) in place of 0; no length changes."""
    top = DerCursor.whole(der, 0x30)
    top.read_raw(0x30)  # tbsCertificate
    top.read_raw(0x30)  # signatureAlgorithm
    head = len(der) - len(top.data) + top.pos
    assert der[head] == 0x03 and der[head + 2] == 0  # short-form length
    return der[:head + 2] + b"\x01" + der[head + 3:]


def cert_variants(pki):
    """name -> certificate DER, each claiming to be issued by pki's CA."""
    leaf = leaf_ending_in(pki, 0)
    tbs = DerCursor.whole(leaf, 0x30).read_raw(0x30)
    return {
        "as issued": leaf,
        "TBS bit flipped": leaf.replace(tbs, tbs[:-1] + bytes([tbs[-1] ^ 1])),
        "signature bit flipped": leaf[:-1] + bytes([leaf[-1] ^ 2]),
        "truncated": leaf[:-1],
        "trailing byte": leaf + b"\x00",
        "1 unused bit, zero padding bit": with_one_unused_bit(leaf),
        "1 unused bit, set padding bit":
            with_one_unused_bit(leaf_ending_in(pki, 1)),
    }


# variant name -> why ecdtls and `cryptography` differ on it
DIVERGENCES = {
    "1 unused bit, zero padding bit":
        "ecdtls refuses any unused bit in a signatureValue, whose "
        "ECDSA-Sig-Value is whole bytes; cryptography drops the zero "
        "padding bit and verifies",
}


def accepted_here(der, registry, ca):
    try:
        cert = x509_parse(der, registry)
    except X509Error:
        return False
    ok, _ = x509_verify(cert, ca.public_key, NOT_BEFORE)
    return ok


def accepted_there(der, ca):
    try:
        cx509.load_der_x509_certificate(der).verify_directly_issued_by(ca)
    except (ValueError, TypeError, InvalidSignature):
        return False
    return True


@pytest.mark.parametrize("name", sorted(ECC_CURVES))
def test_certificate_verdicts_differ_only_where_pinned(registry, curves,
                                                       name):
    pki = generate_pki(curves[name], b"differential-pki" * 2)
    ca_here = x509_parse(pki.ca_der, registry)
    ca_there = cx509.load_der_x509_certificate(pki.ca_der)
    verdicts = {variant: (accepted_here(der, registry, ca_here),
                          accepted_there(der, ca_there))
                for variant, der in cert_variants(pki).items()}
    assert verdicts["as issued"] == (True, True)
    assert {v for v, (here, there) in verdicts.items() if here != there} \
        == set(DIVERGENCES)

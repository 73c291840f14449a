"""AES-GCM here against the `cryptography` package's AESGCM, an independent
implementation (OpenSSL underneath), on seeded random keys, nonces, AAD and
plaintexts from 0 to 16 KiB.

Seal here and open there, the reverse, and a one-bit forgery that both
sides must refuse.  The file skips when `cryptography` is not installed;
the package itself never imports it.
"""

import random

import pytest

from ecdtls.aesgcm import AuthenticationError, GcmContext

AESGCM = pytest.importorskip(
    "cryptography.hazmat.primitives.ciphers.aead").AESGCM
InvalidTag = pytest.importorskip("cryptography.exceptions").InvalidTag

SEEDS = range(24)


def draw(seed):
    """key, nonce, aad, plaintext.  Odd seeds draw lengths up to 16 KiB (the
    byte-sliced keystream); even ones up to 256 B, around the 8-block
    threshold below which each block is encrypted on its own."""
    rng = random.Random(seed)
    n = rng.randrange(16385 if seed % 2 else 257)
    return (rng.randbytes(16), rng.randbytes(12),
            rng.randbytes(rng.randrange(64)), rng.randbytes(n))


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

"""Fixture credentials: a root CA plus server and client leaf certificates.

Generation is fully deterministic for a fixed seed (DRBG-derived private
scalars, deterministic ECDSA on the certificates, fixed validity window).
"""

from __future__ import annotations

from typing import Optional

from .curve import CurveParams
from .drbg import HmacDrbg
from .ecdsa import KeyPair
from .scalarmult import CombCache
from .x509 import make_certificate

NOT_BEFORE = 1704067200   # 2024-01-01T00:00:00Z
NOT_AFTER = 2335219200    # 2044-01-01T00:00:00Z

CA_CN = "dtls-engine test ca"
SERVER_CN = "server"
CLIENT_CN = "client"


class CredentialSet:
    """One party's credential material plus the shared trust anchor."""

    def __init__(self, ca_der: bytes, cert_der: bytes, key: KeyPair):
        self.ca_der = ca_der
        self.cert_der = cert_der
        self.key = key


class Pki:
    def __init__(self, ca_der: bytes, ca_key: KeyPair,
                 server: CredentialSet, client: CredentialSet):
        self.ca_der = ca_der
        self.ca_key = ca_key
        self.server = server
        self.client = client


def generate_pki(curve: CurveParams, entropy: bytes,
                 cache: Optional[CombCache] = None) -> Pki:
    drbg = HmacDrbg(entropy, b"credential-fixture", curve.id.encode())
    ca_key = KeyPair.generate(curve, drbg, cache)
    server_key = KeyPair.generate(curve, drbg, cache)
    client_key = KeyPair.generate(curve, drbg, cache)
    ca_der = make_certificate(CA_CN, CA_CN, 1, ca_key.Q, ca_key,
                              NOT_BEFORE, NOT_AFTER, ca=True)
    server_der = make_certificate(SERVER_CN, CA_CN, 2, server_key.Q, ca_key,
                                  NOT_BEFORE, NOT_AFTER)
    client_der = make_certificate(CLIENT_CN, CA_CN, 3, client_key.Q, ca_key,
                                  NOT_BEFORE, NOT_AFTER)
    return Pki(ca_der, ca_key,
               CredentialSet(ca_der, server_der, server_key),
               CredentialSet(ca_der, client_der, client_key))


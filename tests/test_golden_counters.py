"""Golden operation counts.

The counters price the hardware algorithms the paper describes, not the
Python that computes each result, so a change to how a result is computed
must leave every count unchanged.  These literals were taken from the
bit-serial reference implementation; any drift in a handshake's counter
vector, an ECSM snapshot, or the order of traced comb operations fails here.
"""

from typing import Dict, Optional, Tuple

import pytest

from ecdtls import counters
from ecdtls.counters import OpCounters
from ecdtls.credentials import generate_pki
from ecdtls.curve import get_curve
from ecdtls.energy import calibration_scalar
from ecdtls.handshake import MODE_CACHED, MODE_FULL, HandshakeSession, \
    SessionConfig
from ecdtls.scalarmult import CombCache, ecsm_comb, ecsm_double_and_add, \
    ecsm_jacobian
from ecdtls.transport import run_loopback
from ecdtls.x509 import CertCache

HANDSHAKE_COUNTERS = {
    ("secp160r1", "cached", "client"): {
        "aes_block": 8, "cert_cache_hit": 1, "comb_cache_hit": 3,
        "comb_cache_miss": 3, "comb_precompute": 3, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 6, "ghash_block": 8,
        "hmac": 25, "inv_work": 149762, "mod_add": 2460, "mod_inv_euclid": 936,
        "mod_mul": 3421, "mod_sub": 4662, "mul_iter": 547364, "point_add": 319,
        "point_double": 615, "sha_compress": 135, "sha_message": 55,
        "x509_parse": 1,
    },
    ("secp160r1", "cached", "server"): {
        "aes_block": 8, "comb_cache_hit": 4, "comb_cache_miss": 4,
        "comb_precompute": 4, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 8, "ghash_block": 8, "hmac": 27,
        "inv_work": 199843, "mod_add": 3280, "mod_inv_euclid": 1249,
        "mod_mul": 4564, "mod_sub": 6220, "mul_iter": 730246, "point_add": 426,
        "point_double": 820, "sha_compress": 143, "sha_message": 60,
        "x509_parse": 2,
    },
    ("secp160r1", "full", "client"): {
        "aes_block": 8, "comb_cache_hit": 4, "comb_cache_miss": 4,
        "comb_precompute": 4, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 8, "ghash_block": 8, "hmac": 25,
        "inv_work": 199843, "mod_add": 3280, "mod_inv_euclid": 1249,
        "mod_mul": 4564, "mod_sub": 6220, "mul_iter": 730246, "point_add": 426,
        "point_double": 820, "sha_compress": 138, "sha_message": 56,
        "x509_parse": 2,
    },
    ("secp160r1", "full", "server"): {
        "aes_block": 8, "comb_cache_hit": 4, "comb_cache_miss": 4,
        "comb_precompute": 4, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 8, "ghash_block": 8, "hmac": 27,
        "inv_work": 199843, "mod_add": 3280, "mod_inv_euclid": 1249,
        "mod_mul": 4564, "mod_sub": 6220, "mul_iter": 730246, "point_add": 426,
        "point_double": 820, "sha_compress": 143, "sha_message": 60,
        "x509_parse": 2,
    },
    ("toy59", "cached", "client"): {
        "aes_block": 8, "cert_cache_hit": 1, "comb_cache_hit": 4,
        "comb_cache_miss": 2, "comb_precompute": 2, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 6, "ghash_block": 8,
        "hmac": 25, "inv_work": 468, "mod_add": 92, "mod_inv_euclid": 78,
        "mod_mul": 255, "mod_sub": 448, "mul_iter": 1530, "point_add": 53,
        "point_double": 23, "sha_compress": 128, "sha_message": 55,
        "x509_parse": 1,
    },
    ("toy59", "cached", "server"): {
        "aes_block": 8, "comb_cache_hit": 4, "comb_cache_miss": 4,
        "comb_precompute": 4, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 8, "ghash_block": 8, "hmac": 27,
        "inv_work": 912, "mod_add": 176, "mod_inv_euclid": 152, "mod_mul": 497,
        "mod_sub": 877, "mul_iter": 2982, "point_add": 105, "point_double": 44,
        "sha_compress": 137, "sha_message": 60, "x509_parse": 2,
    },
    ("toy59", "full", "client"): {
        "aes_block": 8, "comb_cache_hit": 5, "comb_cache_miss": 3,
        "comb_precompute": 3, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 8, "ghash_block": 8, "hmac": 25,
        "inv_work": 690, "mod_add": 132, "mod_inv_euclid": 115, "mod_mul": 375,
        "mod_sub": 661, "mul_iter": 2250, "point_add": 79, "point_double": 33,
        "sha_compress": 131, "sha_message": 56, "x509_parse": 2,
    },
    ("toy59", "full", "server"): {
        "aes_block": 8, "comb_cache_hit": 4, "comb_cache_miss": 4,
        "comb_precompute": 4, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 8, "ghash_block": 8, "hmac": 27,
        "inv_work": 912, "mod_add": 176, "mod_inv_euclid": 152, "mod_mul": 497,
        "mod_sub": 877, "mul_iter": 2982, "point_add": 105, "point_double": 44,
        "sha_compress": 137, "sha_message": 60, "x509_parse": 2,
    },
}

ECSM_SECP160R1 = {
    "comb_hit": {
        "comb_cache_hit": 1, "ecsm_comb": 1, "inv_work": 13120, "mod_add": 164,
        "mod_inv_euclid": 82, "mod_mul": 287, "mod_sub": 452,
        "mul_iter": 45920, "point_add": 41, "point_double": 41,
    },
    "comb_miss": {
        "comb_cache_miss": 1, "comb_precompute": 1, "ecsm_comb": 1,
        "inv_work": 36640, "mod_add": 656, "mod_inv_euclid": 229,
        "mod_mul": 851, "mod_sub": 1100, "mul_iter": 136160, "point_add": 65,
        "point_double": 164,
    },
    "double_and_add": {
        "ecsm_double_and_add": 1, "inv_work": 39040, "mod_add": 636,
        "mod_inv_euclid": 244, "mod_mul": 891, "mod_sub": 1146,
        "mul_iter": 142560, "point_add": 85, "point_double": 159,
    },
    "jacobian": {
        "ecsm_jacobian": 1, "mod_add": 1675, "mod_inv_fermat": 1,
        "mod_mul": 2845, "mod_sub": 987, "mul_iter": 455200, "point_add": 85,
        "point_double": 159,
    },
}

COMB_TRACE_SECP160R1 = (
    "DmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmm"
    "DmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmm"
    "DmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmm"
    "DmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmm"
    "DmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmm"
    "DmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmm"
    "DmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmmDmimmmAimmm"
)

# one letter per traced operation kind (counters.TRACED_KINDS)
TRACE_LETTERS = {"mod_mul": "m", "mod_inv_euclid": "i", "mod_inv_fermat": "f",
                 "point_add": "A", "point_double": "D"}


# ---------------------------------------------------------------------------
# The scenarios the vectors were taken from

FIXED_CLOCK = lambda: 1754784000.0


def ecsm_scenarios(curve_name: str) -> Dict[str, OpCounters]:
    """Comb (miss, then hit), double-and-add and Jacobian counts for the
    energy model's calibration scalar."""
    curve = get_curve(curve_name)
    G = curve.generator()
    k = calibration_scalar(curve)
    cache = CombCache()
    out = {}
    for label, run in (("comb_miss", lambda: ecsm_comb(k, G, cache)),
                       ("comb_hit", lambda: ecsm_comb(k, G, cache)),
                       ("double_and_add", lambda: ecsm_double_and_add(k, G)),
                       ("jacobian", lambda: ecsm_jacobian(k, G))):
        with counters.scope() as sc:
            run()
        out[label] = sc.counters
    return out


def _session_pair(curve, pki, mode: str, cert_cache: Optional[CertCache],
                  entropy_tag: bytes) -> Tuple[HandshakeSession,
                                               HandshakeSession]:
    client = HandshakeSession(SessionConfig(
        role="client", curve=curve, own_cert_der=pki.client.cert_der,
        own_key_d=pki.client.key.d, ca_der=pki.ca_der, mode=mode,
        entropy=b"bench-client" + entropy_tag, expected_peer_cn="server",
        cert_cache=cert_cache, clock=FIXED_CLOCK))
    server = HandshakeSession(SessionConfig(
        role="server", curve=curve, own_cert_der=pki.server.cert_der,
        own_key_d=pki.server.key.d, ca_der=pki.ca_der, mode=MODE_FULL,
        entropy=b"bench-server" + entropy_tag, expected_peer_cn="client",
        clock=FIXED_CLOCK))
    return client, server


def handshake_scenario(curve_name: str, mode: str
                       ) -> Tuple[HandshakeSession, HandshakeSession]:
    """One established loopback handshake from a cold process: fresh comb
    caches, and for cached mode a certificate cache primed the way a prior
    run would leave it."""
    curve = get_curve(curve_name)
    seed = b"bench"
    with counters.isolated():
        pki = generate_pki(curve, b"bench-pki" + seed)
        cert_cache = None
        if mode == MODE_CACHED:
            cert_cache = CertCache()
            prime_client, prime_server = _session_pair(
                curve, pki, MODE_CACHED, cert_cache, seed + b"-prime")
            assert run_loopback(prime_client, prime_server).established
    client, server = _session_pair(curve, pki, mode, cert_cache, seed)
    assert run_loopback(client, server).established
    return client, server


@pytest.mark.parametrize("curve,mode", [("toy59", "full"),
                                        ("toy59", "cached"),
                                        ("secp160r1", "full"),
                                        ("secp160r1", "cached")])
def test_handshake_counters(curve, mode):
    client, server = handshake_scenario(curve, mode)
    assert dict(client.handshake_counters) == \
        HANDSHAKE_COUNTERS[(curve, mode, "client")]
    assert dict(server.handshake_counters) == \
        HANDSHAKE_COUNTERS[(curve, mode, "server")]


def test_ecsm_scenarios_secp160r1():
    got = {label: dict(c)
           for label, c in ecsm_scenarios("secp160r1").items()}
    assert got == ECSM_SECP160R1


def test_comb_trace_secp160r1(registry):
    curve = registry.get("secp160r1")
    G = curve.generator()
    cache = CombCache()
    ecsm_comb(2, G, cache)
    with counters.scope(trace=True) as sc:
        ecsm_comb(calibration_scalar(curve), G, cache)
    assert set(sc.trace) <= counters.TRACED_KINDS
    assert "".join(TRACE_LETTERS[k] for k in sc.trace) == COMB_TRACE_SECP160R1

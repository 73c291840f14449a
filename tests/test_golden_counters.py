"""Golden operation counts.

The counters price the hardware algorithms the paper describes, not the
Python that computes each result, so a change to how a result is computed
must leave every count unchanged.  The literals are the package's own
output for the scenarios below, regenerated from the code only by a change
that reprices on purpose, which says what moved and why; any other drift
in a handshake's counter vector, an ECSM snapshot, or the order of traced
comb operations fails here.
"""

from typing import Dict, List, Optional, Tuple

import pytest

from ecdtls import counters
from ecdtls.counters import OpCounters
from ecdtls.credentials import generate_pki
from ecdtls.curve import get_curve
from ecdtls.energy import calibration_scalar
from ecdtls.handshake import MODE_CACHED, MODE_FULL, HandshakeSession, \
    SessionConfig
from ecdtls.scalarmult import CombCache, ecsm_comb
from ecdtls.transport import run_loopback
from ecdtls.x509 import CertCache
from reference_engines import ecsm_jacobian, scalar_mul_unchecked

HANDSHAKE_COUNTERS = {
    ("secp160r1", "cached", "client"): {
        "aes_block": 8, "cert_cache_hit": 1, "comb_cache_hit": 2,
        "comb_cache_miss": 2, "comb_precompute": 2, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 4, "ecsm_window": 1,
        "ghash_block": 8, "hmac": 25, "inv_work": 101442, "mod_add": 3285,
        "mod_inv_euclid": 634, "mod_mul": 4363, "mod_sub": 3929,
        "mul_iter": 698084, "point_add": 261, "point_double": 571,
        "sha_compress": 101, "sha_message": 55,
    },
    ("secp160r1", "cached", "server"): {
        "aes_block": 8, "comb_cache_hit": 3, "comb_cache_miss": 3,
        "comb_precompute": 3, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 6, "ecsm_window": 1, "ghash_block": 8,
        "hmac": 27, "inv_work": 151523, "mod_add": 4105, "mod_inv_euclid": 947,
        "mod_mul": 5506, "mod_sub": 5489, "mul_iter": 880966, "point_add": 368,
        "point_double": 776, "sha_compress": 107, "sha_message": 60,
        "x509_parse": 1,
    },
    ("secp160r1", "full", "client"): {
        "aes_block": 8, "comb_cache_hit": 3, "comb_cache_miss": 3,
        "comb_precompute": 3, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 6, "ecsm_window": 1, "ghash_block": 8,
        "hmac": 25, "inv_work": 151523, "mod_add": 4105, "mod_inv_euclid": 947,
        "mod_mul": 5506, "mod_sub": 5489, "mul_iter": 880966, "point_add": 368,
        "point_double": 776, "sha_compress": 104, "sha_message": 56,
        "x509_parse": 1,
    },
    ("secp160r1", "full", "server"): {
        "aes_block": 8, "comb_cache_hit": 3, "comb_cache_miss": 3,
        "comb_precompute": 3, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 6, "ecsm_window": 1, "ghash_block": 8,
        "hmac": 27, "inv_work": 151523, "mod_add": 4105, "mod_inv_euclid": 947,
        "mod_mul": 5506, "mod_sub": 5489, "mul_iter": 880966, "point_add": 368,
        "point_double": 776, "sha_compress": 107, "sha_message": 60,
        "x509_parse": 1,
    },
    ("toy59", "cached", "client"): {
        "aes_block": 8, "cert_cache_hit": 1, "comb_cache_hit": 2,
        "comb_cache_miss": 2, "comb_precompute": 2, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 4, "ecsm_window": 1,
        "ghash_block": 8, "hmac": 25, "inv_work": 492, "mod_add": 126,
        "mod_inv_euclid": 82, "mod_mul": 328, "mod_sub": 498, "mul_iter": 1968,
        "point_add": 60, "point_double": 25, "sha_compress": 94,
        "sha_message": 55,
    },
    ("toy59", "cached", "server"): {
        "aes_block": 8, "comb_cache_hit": 3, "comb_cache_miss": 3,
        "comb_precompute": 3, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 6, "ecsm_window": 1, "ghash_block": 8,
        "hmac": 27, "inv_work": 750, "mod_add": 178, "mod_inv_euclid": 125,
        "mod_mul": 469, "mod_sub": 746, "mul_iter": 2814, "point_add": 89,
        "point_double": 38, "sha_compress": 101, "sha_message": 60,
        "x509_parse": 1,
    },
    ("toy59", "full", "client"): {
        "aes_block": 8, "comb_cache_hit": 3, "comb_cache_miss": 3,
        "comb_precompute": 3, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 6, "ecsm_window": 1, "ghash_block": 8,
        "hmac": 25, "inv_work": 726, "mod_add": 170, "mod_inv_euclid": 121,
        "mod_mul": 455, "mod_sub": 724, "mul_iter": 2730, "point_add": 87,
        "point_double": 36, "sha_compress": 97, "sha_message": 56,
        "x509_parse": 1,
    },
    ("toy59", "full", "server"): {
        "aes_block": 8, "comb_cache_hit": 3, "comb_cache_miss": 3,
        "comb_precompute": 3, "drbg_generate": 3, "ecdsa_sign": 1,
        "ecdsa_verify": 2, "ecsm_comb": 6, "ecsm_window": 1, "ghash_block": 8,
        "hmac": 27, "inv_work": 750, "mod_add": 178, "mod_inv_euclid": 125,
        "mod_mul": 469, "mod_sub": 746, "mul_iter": 2814, "point_add": 89,
        "point_double": 38, "sha_compress": 101, "sha_message": 60,
        "x509_parse": 1,
    },
}

# The 2nd and the 3rd of warm_handshakes("secp160r1", 3) read the same
# vectors: no base misses.  Each long-lived base (G, the CA key, the peer's
# key) hits its resident table, and the peer's ephemeral point is a
# one-shot `ecsm_window`, which no comb cache sees.
WARM_HANDSHAKE_COUNTERS = {
    "client": {
        "aes_block": 8, "cert_cache_hit": 1, "comb_cache_hit": 4,
        "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 4,
        "ecsm_window": 1, "ghash_block": 8, "hmac": 25, "inv_work": 54402,
        "mod_add": 2301, "mod_inv_euclid": 340, "mod_mul": 3235,
        "mod_sub": 2633, "mul_iter": 517604, "point_add": 213,
        "point_double": 325, "sha_compress": 101, "sha_message": 55,
    },
    "server": {
        "aes_block": 8, "comb_cache_hit": 6, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 2, "ecsm_comb": 6, "ecsm_window": 1,
        "ghash_block": 8, "hmac": 27, "inv_work": 80963, "mod_add": 2629,
        "mod_inv_euclid": 506, "mod_mul": 3814, "mod_sub": 3545,
        "mul_iter": 610246, "point_add": 296, "point_double": 407,
        "sha_compress": 107, "sha_message": 60, "x509_parse": 1,
    },
}

ECSM_SECP160R1 = {
    "comb_hit": {
        "comb_cache_hit": 1, "ecsm_comb": 1, "inv_work": 13120, "mod_add": 164,
        "mod_inv_euclid": 82, "mod_mul": 287, "mod_sub": 453,
        "mul_iter": 45920, "point_add": 41, "point_double": 41,
    },
    "comb_miss": {
        "comb_cache_miss": 1, "comb_precompute": 1, "ecsm_comb": 1,
        "inv_work": 36640, "mod_add": 656, "mod_inv_euclid": 229,
        "mod_mul": 851, "mod_sub": 1101, "mul_iter": 136160, "point_add": 65,
        "point_double": 164,
    },
    "unchecked": {
        "inv_work": 39040, "mod_add": 636, "mod_inv_euclid": 244,
        "mod_mul": 891, "mod_sub": 1146, "mul_iter": 142560, "point_add": 85,
        "point_double": 159,
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
    """Comb (miss, then hit), affine double-and-add and Jacobian counts for
    the energy model's calibration scalar."""
    curve = get_curve(curve_name)
    G = curve.generator()
    k = calibration_scalar(curve)
    cache = CombCache()
    out = {}
    for label, run in (("comb_miss", lambda: ecsm_comb(k, G, cache)),
                       ("comb_hit", lambda: ecsm_comb(k, G, cache)),
                       ("unchecked", lambda: scalar_mul_unchecked(k, G)),
                       ("jacobian", lambda: ecsm_jacobian(k, G))):
        with counters.scope() as sc:
            run()
        out[label] = sc.counters
    return out


def _session_pair(curve, pki, mode: str, cert_cache: Optional[CertCache],
                  entropy_tag: bytes,
                  combs: Tuple[Optional[CombCache], Optional[CombCache]] = (
                      None, None)) -> Tuple[HandshakeSession,
                                            HandshakeSession]:
    client = HandshakeSession(SessionConfig(
        role="client", curve=curve, own_cert_der=pki.client.cert_der,
        own_key_d=pki.client.key.d, ca_der=pki.ca_der, mode=mode,
        entropy=b"bench-client" + entropy_tag, expected_peer_cn="server",
        comb_cache=combs[0], cert_cache=cert_cache, clock=FIXED_CLOCK))
    server = HandshakeSession(SessionConfig(
        role="server", curve=curve, own_cert_der=pki.server.cert_der,
        own_key_d=pki.server.key.d, ca_der=pki.ca_der, mode=MODE_FULL,
        entropy=b"bench-server" + entropy_tag, expected_peer_cn="client",
        comb_cache=combs[1], clock=FIXED_CLOCK))
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


def warm_handshakes(curve_name: str, count: int
                    ) -> List[Tuple[HandshakeSession, HandshakeSession]]:
    """count established cached-mode loopback handshakes in a row, whose
    client and server keep their comb caches, and the client its
    certificate cache, from one to the next: the first misses, the second
    hits each long-lived base for the first time, later ones hit again."""
    curve = get_curve(curve_name)
    with counters.isolated():
        pki = generate_pki(curve, b"bench-pki" + b"bench")
    combs, cert_cache = (CombCache(), CombCache()), CertCache()
    pairs = []
    for i in range(count):
        client, server = _session_pair(curve, pki, MODE_CACHED, cert_cache,
                                       b"warm-%d" % i, combs)
        assert run_loopback(client, server).established
        pairs.append((client, server))
    return pairs


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


def test_warm_cache_handshake_counters():
    for client, server in warm_handshakes("secp160r1", 3)[1:]:
        assert dict(client.handshake_counters) == \
            WARM_HANDSHAKE_COUNTERS["client"]
        assert dict(server.handshake_counters) == \
            WARM_HANDSHAKE_COUNTERS["server"]


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

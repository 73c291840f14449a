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
from ecdtls.curve import builtin_registry, get_curve
from ecdtls.energy import PRICED_KINDS, calibration_scalar
from ecdtls.handshake import MODE_CACHED, MODE_FULL, HandshakeSession, \
    SessionConfig
from ecdtls.scalarmult import CombCache, comb_precompute, ecsm_comb, \
    ecsm_window
from ecdtls.sha256 import sha256
from ecdtls.transport import run_loopback
from ecdtls.x509 import CertCache, x509_parse, x509_verify
from reference_engines import ecsm_jacobian, scalar_mul_unchecked

HANDSHAKE_COUNTERS = {
    ("secp160r1", "cached", "client"): {
        "aes_block": 8, "cert_cache_hit": 1, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 4, "ecsm_window": 1,
        "ghash_block": 8, "hmac": 25, "inv_work": 48002, "mod_add": 2141,
        "mod_inv_euclid": 300, "mod_mul": 3075, "mod_sub": 2471,
        "mul_iter": 492004, "point_add": 213, "point_double": 285,
        "sha_compress": 101, "sha_message": 55,
    },
    ("secp160r1", "cached", "server"): {
        "aes_block": 8, "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 2,
        "ecsm_comb": 5, "ecsm_window": 2, "ghash_block": 8, "hmac": 27,
        "inv_work": 49763, "mod_add": 3832, "mod_inv_euclid": 311,
        "mod_mul": 5623, "mod_sub": 3583, "mul_iter": 899686, "point_add": 303,
        "point_double": 447, "sha_compress": 107, "sha_message": 60,
        "x509_parse": 1,
    },
    ("secp160r1", "full", "client"): {
        "aes_block": 8, "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 2,
        "ecsm_comb": 5, "ecsm_window": 2, "ghash_block": 8, "hmac": 25,
        "inv_work": 49763, "mod_add": 3832, "mod_inv_euclid": 311,
        "mod_mul": 5623, "mod_sub": 3583, "mul_iter": 899686, "point_add": 303,
        "point_double": 447, "sha_compress": 104, "sha_message": 56,
        "x509_parse": 1,
    },
    ("secp160r1", "full", "server"): {
        "aes_block": 8, "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 2,
        "ecsm_comb": 5, "ecsm_window": 2, "ghash_block": 8, "hmac": 27,
        "inv_work": 49763, "mod_add": 3832, "mod_inv_euclid": 311,
        "mod_mul": 5623, "mod_sub": 3583, "mul_iter": 899686, "point_add": 303,
        "point_double": 447, "sha_compress": 107, "sha_message": 60,
        "x509_parse": 1,
    },
    ("toy59", "cached", "client"): {
        "aes_block": 8, "cert_cache_hit": 1, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 4, "ecsm_window": 1,
        "ghash_block": 8, "hmac": 25, "inv_work": 144, "mod_add": 70,
        "mod_inv_euclid": 24, "mod_mul": 140, "mod_sub": 152, "mul_iter": 840,
        "point_add": 16, "point_double": 11, "sha_compress": 94,
        "sha_message": 55,
    },
    ("toy59", "cached", "server"): {
        "aes_block": 8, "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 2,
        "ecsm_comb": 5, "ecsm_window": 2, "ghash_block": 8, "hmac": 27,
        "inv_work": 228, "mod_add": 127, "mod_inv_euclid": 38, "mod_mul": 280,
        "mod_sub": 268, "mul_iter": 1680, "point_add": 30, "point_double": 18,
        "sha_compress": 101, "sha_message": 60, "x509_parse": 1,
    },
    ("toy59", "full", "client"): {
        "aes_block": 8, "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 2,
        "ecsm_comb": 5, "ecsm_window": 2, "ghash_block": 8, "hmac": 25,
        "inv_work": 216, "mod_add": 123, "mod_inv_euclid": 36, "mod_mul": 273,
        "mod_sub": 257, "mul_iter": 1638, "point_add": 29, "point_double": 17,
        "sha_compress": 97, "sha_message": 56, "x509_parse": 1,
    },
    ("toy59", "full", "server"): {
        "aes_block": 8, "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 2,
        "ecsm_comb": 5, "ecsm_window": 2, "ghash_block": 8, "hmac": 27,
        "inv_work": 228, "mod_add": 127, "mod_inv_euclid": 38, "mod_mul": 280,
        "mod_sub": 268, "mul_iter": 1680, "point_add": 30, "point_double": 18,
        "sha_compress": 101, "sha_message": 60, "x509_parse": 1,
    },
}

# The 2nd and the 3rd of warm_handshakes("secp160r1", 3) read the same
# vectors, the client's that of any cached-mode client whose certificate
# cache hits: G, and the server's leaf the client keeps, walk their resident
# tables, and the peer's ephemeral point is a one-shot `ecsm_window`.  The
# server's is any full-mode server's: the client's leaf is one-shot too.
WARM_HANDSHAKE_COUNTERS = {
    "client": {
        "aes_block": 8, "cert_cache_hit": 1, "drbg_generate": 3,
        "ecdsa_sign": 1, "ecdsa_verify": 1, "ecsm_comb": 4, "ecsm_window": 1,
        "ghash_block": 8, "hmac": 25, "inv_work": 48002, "mod_add": 2141,
        "mod_inv_euclid": 300, "mod_mul": 3075, "mod_sub": 2471,
        "mul_iter": 492004, "point_add": 213, "point_double": 285,
        "sha_compress": 101, "sha_message": 55,
    },
    "server": {
        "aes_block": 8, "drbg_generate": 3, "ecdsa_sign": 1, "ecdsa_verify": 2,
        "ecsm_comb": 5, "ecsm_window": 2, "ghash_block": 8, "hmac": 27,
        "inv_work": 49763, "mod_add": 3832, "mod_inv_euclid": 311,
        "mod_mul": 5623, "mod_sub": 3583, "mul_iter": 899686, "point_add": 303,
        "point_double": 447, "sha_compress": 107, "sha_message": 60,
        "x509_parse": 1,
    },
}

ECSM_SECP160R1 = {
    "comb_hit": {
        "ecsm_comb": 1, "inv_work": 13120, "mod_add": 164,
        "mod_inv_euclid": 82, "mod_mul": 287, "mod_sub": 453,
        "mul_iter": 45920, "point_add": 41, "point_double": 41,
    },
    "comb_table": {
        "comb_precompute": 1, "inv_work": 23520, "mod_add": 492,
        "mod_inv_euclid": 147, "mod_mul": 564, "mod_sub": 648,
        "mul_iter": 90240, "point_add": 24, "point_double": 123,
    },
    "window": {
        "ecsm_window": 1, "inv_work": 1440, "mod_add": 1645,
        "mod_inv_euclid": 9, "mod_mul": 2080, "mod_sub": 815,
        "mul_iter": 332800, "point_add": 48, "point_double": 161,
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
    """A resident base's comb walk, the table that makes a base resident,
    the one-shot window, affine double-and-add and Jacobian counts for the
    energy model's calibration scalar."""
    curve = get_curve(curve_name)
    G = curve.generator()
    k = calibration_scalar(curve)
    out = {}
    for label, run in (("comb_hit", lambda: ecsm_comb(k, G)),
                       ("comb_table", lambda: comb_precompute(G)),
                       ("window", lambda: ecsm_window(k, G)),
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
    """One established loopback handshake: fresh comb caches, and for
    cached mode a certificate cache primed the way a prior run would leave
    it."""
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
    certificate cache, from one to the next: the first misses the
    certificate cache and pays the table of the leaf it keeps, later ones
    hit."""
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


def _vectors_in_a_row(curve, pki, mode: str, shared: bool) -> list:
    """Both ends' `handshake_counters` item lists of three established
    loopback pairs from one entropy.  Shared, the pairs keep their comb
    caches, and the client its certificate cache, from one to the next;
    else each pair gets fresh ones."""
    vectors = []
    for _ in range(3):
        if not shared or not vectors:
            combs, cert_cache = (CombCache(), CombCache()), CertCache()
        client, server = _session_pair(curve, pki, mode, cert_cache,
                                       b"in-a-row", combs)
        assert run_loopback(client, server).established
        vectors.append([list(end.handshake_counters.items())
                        for end in (client, server)])
    return vectors


@pytest.mark.parametrize("curve_name", ["secp160r1", "toy59"])
def test_no_session_is_priced_by_the_sessions_before_it(curve_name):
    """A multiplication is priced by its base's class, never by what a comb
    cache holds, so no session's counter vector depends on the sessions
    that came before it.  In full mode, three pairs that share their caches
    and three that each get fresh ones give six equal vectors at each end.
    In cached mode the server's vectors are equal too, and the client's
    differ only by its certificate cache: the first session misses, parses
    and checks the leaf, fingerprints it again to cache it and pays the
    table of the key it now keeps; the later ones hit."""
    curve = get_curve(curve_name)
    with counters.isolated():
        pki = generate_pki(curve, b"bench-pki" + b"bench")
    full = _vectors_in_a_row(curve, pki, MODE_FULL, True) + \
        _vectors_in_a_row(curve, pki, MODE_FULL, False)
    assert all(vector == full[0] for vector in full)

    shared = _vectors_in_a_row(curve, pki, MODE_CACHED, True)
    fresh = _vectors_in_a_row(curve, pki, MODE_CACHED, False)
    assert all(server == full[0][1] for _, server in shared + fresh)
    miss, hit = shared[0][0], shared[1][0]
    assert all(client == miss for client, _ in fresh)
    assert shared[2][0] == hit
    with counters.scope() as leaf:
        cert = x509_parse(pki.server.cert_der, builtin_registry())
        assert x509_verify(cert, pki.ca_key.Q, int(FIXED_CLOCK())) == \
            (True, "ok")
        sha256(pki.server.cert_der)
        comb_precompute(cert.public_key)
    want = leaf.counters + OpCounters(cert_cache_miss=1, cert_cache_hit=-1)
    assert dict(OpCounters(miss).diff(OpCounters(hit))) == dict(want)


def test_ecsm_scenarios_secp160r1():
    got = {label: dict(c)
           for label, c in ecsm_scenarios("secp160r1").items()}
    assert got == ECSM_SECP160R1


def test_comb_trace_secp160r1(registry):
    curve = registry.get("secp160r1")
    G = curve.generator()
    with counters.scope(trace=True) as sc:
        ecsm_comb(calibration_scalar(curve), G)
    assert set(sc.trace) <= counters.TRACED_KINDS
    assert "".join(TRACE_LETTERS[k] for k in sc.trace) == COMB_TRACE_SECP160R1


def test_every_priced_kind_is_recorded():
    """Each kind the energy model prices is recorded by a pinned scenario,
    so a kind that nothing records any more fails here: the golden
    handshakes of both modes and roles, the ECSM scenarios, one record
    sealed and opened, and the first cached-mode session, whose client
    misses its certificate cache (its vector is pinned against the hit's
    by `test_no_session_is_priced_by_the_sessions_before_it`)."""
    client, server = handshake_scenario("toy59", MODE_FULL)
    before = client.session_counters + server.session_counters
    assert server.open_app_data(client.seal_app_data(b"pinned")) == \
        b"pinned"
    sealed = (client.session_counters + server.session_counters).diff(before)
    miss, _ = warm_handshakes("toy59", 1)[0]
    vectors = list(HANDSHAKE_COUNTERS.values()) + \
        list(ECSM_SECP160R1.values()) + [sealed, miss.handshake_counters]
    assert set(PRICED_KINDS) - set().union(*vectors) == set()

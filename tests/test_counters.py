import json
import os
import pathlib
import subprocess
import sys

import pytest

from ecdtls import counters
from ecdtls.counters import OpCounters
from ecdtls.energy import default_model
from test_golden_counters import handshake_scenario

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Diffs a record's session tally against the handshake's; prints key order.
PROBE = """
import json
from ecdtls.counters import OpCounters
later = OpCounters(aes_block=4, ghash_block=5, bytes_sealed=64, mod_mul=9)
print(json.dumps(list(later.diff(OpCounters(mod_mul=2)))))
"""


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_diff_key_order_independent_of_hash_seed(hashseed):
    """energy.estimate sums in key order, so the order of a diff must not
    change with the string hash of the process."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["aes_block", "ghash_block", "bytes_sealed",
                               "mod_mul"]


def test_diff_values_and_order():
    later = OpCounters(point_add=3, mod_mul=7, hmac=1)
    earlier = OpCounters(hmac=1, sha_compress=2, mod_mul=4)
    got = later.diff(earlier)
    assert list(got.items()) == [("point_add", 3), ("mod_mul", 3),
                                 ("sha_compress", -2)]


def test_record_all_adds_items_in_order_to_every_scope():
    cost = ((("point_add", 1), ("mod_sub", 2), ("mul_iter", 160)),
            ("point_add", "mod_mul"))
    with counters.scope(trace=True) as outer:
        counters.record("hmac")
        with counters.scope() as inner:
            counters.record_all(cost)
            counters.record("mod_mul", 3)
    assert list(outer.counters.items()) == [
        ("hmac", 1), ("point_add", 1), ("mod_sub", 2), ("mul_iter", 160),
        ("mod_mul", 3)]
    assert list(inner.counters.items()) == list(outer.counters.items())[1:]
    assert outer.trace == ["point_add", "mod_mul", "mod_mul"]
    assert inner.trace is None


# Key order of the golden handshakes' counters (taken from the bit-serial
# kernels).  energy.estimate sums in this order, so a reordering moves the
# modeled total in its last digits even where the counts are unchanged.
HANDSHAKE_KEY_HEAD = ["sha_compress", "hmac", "sha_message", "drbg_generate"]
# a client's first ECC is a joint verification under a resident key: the
# server's certificate under the anchor, or in cached mode the signature
# under the leaf it keeps.  Its first column adds G's term to Q's before any
# doubling; on toy59 the kept leaf's top term is 53 = 0 mod n, so there
# that addition meets the identity and the next column's doubling comes
# first.
_CLIENT_AFTER_LEAF = [
    "ecdsa_verify", "mod_inv_euclid", "inv_work", "mod_mul", "mul_iter",
    "ecsm_comb", "mod_sub", "point_add", "point_double", "mod_add",
    "ecsm_window", "ecdsa_sign", "aes_block", "ghash_block",
]
_TOY59_CACHED_CLIENT = _CLIENT_AFTER_LEAF[:7] + [
    "point_double", "mod_add", "point_add"] + _CLIENT_AFTER_LEAF[10:]
HANDSHAKE_KEY_TAIL = {
    ("full", "client"): ["x509_parse"] + _CLIENT_AFTER_LEAF,
    ("cached", "client"): ["cert_cache_hit"] + _CLIENT_AFTER_LEAF,
    ("full", "server"): [
        "ecsm_comb", "mod_sub", "point_double", "mod_mul", "mul_iter",
        "mod_add", "mod_inv_euclid", "inv_work", "point_add", "ecdsa_sign",
        "x509_parse", "ecdsa_verify", "ecsm_window", "aes_block",
        "ghash_block"],
}
HANDSHAKE_KEY_TAIL[("cached", "server")] = HANDSHAKE_KEY_TAIL[("full",
                                                               "server")]


@pytest.mark.parametrize("curve,mode", [("toy59", "full"),
                                        ("toy59", "cached"),
                                        ("secp160r1", "full"),
                                        ("secp160r1", "cached")])
def test_handshake_counter_key_order(curve, mode):
    client, server = handshake_scenario(curve, mode)
    for role, session in (("client", client), ("server", server)):
        tail = HANDSHAKE_KEY_TAIL[(mode, role)]
        if (curve, mode, role) == ("toy59", "cached", "client"):
            tail = ["cert_cache_hit"] + _TOY59_CACHED_CLIENT
        assert list(session.handshake_counters) == HANDSHAKE_KEY_HEAD + tail


def test_cold_secp256r1_client_handshake_energy_exact():
    client, _ = handshake_scenario("secp256r1", "full")
    total = default_model().estimate(client.handshake_counters).total
    assert total == 4.7379602873523274e-05

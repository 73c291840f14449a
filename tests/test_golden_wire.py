"""Golden transcripts: the bytes on the wire and the counters beside them.

Two digests per (curve, mode) pin what a loopback pair leaves behind.  The
wire digest covers every datagram, the sending role hashed before it, both
ends' `drop_counts`, and a 64 B record the client seals once established.
The counter digest covers both ends' `handshake_counters` as item lists, so
their order counts.  Each pair runs from fixed entropies and a fixed clock.
The cached runs use one fresh `CertCache`: the first pair misses and fills
it, the second hits.  A curve's three wire digests are equal: caching
changes what the client checks, not what it sends.

A change meant to keep bytes and counts passes this file unedited.  A change
that moves them updates the literals and says why; one that only reprices
keeps every wire digest, so its diff shows that the bytes held.  The toy59
full handshake's datagrams are also pinned as hex, so a failure there shows
which message moved.
"""

import hashlib

import pytest

from ecdtls.credentials import generate_pki
from ecdtls.curve import get_curve
from ecdtls.handshake import MODE_CACHED, MODE_FULL, HandshakeSession, \
    SessionConfig
from ecdtls.transport import run_loopback
from ecdtls.x509 import CertCache

FIXED_CLOCK = lambda: 1754784000.0  # mid validity window
PAYLOAD = bytes(range(64))

GOLDEN_DIGESTS = {  # (wire digest, counter digest)
    ("secp160r1", "cached-hit"): (
        "a81aa6a3791c64edf7ecfe34b9e34601792ec26dcc4a451d9a78c9cd9c0b3c72",
        "db3b6b76b43ce7adf459150fe663f1501cebb0b9d7b2574eed9ba95a9cba3e7d"),
    ("secp160r1", "cached-miss"): (
        "a81aa6a3791c64edf7ecfe34b9e34601792ec26dcc4a451d9a78c9cd9c0b3c72",
        "7a6d2d91f9f1b0cf9bc6c67e25b99ada82ba3201e4b6c61eb19f5a8f27f16b21"),
    ("secp160r1", "full"): (
        "a81aa6a3791c64edf7ecfe34b9e34601792ec26dcc4a451d9a78c9cd9c0b3c72",
        "4520857369f058648640e6feec8e1300d6bbd3210b0eeb9d45959c942779df15"),
    ("secp256r1", "cached-hit"): (
        "0b71eaebeff66799baa3bb30e807d809e2e70df27a5cab97f94d951ac2a6ab5c",
        "bff5ae17cce8f8ace8187f1bc7f8b2bb18cac40612430d883380a50a2616b89b"),
    ("secp256r1", "cached-miss"): (
        "0b71eaebeff66799baa3bb30e807d809e2e70df27a5cab97f94d951ac2a6ab5c",
        "7ef7b962ed9bfe4d5b8a3371ddf8dd2e0a2526dc6dfc422909785b6be2e27e0d"),
    ("secp256r1", "full"): (
        "0b71eaebeff66799baa3bb30e807d809e2e70df27a5cab97f94d951ac2a6ab5c",
        "36cf04bb0047fb069161ec035567e604192d559bd901c6026f428941860ba7c1"),
    ("toy59", "cached-hit"): (
        "f110db02ca36bb9b27cba8915615f777331846afccd035ab7f901b447931405f",
        "680a862668be9324b6f5ab352849bdccc6803cb9586b2298c667179c04d95a38"),
    ("toy59", "cached-miss"): (
        "f110db02ca36bb9b27cba8915615f777331846afccd035ab7f901b447931405f",
        "b915bf255c73ebd06e1fea5ae73c1ea7159beb4b86f0f6d23e711e226b70d03f"),
    ("toy59", "full"): (
        "f110db02ca36bb9b27cba8915615f777331846afccd035ab7f901b447931405f",
        "73b59d1b1aec4ebb8457873c880c1a858a274756c862ca5a24965ad8360171d3"),
}

TOY59_FULL_DATAGRAMS = [
    ("client",
     "16fefd0000000000000000004e010000420000000000000042fefd93b5d5fce6"
     "acbba265b9ade12209713a5e0a02f161c01451900a72ff936e0cf400000002c0"
     "2b01000016000a00040002feca000b00020100000d000400020403"),
    ("server",
     "16fefd0000000000000000002f030000230000000000000023fefd206024066f"
     "2d485b24646541e4add4183ea7fef715d1e03f58ec2845a97ee82687"),
    ("client",
     "16fefd0000000000000001006e010000620001000000000062fefd93b5d5fce6"
     "acbba265b9ade12209713a5e0a02f161c01451900a72ff936e0cf40020602406"
     "6f2d485b24646541e4add4183ea7fef715d1e03f58ec2845a97ee826870002c0"
     "2b01000016000a00040002feca000b00020100000d000400020403"),
    ("server",
     "16fefd0000000000000001003a0200002e000100000000002efefd36b9a958d1"
     "b3fa303dde56f5688516dc544c51bc1a55fcadb8141bca39b1e09300c02b0000"
     "06000b00020100"),
    ("server",
     "16fefd000000000000000200b90b0000ad00020000000000ad0000aa0000a730"
     "81a430818aa003020102020102300a06082a8648ce3d040302301e311c301a06"
     "035504030c1364746c732d656e67696e652074657374206361301e170d323430"
     "3130313030303030305a170d3434303130313030303030305a3011310f300d06"
     "035504030c067365727665723021301906072a8648ce3d0201060e2b06010401"
     "83b20301746f793539030400040b28300a06082a8648ce3d0403020309003006"
     "02012d020114"),
    ("server",
     "16fefd0000000000000003001f0c000013000300000000001303feca03040515"
     "040300083006020110020119"),
    ("server",
     "16fefd000000000000000400140d000008000400000000000801400002040300"
     "00"),
    ("server",
     "16fefd0000000000000005000c0e0000000005000000000000"),
    ("client",
     "16fefd000000000000000200b90b0000ad00020000000000ad0000aa0000a730"
     "81a430818aa003020102020103300a06082a8648ce3d040302301e311c301a06"
     "035504030c1364746c732d656e67696e652074657374206361301e170d323430"
     "3130313030303030305a170d3434303130313030303030305a3011310f300d06"
     "035504030c06636c69656e743021301906072a8648ce3d0201060e2b06010401"
     "83b20301746f793539030400040630300a06082a8648ce3d0403020309003006"
     "02011302010e"),
    ("client",
     "16fefd0000000000000003001010000004000300000000000403041e34"),
    ("client",
     "16fefd000000000000000400180f00000c000400000000000c04030008300602"
     "011402011a"),
    ("client",
     "14fefd0000000000000005000101"),
    ("client",
     "16fefd0001000000000000003000010000000000009c4781cbef1ff87cd93b0e"
     "58ad2804500da20c9da50e7e73a92adab4398ef275b379c5abb5f1c0fd"),
    ("server",
     "14fefd0000000000000006000101"),
    ("server",
     "16fefd000100000000000000300001000000000000af0417746d0ba2173ab93f"
     "73dfd0924aa869cdb104fce90f474dc9ed3175164591d95b26c9df553b"),
]


def _pair(curve, pki, mode, cert_cache):
    client = HandshakeSession(SessionConfig(
        role="client", curve=curve, own_cert_der=pki.client.cert_der,
        own_key_d=pki.client.key.d, ca_der=pki.ca_der, mode=mode,
        entropy=b"golden-wire-client".ljust(32, b"."),
        expected_peer_cn="server", cert_cache=cert_cache, clock=FIXED_CLOCK))
    server = HandshakeSession(SessionConfig(
        role="server", curve=curve, own_cert_der=pki.server.cert_der,
        own_key_d=pki.server.key.d, ca_der=pki.ca_der, mode=MODE_FULL,
        entropy=b"golden-wire-server".ljust(32, b"."),
        expected_peer_cn="client", clock=FIXED_CLOCK))
    return client, server


def _run(curve, pki, mode, cert_cache=None):
    """The datagrams of one loopback pair, as (sending role, bytes), and
    the pair's wire and counter digests."""
    client, server = _pair(curve, pki, mode, cert_cache)
    sent = []

    def tap(role, datagrams):
        sent.extend((role, d) for d in datagrams)
        return datagrams

    assert run_loopback(client, server, tap).established
    sealed = client.seal_app_data(PAYLOAD)
    assert server.open_app_data(sealed) == PAYLOAD
    wire = []
    for role, datagram in sent:
        wire += [role.encode(), datagram]
    wire += [repr(list(end.records.drop_counts.items())).encode()
             for end in (client, server)]
    tallies = [repr(list(end.handshake_counters.items())).encode()
               for end in (client, server)]
    return sent, (_digest(wire + [sealed]), _digest(tallies))


def _digest(fields):
    """SHA-256 over each field, its length before it."""
    h = hashlib.sha256()
    for data in fields:
        h.update(len(data).to_bytes(4, "big") + data)
    return h.hexdigest()


@pytest.fixture(scope="module")
def transcripts():
    """(curve name, mode) -> (datagrams, (wire digest, counter digest));
    the cached runs share one fresh CertCache, so the first misses and the
    second hits."""
    out = {}
    for name in ("toy59", "secp160r1", "secp256r1"):
        curve = get_curve(name)
        pki = generate_pki(curve, b"golden-wire-pki-" + name.encode())
        out[name, "full"] = _run(curve, pki, MODE_FULL)
        cache = CertCache()
        out[name, "cached-miss"] = _run(curve, pki, MODE_CACHED, cache)
        out[name, "cached-hit"] = _run(curve, pki, MODE_CACHED, cache)
    return out


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_transcript_digest(transcripts, key):
    # the wire digest
    assert transcripts[key][1][0] == GOLDEN_DIGESTS[key][0]


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_counter_digest(transcripts, key):
    assert transcripts[key][1][1] == GOLDEN_DIGESTS[key][1]


def test_toy59_full_datagrams(transcripts):
    sent = [(role, d.hex()) for role, d in transcripts["toy59", "full"][0]]
    assert sent == TOY59_FULL_DATAGRAMS

"""One whole loopback transcript, checked with `cryptography` alone.

The differential tests check each primitive against `cryptography`; this
file checks how the handshake composes them, which only this package's own
peer checks elsewhere, so a bug that both ends share would pass there.  One
full-mode pair runs per curve with its datagrams captured.  Then, with its
own record and handshake parsers, `cryptography`'s ECDH, ECDSA, HMAC and
AES-GCM, and a TLS PRF of its own, the check:
- recomputes the premaster from the client's ephemeral scalar and the
  server's ServerKeyExchange point, and from it the master secret and the
  key block (RFC 5246 §5, §6.3, §8.1);
- verifies the ServerKeyExchange signature over both randoms and the ECDH
  parameters (RFC 4492 §5.4), and the CertificateVerify signature over the
  transcript (RFC 5246 §7.4.8), each under the leaf `cryptography` parses;
- decrypts every epoch-1 record, nonce salt || explicit and AAD seq_num ||
  type || version || length (RFC 5288 §3, RFC 6347 §4.1.2.1), the
  Finished and one application-data record each way among them;
- recomputes both verify_data values (RFC 5246 §7.4.9).
The transcript is every handshake message from the second ClientHello on:
RFC 6347 §4.2.1 leaves out the first ClientHello and the
HelloVerifyRequest.  A transcript that wrongly keeps the first ClientHello
must fail the transcript checks, which shows they can tell.

The file skips when `cryptography` is not installed.
"""

import pytest

from ecdtls.credentials import generate_pki
from ecdtls.curve import get_curve
from ecdtls.handshake import MODE_FULL, HandshakeSession, SessionConfig
from ecdtls.transport import run_loopback

ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
hashes = pytest.importorskip("cryptography.hazmat.primitives.hashes")
hmac = pytest.importorskip("cryptography.hazmat.primitives.hmac")
serialization = pytest.importorskip(
    "cryptography.hazmat.primitives.serialization")
AESGCM = pytest.importorskip(
    "cryptography.hazmat.primitives.ciphers.aead").AESGCM
cx509 = pytest.importorskip("cryptography.x509")
InvalidSignature = pytest.importorskip(
    "cryptography.exceptions").InvalidSignature

CURVES = {"secp192r1": ec.SECP192R1, "secp224r1": ec.SECP224R1,
          "secp256r1": ec.SECP256R1}
CLOCK = lambda: 1754784000.0  # inside the fixture certificates' validity
APP_DATA = {"client": b"ping from the client", "server": b"pong"}

# handshake types (RFC 5246 §7.4, RFC 6347 §4.3.2)
CLIENT_HELLO, SERVER_HELLO, HELLO_VERIFY_REQUEST = 1, 2, 3
CERTIFICATE, SERVER_KEY_EXCHANGE, CERTIFICATE_VERIFY = 11, 12, 15
CLIENT_KEY_EXCHANGE, FINISHED = 16, 20
HANDSHAKE, APPLICATION_DATA = 22, 23


def prf(secret: bytes, label: bytes, seed: bytes, n: int) -> bytes:
    """P_SHA256(secret, label || seed) cut to n bytes (RFC 5246 §5)."""
    def mac(data):
        h = hmac.HMAC(secret, hashes.SHA256())
        h.update(data)
        return h.finalize()

    seed = label + seed
    out, a = b"", seed
    while len(out) < n:
        a = mac(a)
        out += mac(a + seed)
    return out[:n]


def sha256(data: bytes) -> bytes:
    h = hashes.Hash(hashes.SHA256())
    h.update(data)
    return h.finalize()


def records(datagram: bytes):
    """(type, epoch, seq_num, body) of each record: a 13-byte header of
    type, version fe fd, epoch and 48-bit sequence number, length."""
    while datagram:
        assert datagram[1:3] == b"\xfe\xfd"
        length = int.from_bytes(datagram[11:13], "big")
        yield datagram[0], int.from_bytes(datagram[3:5], "big"), \
            datagram[3:11], datagram[13:13 + length]
        datagram = datagram[13 + length:]


def message(raw: bytes):
    """(type, body) of one unfragmented handshake message, whose 12-byte
    header carries the length twice, the message_seq and offset 0."""
    length = int.from_bytes(raw[1:4], "big")
    assert raw[6:9] == b"\0\0\0" and raw[9:12] == raw[1:4]
    assert len(raw) == 12 + length
    return raw[0], raw[12:]


def vector(data: bytes, width: int) -> bytes:
    """The contents of a vector with a width-byte length prefix."""
    return data[width:width + int.from_bytes(data[:width], "big")]


def leaf_key(certificate_body: bytes):
    """The public key of the first certificate of a Certificate body."""
    der = vector(vector(certificate_body, 3), 3)
    return cx509.load_der_x509_certificate(der).public_key()


def verify(key, der: bytes, data: bytes) -> bool:
    try:
        key.verify(der, data, ec.ECDSA(hashes.SHA256()))
    except InvalidSignature:
        return False
    return True


def capture(name: str):
    """An established full-mode pair's datagrams as (sender, datagram), one
    application-data record each way included, and the pair."""
    curve = get_curve(name)
    pki = generate_pki(curve, b"transcript-pki-" + name.encode())
    ends = {role: HandshakeSession(SessionConfig(
        role=role, curve=curve, own_cert_der=party.cert_der,
        own_key_d=party.key.d, ca_der=pki.ca_der, mode=MODE_FULL,
        entropy=b"transcript-" + role.encode(), clock=CLOCK))
        for role, party in (("client", pki.client), ("server", pki.server))}
    sent = []

    def tap(role, datagrams):
        sent.extend((role, d) for d in datagrams)
        return datagrams

    assert run_loopback(ends["client"], ends["server"], tap).established
    for role, peer in (("client", "server"), ("server", "client")):
        datagram = ends[role].seal_app_data(APP_DATA[role])
        assert ends[peer].open_app_data(datagram) == APP_DATA[role]
        sent.append((role, datagram))
    return sent, ends


def check(sent, client_d: int, curve, keep_first_hello: bool = False
          ) -> tuple:
    """({check: whether it held}, the plaintexts of the epoch-1 records as
    (sender, type, plaintext))."""
    epoch0 = [(role, raw) for role, datagram in sent
              for ctype, epoch, _, raw in records(datagram)
              if (ctype, epoch) == (HANDSHAKE, 0)]
    assert [message(raw)[0] for _, raw in epoch0[:3]] == \
        [CLIENT_HELLO, HELLO_VERIFY_REQUEST, CLIENT_HELLO]
    hashed = epoch0[:1] + epoch0[2:] if keep_first_hello else epoch0[2:]
    bodies = {}   # (sender, type) -> body
    for role, raw in epoch0[2:]:
        msg_type, body = message(raw)
        assert (role, msg_type) not in bodies
        bodies[role, msg_type] = body
    client_random = bodies["client", CLIENT_HELLO][2:34]
    server_random = bodies["server", SERVER_HELLO][2:34]
    server_leaf = leaf_key(bodies["server", CERTIFICATE])
    client_leaf = leaf_key(bodies["client", CERTIFICATE])

    # ServerKeyExchange: ECParameters and the point, then 04 03 and the
    # signature over client_random || server_random || params
    ske = bodies["server", SERVER_KEY_EXCHANGE]
    params = ske[:4 + ske[3]]
    assert ske[len(params):len(params) + 2] == b"\x04\x03"
    results = {"ske": verify(server_leaf, vector(ske[len(params) + 2:], 2),
                             client_random + server_random + params)}

    # ECDHE: the client's scalar against the server's point gives the
    # premaster, and d*G is the point the client sent
    own = ec.derive_private_key(client_d, curve())
    results["client_point"] = own.public_key().public_bytes(
        serialization.Encoding.X962,
        serialization.PublicFormat.UncompressedPoint) == \
        vector(bodies["client", CLIENT_KEY_EXCHANGE], 1)
    server_point = ec.EllipticCurvePublicKey.from_encoded_point(
        curve(), vector(params[3:], 1))
    premaster = own.exchange(ec.ECDH(), server_point)
    master = prf(premaster, b"master secret", client_random + server_random,
                 48)
    block = prf(master, b"key expansion", server_random + client_random, 40)
    keys = {"client": (block[0:16], block[32:36]),
            "server": (block[16:32], block[36:40])}

    # CertificateVerify: the transcript up to it, signed by the client leaf
    transcript = b"".join(raw for _, raw in hashed
                          if message(raw)[0] != CERTIFICATE_VERIFY)
    results["certificate_verify"] = verify(
        client_leaf, vector(bodies["client", CERTIFICATE_VERIFY][2:], 2),
        transcript)
    transcript = b"".join(raw for _, raw in hashed)

    # epoch 1: each record decrypted under its sender's write key
    plaintexts = []
    for role, datagram in sent:
        for ctype, epoch, seq_num, body in records(datagram):
            if epoch != 1:
                continue
            key, salt = keys[role]
            explicit, sealed = body[:8], body[8:]
            aad = seq_num + bytes([ctype]) + b"\xfe\xfd" + \
                (len(sealed) - 16).to_bytes(2, "big")
            plaintexts.append((role, ctype, AESGCM(key).decrypt(
                salt + explicit, sealed, aad)))
    finished = {role: text for role, ctype, text in plaintexts
                if ctype == HANDSHAKE}
    for role in ("client", "server"):
        fin_type, verify_data = message(finished[role])
        assert fin_type == FINISHED
        results[role + "_finished"] = verify_data == prf(
            master, role.encode() + b" finished", sha256(transcript), 12)
        transcript += finished[role]   # the server's covers the client's
    return results, plaintexts


@pytest.fixture(scope="module", params=sorted(CURVES))
def transcript(request):
    sent, ends = capture(request.param)
    return sent, ends, CURVES[request.param]


def test_whole_transcript_checks_out(transcript):
    sent, ends, curve = transcript
    results, plaintexts = check(sent, ends["client"].eph_key.d, curve)
    assert results == dict.fromkeys(results, True)
    assert set(results) == {"ske", "client_point", "certificate_verify",
                            "client_finished", "server_finished"}
    assert [(role, text) for role, ctype, text in plaintexts
            if ctype == APPLICATION_DATA] == list(APP_DATA.items())


def test_a_transcript_with_the_first_client_hello_fails(transcript):
    sent, ends, curve = transcript
    results, _ = check(sent, ends["client"].eph_key.d, curve,
                       keep_first_hello=True)
    assert results == {"ske": True, "client_point": True,
                       "certificate_verify": False, "client_finished": False,
                       "server_finished": False}

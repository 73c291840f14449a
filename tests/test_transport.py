import threading

import pytest

from ecdtls.credentials import generate_pki
from ecdtls.handshake import HandshakeSession, SessionConfig
from ecdtls.transport import UdpEndpoint, run_loopback, run_udp_handshake

FIXED_CLOCK = lambda: 1754784000.0


def session_pair(curve, pki):
    client = HandshakeSession(SessionConfig(
        role="client", curve=curve, own_cert_der=pki.client.cert_der,
        own_key_d=pki.client.key.d, ca_der=pki.ca_der,
        entropy=b"u" * 32, clock=FIXED_CLOCK))
    server = HandshakeSession(SessionConfig(
        role="server", curve=curve, own_cert_der=pki.server.cert_der,
        own_key_d=pki.server.key.d, ca_der=pki.ca_der,
        entropy=b"v" * 32, clock=FIXED_CLOCK))
    return client, server


@pytest.fixture(scope="module")
def toy_pki(toy):
    return generate_pki(toy, b"transport-pki" * 3)


def test_udp_handshake_matches_loopback_transcript(toy, toy_pki):
    # loopback reference
    lc, ls = session_pair(toy, toy_pki)
    assert run_loopback(lc, ls).established
    loopback_digest = lc.transcript.digest()

    # same seeds over localhost UDP
    uc, us = session_pair(toy, toy_pki)
    server_ep = UdpEndpoint(("127.0.0.1", 0))
    client_ep = UdpEndpoint(("127.0.0.1", 0), server_ep.address)

    server_ok = []

    def serve():
        server_ok.append(run_udp_handshake(us, server_ep))

    thread = threading.Thread(target=serve)
    thread.start()
    client_ok = run_udp_handshake(uc, client_ep)
    thread.join(timeout=30)
    server_ep.close()
    client_ep.close()

    assert client_ok and server_ok == [True]
    assert uc.transcript.digest() == loopback_digest
    assert bytes(uc.security.master_secret) == bytes(lc.security.master_secret)


def test_udp_app_data(toy, toy_pki):
    uc, us = session_pair(toy, toy_pki)
    server_ep = UdpEndpoint(("127.0.0.1", 0))
    client_ep = UdpEndpoint(("127.0.0.1", 0), server_ep.address)

    def serve():
        if run_udp_handshake(us, server_ep):
            datagrams = server_ep.receive()
            for d in datagrams:
                payload = us.open_app_data(d)
                if payload is not None:
                    server_ep.send([us.seal_app_data(payload)])

    thread = threading.Thread(target=serve)
    thread.start()
    ok = run_udp_handshake(uc, client_ep)
    assert ok
    client_ep.send([uc.seal_app_data(b"over the wire")])
    back = client_ep.receive()
    thread.join(timeout=30)
    server_ep.close()
    client_ep.close()
    assert any(uc.open_app_data(d) == b"over the wire" for d in back)

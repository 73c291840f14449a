import threading

import pytest

from ecdtls.credentials import generate_pki
from ecdtls.handshake import HandshakeSession, SessionConfig, State
from ecdtls.transport import (MAX_UDP_DATAGRAMS, UdpEndpoint, run_loopback,
                              run_udp_handshake)

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


class PackingEndpoint(UdpEndpoint):
    """Sends each flight packed into one datagram, as OpenSSL does."""

    def send(self, datagrams):
        super().send([b"".join(datagrams)] if datagrams else [])


def test_udp_handshake_with_packed_server_flights(toy, toy_pki):
    lc, ls = session_pair(toy, toy_pki)
    assert run_loopback(lc, ls).established

    uc, us = session_pair(toy, toy_pki)
    server_ep = PackingEndpoint(("127.0.0.1", 0), timeout=5.0)
    client_ep = UdpEndpoint(("127.0.0.1", 0), server_ep.address, timeout=5.0)
    server_ok = []
    thread = threading.Thread(
        target=lambda: server_ok.append(run_udp_handshake(us, server_ep)))
    thread.start()
    try:
        client_ok = run_udp_handshake(uc, client_ep)
    finally:
        thread.join(timeout=30)
        server_ep.close()
        client_ep.close()

    assert client_ok and server_ok == [True]
    assert uc.transcript.digest() == lc.transcript.digest()
    assert bytes(uc.security.master_secret) == bytes(lc.security.master_secret)


def test_udp_app_data(toy, toy_pki):
    uc, us = session_pair(toy, toy_pki)
    server_ep = UdpEndpoint(("127.0.0.1", 0))
    client_ep = UdpEndpoint(("127.0.0.1", 0), server_ep.address)

    def serve():
        if run_udp_handshake(us, server_ep):
            payload = us.open_app_data(server_ep.receive())
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
    assert uc.open_app_data(back) == b"over the wire"


def test_udp_handshake_gives_up_on_a_junk_peer(toy, toy_pki):
    # a peer that sends only junk ends the handshake after a bounded number
    # of datagrams; the short timeout turns a hang into a failure
    _, server = session_pair(toy, toy_pki)
    server_ep = UdpEndpoint(("127.0.0.1", 0), timeout=2.0)
    junk_ep = UdpEndpoint(("127.0.0.1", 0), server_ep.address)
    try:
        junk_ep.send([b"junk %d" % i for i in range(2 * MAX_UDP_DATAGRAMS)])
        assert not run_udp_handshake(server, server_ep)
    finally:
        server_ep.close()
        junk_ep.close()
    assert server.state is State.INIT
    assert server.records.drop_counts == {"malformed": MAX_UDP_DATAGRAMS}

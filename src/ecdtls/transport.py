"""Transport bindings: an in-memory loopback driver and a UDP endpoint.

Loopback runs both state machines in one thread of control, stepping them
alternately and handing each the peer's whole last flight; an optional
interceptor sees every flight and may tamper with or drop datagrams (the
adversarial-harness hook).  The UDP driver steps its session once per
datagram received: the session buffers a flight until it is whole, so
neither driver counts records.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .handshake import HandshakeSession

Interceptor = Callable[[str, List[bytes]], List[bytes]]

MAX_LOOPBACK_ITERATIONS = 16
MAX_UDP_DATAGRAMS = 16  # a handshake reads 8 at most; the rest is for strays


class LoopbackResult:
    def __init__(self, client: HandshakeSession, server: HandshakeSession,
                 iterations: int):
        self.client = client
        self.server = server
        self.iterations = iterations

    @property
    def established(self) -> bool:
        return self.client.established and self.server.established


def run_loopback(client: HandshakeSession, server: HandshakeSession,
                 interceptor: Optional[Interceptor] = None
                 ) -> LoopbackResult:
    """Alternate client/server steps until both establish, either fails, or
    progress stalls."""
    to_server: List[bytes] = []
    to_client: List[bytes] = []
    iterations = 0
    while iterations < MAX_LOOPBACK_ITERATIONS:
        iterations += 1
        progressed = False

        if not (client.established or client.failed) or to_client:
            out = client.client_step(to_client)
            to_client = []
            if out:
                progressed = True
                if interceptor is not None:
                    out = interceptor("client", out)
                to_server.extend(out)

        if not (server.established or server.failed) or to_server:
            out = server.server_step(to_server)
            to_server = []
            if out:
                progressed = True
                if interceptor is not None:
                    out = interceptor("server", out)
                to_client.extend(out)

        if client.established and server.established:
            break
        if client.failed or server.failed:
            # one more half-step lets a pending alert reach the peer
            if to_client:
                client.client_step(to_client)
                to_client = []
            if to_server:
                server.server_step(to_server)
                to_server = []
            break
        if not progressed:
            break
    return LoopbackResult(client, server, iterations)


class UdpEndpoint:
    """Minimal datagram pipe to one peer over localhost UDP."""

    def __init__(self, bind_addr: Tuple[str, int],
                 peer_addr: Optional[Tuple[str, int]] = None,
                 timeout: float = 10.0):
        import socket  # here, so loopback users never load it
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(bind_addr)
        self.sock.settimeout(timeout)
        self.peer_addr = peer_addr

    @property
    def address(self) -> Tuple[str, int]:
        return self.sock.getsockname()

    def send(self, datagrams: List[bytes]) -> None:
        for d in datagrams:
            self.sock.sendto(d, self.peer_addr)

    def receive(self) -> bytes:
        """Block for the next datagram."""
        data, addr = self.sock.recvfrom(65535)
        if self.peer_addr is None:
            self.peer_addr = addr
        return data

    def close(self) -> None:
        self.sock.close()


def run_udp_handshake(session: HandshakeSession,
                      endpoint: UdpEndpoint) -> bool:
    """Drive one role of the handshake over UDP until it terminates, or
    until it has read MAX_UDP_DATAGRAMS datagrams."""
    step = session.client_step if session.role == "client" else \
        session.server_step
    endpoint.send(step([]))
    for _ in range(MAX_UDP_DATAGRAMS):
        if session.established or session.failed:
            break
        endpoint.send(step([endpoint.receive()]))
    return session.established

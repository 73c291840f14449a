"""Transport bindings: an in-memory loopback driver and a UDP endpoint.

Both drivers only move datagrams; each session buffers messages until its
flight is whole.  Loopback steps the two sessions in turn until no datagram
is in flight; an optional interceptor sees each step's output and may
tamper with, drop, reorder or repack datagrams (the adversarial-harness
hook).  The UDP driver steps its session once per datagram received.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
    """The client opens; then each round steps each end that has datagrams
    waiting, until none has or MAX_LOOPBACK_ITERATIONS rounds have run."""
    steps = {"client": client.client_step, "server": server.server_step}
    waiting: Dict[str, List[bytes]] = {"client": [], "server": []}

    def step(role: str, datagrams: List[bytes]) -> None:
        out = steps[role](datagrams)
        if out and interceptor is not None:
            out = interceptor(role, out)
        waiting["server" if role == "client" else "client"] += out

    step("client", [])
    iterations = 0
    while any(waiting.values()) and iterations < MAX_LOOPBACK_ITERATIONS:
        iterations += 1
        for role in ("client", "server"):
            if waiting[role]:
                datagrams, waiting[role] = waiting[role], []
                step(role, datagrams)
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

"""The in-memory loopback driver.

It only moves datagrams; each session buffers messages until its flight is
whole.  It steps the two sessions in turn until no datagram is in flight or
MAX_LOOPBACK_ITERATIONS rounds have run; an optional interceptor sees each
step's output and may tamper with, drop, reorder or repack datagrams (the
adversarial-harness hook).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .handshake import HandshakeSession

Interceptor = Callable[[str, List[bytes]], List[bytes]]

MAX_LOOPBACK_ITERATIONS = 16


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

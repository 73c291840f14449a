"""The benchmark's workloads, driven through the public ecdtls API.

Traffic is in-memory loopback datagrams in one process and thread: a closed
loop with one client and one server stepped alternately, so each request
starts only when the previous one has finished.  See README.md for why each
workload exists.

A workload repeats a fixed round of requests until its time is up.  There
are three kinds of request: a handshake on fresh sessions, a batch of 64 B
echoes and one 16 KiB echo, the echoes on the session established in
set-up.  A round is mostly the kind its workload targets.  It holds the
other kinds only because every workload reports every end-to-end metric.

Every timed sample is the thread's CPU time, scaled by the machine's pace
(see pace.py).  Every
input comes from the workload seed: the PKI, the session entropy, the
payloads and the schedule of injected replays and forgeries, each from its
own generator.  Certificate checks use a fixed clock inside the fixture
validity window.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ecdtls import credentials, energy
from ecdtls.counters import OpCounters
from ecdtls.curve import builtin_registry
from ecdtls.handshake import (MODE_CACHED, MODE_FULL, HandshakeError,
                              HandshakeSession, SessionConfig)
from ecdtls.record import DROP_AUTH_FAIL, DROP_REPLAY, HEADER_LEN, \
    MAX_PLAINTEXT
from ecdtls.scalarmult import CombCache
from ecdtls.transport import run_loopback
from ecdtls.x509 import CertCache

from pace import Pace

CURVE = "secp256r1"
SETUP_REPS = 3            # set-ups per run; setup_s takes their median
SMALL_BATCH = 256         # 64 B echoes per "small" request
SMALL = 64                # bytes: per-record cost dominates
LARGE = MAX_PLAINTEXT     # 16 KiB: per-byte cost dominates
FORGE_SHARE = 1 / 16      # small records also delivered as a forgery first
REPLAY_SHARE = 1 / 16     # small records delivered a second time
AEAD_OVERHEAD = 8 + 16    # explicit nonce and GCM tag in an epoch > 0 record

FIXED_NOW = (credentials.NOT_BEFORE + credentials.NOT_AFTER) // 2

# Samples are the thread's CPU time: this loop is single-threaded and does
# no I/O, so that is its wall time less the spells in which another process
# had the CPU, which otherwise set the tail of the 64 B records.
_clock = time.thread_time


@dataclass(frozen=True)
class Workload:
    mode: str                      # the client's handshake mode
    warm: bool                     # caches kept across handshakes
    round: Tuple[str, ...]         # the requests of one round, in order
    traced: Tuple[str, ...]        # kinds the traced run traces

    @property
    def per_handshake(self) -> bool:
        return self.traced == ("handshake",)


# A round takes 4 to 5 s on a 2.1 GHz Xeon vCPU.  On hs-* the records take
# a fifth of it, and on appdata-echo the handshakes take half: enough
# samples of each kind in a 20 s run to hold its metrics steady.
WORKLOADS = {
    "hs-full-cold": Workload(
        MODE_FULL, warm=False,
        round=("handshake",) * 4 + ("small", "large", "large"),
        traced=("handshake",)),
    "hs-cached-warm": Workload(
        MODE_CACHED, warm=True,
        round=("handshake",) * 6 + ("small", "large", "large"),
        traced=("handshake",)),
    # records do no ECC work, so the traced run also traces the handshake:
    # every layer then has measured time instead of a constant 0
    "appdata-echo": Workload(
        MODE_FULL, warm=False,
        round=("small", "large", "large", "large", "large", "handshake",
               "handshake"),
        traced=("handshake", "small", "large")),
}


def stream(seed: int, purpose: str) -> random.Random:
    """An independent deterministic generator per purpose."""
    return random.Random("ecdtls-bench/%d/%s" % (seed, purpose))


# ---------------------------------------------------------------------------
# Fixture: one set-up of a workload


class Handshake:
    def __init__(self, ok: bool, seconds: float,
                 client: Optional[HandshakeSession],
                 server: Optional[HandshakeSession], iterations: int,
                 reason: Optional[str]):
        self.ok = ok
        self.seconds = seconds
        self.client = client
        self.server = server
        self.iterations = iterations
        self.reason = reason


class Fixture:
    """PKI, energy model, caches and generators of one run."""

    def __init__(self, workload: Workload, seed: int, curve: str,
                 model: energy.EnergyModel):
        self.workload = workload
        self.curve = builtin_registry().get(curve)
        self.pki = credentials.generate_pki(
            self.curve, stream(seed, "pki").randbytes(32))
        self.model = model
        self.entropy = stream(seed, "sessions")
        self.payloads = {SMALL: stream(seed, "payloads-small"),
                         LARGE: stream(seed, "payloads-large")}
        self.injections = stream(seed, "injections")
        warm = workload.warm
        self.client_comb = CombCache() if warm else None
        self.client_certs = CertCache() if warm else None
        self.server_comb = CombCache() if warm else None
        self.server_certs = CertCache() if warm else None

    def clock(self) -> float:
        return float(FIXED_NOW)

    def handshake(self, interceptor=None) -> Handshake:
        """One mutual-auth handshake; the time runs from session
        construction until both ends are established."""
        pki = self.pki
        entropy = self.entropy.randbytes(64)
        t0 = _clock()
        try:
            client = HandshakeSession(SessionConfig(
                role="client", curve=self.curve,
                own_cert_der=pki.client.cert_der,
                own_key_d=pki.client.key.d, ca_der=pki.ca_der,
                mode=self.workload.mode, entropy=entropy[:32],
                expected_peer_cn=credentials.SERVER_CN,
                comb_cache=self.client_comb, cert_cache=self.client_certs,
                clock=self.clock))
            server = HandshakeSession(SessionConfig(
                role="server", curve=self.curve,
                own_cert_der=pki.server.cert_der,
                own_key_d=pki.server.key.d, ca_der=pki.ca_der,
                mode=MODE_FULL, entropy=entropy[32:],
                expected_peer_cn=credentials.CLIENT_CN,
                comb_cache=self.server_comb, cert_cache=self.server_certs,
                clock=self.clock))
            result = run_loopback(client, server, interceptor)
        except HandshakeError as exc:
            # known defect: a step can raise out of run_loopback
            return Handshake(False, _clock() - t0, None, None, 0,
                             "raised: %s" % exc)
        seconds = _clock() - t0
        ok = result.established and \
            client.security.master_secret == server.security.master_secret
        reason = None if ok else "%s / %s" % (client.failure_reason,
                                              server.failure_reason)
        return Handshake(ok, seconds, client, server, result.iterations,
                         reason)


def set_up(workload: Workload, seed: int, curve: str, pace: Pace):
    """The energy-model fit, then PKI and a warm-up handshake SETUP_REPS
    times.  The warm-up handshake fills the caches of hs-cached-warm and is
    the session every workload echoes on.  The model is fitted once per
    process, so the first call pays for it.  Returns the last fixture, its
    handshake, and the time of the fit and of each repetition, each part
    scaled by the pace marked around it."""
    t0 = _clock()
    model = energy.default_model()
    fit_s = _clock() - t0
    fit_s *= pace.scale(fit_s)
    times = []
    for _ in range(SETUP_REPS):
        t0 = _clock()
        fixture = Fixture(workload, seed, curve, model)
        pki_s = _clock() - t0
        pki_s *= pace.scale(pki_s)
        link = fixture.handshake()
        times.append(pki_s + link.seconds * pace.scale(link.seconds))
        if not link.ok:
            raise RuntimeError("set-up handshake failed: %s" % link.reason)
    return fixture, link, (fit_s, times)


# ---------------------------------------------------------------------------
# Tallies


@dataclass
class Tally:
    """What a run attempted, what failed, and its scaled samples."""

    handshakes: int = 0
    handshakes_failed: int = 0
    handshake_s: List[float] = field(default_factory=list)
    handshake_uJ: List[float] = field(default_factory=list)
    records: int = 0
    records_failed: int = 0
    small_s: List[float] = field(default_factory=list)
    large_s: List[float] = field(default_factory=list)
    large_bytes: int = 0
    large_client: OpCounters = field(default_factory=OpCounters)
    scales: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    # what crossed the wire, and loopback rounds
    datagrams: int = 0
    wire_bytes: int = 0
    overhead_bytes: int = 0
    loopback_iterations: int = 0

    @property
    def failed(self) -> int:
        return self.handshakes_failed + self.records_failed

    @property
    def attempted(self) -> int:
        return self.handshakes + self.records

    def add(self, other: "Tally") -> None:
        """Sum the attempt and failure counts of other into self."""
        self.handshakes += other.handshakes
        self.handshakes_failed += other.handshakes_failed
        self.records += other.records
        self.records_failed += other.records_failed
        self.failures += other.failures


def record_overhead(datagram: bytes) -> int:
    """Header plus AEAD bytes of one single-record datagram."""
    epoch = int.from_bytes(datagram[3:5], "big")
    return HEADER_LEN + (AEAD_OVERHEAD if epoch else 0)


class CountingInterceptor:
    """Passes every flight through unchanged, counting what crosses."""

    def __init__(self, tally: Tally):
        self.tally = tally

    def __call__(self, role: str, datagrams: List[bytes]) -> List[bytes]:
        for d in datagrams:
            self.tally.datagrams += 1
            self.tally.wire_bytes += len(d)
            self.tally.overhead_bytes += record_overhead(d)
        return datagrams


# ---------------------------------------------------------------------------
# Requests


def _forge(datagram: bytes, where: float) -> bytes:
    """Flip one bit of the record body (nonce, ciphertext or tag)."""
    bit = HEADER_LEN * 8 + int(where * (len(datagram) - HEADER_LEN) * 8)
    forged = bytearray(datagram)
    forged[bit // 8] ^= 1 << (bit % 8)
    return bytes(forged)


def deliver(fixture: Fixture, sender: HandshakeSession,
            receiver: HandshakeSession, payload: bytes, tally: Tally,
            tracer=None) -> Tuple[Optional[bytes], float]:
    """Seal on one end and open on the other; a small record may get a
    seeded forgery delivered before it or a replay delivered after it.
    Checks the outcome of each copy.  Returns the genuine plaintext as
    opened and the time of its seal and open; the injected copy is not
    timed."""
    injected = None  # the drop reason the injected copy must get
    if len(payload) == SMALL:
        draw, where = fixture.injections.random(), fixture.injections.random()
        if draw < FORGE_SHARE:
            injected = DROP_AUTH_FAIL
        elif draw < FORGE_SHARE + REPLAY_SHARE:
            injected = DROP_REPLAY
    if tracer is not None:
        tracer.request("record-%d" % tally.records)
    drops_before = dict(receiver.records.drop_counts)
    t0 = _clock()
    datagram = sender.seal_app_data(payload)
    t1 = _clock()
    copy = None
    if injected == DROP_AUTH_FAIL:
        copy = _forge(datagram, where)
        forged = receiver.open_app_data(copy)
    t2 = _clock()
    opened = receiver.open_app_data(datagram)
    t3 = _clock()
    if injected == DROP_REPLAY:
        copy = datagram
        forged = receiver.open_app_data(copy)

    tally.records += 1
    copies = [datagram] if copy is None else [datagram, copy]
    tally.datagrams += len(copies)
    tally.wire_bytes += sum(len(d) for d in copies)
    tally.overhead_bytes += len(datagram) - len(payload)
    drops = {reason: n - drops_before.get(reason, 0)
             for reason, n in receiver.records.drop_counts.items()
             if n != drops_before.get(reason, 0)}
    problems = []
    if opened != payload:
        problems.append("genuine record lost or corrupted")
    if copy is not None and forged is not None:
        problems.append("injected copy accepted")
    expected = {injected: 1} if injected else {}
    if drops != expected:
        problems.append("drops %r, expected %r" % (drops, expected))
    if problems:
        tally.records_failed += 1
        tally.failures.append("record: " + "; ".join(problems))
    return opened, (t1 - t0) + (t3 - t2)


def echo(fixture: Fixture, link: Handshake, size: int, tally: Tally,
         pace: Pace, tracer=None) -> None:
    """Client sends a payload and the server echoes what it opened.  Each
    direction checks its genuine record, so the echo comes back byte-equal
    exactly when both records pass.  Each record's time is scaled by the
    pace marked around it."""
    payload = fixture.payloads[size].randbytes(size)
    client, server = link.client, link.server
    samples = tally.small_s if size == SMALL else tally.large_s
    before = client.session_counters if size == LARGE else None
    for sender, receiver in ((client, server), (server, client)):
        opened, seconds = deliver(fixture, sender, receiver, payload, tally,
                                  tracer)
        payload = payload if opened is None else opened
        scale = pace.scale(seconds)
        tally.scales.append(scale)
        samples.append(seconds * scale)
    if size == LARGE:
        tally.large_client += client.session_counters.diff(before)
        tally.large_bytes += 2 * size


def request(kind: str, fixture: Fixture, link: Handshake, tally: Tally,
            pace: Pace, tracer=None,
            interceptor=None) -> Optional[Handshake]:
    """Run one request of a kind; a handshake is returned to the caller."""
    if kind == "handshake":
        hs = fixture.handshake(interceptor)
        scale = pace.scale(hs.seconds)
        tally.scales.append(scale)
        tally.handshakes += 1
        if hs.ok:
            tally.handshake_s.append(hs.seconds * scale)
            tally.handshake_uJ.append(fixture.model.estimate(
                hs.client.handshake_counters).total * 1e6)
        else:
            tally.handshakes_failed += 1
            tally.failures.append("handshake: %s" % hs.reason)
        return hs
    size, echoes = (SMALL, SMALL_BATCH) if kind == "small" else (LARGE, 1)
    for _ in range(echoes):
        echo(fixture, link, size, tally, pace, tracer)
    return None


# ---------------------------------------------------------------------------
# End-to-end metrics


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: List[float]) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100)[98]


def end_to_end(tally: Tally, setup: tuple, fixture: Fixture,
               peak_rss_MiB: float) -> dict:
    """name -> (value, unit) for the eleven end-to-end metrics.  setup_s is
    the fit plus the median set-up repetition."""
    hs = tally.handshake_s
    fit_s, reps = setup
    large_J = fixture.model.estimate(tally.large_client).total
    return {
        "setup_s": (fit_s + statistics.median(reps), "s"),
        "peak_rss_MiB": (peak_rss_MiB, "MiB"),
        "handshake_ms.p50": (_median(hs) * 1e3, "ms"),
        "handshakes_per_s": (len(hs) / sum(hs) if hs else 0.0, "1/s"),
        "handshake_uJ": (statistics.fmean(tally.handshake_uJ)
                         if tally.handshake_uJ else 0.0, "uJ"),
        "handshake_fail_ratio": (tally.handshakes_failed
                                 / max(tally.handshakes, 1), "ratio"),
        "record_ms.p50.small": (_median(tally.small_s) * 1e3, "ms"),
        "record_ms.p99.small": (_p99(tally.small_s) * 1e3, "ms"),
        "goodput_KiBps.large": (LARGE / 1024 / _median(tally.large_s)
                                if tally.large_s else 0.0, "KiB/s"),
        "appdata_nJ_per_B": (large_J * 1e9 / max(tally.large_bytes, 1),
                             "nJ/B"),
        "record_fail_ratio": (tally.records_failed
                              / max(tally.records, 1), "ratio"),
    }

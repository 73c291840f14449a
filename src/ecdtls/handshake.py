"""DTLS 1.2 mutual-authentication handshake driven by one flight table.

Between step calls a session rests in a `State`.  `_FLIGHTS` maps each
(role, resting state) to the flight awaited there (RFC 6347 §4.2.4): its
handler, its handshake types in `message_seq` order, and the state the
handler reaches.  Both roles await the peer's Finished in FINISHED_WAIT.

A step takes each datagram's records from `RecordLayer.read`.  It files a
handshake message (RFC 6347 §4.2.2), the first copy only, if its
`message_seq` lies in the awaited flight, its type is the one the table
names there, and its record's epoch is the flight's: 0 until this end has
keys, then 1.  Read epoch 1 starts, and the records held for it are filed,
once the keys and a ChangeCipherSpec with body 01 are both in.  An invalid
epoch-0 record, a ChangeCipherSpec with another body among them, is dropped
(§4.1.2.7).  Only a fatal alert, two bytes with level 2, aborts, at once
and unanswered; any other alert is dropped at either epoch (RFC 5246 §7.2).
A handler encodes nothing: it queues (epoch, content type, payload), and
the step encodes the queue in one loop at its end, after any abort, then
snapshots `handshake_counters`, so a server's own Finished seal is counted.

A server in INIT keeps no state for an unverified ClientHello (§4.2.1): it
files a hello only if its cookie verifies, and answers any other at once
with a HelloVerifyRequest, changing nothing.  So a forged hello neither
moves nor fails it, and a re-sent one is answered again.  A flight runs
once its messages are all filed; its handler reads them through `_read`.
A protocol error moves the session to FAILED, zeroizes any derived keys and
answers with a fatal alert.  `close()` drops the keys and moves any state
but FAILED to CLOSED.  Nothing retransmits yet and fragments are refused,
so a lost record stalls the handshake; a lost HelloVerifyRequest needs
only a client that re-sends its hello.

The fixed suite is ECDHE-ECDSA with AES-128-GCM and SHA-256 transcripts.
Each secret is made an `HmacKey` once, so its pads are absorbed once: a
server's cookie key when the session is made, the premaster's and the
master secret's keys when the keys are derived, the master key then serving
the key block and both Finished PRFs.
A `SessionConfig` takes its endpoint from a process-wide store, or prepares
it once per credential: it parses the own certificate, computes Q = d*G and
refuses a key that does not match the certificate's, and parses the trust
anchor.  That runs inside `counters.isolated()`, and no session prices it: a
credential is provisioned, so a session records only its own work, and its
counters never depend on whether the store hit.  The store holds at most
`ENDPOINT_CAPACITY` endpoints, the least recently used evicted first, and
each resident endpoint's `KeyPair`, its private scalar included, until it
is evicted.  Its key is a SHA-256 digest of the curve, scalar and both
certificates, so no secret is a dict key and no entry serves a config that
differs in any of them.
Each multiplication is priced by where its base's comb table lives (see
`scalarmult`).  G and the trust anchor's key are resident: their tables are
provisioned with the credential, so they walk only, and no session prices
them.  Each session pins its anchor's key in `scalarmult`, refreshing its
recency, so certificate checks run on its process-wide fixed-base rows;
that is execution only and prices nothing.  The peer's leaf key is
one-shot, except in a cached-mode client, which keeps it: the session that
verifies a fresh leaf and caches it pays its table once, and every
signature under it walks.  The peer's ephemeral point is one-shot.
Both roles authenticate the peer through three shared helpers.
`_peer_certificate` checks the leaf, the first certificate of the peer's
chain (RFC 5246 §7.4.2), `_check_signature` a ServerKeyExchange or
CertificateVerify signature by it, and `_agree` runs ECDHE and the key
schedule.  A cached-mode client, never a server, skips the leaf check for a
certificate it verified earlier under the same anchor, inside its validity
window.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import os
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import counters, wire
from .aesgcm import AeadKey
from .curve import AffinePoint, CurveError, CurveParams, builtin_registry
from .drbg import HmacDrbg
from .ecdsa import EcdsaSignature, KeyPair, SignatureError, ecdsa_sign, \
    ecdsa_verify
from .keyagree import KeyAgreementError, ecdhe_shared
from .prf import tls_prf_sha256
from .record import (CONTENT_ALERT, CONTENT_APPDATA, CONTENT_CCS,
                     CONTENT_HANDSHAKE, DROP_OK, MAX_SEQUENCE, RecordLayer)
from .scalarmult import CombCache, comb_precompute, pin_trust_anchor
from .sha256 import HmacKey, Sha256, sha256
from .x509 import CertCache, X509Error, x509_parse, x509_verify

VERIFY_DATA_LEN = 12
MASTER_SECRET_LEN = 48
KEY_BLOCK_LEN = 40  # 16 + 16 + 4 + 4 for AES-128-GCM

ALERT_HANDSHAKE_FAILURE = 40

MODE_FULL = "full"
MODE_CACHED = "cached"

ENDPOINT_CAPACITY = 8


class HandshakeError(Exception):
    pass


class _Abort(Exception):
    """Internal: handshake must fail with this reason."""

    def __init__(self, reason: str, send_alert: bool = True):
        super().__init__(reason)
        self.reason = reason
        self.send_alert = send_alert


class State(enum.Enum):
    INIT = "INIT"
    HELLO_SENT = "HELLO_SENT"
    COOKIE_WAIT = "COOKIE_WAIT"
    HELLO_EXCHANGED = "HELLO_EXCHANGED"
    FINISHED_WAIT = "FINISHED_WAIT"
    ESTABLISHED = "ESTABLISHED"
    FAILED = "FAILED"
    CLOSED = "CLOSED"


class SecurityParams:
    """Derived key material, the master secret's `HmacKey` among it, which
    the key block and both Finished PRFs share; zeroized when the session
    fails or closes."""

    __slots__ = ("master_secret", "master_key", "client_key", "server_key",
                 "client_salt", "server_salt")

    def __init__(self, master_secret: bytes, master_key: HmacKey,
                 key_block: bytes):
        self.master_secret = bytearray(master_secret)
        self.master_key: Optional[HmacKey] = master_key
        self.client_key = bytearray(key_block[0:16])
        self.server_key = bytearray(key_block[16:32])
        self.client_salt = bytearray(key_block[32:36])
        self.server_salt = bytearray(key_block[36:40])

    def zeroize(self) -> None:
        """Wipe each key buffer and drop the master key, whose bytes Python
        cannot wipe in place."""
        for buf in (self.master_secret, self.client_key, self.server_key,
                    self.client_salt, self.server_salt):
            for i in range(len(buf)):
                buf[i] = 0
        self.master_key = None


class _Endpoint(NamedTuple):
    """What a session needs of its credential, prepared once."""
    own_key: KeyPair
    ca_subject: bytes
    ca_key: AffinePoint


_ENDPOINT_LOCK = threading.Lock()
_ENDPOINTS: Dict[bytes, _Endpoint] = {}  # least recently used first


def _endpoint(curve: CurveParams, own_key_d: int, own_cert_der: bytes,
              ca_der: bytes) -> _Endpoint:
    """The stored endpoint of a credential, refreshing its recency, or one
    prepared now and stored, evicting the stalest beyond capacity.  It is
    prepared outside the lock, so a racing build makes an equal endpoint,
    and the first stored is kept."""
    digest = hashlib.sha256()
    for field in (curve.id.encode(), b"%d" % own_key_d, own_cert_der,
                  ca_der):
        digest.update(len(field).to_bytes(4, "big") + field)
    key = digest.digest()
    with _ENDPOINT_LOCK:
        if key in _ENDPOINTS:
            endpoint = _ENDPOINTS[key] = _ENDPOINTS.pop(key)
            return endpoint
    registry = builtin_registry()
    with counters.isolated():
        try:
            cert = x509_parse(own_cert_der, registry)
            own_key = KeyPair(own_key_d, curve, Q=cert.public_key)
            ca = x509_parse(ca_der, registry)
        except (X509Error, CurveError) as exc:
            raise HandshakeError("credential refused: %s" % exc) from None
    with _ENDPOINT_LOCK:
        endpoint = _ENDPOINTS[key] = _ENDPOINTS.pop(
            key, _Endpoint(own_key, ca.subject, ca.public_key))
        while len(_ENDPOINTS) > ENDPOINT_CAPACITY:
            del _ENDPOINTS[next(iter(_ENDPOINTS))]
    return endpoint


class SessionConfig:
    """Everything one endpoint needs: role, curve, credentials, mode, seed.

    The credential is prepared once per process (see the module docstring):
    a certificate or trust anchor that does not parse, or a key that does
    not match the certificate's, curve included, raises HandshakeError
    here."""

    def __init__(self, role: str, curve: CurveParams, own_cert_der: bytes,
                 own_key_d: int, ca_der: bytes, mode: str = MODE_FULL,
                 entropy: Optional[bytes] = None,
                 expected_peer_cn: Optional[str] = None,
                 comb_cache: Optional[CombCache] = None,
                 cert_cache: Optional[CertCache] = None,
                 clock: Callable[[], float] = time.time):
        if role not in ("client", "server"):
            raise HandshakeError("role must be client or server")
        if mode not in (MODE_FULL, MODE_CACHED):
            raise HandshakeError("mode must be full or cached")
        if (role, mode) == ("server", MODE_CACHED):  # only a client caches
            raise HandshakeError("a server runs in full mode only")
        self.role = role
        self.curve = curve
        self.mode = mode
        self.own_cert_der = own_cert_der
        self.entropy = entropy if entropy is not None else os.urandom(32)
        self.expected_peer_cn = expected_peer_cn
        self.comb_cache = comb_cache if comb_cache is not None else CombCache()
        self.cert_cache = cert_cache if cert_cache is not None else CertCache()
        self.clock = clock
        self.endpoint = _endpoint(curve, own_key_d, own_cert_der, ca_der)


class HandshakeSession:
    """One endpoint of a DTLS 1.2 handshake plus its application-data phase.

    A context manager: leaving the `with` block calls `close()`, which
    bounds how long an ESTABLISHED session's keys live (a FAILED one has
    zeroized them already)."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.registry = builtin_registry()
        self.role = config.role
        self._peer = "server" if self.role == "client" else "client"
        self.state = State.INIT
        self.failure_reason: Optional[str] = None
        self.records = RecordLayer()
        self._messages: Dict[int, bytes] = {}  # message_seq -> message
        self._next_receive_seq = 0
        self._ccs = False  # the peer's ChangeCipherSpec is in
        self._out: List[tuple] = []  # (epoch, type, payload) this step sends
        self.transcript = Sha256()
        self._recorder = counters.Recorder(label="%s-session" % self.role)
        self._next_send_seq = 0
        self.security: Optional[SecurityParams] = None
        self.handshake_counters: Optional[counters.OpCounters] = None
        self.comb_cache = config.comb_cache
        self.cert_cache = config.cert_cache
        self.own_key, self.ca_subject, self.ca_key = config.endpoint
        pin_trust_anchor(self.ca_key)
        self.client_random: Optional[bytes] = None
        self.server_random: Optional[bytes] = None
        self.eph_key: Optional[KeyPair] = None
        self.peer_key: Optional[AffinePoint] = None
        self.peer_eph: Optional[AffinePoint] = None

        with self._recorder:
            self.drbg = HmacDrbg(config.entropy, self.role.encode(),
                                 b"dtls-engine " + self.role.encode())
            if self.role == "server":
                self.cookie_key = HmacKey(
                    sha256(b"cookie-secret" + config.entropy))

    # -- state plumbing -------------------------------------------------------

    @property
    def established(self) -> bool:
        return self.state is State.ESTABLISHED

    @property
    def failed(self) -> bool:
        return self.state is State.FAILED

    # -- record intake ---------------------------------------------------------

    def _file(self, datagram: bytes) -> None:
        """File each record of a datagram where the handlers look for it.
        A handshake message is filed only under a message_seq of the flight
        awaited now, with the type the flight names there, and from epoch 0
        until this end has keys, then from epoch 1 only, so a stray can
        neither fill `_messages` nor abort a read.  A server in INIT hands
        each ClientHello to `_check_cookie` instead."""
        awaited = dict(enumerate(_FLIGHTS[(self.role, self.state)].types,
                                 self._next_receive_seq))
        stateless = (self.role, self.state) == ("server", State.INIT)
        epoch = int(self.security is not None)
        for header, ctype, payload in self.records.read(datagram):
            if ctype == CONTENT_ALERT and len(payload) == 2 == payload[0]:
                raise _Abort("peer sent a fatal alert", send_alert=False)
            if ctype == CONTENT_CCS and payload == b"\x01":  # RFC 5246 §7.1
                self._ccs = True
                self._open_read_epoch()
            elif ctype == CONTENT_HANDSHAKE:
                try:
                    got, seq = wire.parse_handshake(payload)[:2]
                    if stateless and got == wire.HT_CLIENT_HELLO:
                        self._check_cookie(header.sequence, seq, payload)
                        continue
                except wire.WireError as exc:
                    if not self.records.read_epoch:
                        continue  # not authenticated, so only dropped
                    raise _Abort("bad handshake framing: %s" % exc) from None
                if (header.epoch, awaited.get(seq)) == (epoch, got):
                    self._messages.setdefault(seq, payload)

    def _check_cookie(self, record_seq: int, seq: int, msg: bytes) -> None:
        """RFC 6347 §4.2.1: until a ClientHello's cookie verifies, answer
        each from it and the cookie key alone, at message_seq 0 and its
        record sequence number.  File the first that verifies at
        message_seq 1, the client's second message (§4.2.2), and number
        this end's messages and epoch-0 records on from it.  The cookie
        covers only the client random, so one exchange always suffices: a
        client never sends a verified hello at another message_seq."""
        if self._messages:  # the verified hello is in; this step leaves INIT
            return
        hello = wire.parse_client_hello(wire.parse_handshake(msg)[2])
        cookie = self.cookie_key.mac(b"client" + hello.random)
        if not hmac.compare_digest(hello.cookie, cookie):
            answer = wire.pack_handshake(
                wire.HT_HELLO_VERIFY_REQUEST, 0,
                wire.build_hello_verify_request(cookie))
            self._out.append((0, CONTENT_HANDSHAKE, answer, record_seq))
        elif seq == 1 and record_seq <= MAX_SEQUENCE - 8:  # room to number on
            self._messages[seq] = msg
            self._next_receive_seq = self._next_send_seq = seq
            self.records.write_seq[0] = record_seq

    def _open_read_epoch(self) -> None:
        """Start read epoch 1 once the keys and the peer's ChangeCipherSpec
        are both in, then file the records held for it."""
        if self._ccs and self.security is not None and \
                not self.records.read_epoch:
            for record in self.records.start_read_epoch(
                    self._write_key(self._peer)):
                self._file(record)

    def _read(self, parse: Callable[[bytes], Any] = bytes
              ) -> Tuple[bytes, Any]:
        """The next message, of the type the flight table names: its raw
        bytes and its body run through parse.  A malformed body aborts."""
        raw = self._messages.pop(self._next_receive_seq)
        self._next_receive_seq += 1
        try:
            return raw, parse(wire.parse_handshake(raw)[2])
        except wire.WireError as exc:
            raise _Abort(str(exc)) from None

    def _read_hashed(self, parse: Callable[[bytes], Any] = bytes) -> Any:
        """`_read`, then the raw message into the transcript."""
        raw, msg = self._read(parse)
        self.transcript.update(raw)
        return msg

    # -- transcript and messages ------------------------------------------------

    def _send_handshake(self, msg_type: int, body: bytes, epoch: int = 0,
                        in_transcript: bool = True) -> None:
        msg = wire.pack_handshake(msg_type, self._next_send_seq, body)
        self._next_send_seq += 1
        if in_transcript:
            self.transcript.update(msg)
        self._out.append((epoch, CONTENT_HANDSHAKE, msg))

    # -- key schedule -----------------------------------------------------------

    def _derive_keys(self, premaster: bytes) -> None:
        master = tls_prf_sha256(HmacKey(premaster), b"master secret",
                                self.client_random + self.server_random,
                                MASTER_SECRET_LEN)
        master_key = HmacKey(master)
        key_block = tls_prf_sha256(master_key, b"key expansion",
                                   self.server_random + self.client_random,
                                   KEY_BLOCK_LEN)
        self.security = SecurityParams(master, master_key, key_block)

    def _write_key(self, role: str) -> AeadKey:
        return AeadKey(bytes(getattr(self.security, role + "_key")),
                       bytes(getattr(self.security, role + "_salt")))

    def _verify_data(self, role: str) -> bytes:
        """The verify_data of role's Finished over the transcript so far."""
        return tls_prf_sha256(self.security.master_key,
                              role.encode() + b" finished",
                              self.transcript.copy().digest(), VERIFY_DATA_LEN)

    def _change_cipher_and_finish(self) -> None:
        """ChangeCipherSpec, then Finished at epoch 1 under the write key."""
        self._out.append((0, CONTENT_CCS, b"\x01"))
        self.records.write_key = self._write_key(self.role)
        self._send_handshake(wire.HT_FINISHED, self._verify_data(self.role), 1)

    def _read_peer_finished(self) -> None:
        """The peer's Finished, filed at read epoch 1 only, checked against
        the transcript so far."""
        raw, body = self._read()
        if not hmac.compare_digest(body, self._verify_data(self._peer)):
            raise _Abort("%s finished verification failed" % self._peer)
        self.transcript.update(raw)

    # -- step drivers -------------------------------------------------------------

    def client_step(self, datagrams: List[bytes]) -> List[bytes]:
        if self.role != "client":
            raise HandshakeError("client_step on a server session")
        return self._step(datagrams)

    def server_step(self, datagrams: List[bytes]) -> List[bytes]:
        if self.role != "server":
            raise HandshakeError("server_step on a client session")
        return self._step(datagrams)

    def _step(self, datagrams: List[bytes]) -> List[bytes]:
        flight = _FLIGHTS.get((self.role, self.state))
        if flight is None:  # ESTABLISHED, FAILED or CLOSED
            return []
        self._out = []
        with self._recorder:
            try:
                for datagram in datagrams:
                    self._file(datagram)
                while flight is not None and self._messages.keys() >= set(
                        range(self._next_receive_seq,
                              self._next_receive_seq + len(flight.types))):
                    flight.handler(self)
                    self.state = flight.reached
                    self._open_read_epoch()
                    flight = _FLIGHTS.get((self.role, self.state))
            except _Abort as abort:
                self.failure_reason = abort.reason
                self.state = State.FAILED
                # at epoch 1 once this end has sent its ChangeCipherSpec
                alert = bytes([2, ALERT_HANDSHAKE_FAILURE])
                self._out = [(int(self.records.write_key is not None),
                              CONTENT_ALERT, alert)] * abort.send_alert
            out = [self.records.encode(*entry) for entry in self._out]
            if self.established:
                self.handshake_counters = self._recorder.counters.copy()
            elif self.failed:
                self.close()
            return out

    # -- peer authentication -----------------------------------------------------

    def _peer_certificate(self, cert_ders: List[bytes]) -> None:
        """Set `peer_key` from the leaf, the first certificate; the rest of
        the chain is not read.  Unless a cached-mode client finds it in its
        cache, the leaf is parsed and checked: curve and expected common
        name, issued by the trust anchor, then signature and validity window
        under the session clock.  A client caches the leaf it verified, and
        a cached-mode one pays the table of the key it now keeps."""
        if not cert_ders:
            raise _Abort("peer sent no certificate")
        now = int(self.config.clock())
        cert = self.cert_cache.check(cert_ders[0], self.ca_key, now) \
            if self.config.mode == MODE_CACHED else None
        fresh = cert is None
        if fresh:
            try:
                cert = x509_parse(cert_ders[0], self.registry)
            except X509Error:
                raise _Abort("peer certificate rejected") from None
        expected_cn = self.config.expected_peer_cn
        if cert.public_key.curve.id != self.config.curve.id or (
                expected_cn is not None and cert.subject_cn != expected_cn) \
                or (fresh and cert.issuer != self.ca_subject):
            raise _Abort("peer certificate rejected")
        if fresh:
            ok, reason = x509_verify(cert, self.ca_key, now)
            if not ok:
                raise _Abort("peer certificate rejected: %s" % reason)
            if self.role == "client":
                self.cert_cache.insert(cert, self.ca_key)
                if self.config.mode == MODE_CACHED:
                    comb_precompute(cert.public_key)
        self.peer_key = cert.public_key

    def _check_signature(self, der: bytes, digest: bytes, what: str) -> None:
        """The peer's DER signature over digest, under `peer_key`, which
        is resident in a cached-mode client and one-shot otherwise."""
        try:
            sig = EcdsaSignature.from_der(der)
        except SignatureError:
            raise _Abort("undecodable %s signature" % what) from None
        if not ecdsa_verify(self.peer_key, digest, sig, self.comb_cache,
                            self.config.mode == MODE_CACHED):
            raise _Abort("%s signature invalid" % what)

    def _agree(self, point: bytes) -> None:
        """ECDHE with the peer's ephemeral point, then the key schedule."""
        try:
            self.peer_eph = AffinePoint.decode(point, self.config.curve)
            shared = ecdhe_shared(self.eph_key, self.peer_eph)
        except (CurveError, KeyAgreementError) as exc:
            raise _Abort("key agreement failed: %s" % exc) from None
        self._derive_keys(shared)

    # -- client flights -------------------------------------------------------

    def _send_client_hello(self) -> None:
        self.client_random = self.drbg.generate(32)
        hello = wire.build_client_hello(
            self.client_random, b"", self.config.curve.tls_code)
        self._send_handshake(wire.HT_CLIENT_HELLO, hello, in_transcript=False)

    def _on_hello_verify_request(self) -> None:
        _, cookie = self._read(wire.parse_hello_verify_request)
        hello = wire.build_client_hello(
            self.client_random, cookie, self.config.curve.tls_code)
        self._send_handshake(wire.HT_CLIENT_HELLO, hello)

    def _on_server_flight(self) -> None:
        sh = self._read_hashed(wire.parse_server_hello)
        cert_ders = self._read_hashed(wire.parse_certificate)
        ske = self._read_hashed(wire.parse_server_key_exchange)
        self._read_hashed(wire.parse_certificate_request)
        if self._read_hashed() != b"":
            raise _Abort("non-empty ServerHelloDone")
        if sh.cipher_suite != wire.CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256:
            raise _Abort("server chose an unknown cipher suite")
        self.server_random = sh.random
        self._peer_certificate(cert_ders)
        if ske.curve_code != self.config.curve.tls_code:
            raise _Abort("server negotiated a different curve")
        signed = wire.server_key_exchange_signed_data(
            self.client_random, self.server_random, ske.signed_params)
        self._check_signature(ske.signature_der, sha256(signed),
                              "ServerKeyExchange")
        self.eph_key = KeyPair.generate(self.config.curve, self.drbg)
        self._agree(ske.point)

        self._send_handshake(
            wire.HT_CERTIFICATE,
            wire.build_certificate([self.config.own_cert_der]))
        self._send_handshake(
            wire.HT_CLIENT_KEY_EXCHANGE,
            wire.build_client_key_exchange(self.eph_key.Q.encode()))
        cv_sig = ecdsa_sign(self.own_key, self.transcript.copy().digest(),
                            self.drbg)
        self._send_handshake(wire.HT_CERTIFICATE_VERIFY,
                             wire.build_certificate_verify(cv_sig.to_der()))
        self._change_cipher_and_finish()

    # -- server flights -------------------------------------------------------

    def _on_cookie_hello(self) -> None:
        hello = self._read_hashed(wire.parse_client_hello)
        if wire.CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256 not in hello.cipher_suites:
            raise _Abort("client does not offer our cipher suite")
        if self.config.curve.tls_code not in hello.curve_codes:
            raise _Abort("client does not offer our curve")
        self.client_random = hello.random
        self.server_random = self.drbg.generate(32)
        self._send_handshake(wire.HT_SERVER_HELLO,
                             wire.build_server_hello(self.server_random))
        self._send_handshake(
            wire.HT_CERTIFICATE,
            wire.build_certificate([self.config.own_cert_der]))
        self.eph_key = KeyPair.generate(self.config.curve, self.drbg)
        params = wire.build_server_ecdh_params(self.config.curve.tls_code,
                                               self.eph_key.Q.encode())
        signed = wire.server_key_exchange_signed_data(
            self.client_random, self.server_random, params)
        sig = ecdsa_sign(self.own_key, sha256(signed), self.drbg)
        self._send_handshake(
            wire.HT_SERVER_KEY_EXCHANGE,
            wire.build_server_key_exchange(params, sig.to_der()))
        self._send_handshake(wire.HT_CERTIFICATE_REQUEST,
                             wire.build_certificate_request())
        self._send_handshake(wire.HT_SERVER_HELLO_DONE, b"")

    def _on_client_flight(self) -> None:
        self._peer_certificate(self._read_hashed(wire.parse_certificate))
        self._agree(self._read_hashed(wire.parse_client_key_exchange))
        raw, der = self._read(wire.parse_certificate_verify)
        self._check_signature(der, self.transcript.copy().digest(),
                              "CertificateVerify")
        self.transcript.update(raw)

    def _on_client_finished(self) -> None:
        self._read_peer_finished()
        self._change_cipher_and_finish()

    # -- application data --------------------------------------------------------

    def _require_keys(self) -> None:
        if not self.established:
            raise HandshakeError("session %s" % (
                "closed" if self.state is State.CLOSED else "not established"))

    def seal_app_data(self, payload: bytes) -> bytes:
        self._require_keys()
        with self._recorder:
            counters.record("bytes_sealed", len(payload))
            return self.records.encode(1, CONTENT_APPDATA, payload)

    def open_app_data(self, datagram: bytes) -> Optional[bytes]:
        self._require_keys()
        with self._recorder:
            outcome, ctype, payload = self.records.decode(datagram)
            if outcome != DROP_OK or ctype != CONTENT_APPDATA:
                return None
            counters.record("bytes_opened", len(payload))
            return payload

    # -- accounting ----------------------------------------------------------------

    @property
    def session_counters(self) -> counters.OpCounters:
        return self._recorder.counters.copy()

    def close(self) -> None:
        """Zeroize the derived key material, drop both record keys and move
        to CLOSED (a FAILED session stays FAILED), so that seal_app_data
        and open_app_data raise HandshakeError and steps do nothing from
        here on.  The dropped keys hold their key bytes, AES round keys and
        GHASH tables as bytes and ints, which Python cannot wipe in place:
        dropping the references to them is the guarantee given.  The ECDHE
        premaster, immutable bytes like them, is dropped once the master
        secret is derived, not wiped."""
        if self.security is not None:
            self.security.zeroize()
        self.records.write_key = self.records.read_key = None
        if self.state is not State.FAILED:
            self.state = State.CLOSED

    def __enter__(self) -> "HandshakeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Flight(NamedTuple):
    handler: Callable[[HandshakeSession], None]
    types: Tuple[int, ...]  # handshake types filed, in message_seq order
    reached: State  # resting state once the handler returns


# (role, resting state) -> the flight awaited there.  A Finished flight names
# only its Finished: the ChangeCipherSpec opens read epoch 1, the only epoch
# a Finished is filed from.  ESTABLISHED, FAILED and CLOSED have no entry,
# so steps in them do nothing.
_FLIGHTS: Dict[Tuple[str, State], _Flight] = {
    ("client", State.INIT): _Flight(
        HandshakeSession._send_client_hello, (), State.HELLO_SENT),
    ("client", State.HELLO_SENT): _Flight(
        HandshakeSession._on_hello_verify_request,
        (wire.HT_HELLO_VERIFY_REQUEST,), State.COOKIE_WAIT),
    ("client", State.COOKIE_WAIT): _Flight(
        HandshakeSession._on_server_flight,
        (wire.HT_SERVER_HELLO, wire.HT_CERTIFICATE,
         wire.HT_SERVER_KEY_EXCHANGE, wire.HT_CERTIFICATE_REQUEST,
         wire.HT_SERVER_HELLO_DONE), State.FINISHED_WAIT),
    ("client", State.FINISHED_WAIT): _Flight(
        HandshakeSession._read_peer_finished, (wire.HT_FINISHED,),
        State.ESTABLISHED),
    ("server", State.INIT): _Flight(  # a ClientHello whose cookie verifies
        HandshakeSession._on_cookie_hello, (wire.HT_CLIENT_HELLO,),
        State.HELLO_EXCHANGED),
    ("server", State.HELLO_EXCHANGED): _Flight(
        HandshakeSession._on_client_flight,
        (wire.HT_CERTIFICATE, wire.HT_CLIENT_KEY_EXCHANGE,
         wire.HT_CERTIFICATE_VERIFY), State.FINISHED_WAIT),
    ("server", State.FINISHED_WAIT): _Flight(
        HandshakeSession._on_client_finished, (wire.HT_FINISHED,),
        State.ESTABLISHED),
}

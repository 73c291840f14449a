"""DTLS 1.2 mutual-authentication handshake driven by one flight table.

Between step calls a session rests in a `State`.  `_FLIGHTS` maps each
(role, resting state) to the flight awaited there (RFC 6347 §4.2.4 flights):
the handler that consumes it and sends the reply, the number of inbound
records in it, and the state reached when the handler returns.  A step runs
the handler and sets the state once, afterwards.  A handler that runs out of
datagrams leaves the state where it was, as does the server answering a bad
cookie with a fresh HelloVerifyRequest; a protocol error moves the session to
FAILED, zeroizes any derived keys and answers with a fatal alert (a fatal
alert from the peer does the same, unanswered).  Nothing retransmits yet, so
a lost record stalls the handshake without failing it.

The fixed suite is ECDHE-ECDSA with AES-128-GCM and SHA-256 transcripts.
Both roles check the peer certificate on one path.  A cached-mode client skips
that check for a server certificate it verified earlier under the same trust
anchor, while the certificate is inside its validity window.

Records are decoded lazily, one datagram at a time, so a ChangeCipherSpec can
switch the read epoch before the Finished record behind it is opened.
"""

from __future__ import annotations

import enum
import os
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import counters, wire
from .aesgcm import AeadKey
from .curve import AffinePoint, CurveError, CurveParams, builtin_registry
from .drbg import HmacDrbg
from .ecdsa import EcdsaSignature, KeyPair, SignatureError, ecdsa_sign, \
    ecdsa_verify
from .keyagree import KeyAgreementError, ecdhe_shared
from .prf import tls_prf_sha256
from .record import (CONTENT_ALERT, CONTENT_APPDATA, CONTENT_CCS,
                     CONTENT_HANDSHAKE, DROP_OK, RecordLayer)
from .scalarmult import CombCache
from .sha256 import Sha256, hmac_sha256, sha256
from .x509 import CertCache, Certificate, X509Error, x509_parse, \
    x509_verify

VERIFY_DATA_LEN = 12
MASTER_SECRET_LEN = 48
KEY_BLOCK_LEN = 40  # 16 + 16 + 4 + 4 for AES-128-GCM

ALERT_HANDSHAKE_FAILURE = 40

MODE_FULL = "full"
MODE_CACHED = "cached"

_RECORD_KINDS = {CONTENT_HANDSHAKE: "handshake", CONTENT_CCS: "ccs",
                 CONTENT_ALERT: "alert", CONTENT_APPDATA: "app"}


class HandshakeError(Exception):
    pass


class _Abort(Exception):
    """Internal: handshake must fail with this reason."""

    def __init__(self, reason: str, send_alert: bool = True):
        super().__init__(reason)
        self.reason = reason
        self.send_alert = send_alert


class _Stay(Exception):
    """Internal: keep the resting state and send `out`.  Raised when a
    record is missing (datagram loss is not a protocol failure) and when a
    bad cookie is answered with a fresh HelloVerifyRequest."""

    def __init__(self, out: Optional[List[bytes]] = None):
        super().__init__()
        self.out = out or []


class State(enum.Enum):
    INIT = "INIT"
    HELLO_SENT = "HELLO_SENT"
    COOKIE_WAIT = "COOKIE_WAIT"
    HELLO_EXCHANGED = "HELLO_EXCHANGED"
    FINISHED_WAIT = "FINISHED_WAIT"
    ESTABLISHED = "ESTABLISHED"
    FAILED = "FAILED"


class SecurityParams:
    """Derived key material; zeroized when the session fails or closes."""

    __slots__ = ("master_secret", "client_key", "server_key",
                 "client_salt", "server_salt", "cleared")

    def __init__(self, master_secret: bytes, key_block: bytes):
        self.master_secret = bytearray(master_secret)
        self.client_key = bytearray(key_block[0:16])
        self.server_key = bytearray(key_block[16:32])
        self.client_salt = bytearray(key_block[32:36])
        self.server_salt = bytearray(key_block[36:40])
        self.cleared = False

    def zeroize(self) -> None:
        for buf in (self.master_secret, self.client_key, self.server_key,
                    self.client_salt, self.server_salt):
            for i in range(len(buf)):
                buf[i] = 0
        self.cleared = True


class SessionConfig:
    """Everything one endpoint needs: role, curve, credentials, mode, seed."""

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
        self.role = role
        self.curve = curve
        self.mode = mode
        self.own_cert_der = own_cert_der
        self.own_key_d = own_key_d
        self.ca_der = ca_der
        self.entropy = entropy if entropy is not None else os.urandom(32)
        self.expected_peer_cn = expected_peer_cn
        self.comb_cache = comb_cache if comb_cache is not None else CombCache()
        self.cert_cache = cert_cache if cert_cache is not None else CertCache()
        self.clock = clock


class HandshakeSession:
    """One endpoint of a DTLS 1.2 handshake plus its application-data phase."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.registry = builtin_registry()
        self.role = config.role
        self.state = State.INIT
        self.failure_reason: Optional[str] = None
        self.records = RecordLayer()
        self.transcript = Sha256()
        self._recorder = counters.Recorder(label="%s-session" % self.role)
        self._next_send_seq = 0
        self.security: Optional[SecurityParams] = None
        self.handshake_counters: Optional[counters.OpCounters] = None

        with self._recorder:
            self.drbg = HmacDrbg(config.entropy, self.role.encode(),
                                 b"dtls-engine " + self.role.encode())
            self.comb_cache = config.comb_cache
            self.cert_cache = config.cert_cache
            self.own_key = KeyPair(config.own_key_d, config.curve,
                                   cache=self.comb_cache)
            ca = x509_parse(config.ca_der, self.registry)
            self.ca_subject = ca.subject
            self.ca_key = ca.public_key
            self.client_random: Optional[bytes] = None
            self.server_random: Optional[bytes] = None
            self.eph_key: Optional[KeyPair] = None
            self.peer_key: Optional[AffinePoint] = None
            self.peer_eph: Optional[AffinePoint] = None
            if self.role == "server":
                self.cookie_secret = sha256(b"cookie-secret" + config.entropy)

    # -- state plumbing -------------------------------------------------------

    @property
    def established(self) -> bool:
        return self.state is State.ESTABLISHED

    @property
    def failed(self) -> bool:
        return self.state is State.FAILED

    @property
    def awaited_records(self) -> int:
        """Inbound records in the flight the next step consumes; 0 when that
        step only sends, and once the handshake has ended."""
        flight = _FLIGHTS.get((self.role, self.state))
        return flight.records if flight is not None else 0

    # -- record intake ---------------------------------------------------------

    def _pull(self, pending: List[bytes]) -> Tuple[str, bytes]:
        """Decode datagrams until one yields a record; drops and unknown
        content types are skipped silently."""
        while pending:
            outcome, ctype, payload = self.records.decode(pending.pop(0))
            kind = _RECORD_KINDS.get(ctype) if outcome == DROP_OK else None
            if kind == "alert":
                raise _Abort("peer sent a fatal alert", send_alert=False)
            if kind is not None:
                return kind, payload
        raise _Stay()

    def _expect_handshake(self, pending: List[bytes],
                          expected_type: int) -> Tuple[bytes, bytes]:
        kind, payload = self._pull(pending)
        if kind != "handshake":
            raise _Abort("unexpected %s record mid-flight" % kind)
        try:
            msg_type, _seq, body = wire.parse_handshake(payload)
        except wire.WireError as exc:
            raise _Abort("bad handshake framing: %s" % exc) from None
        if msg_type != expected_type:
            raise _Abort("expected handshake type %d, got %d"
                         % (expected_type, msg_type))
        return payload, body

    # -- transcript and messages ------------------------------------------------

    def _send_handshake(self, msg_type: int, body: bytes,
                        in_transcript: bool = True) -> bytes:
        msg = wire.pack_handshake(msg_type, self._next_send_seq, body)
        self._next_send_seq += 1
        if in_transcript:
            self.transcript.update(msg)
        return self.records.encode(CONTENT_HANDSHAKE, msg)

    def _cookie_for(self, client_random: bytes) -> bytes:
        return hmac_sha256(self.cookie_secret, b"client" + client_random)

    # -- key schedule -----------------------------------------------------------

    def _derive_keys(self, premaster: bytes) -> None:
        buf = bytearray(premaster)
        master = tls_prf_sha256(bytes(buf), b"master secret",
                                self.client_random + self.server_random,
                                MASTER_SECRET_LEN)
        key_block = tls_prf_sha256(master, b"key expansion",
                                   self.server_random + self.client_random,
                                   KEY_BLOCK_LEN)
        self.security = SecurityParams(master, key_block)
        for i in range(len(buf)):
            buf[i] = 0

    def _client_write_key(self) -> AeadKey:
        return AeadKey(bytes(self.security.client_key),
                       bytes(self.security.client_salt))

    def _server_write_key(self) -> AeadKey:
        return AeadKey(bytes(self.security.server_key),
                       bytes(self.security.server_salt))

    def _verify_data(self, label: bytes, digest: bytes) -> bytes:
        return tls_prf_sha256(bytes(self.security.master_secret), label,
                              digest, VERIFY_DATA_LEN)

    def _change_cipher_and_finish(self, write_key: AeadKey,
                                  label: bytes) -> List[bytes]:
        """ChangeCipherSpec, then Finished under the new write epoch."""
        ccs = self.records.encode(CONTENT_CCS, b"\x01")
        self.records.start_write_epoch(write_key)
        verify_data = self._verify_data(label, self.transcript.copy().digest())
        return [ccs, self._send_handshake(wire.HT_FINISHED, verify_data)]

    def _read_peer_finished(self, pending: List[bytes], read_key: AeadKey,
                            label: bytes) -> None:
        """The peer's ChangeCipherSpec, then its Finished under the new read
        epoch, checked against the transcript so far."""
        kind, _payload = self._pull(pending)
        if kind != "ccs":
            raise _Abort("expected ChangeCipherSpec before %s"
                         % label.decode())
        self.records.start_read_epoch(read_key)
        raw, body = self._expect_handshake(pending, wire.HT_FINISHED)
        if body != self._verify_data(label, self.transcript.copy().digest()):
            raise _Abort("%s verification failed" % label.decode())
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
        if flight is None:  # ESTABLISHED or FAILED
            return []
        with self._recorder:
            try:
                out = flight.handler(self, list(datagrams))
                self.state = flight.reached
                if self.established:
                    self.handshake_counters = self._recorder.counters.copy()
            except _Stay as stay:
                out = stay.out
            except _Abort as abort:
                self.failure_reason = abort.reason
                self.state = State.FAILED
                self.close()
                out = []
                if abort.send_alert:
                    out = [self.records.encode(
                        CONTENT_ALERT, bytes([2, ALERT_HANDSHAKE_FAILURE]))]
            return out

    # -- peer certificate ---------------------------------------------------------

    def _check_peer_identity(self, key: AffinePoint,
                             subject_cn: Optional[str]) -> None:
        expected_cn = self.config.expected_peer_cn
        if key.curve.id != self.config.curve.id or (
                expected_cn is not None and subject_cn != expected_cn):
            raise _Abort("peer certificate rejected")

    def _verify_peer_certificate(self, der: bytes) -> Certificate:
        """The full check of the peer's leaf certificate: parse, curve and
        expected common name, issued by the trust anchor, then signature and
        validity window under the session clock."""
        try:
            cert = x509_parse(der, self.registry)
        except X509Error:
            raise _Abort("peer certificate rejected") from None
        self._check_peer_identity(cert.public_key, cert.subject_cn)
        if cert.issuer != self.ca_subject:
            raise _Abort("peer certificate rejected")
        ok, reason = x509_verify(cert, self.ca_key, int(self.config.clock()),
                                 self.comb_cache)
        if not ok:
            raise _Abort("peer certificate rejected: %s" % reason)
        return cert

    # -- client flights -------------------------------------------------------

    def _send_client_hello(self, pending: List[bytes]) -> List[bytes]:
        self.client_random = self.drbg.generate(32)
        hello = wire.build_client_hello(
            self.client_random, b"", self.config.curve.tls_code)
        return [self._send_handshake(wire.HT_CLIENT_HELLO, hello,
                                     in_transcript=False)]

    def _on_hello_verify_request(self, pending: List[bytes]) -> List[bytes]:
        _, body = self._expect_handshake(pending, wire.HT_HELLO_VERIFY_REQUEST)
        try:
            cookie = wire.parse_hello_verify_request(body)
        except wire.WireError as exc:
            raise _Abort(str(exc)) from None
        hello = wire.build_client_hello(
            self.client_random, cookie, self.config.curve.tls_code)
        return [self._send_handshake(wire.HT_CLIENT_HELLO, hello)]

    def _on_server_flight(self, pending: List[bytes]) -> List[bytes]:
        flight = {}
        for expected in (wire.HT_SERVER_HELLO, wire.HT_CERTIFICATE,
                         wire.HT_SERVER_KEY_EXCHANGE,
                         wire.HT_CERTIFICATE_REQUEST,
                         wire.HT_SERVER_HELLO_DONE):
            raw, body = self._expect_handshake(pending, expected)
            self.transcript.update(raw)
            flight[expected] = body

        try:
            sh = wire.parse_server_hello(flight[wire.HT_SERVER_HELLO])
            cert_ders = wire.parse_certificate(flight[wire.HT_CERTIFICATE])
            ske = wire.parse_server_key_exchange(
                flight[wire.HT_SERVER_KEY_EXCHANGE])
            wire.parse_certificate_request(flight[wire.HT_CERTIFICATE_REQUEST])
        except wire.WireError as exc:
            raise _Abort(str(exc)) from None
        if sh.cipher_suite != wire.CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256:
            raise _Abort("server chose an unknown cipher suite")
        self.server_random = sh.random
        if flight[wire.HT_SERVER_HELLO_DONE] != b"":
            raise _Abort("non-empty ServerHelloDone")
        if len(cert_ders) != 1:
            raise _Abort("expected exactly the server leaf certificate")
        entry = None
        if self.config.mode == MODE_CACHED:
            entry = self.cert_cache.check(cert_ders[0], self.ca_key,
                                          int(self.config.clock()))
        if entry is not None:
            self._check_peer_identity(entry.public_key, entry.subject_cn)
            self.peer_key = entry.public_key
        else:
            cert = self._verify_peer_certificate(cert_ders[0])
            self.cert_cache.insert(cert, self.ca_key)
            self.peer_key = cert.public_key

        if ske.curve_code != self.config.curve.tls_code:
            raise _Abort("server negotiated a different curve")
        try:
            self.peer_eph = AffinePoint.decode(ske.point, self.config.curve)
        except CurveError as exc:
            raise _Abort("bad server ephemeral: %s" % exc) from None
        signed = wire.server_key_exchange_signed_data(
            self.client_random, self.server_random, ske.signed_params)
        try:
            sig = EcdsaSignature.from_der(ske.signature_der)
        except SignatureError:
            raise _Abort("undecodable ServerKeyExchange signature") from None
        if not ecdsa_verify(self.peer_key, sha256(signed), sig,
                            self.comb_cache):
            raise _Abort("ServerKeyExchange signature invalid")

        try:
            self.eph_key = KeyPair.generate(self.config.curve, self.drbg,
                                            self.comb_cache)
            shared = ecdhe_shared(self.eph_key, self.peer_eph, self.comb_cache)
        except (KeyAgreementError, CurveError) as exc:
            raise _Abort("key agreement failed: %s" % exc) from None
        self._derive_keys(shared)

        out = [self._send_handshake(
            wire.HT_CERTIFICATE,
            wire.build_certificate([self.config.own_cert_der]))]
        out.append(self._send_handshake(
            wire.HT_CLIENT_KEY_EXCHANGE,
            wire.build_client_key_exchange(self.eph_key.Q.encode())))
        cv_sig = ecdsa_sign(self.own_key, self.transcript.copy().digest(),
                            self.drbg, cache=self.comb_cache)
        out.append(self._send_handshake(
            wire.HT_CERTIFICATE_VERIFY,
            wire.build_certificate_verify(cv_sig.to_der())))
        return out + self._change_cipher_and_finish(self._client_write_key(),
                                                    b"client finished")

    def _on_server_finished(self, pending: List[bytes]) -> List[bytes]:
        self._read_peer_finished(pending, self._server_write_key(),
                                 b"server finished")
        return []

    # -- server flights -------------------------------------------------------

    def _read_client_hello(self, pending: List[bytes]
                           ) -> Tuple[bytes, wire.ClientHello]:
        raw, body = self._expect_handshake(pending, wire.HT_CLIENT_HELLO)
        try:
            hello = wire.parse_client_hello(body)
        except wire.WireError as exc:
            raise _Abort(str(exc)) from None
        if wire.CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256 not in hello.cipher_suites:
            raise _Abort("client does not offer our cipher suite")
        if self.config.curve.tls_code not in hello.curve_codes:
            raise _Abort("client does not offer our curve")
        return raw, hello

    def _hello_verify_request(self, cookie: bytes) -> bytes:
        return self._send_handshake(wire.HT_HELLO_VERIFY_REQUEST,
                                    wire.build_hello_verify_request(cookie),
                                    in_transcript=False)

    def _on_client_hello(self, pending: List[bytes]) -> List[bytes]:
        _, hello = self._read_client_hello(pending)
        return [self._hello_verify_request(self._cookie_for(hello.random))]

    def _on_cookie_hello(self, pending: List[bytes]) -> List[bytes]:
        raw, hello = self._read_client_hello(pending)
        cookie = self._cookie_for(hello.random)
        if hello.cookie != cookie:
            raise _Stay([self._hello_verify_request(cookie)])
        self.client_random = hello.random
        self.transcript.update(raw)

        self.server_random = self.drbg.generate(32)
        out = [self._send_handshake(
            wire.HT_SERVER_HELLO, wire.build_server_hello(self.server_random))]
        out.append(self._send_handshake(
            wire.HT_CERTIFICATE,
            wire.build_certificate([self.config.own_cert_der])))
        self.eph_key = KeyPair.generate(self.config.curve, self.drbg,
                                        self.comb_cache)
        params = wire.build_server_ecdh_params(self.config.curve.tls_code,
                                               self.eph_key.Q.encode())
        signed = wire.server_key_exchange_signed_data(
            self.client_random, self.server_random, params)
        sig = ecdsa_sign(self.own_key, sha256(signed), self.drbg,
                         cache=self.comb_cache)
        out.append(self._send_handshake(
            wire.HT_SERVER_KEY_EXCHANGE,
            wire.build_server_key_exchange(params, sig.to_der())))
        out.append(self._send_handshake(wire.HT_CERTIFICATE_REQUEST,
                                        wire.build_certificate_request()))
        out.append(self._send_handshake(wire.HT_SERVER_HELLO_DONE, b""))
        return out

    def _on_client_flight(self, pending: List[bytes]) -> List[bytes]:
        raw, body = self._expect_handshake(pending, wire.HT_CERTIFICATE)
        self.transcript.update(raw)
        try:
            cert_ders = wire.parse_certificate(body)
        except wire.WireError as exc:
            raise _Abort(str(exc)) from None
        if len(cert_ders) != 1:
            raise _Abort("expected exactly the client leaf certificate")
        self.peer_key = self._verify_peer_certificate(cert_ders[0]).public_key

        raw, body = self._expect_handshake(pending, wire.HT_CLIENT_KEY_EXCHANGE)
        self.transcript.update(raw)
        try:
            point = wire.parse_client_key_exchange(body)
            self.peer_eph = AffinePoint.decode(point, self.config.curve)
            shared = ecdhe_shared(self.eph_key, self.peer_eph, self.comb_cache)
        except (wire.WireError, CurveError, KeyAgreementError) as exc:
            raise _Abort("key agreement failed: %s" % exc) from None
        cv_digest = self.transcript.copy().digest()
        self._derive_keys(shared)

        raw, body = self._expect_handshake(pending, wire.HT_CERTIFICATE_VERIFY)
        try:
            sig = EcdsaSignature.from_der(wire.parse_certificate_verify(body))
        except (wire.WireError, SignatureError) as exc:
            raise _Abort("bad CertificateVerify: %s" % exc) from None
        if not ecdsa_verify(self.peer_key, cv_digest, sig, self.comb_cache):
            raise _Abort("CertificateVerify signature invalid")
        self.transcript.update(raw)

        self._read_peer_finished(pending, self._client_write_key(),
                                 b"client finished")
        return self._change_cipher_and_finish(self._server_write_key(),
                                              b"server finished")

    # -- application data --------------------------------------------------------

    def seal_app_data(self, payload: bytes) -> bytes:
        if not self.established:
            raise HandshakeError("session not established")
        with self._recorder:
            counters.record("bytes_sealed", len(payload))
            return self.records.encode(CONTENT_APPDATA, payload)

    def open_app_data(self, datagram: bytes) -> Optional[bytes]:
        if not self.established:
            raise HandshakeError("session not established")
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
        if self.security is not None:
            self.security.zeroize()


class _Flight(NamedTuple):
    handler: Callable[[HandshakeSession, List[bytes]], List[bytes]]
    records: int    # inbound records in the awaited flight
    reached: State  # resting state once the handler returns


# (role, resting state) -> the flight awaited there.  ESTABLISHED and FAILED
# have no entry, so steps in them do nothing.
_FLIGHTS: Dict[Tuple[str, State], _Flight] = {
    ("client", State.INIT): _Flight(
        HandshakeSession._send_client_hello, 0, State.HELLO_SENT),
    ("client", State.HELLO_SENT): _Flight(  # HelloVerifyRequest
        HandshakeSession._on_hello_verify_request, 1, State.COOKIE_WAIT),
    ("client", State.COOKIE_WAIT): _Flight(  # SH, Cert, SKE, CertReq, SHDone
        HandshakeSession._on_server_flight, 5, State.FINISHED_WAIT),
    ("client", State.FINISHED_WAIT): _Flight(  # CCS, Finished
        HandshakeSession._on_server_finished, 2, State.ESTABLISHED),
    ("server", State.INIT): _Flight(  # ClientHello
        HandshakeSession._on_client_hello, 1, State.COOKIE_WAIT),
    ("server", State.COOKIE_WAIT): _Flight(  # ClientHello with cookie
        HandshakeSession._on_cookie_hello, 1, State.HELLO_EXCHANGED),
    ("server", State.HELLO_EXCHANGED): _Flight(  # Cert, CKE, CV, CCS, Finished
        HandshakeSession._on_client_flight, 5, State.ESTABLISHED),
}

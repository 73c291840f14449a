import pytest

from ecdtls import wire
from ecdtls.credentials import NOT_AFTER, generate_pki
from ecdtls.handshake import (MODE_CACHED, MODE_FULL, HandshakeError,
                              HandshakeSession, SessionConfig, State)
from ecdtls.record import CONTENT_HANDSHAKE
from ecdtls.scalarmult import CombCache
from ecdtls.transport import exchange_app_data, run_loopback
from ecdtls.x509 import CertCache

FIXED_CLOCK = lambda: 1754784000.0  # mid validity window


def make_pair(curve, pki, mode=MODE_FULL, client_entropy=b"C" * 32,
              server_entropy=b"S" * 32, cert_cache=None,
              client_clock=FIXED_CLOCK, client_ca_der=None):
    client_cfg = SessionConfig(
        role="client", curve=curve, own_cert_der=pki.client.cert_der,
        own_key_d=pki.client.key.d, ca_der=client_ca_der or pki.ca_der,
        mode=mode, entropy=client_entropy, expected_peer_cn="server",
        cert_cache=cert_cache, clock=client_clock)
    server_cfg = SessionConfig(
        role="server", curve=curve, own_cert_der=pki.server.cert_der,
        own_key_d=pki.server.key.d, ca_der=pki.ca_der, mode=MODE_FULL,
        entropy=server_entropy, expected_peer_cn="client", clock=FIXED_CLOCK)
    return HandshakeSession(client_cfg), HandshakeSession(server_cfg)


@pytest.fixture(scope="module")
def toy_pki(toy):
    return generate_pki(toy, b"toy-pki-entropy" * 2)


@pytest.fixture(scope="module")
def p160_pki(curves):
    return generate_pki(curves["secp160r1"], b"p160-pki-entropy" * 2)


@pytest.fixture(scope="module")
def p256_pki(curves):
    return generate_pki(curves["secp256r1"], b"p256-pki-entropy" * 2)


class TestLoopbackHandshake:
    def test_toy_curve_establishes(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server)
        assert result.established
        assert bytes(client.security.master_secret) == \
            bytes(server.security.master_secret)
        assert client.transcript.digest() == server.transcript.digest()

    def test_secp256r1_establishes(self, curves, p256_pki):
        client, server = make_pair(curves["secp256r1"], p256_pki)
        result = run_loopback(client, server)
        assert result.established
        assert bytes(client.security.master_secret) == \
            bytes(server.security.master_secret)
        assert exchange_app_data(result, b"ping" * 64)

    def test_deterministic_given_seeds(self, toy, toy_pki):
        transcripts = []
        for _ in range(2):
            client, server = make_pair(toy, toy_pki)
            result = run_loopback(client, server)
            assert result.established
            transcripts.append(client.transcript.digest())
        assert transcripts[0] == transcripts[1]

    def test_different_seeds_different_secrets(self, toy, toy_pki):
        c1, s1 = make_pair(toy, toy_pki, client_entropy=b"1" * 32)
        run_loopback(c1, s1)
        c2, s2 = make_pair(toy, toy_pki, client_entropy=b"2" * 32)
        run_loopback(c2, s2)
        assert bytes(c1.security.master_secret) != \
            bytes(c2.security.master_secret)

    def test_app_data_round_trip_1kb(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server)
        payload = bytes(range(256)) * 4
        assert exchange_app_data(result, payload)

    def test_empty_app_payload_allowed(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server)
        datagram = client.seal_app_data(b"")
        assert server.open_app_data(datagram) == b""

    def test_app_data_before_established_rejected(self, toy, toy_pki):
        client, _ = make_pair(toy, toy_pki)
        with pytest.raises(HandshakeError):
            client.seal_app_data(b"too early")

    def test_teardown_zeroizes_keys(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server)
        client.close()
        assert client.security.cleared
        assert bytes(client.security.master_secret) == b"\x00" * 48


class TestCachedMode:
    def test_cached_skips_one_verify(self, toy, toy_pki):
        shared_cache = CertCache()
        # priming run (full verification, inserts the fingerprint)
        client, server = make_pair(toy, toy_pki, mode=MODE_CACHED,
                                   cert_cache=shared_cache)
        assert run_loopback(client, server).established

        full_client, full_server = make_pair(toy, toy_pki, mode=MODE_FULL)
        assert run_loopback(full_client, full_server).established

        cached_client, cached_server = make_pair(toy, toy_pki,
                                                 mode=MODE_CACHED,
                                                 cert_cache=shared_cache)
        assert run_loopback(cached_client, cached_server).established

        full_v = full_client.handshake_counters["ecdsa_verify"]
        cached_v = cached_client.handshake_counters["ecdsa_verify"]
        assert full_v - cached_v == 1
        assert cached_client.handshake_counters["cert_cache_hit"] == 1

    def test_cached_miss_falls_back_to_full(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki, mode=MODE_CACHED)
        result = run_loopback(client, server)
        assert result.established
        assert client.handshake_counters["cert_cache_miss"] == 1

    def test_cached_entry_expires_with_the_certificate(self, toy, toy_pki):
        cache = CertCache()
        client, server = make_pair(toy, toy_pki, mode=MODE_CACHED,
                                   cert_cache=cache)
        assert run_loopback(client, server).established

        client, server = make_pair(toy, toy_pki, mode=MODE_CACHED,
                                   cert_cache=cache,
                                   client_clock=lambda: NOT_AFTER + 1.0)
        result = run_loopback(client, server)
        assert not result.established and client.failed
        assert client.failure_reason == "peer certificate rejected: expired"
        assert client.session_counters["cert_cache_hit"] == 0
        assert client.session_counters["cert_cache_miss"] == 1

    def test_cached_entry_bound_to_its_trust_anchor(self, curves, p160_pki):
        # the client keeps its credentials but trusts another CA, whose
        # certificate carries the same subject name as the real one
        curve = curves["secp160r1"]
        cache = CertCache()
        client, server = make_pair(curve, p160_pki, mode=MODE_CACHED,
                                   cert_cache=cache)
        assert run_loopback(client, server).established

        other = generate_pki(curve, b"other-anchor-entropy" * 2)
        client, server = make_pair(curve, p160_pki, mode=MODE_CACHED,
                                   cert_cache=cache,
                                   client_ca_der=other.ca_der)
        result = run_loopback(client, server)
        assert not result.established and client.failed
        assert client.failure_reason == \
            "peer certificate rejected: bad_signature"
        assert client.session_counters["cert_cache_hit"] == 0


class TestTampering:
    @pytest.mark.parametrize("flight_index", range(10))
    def test_single_byte_tamper_prevents_establishment(self, toy, toy_pki,
                                                       flight_index):
        # tamper one byte in the payload area of the n-th datagram overall
        seen = [0]

        def interceptor(sender, datagrams):
            out = []
            for d in datagrams:
                if seen[0] == flight_index and len(d) > 14:
                    d = bytearray(d)
                    d[14] ^= 0x01  # second payload byte
                    d = bytes(d)
                seen[0] += 1
                out.append(d)
            return out

        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        tampered_anything = seen[0] > flight_index
        if tampered_anything:
            assert not result.established
            assert not exchange_app_data(result, b"must not flow")

    def test_tampered_server_key_exchange_fails_before_flight5(self, toy,
                                                               toy_pki):
        # flip a byte inside the SKE signature; client must abort its flight 5
        state = {"count": 0}

        def interceptor(sender, datagrams):
            out = []
            for d in datagrams:
                if sender == "server":
                    state["count"] += 1
                    if state["count"] == 3:  # SH, Cert, SKE order
                        d = bytearray(d)
                        d[-2] ^= 0x40
                        d = bytes(d)
                out.append(d)
            return out

        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        assert not result.established
        assert client.failed
        assert client.failure_reason is not None

    def test_truncated_datagram_just_stalls_or_fails(self, toy, toy_pki):
        def interceptor(sender, datagrams):
            return [d[:10] for d in datagrams] if sender == "server" else datagrams

        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        assert not result.established


class TestStateMachine:
    def test_flight_table_drives_loopback(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        steps = {"client": [], "server": []}

        def recording(session, step):
            def wrapped(datagrams):
                steps[session.role].append(
                    (session.state, session.awaited_records, len(datagrams)))
                return step(datagrams)
            return wrapped

        client.client_step = recording(client, client.client_step)
        server.server_step = recording(server, server.server_step)
        assert run_loopback(client, server).established

        expected = {
            "client": [State.INIT, State.HELLO_SENT, State.COOKIE_WAIT,
                       State.FINISHED_WAIT, State.ESTABLISHED],
            "server": [State.INIT, State.COOKIE_WAIT, State.HELLO_EXCHANGED,
                       State.ESTABLISHED],
        }
        for session in (client, server):
            seen = steps[session.role]
            assert [s for s, _, _ in seen] + [session.state] == \
                expected[session.role]
            assert [awaited for _, awaited, _ in seen] == \
                [delivered for _, _, delivered in seen]

    def test_steps_after_terminal_state_are_noops(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server)
        assert result.established
        assert client.client_step([]) == []
        assert server.server_step([]) == []

        failed, _ = make_pair(toy, toy_pki)
        hello = failed.client_step([])
        # a ClientHello where a HelloVerifyRequest belongs: abort with alert
        assert len(failed.client_step(hello)) == 1
        assert failed.failed
        reason = failed.failure_reason
        assert failed.client_step(hello) == []
        assert failed.client_step([]) == []
        assert failed.failed and failed.failure_reason == reason

    def test_wrong_role_step_rejected(self, toy, toy_pki):
        client, _ = make_pair(toy, toy_pki)
        with pytest.raises(HandshakeError):
            client.server_step([])

    def test_bad_cookie_gets_fresh_hello_verify_request(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        server.server_step(client.client_step([]))
        assert server.state is State.COOKIE_WAIT
        digest = server.transcript.copy().digest()

        bad_hello = wire.build_client_hello(client.client_random, b"\x00" * 32,
                                            wire.tls_curve_id(toy.id))
        out = server.server_step([client.records.encode(
            CONTENT_HANDSHAKE,
            wire.pack_handshake(wire.HT_CLIENT_HELLO, 1, bad_hello))])

        assert server.state is State.COOKIE_WAIT
        assert server.transcript.copy().digest() == digest
        assert len(out) == 1
        _outcome, ctype, payload = client.records.decode(out[0])
        assert ctype == CONTENT_HANDSHAKE
        msg_type, _seq, body = wire.parse_handshake(payload)
        assert msg_type == wire.HT_HELLO_VERIFY_REQUEST
        assert wire.parse_hello_verify_request(body) != b"\x00" * 32


class TestLoss:
    # the client's third flight: Certificate, ClientKeyExchange,
    # CertificateVerify, ChangeCipherSpec, Finished
    @pytest.mark.parametrize("lost", [3, 4], ids=["ccs", "finished"])
    def test_lost_client_record_stalls_without_raising(self, curves,
                                                       p160_pki, lost):
        def interceptor(sender, datagrams):
            if sender == "client" and len(datagrams) == 5:
                return datagrams[:lost] + datagrams[lost + 1:]
            return datagrams

        client, server = make_pair(curves["secp160r1"], p160_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        assert not client.established and not server.established


class TestReplayAcrossHandshake:
    def test_replayed_flight_ignored(self, toy, toy_pki):
        captured = []

        def interceptor(sender, datagrams):
            if sender == "client":
                captured.extend(datagrams)
            return datagrams

        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        assert result.established
        # replaying every captured client datagram leaves the server unmoved
        before = server.session_counters.get("ecdsa_verify", 0)
        server.server_step(captured)
        after = server.session_counters.get("ecdsa_verify", 0)
        assert server.established
        assert after == before

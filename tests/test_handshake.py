import hmac
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecdtls import counters, handshake, scalarmult, wire
from ecdtls.credentials import (CA_CN, CLIENT_CN, NOT_AFTER, NOT_BEFORE,
                                SERVER_CN, CredentialSet, Pki, generate_pki)
from ecdtls.drbg import HmacDrbg
from ecdtls.ecdsa import KeyPair
from ecdtls.energy import default_model
from ecdtls.handshake import (ENDPOINT_CAPACITY, MODE_CACHED, MODE_FULL,
                              HandshakeError, HandshakeSession, SessionConfig,
                              State)
from ecdtls.record import (CONTENT_ALERT, CONTENT_CCS, CONTENT_HANDSHAKE,
                           DROP_BAD_EPOCH, DROP_MALFORMED, DROP_OVERFLOW,
                           DROP_PACKED, RecordHeader)
from ecdtls.sha256 import HmacKey
from ecdtls.transport import MAX_LOOPBACK_ITERATIONS, run_loopback
from ecdtls.x509 import CertCache, make_certificate
from test_x509 import with_raised

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


def exchange_app_data(result, payload: bytes, interceptor=None) -> bool:
    """Client sends payload; server echoes it back.  True iff both arrive."""
    if not result.established:
        return False
    for sender, receiver, role in ((result.client, result.server, "client"),
                                   (result.server, result.client, "server")):
        datagrams = [sender.seal_app_data(payload)]
        if interceptor is not None:
            datagrams = interceptor(role, datagrams)
        received = None
        for d in datagrams:
            received = receiver.open_app_data(d)
        if received != payload:
            return False
    return True


@pytest.fixture(scope="module")
def toy_pki(toy):
    return generate_pki(toy, b"toy-pki-entropy" * 2)


@pytest.fixture(scope="module")
def p160_pki(curves):
    return generate_pki(curves["secp160r1"], b"p160-pki-entropy" * 2)


@pytest.fixture(scope="module")
def p256_pki(curves):
    return generate_pki(curves["secp256r1"], b"p256-pki-entropy" * 2)


@pytest.fixture(scope="module")
def cross_curve_pki(curves):
    """secp160r1 leaves under a secp256r1 CA."""
    drbg = HmacDrbg(b"cross-curve-pki" * 2)
    ca_key = KeyPair.generate(curves["secp256r1"], drbg)
    ca_der = make_certificate(CA_CN, CA_CN, 1, ca_key.Q, ca_key, NOT_BEFORE,
                              NOT_AFTER, ca=True)

    def party(cn, serial):
        key = KeyPair.generate(curves["secp160r1"], drbg)
        return CredentialSet(ca_der, make_certificate(
            cn, CA_CN, serial, key.Q, ca_key, NOT_BEFORE, NOT_AFTER), key)

    return Pki(ca_der, ca_key, party(SERVER_CN, 2), party(CLIENT_CN, 3))


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

    def test_app_data_exchange_through_interceptor(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server)
        seen = []

        def passing(role, datagrams):
            seen.append(role)
            return datagrams
        assert exchange_app_data(result, b"echo", passing)
        assert seen == ["client", "server"]
        # a lost echo does not arrive, nor does one delivered twice: the
        # copy is a replay, and the last datagram decides
        lost = lambda role, d: d if role == "client" else []
        doubled = lambda role, d: d if role == "client" else d * 2
        assert not exchange_app_data(result, b"echo", lost)
        assert not exchange_app_data(result, b"echo", doubled)

    def test_empty_app_payload_allowed(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server)
        datagram = client.seal_app_data(b"")
        assert server.open_app_data(datagram) == b""

    def test_records_packed_after_the_first_are_counted(self, toy, toy_pki):
        # RFC 6347 §4.1.1 lets a peer pack records; only the first is
        # delivered (the rest waits for ROADMAP item 2), and the rest is
        # one packed drop
        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server)
        datagram = client.seal_app_data(b"one") + client.seal_app_data(b"two")
        assert server.open_app_data(datagram) == b"one"
        assert server.records.drop_counts == {DROP_PACKED: 1}

    def test_app_data_before_established_rejected(self, toy, toy_pki):
        client, _ = make_pair(toy, toy_pki)
        with pytest.raises(HandshakeError):
            client.seal_app_data(b"too early")

    def test_teardown_zeroizes_keys(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server)
        client.close()
        assert_zeroized(client.security)

    def test_closed_session_seals_and_opens_nothing(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server)
        sealed = client.seal_app_data(b"before close")
        client.close()
        server.close()
        for end in (client, server):
            assert end.records.write_key is None
            assert end.records.read_key is None
            with pytest.raises(HandshakeError):
                end.seal_app_data(b"after close")
        with pytest.raises(HandshakeError):
            server.open_app_data(sealed)

    def test_close_moves_to_closed_and_failed_stays_failed(self, toy,
                                                           toy_pki):
        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server)
        stray = server.seal_app_data(b"after close")
        client.close()
        assert client.state is State.CLOSED
        assert not client.established and not client.failed
        assert client.client_step([stray]) == []
        with pytest.raises(HandshakeError, match="session closed"):
            client.open_app_data(stray)

        client, server = make_pair(toy, toy_pki,
                                   client_clock=lambda: NOT_AFTER + 1.0)
        assert not run_loopback(client, server).established
        client.close()
        assert client.state is State.FAILED and client.failed

    def test_leaving_with_block_zeroizes_established_keys(self, toy,
                                                          toy_pki):
        client, server = make_pair(toy, toy_pki)
        with client as c, server as s:
            assert (c, s) == (client, server)
            assert run_loopback(client, server).established
            assert any(client.security.master_secret)
        for end in (client, server):
            assert_zeroized(end.security)


def assert_zeroized(sec):
    """Every key buffer is all zero and the master key is gone."""
    for buf in (sec.master_secret, sec.client_key, sec.server_key,
                sec.client_salt, sec.server_salt):
        assert buf and not any(buf)
    assert sec.master_key is None


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

    def test_server_has_no_cached_mode(self, toy, toy_pki):
        # only a client caches the peer's certificate, so a cached server
        # would only look its peer up in a cache nothing fills
        with pytest.raises(HandshakeError, match="full mode only"):
            SessionConfig(role="server", curve=toy,
                          own_cert_der=toy_pki.server.cert_der,
                          own_key_d=toy_pki.server.key.d,
                          ca_der=toy_pki.ca_der, mode=MODE_CACHED)

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


class TestHmacKeys:
    """A session makes each HMAC key once, where the key is made, so no
    key's ipad and opad blocks are absorbed twice."""

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_CACHED])
    @pytest.mark.parametrize("name", ["toy59", "secp160r1"])
    def test_no_session_absorbs_a_key_twice(self, registry, toy_pki,
                                            p160_pki, monkeypatch, name,
                                            mode):
        absorbed = {}  # recorder -> the key bytes of each HmacKey made in it
        real = HmacKey.__init__

        def spy(key_self, key):
            for rec in counters._stack():
                absorbed.setdefault(rec, []).append(bytes(key))
            real(key_self, key)

        monkeypatch.setattr(HmacKey, "__init__", spy)
        pki = toy_pki if name == "toy59" else p160_pki
        cache = CertCache()
        sessions = []
        # a cached client misses its cache, then hits it
        for _ in range(1 if mode == MODE_FULL else 2):
            client, server = make_pair(registry.get(name), pki, mode=mode,
                                       cert_cache=cache)
            assert run_loopback(client, server).established
            sessions += [client, server]
        assert client.handshake_counters["cert_cache_hit"] == \
            (mode == MODE_CACHED)
        for end in sessions:
            keys = absorbed[end._recorder]
            assert len(keys) == len(set(keys)), end.role

    def test_a_second_cookieless_hello_costs_one_mac(self, toy, toy_pki):
        # the cookie key's pads were absorbed when the server was made, so
        # a hello answered again costs only the MAC of its 38-byte
        # "client" || random: an inner and an outer final block
        client, server = make_pair(toy, toy_pki)
        hello = client.client_step([])
        answer = server.server_step(hello)
        before = server.session_counters
        assert server.server_step(hello) == answer
        assert server.session_counters.diff(before) == {
            "hmac": 1, "sha_message": 2, "sha_compress": 2}


@pytest.fixture
def endpoints(monkeypatch):
    """An empty process-wide endpoint store for the test."""
    store = {}
    monkeypatch.setattr(handshake, "_ENDPOINTS", store)
    return store


def client_config(curve, pki, **change):
    return SessionConfig(**dict(
        dict(role="client", curve=curve, own_cert_der=pki.client.cert_der,
             own_key_d=pki.client.key.d, ca_der=pki.ca_der), **change))


class TestPreparedEndpoint:
    def test_key_of_another_certificate_refused(self, toy, toy_pki,
                                                endpoints):
        # before, this constructed, and its handshake failed at the server
        # with "CertificateVerify signature invalid"
        with pytest.raises(HandshakeError, match="does not match"):
            client_config(toy, toy_pki, own_key_d=toy_pki.server.key.d)
        assert endpoints == {}

    def test_certificate_on_another_curve_refused(self, curves, toy_pki,
                                                  endpoints):
        with pytest.raises(HandshakeError, match="does not match"):
            client_config(curves["secp160r1"], toy_pki)
        assert endpoints == {}

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_CACHED])
    @pytest.mark.parametrize("curve_name", ["toy59", "secp160r1"])
    def test_counters_equal_on_a_store_miss_and_hit(
            self, registry, toy_pki, p160_pki, endpoints, curve_name, mode):
        curve = registry.get(curve_name)
        pki = toy_pki if curve_name == "toy59" else p160_pki
        runs, outer = [], []
        # the first run prepares both endpoints; the second hits them
        for _ in range(2):
            with counters.scope() as scope:  # preparing records nothing here
                client, server = make_pair(curve, pki, mode=mode,
                                           cert_cache=CertCache())
                assert run_loopback(client, server).established
            outer.append(list(scope.counters.items()))
            runs.append([(end.config.endpoint,
                          list(end.handshake_counters.items()))
                         for end in (client, server)])
        assert len(endpoints) == 2 and outer[0] == outer[1]
        for (first, vector), (again, same) in zip(*runs):
            assert again is first and same == vector

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_CACHED])
    @pytest.mark.parametrize("curve_name", ["toy59", "secp160r1"])
    def test_a_hit_executes_no_multiplication(self, registry, toy_pki,
                                              p160_pki, endpoints,
                                              monkeypatch, curve_name, mode):
        curve = registry.get(curve_name)
        pki = toy_pki if curve_name == "toy59" else p160_pki
        calls = []
        execute = scalarmult._execute

        def spy(curve, steps):
            calls.append(curve.id)
            return execute(curve, steps)

        monkeypatch.setattr(scalarmult, "_execute", spy)
        make_pair(curve, pki, mode=mode)
        assert calls == [curve.id] * 2  # each end's Q = d*G, once
        calls.clear()
        make_pair(curve, pki, mode=mode)
        assert calls == []

    @pytest.mark.parametrize("role", ["client", "server"])
    @pytest.mark.parametrize("curve_name", ["toy59", "secp256r1"])
    def test_a_session_prices_none_of_its_endpoint(self, registry, toy_pki,
                                                   p256_pki, curve_name,
                                                   role):
        # before, each session repriced the own key's Q = d*G through its
        # comb cache and the trust anchor's parse
        curve = registry.get(curve_name)
        pki = toy_pki if curve_name == "toy59" else p256_pki
        party = pki.client if role == "client" else pki.server
        config = SessionConfig(
            role=role, curve=curve, own_cert_der=party.cert_der,
            own_key_d=party.key.d, ca_der=pki.ca_der)
        with counters.scope() as scope:
            session = HandshakeSession(config)
        assert scope.counters == session.session_counters
        assert set(scope.counters).isdisjoint({
            "ecsm_comb", "comb_precompute", "x509_parse"})

    def test_a_cookieless_hello_costs_a_server_under_1_uJ(self, curves,
                                                         p256_pki):
        # before, the server's construction alone modeled 17.71 uJ
        client, server = make_pair(curves["secp256r1"], p256_pki)
        assert len(server.server_step(client.client_step([]))) == 1
        assert server.state is State.INIT
        uJ = default_model().estimate(server.session_counters).total * 1e6
        assert uJ < 1

    def test_store_holds_at_most_its_capacity(self, toy, toy_pki, endpoints):
        key = toy_pki.client.key

        def config(serial):
            der = make_certificate(CLIENT_CN, CA_CN, 100 + serial, key.Q,
                                   toy_pki.ca_key, NOT_BEFORE, NOT_AFTER)
            return client_config(toy, toy_pki, own_cert_der=der)

        made = []
        for serial in range(ENDPOINT_CAPACITY):
            made.append(config(serial).endpoint)
            assert len(endpoints) == serial + 1
        assert config(0).endpoint is made[0]  # a hit, now the most recent
        config(ENDPOINT_CAPACITY)  # evicts the stalest, serial 1
        assert len(endpoints) == ENDPOINT_CAPACITY
        assert config(0).endpoint is made[0]
        assert config(1).endpoint is not made[1]
        assert len(endpoints) == ENDPOINT_CAPACITY

    def test_each_field_selects_its_own_endpoint(self, curves, toy, toy_pki,
                                                 endpoints):
        key = toy_pki.client.key
        first = client_config(toy, toy_pki).endpoint
        assert (first.own_key.d, first.own_key.Q) == (key.d, key.Q)
        assert first.ca_key == toy_pki.ca_key.Q
        # the same key certified again, and another trust anchor
        reissued = make_certificate(CLIENT_CN, CA_CN, 99, key.Q,
                                    toy_pki.ca_key, NOT_BEFORE, NOT_AFTER)
        other = generate_pki(toy, b"other-endpoint-entropy" * 2)
        endpoint = client_config(toy, toy_pki, own_cert_der=reissued).endpoint
        assert endpoint is not first and endpoint.own_key.Q == key.Q
        endpoint = client_config(toy, toy_pki, ca_der=other.ca_der).endpoint
        assert endpoint is not first and endpoint.ca_key == other.ca_key.Q
        # another scalar or curve no longer matches the certificate
        for curve, d in ((toy, toy_pki.server.key.d),
                         (curves["secp160r1"], key.d)):
            with pytest.raises(HandshakeError, match="does not match"):
                client_config(curve, toy_pki, own_key_d=d)
        assert len(endpoints) == 3

    def test_threads_share_a_bounded_store(self, toy, toy_pki, endpoints):
        key = toy_pki.client.key
        ders = [make_certificate(CLIENT_CN, CA_CN, 200 + serial, key.Q,
                                 toy_pki.ca_key, NOT_BEFORE, NOT_AFTER)
                for serial in range(2 * ENDPOINT_CAPACITY)]
        got, errors = [], []

        def worker(offset):
            try:
                for i in range(3 * len(ders)):
                    der = ders[(offset + i) % len(ders)]
                    got.append(client_config(toy, toy_pki, own_cert_der=der
                                             ).endpoint.own_key.Q)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(0, 16, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(got) == 4 * 3 * len(ders) and set(got) == {key.Q}
        assert len(endpoints) == ENDPOINT_CAPACITY


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
        # flip the last bit of s in the SKE signature; the client must abort
        # before its flight 5
        def interceptor(sender, datagrams):
            return [d[:-1] + bytes([d[-1] ^ 0x01])
                    if d[0] == CONTENT_HANDSHAKE
                    and d[13] == wire.HT_SERVER_KEY_EXCHANGE else d
                    for d in datagrams]

        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        assert not result.established
        assert client.failed
        assert client.failure_reason == "ServerKeyExchange signature invalid"

    def test_failure_zeroizes_both_ends_keys(self, toy, toy_pki):
        # a forged CertificateVerify fails the server after it derived its
        # keys, and the server's alert fails the client: both wipe them
        def interceptor(sender, datagrams):
            return [d[:-1] + bytes([d[-1] ^ 0x01])
                    if sender == "client" and d[0] == CONTENT_HANDSHAKE
                    and d[13] == wire.HT_CERTIFICATE_VERIFY else d
                    for d in datagrams]

        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server, interceptor=interceptor)
        assert server.failure_reason == "CertificateVerify signature invalid"
        assert client.failure_reason == "peer sent a fatal alert"
        for end in (client, server):
            assert end.failed
            assert_zeroized(end.security)

    def test_client_failing_on_server_finished_alerts_at_epoch_1(self, toy,
                                                                toy_pki):
        # a server Finished that opens but does not verify fails the client
        # after it sent its own Finished, so its alert is sealed under the
        # client write key, which failing then drops
        sent = []

        def interceptor(sender, datagrams):
            if sender == "client":
                sent.extend(datagrams)
                return datagrams
            forged = wire.pack_handshake(wire.HT_FINISHED, 6, bytes(12))
            return [server.records.encode(1, CONTENT_HANDSHAKE, forged)
                    if RecordHeader.parse(d).epoch == 1 else d
                    for d in datagrams]

        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server, interceptor=interceptor)
        assert client.failure_reason == "server finished verification failed"
        assert client.records.write_key is None
        alert = RecordHeader.parse(sent[-1])
        assert (alert.content_type, alert.epoch) == (CONTENT_ALERT, 1)

    def test_server_failing_on_client_finished_alerts_at_epoch_0(self, toy,
                                                                 toy_pki):
        # a client Finished that opens but does not verify fails the server
        # before it sent its ChangeCipherSpec, so its alert is plaintext
        sent = []

        def interceptor(sender, datagrams):
            if sender == "server":
                sent.extend(datagrams)
                return datagrams
            forged = wire.pack_handshake(wire.HT_FINISHED, 5, bytes(12))
            return [client.records.encode(1, CONTENT_HANDSHAKE, forged)
                    if RecordHeader.parse(d).epoch == 1 else d
                    for d in datagrams]

        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server, interceptor=interceptor)
        assert server.failure_reason == "client finished verification failed"
        assert server.records.write_key is None
        alert = RecordHeader.parse(sent[-1])
        assert (alert.content_type, alert.epoch) == (CONTENT_ALERT, 0)
        assert not any(RecordHeader.parse(d).epoch for d in sent)

    def test_change_cipher_spec_body_must_be_one(self, toy, toy_pki):
        # RFC 5246 §7.1: the ChangeCipherSpec body is the single byte 1;
        # any other is an invalid epoch-0 record, dropped (RFC 6347 §4.1.2.7)
        genuine = []

        def interceptor(sender, datagrams):
            genuine.extend(d for d in datagrams if d[0] == CONTENT_CCS)
            return [d[:11] + b"\x00\x03\x07\x07\x07"
                    if d[0] == CONTENT_CCS else d for d in datagrams]

        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        assert not result.established and not server.failed
        assert server.state is State.FINISHED_WAIT
        assert server.records.read_epoch == 0
        client.client_step(server.server_step(genuine))
        assert client.established and server.established

    def test_truncated_datagram_just_stalls_or_fails(self, toy, toy_pki):
        def interceptor(sender, datagrams):
            return [d[:10] for d in datagrams] if sender == "server" else datagrams

        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server, interceptor=interceptor)
        assert not result.established


PEER_OF = {"client": "server", "server": "client"}
ROLE_CN = {"server": SERVER_CN, "client": CLIENT_CN}


def sends(monkeypatch, name, rewrite, only=lambda *args: True):
    """Patch wire.<name>, which the handshake builds its messages with, so
    that a call for which only(*args) holds returns rewrite(real, *args)."""
    real = getattr(wire, name)
    monkeypatch.setattr(wire, name, lambda *args: rewrite(real, *args)
                        if only(*args) else real(*args))


def sends_chain(monkeypatch, pki, peer, chain):
    """The peer (a role) sends chain as its Certificate message."""
    own = [getattr(pki, peer).cert_der]
    sends(monkeypatch, "build_certificate", lambda real, ders: real(chain),
          only=lambda ders: ders == own)


# what the peer sends -> the failure_reason of the end that checks it
REFUSALS = {
    "empty_certificate": "peer sent no certificate",
    "ca_first": "peer certificate rejected",
    "wrong_cn": "peer certificate rejected",
    "other_ca": "peer certificate rejected",
    "expired": "peer certificate rejected: expired",
    "undecodable_signature": "undecodable %s signature",
    "off_curve_point": "key agreement failed: point not on curve",
}


def off_curve(point: bytes) -> bytes:
    return point[:-1] + bytes([point[-1] ^ 0x01])


class TestPeerAuthentication:
    """Both roles check the peer's leaf, its signature and its ephemeral
    point on one path, so each refusal reads the same from either role."""

    @pytest.mark.parametrize("peer", ["server", "client"])
    def test_leaf_then_ca_establishes(self, toy, toy_pki, monkeypatch, peer):
        # RFC 5246 §7.4.2: the sender's own certificate comes first, and
        # the certificates that certify it may follow
        sends_chain(monkeypatch, toy_pki, peer,
                    [getattr(toy_pki, peer).cert_der, toy_pki.ca_der])
        client, server = make_pair(toy, toy_pki)
        assert run_loopback(client, server).established
        checker = {"client": client, "server": server}[PEER_OF[peer]]
        assert checker.peer_key == getattr(toy_pki, peer).key.Q

    @pytest.mark.parametrize("peer", ["server", "client"])
    @pytest.mark.parametrize("trigger", list(REFUSALS))
    def test_refusal_reasons(self, toy, toy_pki, monkeypatch, peer, trigger):
        # a signature that decodes but does not verify is pinned by
        # test_tampered_server_key_exchange_fails_before_flight5 and
        # test_failure_zeroizes_both_ends_keys
        reason = REFUSALS[trigger]
        cred = getattr(toy_pki, peer)

        def leaf(cn=ROLE_CN[peer], issuer_cn=CA_CN, issuer=toy_pki.ca_key,
                 not_after=NOT_AFTER):
            return make_certificate(cn, issuer_cn, 9, cred.key.Q, issuer,
                                    NOT_BEFORE, not_after)

        chains = {
            "empty_certificate": lambda: [],
            "ca_first": lambda: [toy_pki.ca_der, cred.cert_der],
            "wrong_cn": lambda: [leaf(cn="intruder")],
            "other_ca": lambda: [leaf(
                issuer_cn="another test ca",
                issuer=generate_pki(toy, b"other-anchor" * 3).ca_key)],
            "expired": lambda: [leaf(not_after=NOT_BEFORE + 1)],
        }
        signed = {"server": ("build_server_key_exchange", "ServerKeyExchange"),
                  "client": ("build_certificate_verify", "CertificateVerify")}
        if trigger in chains:
            sends_chain(monkeypatch, toy_pki, peer, chains[trigger]())
        elif trigger == "undecodable_signature":
            name, what = signed[peer]
            reason %= what
            # a DER SEQUENCE holding neither r nor s
            sends(monkeypatch, name,
                  lambda real, *args: real(*args[:-1], b"\x30\x00"))
        elif peer == "server":  # the point is signed, so the signature holds
            sends(monkeypatch, "build_server_ecdh_params",
                  lambda real, code, point: real(code, off_curve(point)))
        else:
            sends(monkeypatch, "build_client_key_exchange",
                  lambda real, point: real(off_curve(point)))

        client, server = make_pair(toy, toy_pki)
        assert not run_loopback(client, server).established
        checker = {"client": client, "server": server}[PEER_OF[peer]]
        assert checker.failed and checker.failure_reason == reason

    def test_signature_past_the_issuer_order_refused_uncached(
            self, toy, toy_pki, registry, monkeypatch):
        # the leaf parses, and only ecdsa_verify's range check refuses it:
        # this signature's x is r + n, below p
        sends_chain(monkeypatch, toy_pki, "server", [with_raised(
            toy_pki.server.cert_der, registry, "r", toy.n)])
        cache = CertCache()
        client, server = make_pair(toy, toy_pki, mode=MODE_CACHED,
                                   cert_cache=cache)
        assert not run_loopback(client, server).established
        assert client.failure_reason == \
            "peer certificate rejected: bad_signature"
        assert len(cache) == 0


class TestChainAcrossCurves:
    """Each signature is checked under its issuer's key, on the issuer's
    curve (RFC 5280 §6.1.3), so a leaf on one registered curve establishes
    under a CA on another."""

    def test_full_and_cached_establish(self, curves, cross_curve_pki):
        curve = curves["secp160r1"]
        cache = CertCache()
        for mode, lookup in ((MODE_FULL, None), (MODE_CACHED, "miss"),
                             (MODE_CACHED, "hit")):
            client, server = make_pair(curve, cross_curve_pki, mode=mode,
                                       cert_cache=cache if lookup else None)
            assert run_loopback(client, server).established
            assert bytes(client.security.master_secret) == \
                bytes(server.security.master_secret)
            if lookup:
                assert client.handshake_counters["cert_cache_" + lookup] == 1

    def test_leaf_check_runs_provisioned_rows(self, curves, cross_curve_pki,
                                              fresh_endpoints, monkeypatch):
        # the u1*G and u2*Q of each leaf check are on the CA's curve,
        # secp256r1, whose G each endpoint provisions beside its anchor: no
        # multiplication on that curve runs wNAF
        seen = []
        wnaf = scalarmult._wnaf

        def spy(curve, k, x, y):
            seen.append(curve.id)
            return wnaf(curve, k, x, y)

        monkeypatch.setattr(scalarmult, "_wnaf", spy)
        client, server = make_pair(curves["secp160r1"], cross_curve_pki)
        assert run_loopback(client, server).established
        assert curves["secp256r1"].generator().rows is not None
        assert client.ca_key.curve.id == "secp256r1"
        assert seen and "secp256r1" not in seen


class TestStateMachine:
    def test_flight_table_drives_loopback(self, toy, toy_pki):
        # each step sees the resting state it leaves and the peer's whole
        # last flight, one record per datagram
        client, server = make_pair(toy, toy_pki)
        steps = {"client": [], "server": []}

        def recording(session, step):
            def wrapped(datagrams):
                steps[session.role].append((session.state, len(datagrams)))
                return step(datagrams)
            return wrapped

        client.client_step = recording(client, client.client_step)
        server.server_step = recording(server, server.server_step)
        assert run_loopback(client, server).established

        assert steps == {
            "client": [(State.INIT, 0), (State.HELLO_SENT, 1),
                       (State.COOKIE_WAIT, 5), (State.FINISHED_WAIT, 2)],
            "server": [(State.INIT, 1), (State.INIT, 1),
                       (State.HELLO_EXCHANGED, 5)],
        }

    def test_loopback_stops_after_its_round_bound(self, toy, toy_pki):
        # a client that only ever re-sends its first ClientHello gets a
        # HelloVerifyRequest from the INIT server every round, so only the
        # bound ends the exchange
        client, server = make_pair(toy, toy_pki)
        hello = client.client_step([])
        client.client_step = lambda datagrams: hello
        result = run_loopback(client, server)
        assert result.iterations == MAX_LOOPBACK_ITERATIONS
        assert not client.established and not server.established
        assert server.state is State.INIT

    def test_flights_split_one_datagram_per_step_establish(self, curves,
                                                           p160_pki):
        # a flight is one unit (RFC 6347 §4.2.4): each end buffers the
        # datagrams of a flight across steps until it is whole
        client, server = make_pair(curves["secp160r1"], p160_pki)
        steps = {"client": client.client_step, "server": server.server_step}
        peer = {"client": "server", "server": "client"}
        queue = [("server", d) for d in client.client_step([])]
        delivered = {"client": 0, "server": 0}
        while queue:
            role, datagram = queue.pop(0)
            delivered[role] += 1
            queue += [(peer[role], d) for d in steps[role]([datagram])]
        assert client.established and server.established
        assert delivered == {"client": 8, "server": 7}
        assert bytes(client.security.master_secret) == \
            bytes(server.security.master_secret)
        assert client.transcript.digest() == server.transcript.digest()

    def test_off_path_alert_ends_a_waiting_session(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        hello_verify = server.server_step(client.client_step([]))
        flight = server.server_step(client.client_step(hello_verify))
        assert len(flight) == 5
        assert client.client_step(flight[:2]) == []  # waits for the rest
        assert client.state is State.COOKIE_WAIT
        forged = RecordHeader(CONTENT_ALERT, 0, 1 << 20, 2).pack() + \
            bytes([2, 40])
        assert client.client_step([forged]) == []  # an alert gets no answer
        assert client.failed
        assert client.failure_reason == "peer sent a fatal alert"

    def test_steps_after_terminal_state_are_noops(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        result = run_loopback(client, server)
        assert result.established
        assert client.client_step([]) == []
        assert server.server_step([]) == []

        failed, server = make_pair(toy, toy_pki)
        failed.client_step([])
        # a HelloVerifyRequest with a truncated body: abort with alert
        bad = [server.records.encode(0, CONTENT_HANDSHAKE, wire.pack_handshake(
            wire.HT_HELLO_VERIFY_REQUEST, 0, b"\xfe"))]
        assert len(failed.client_step(bad)) == 1
        assert failed.failed
        reason = failed.failure_reason
        assert failed.client_step(bad) == []
        assert failed.client_step([]) == []
        assert failed.failed and failed.failure_reason == reason

    def test_wrong_role_step_rejected(self, toy, toy_pki):
        client, _ = make_pair(toy, toy_pki)
        with pytest.raises(HandshakeError):
            client.server_step([])

    def test_bad_cookie_gets_fresh_hello_verify_request(self, toy, toy_pki):
        client, server = make_pair(toy, toy_pki)
        server.server_step(client.client_step([]))
        assert server.state is State.INIT
        digest = server.transcript.copy().digest()

        bad_hello = client.records.encode(
            0, CONTENT_HANDSHAKE, wire.pack_handshake(
                wire.HT_CLIENT_HELLO, 1, wire.build_client_hello(
                    client.client_random, b"\x00" * 32, toy.tls_code)))
        out = server.server_step([bad_hello])

        assert server.state is State.INIT
        assert server.transcript.copy().digest() == digest
        assert len(out) == 1
        # RFC 6347 §4.2.1: the answer carries the hello's record sequence
        assert RecordHeader.parse(out[0]).sequence == \
            RecordHeader.parse(bad_hello).sequence == 1
        _outcome, ctype, payload = client.records.decode(out[0])
        assert ctype == CONTENT_HANDSHAKE
        msg_type, seq, body = wire.parse_handshake(payload)
        assert (msg_type, seq) == (wire.HT_HELLO_VERIFY_REQUEST, 0)
        assert wire.parse_hello_verify_request(body) != b"\x00" * 32

    def test_cookie_and_finished_compared_in_constant_time(self, toy,
                                                           toy_pki,
                                                           monkeypatch):
        # (role, checking method, received, expected) per comparison made
        # by a session; the record layer's tag checks are left out
        seen = []
        real = hmac.compare_digest

        def spy(a, b):
            caller = sys._getframe(1)
            owner = caller.f_locals.get("self")
            if isinstance(owner, HandshakeSession):
                seen.append((owner.role, caller.f_code.co_name, bytes(a),
                             bytes(b)))
            return real(a, b)

        monkeypatch.setattr(hmac, "compare_digest", spy)
        client, server = make_pair(toy, toy_pki)
        assert run_loopback(client, server).established
        cookie = server.cookie_key.mac(b"client" + client.client_random)
        assert len(cookie) == 32
        assert ("server", "_check_cookie", cookie, cookie) in seen
        for role in ("client", "server"):
            finished = [(got, want) for who, name, got, want in seen
                        if (who, name) == (role, "_read_peer_finished")]
            assert len(finished) == 1
            got, want = finished[0]
            assert got == want and len(got) == 12

    @pytest.mark.parametrize("offer", ["curve", "suite"])
    def test_verified_hello_without_our_offer_fails(self, toy, toy_pki,
                                                    curves, offer):
        # the cookie holds, so the suite and curve are checked, and a hello
        # that lacks ours ends the handshake
        _, server = make_pair(toy, toy_pki)
        random = bytes(range(32))
        cookie = wire.parse_hello_verify_request(wire.parse_handshake(
            server.server_step([epoch_0_hello(random, toy.tls_code)]
                               )[0][13:])[2])
        hello = {"curve": epoch_0_hello(random, curves["secp256r1"].tls_code,
                                        cookie, seq=1),
                 "suite": epoch_0_hello(random, toy.tls_code, cookie, seq=1,
                                        suite=0xC02C)}[offer]
        assert len(server.server_step([hello])) == 1  # the fatal alert
        assert server.failed
        assert server.failure_reason == {
            "curve": "client does not offer our curve",
            "suite": "client does not offer our cipher suite"}[offer]


def epoch_0_hello(random, curve_code, cookie=b"", seq=0,
                  suite=wire.CIPHER_ECDHE_ECDSA_AES128_GCM_SHA256):
    """An epoch-0 record holding a ClientHello numbered seq, offering one
    curve and one cipher suite."""
    body = wire.build_client_hello(random, cookie, curve_code)
    at = 2 + 32 + 1 + 1 + len(cookie) + 2  # the cipher_suites list
    body = body[:at] + suite.to_bytes(2, "big") + body[at + 2:]
    msg = wire.pack_handshake(wire.HT_CLIENT_HELLO, seq, body)
    return RecordHeader(CONTENT_HANDSHAKE, 0, 0, len(msg)).pack() + msg


def at_record_seq(record, sequence):
    """The record, with its header's sequence number replaced."""
    return record[:5] + sequence.to_bytes(6, "big") + record[11:]


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


# Datagrams that must leave a handshake untouched: too short for a record
# header, an epoch-0 record of unknown content type at a far sequence number
# (probe B), an epoch-0 handshake record whose header does not parse
# (probe A), a bare epoch-1 handshake header, held until the keys exist, and
# an epoch-0 ClientHello whose body does not parse.
JUNK = [b"junk",
        RecordHeader(99, 0, 1 << 40, 1).pack() + b"?",
        RecordHeader(CONTENT_HANDSHAKE, 0, 0, 2).pack() + b"\x01\x00",
        RecordHeader(CONTENT_HANDSHAKE, 1, 0, 0).pack(),
        RecordHeader(CONTENT_HANDSHAKE, 0, 0, 14).pack() +
        wire.pack_handshake(wire.HT_CLIENT_HELLO, 0, b"\xfe\xfd")]


def step_of(session):
    return session.client_step if session.role == "client" else \
        session.server_step


class TestMessageLayer:
    """The session reads whole messages by message_seq, so neither the
    grouping of records into datagrams, nor their order within a flight,
    nor strays beside them change what a handshake does."""

    @pytest.fixture(scope="class", params=["toy59", "secp160r1"])
    def reference(self, request, toy, toy_pki, curves, p160_pki):
        """A curve, its PKI and an in-order loopback pair on it."""
        curve, pki = (toy, toy_pki) if request.param == "toy59" else \
            (curves["secp160r1"], p160_pki)
        client, server = make_pair(curve, pki)
        assert run_loopback(client, server).established
        return curve, pki, client, server

    @staticmethod
    def assert_same_handshake(reference, client, server, hello_verifies=1):
        """The pair established as the reference pair did.  The server's
        counters add one cookie MAC, under the key it made once, per
        HelloVerifyRequest beyond the reference's one."""
        _, _, ref_client, ref_server = reference
        assert client.established and server.established
        for end, ref in ((client, ref_client), (server, ref_server)):
            assert bytes(end.security.master_secret) == \
                bytes(ref.security.master_secret)
            assert end.transcript.digest() == ref.transcript.digest()
        assert client.handshake_counters == ref_client.handshake_counters
        expected = ref_server.handshake_counters
        with counters.scope() as cookie_price:
            server.cookie_key.mac(b"client" + client.client_random)
        for _ in range(hello_verifies - 1):
            expected = expected + cookie_price.counters
        assert server.handshake_counters == expected

    @staticmethod
    def play(client, server, datagrams):
        """Step the pair in turn, from datagrams bound for the client, until
        none is in flight."""
        while datagrams:
            datagrams = server.server_step(client.client_step(datagrams))

    @staticmethod
    def assert_agree(client, server):
        assert client.established and server.established
        assert bytes(client.security.master_secret) == \
            bytes(server.security.master_secret)
        assert client.transcript.digest() == server.transcript.digest()

    def test_each_flight_packed_into_one_datagram_establishes(self,
                                                              reference):
        # probe (C): RFC 6347 §4.1.1 lets a flight share one datagram
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        result = run_loopback(client, server,
                              lambda role, datagrams: [b"".join(datagrams)])
        self.assert_same_handshake(reference, client, server)
        assert result.iterations == 4

    @pytest.mark.parametrize("order", ["swapped", "reversed"])
    def test_flights_out_of_order_establish(self, reference, order):
        # probe (D): the first two records of every flight swapped, or
        # every flight reversed
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        if order == "swapped":
            reorder = lambda role, datagrams: datagrams[1::-1] + datagrams[2:]
        else:
            reorder = lambda role, datagrams: datagrams[::-1]
        run_loopback(client, server, reorder)
        self.assert_same_handshake(reference, client, server)

    def test_stray_datagram_does_not_complete_a_flight(self, reference):
        # junk plus four of the five server records used to run the
        # client's handler one record short, which then stalled for good
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        hello_verify = server.server_step(client.client_step([]))
        flight = server.server_step(client.client_step(hello_verify))
        assert client.client_step([b"junk"] + flight[:4]) == []
        assert client.state is State.COOKIE_WAIT
        finished = server.server_step(client.client_step(flight[4:]))
        assert client.client_step(finished) == []
        self.assert_same_handshake(reference, client, server)

    def test_app_data_ahead_of_the_server_finished_is_dropped(self,
                                                              reference):
        # the server's first app record overtakes its Finished: the client
        # starts read epoch 1 on it, finds no Finished, and reads the
        # Finished that comes next under that epoch
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        hello_verify = server.server_step(client.client_step([]))
        flight = server.server_step(client.client_step(hello_verify))
        ccs, finished = server.server_step(client.client_step(flight))
        for datagram in (ccs, server.seal_app_data(b"early"), finished):
            assert client.client_step([datagram]) == []
        self.assert_agree(client, server)
        assert client.open_app_data(server.seal_app_data(b"next")) == b"next"

    @pytest.mark.parametrize("stray", ["header", "forged", "corrupt",
                                       "epoch0"])
    def test_stray_ahead_of_the_client_finished(self, reference, stray):
        # an off-path epoch-1 record, the client's Finished with its last
        # byte flipped, or an off-path epoch-0 Finished reaches the server
        # before the genuine Finished
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        hello_verify = server.server_step(client.client_step([]))
        flight = client.client_step(server.server_step(
            client.client_step(hello_verify)))
        finished = flight.pop()
        fake = wire.pack_handshake(wire.HT_FINISHED, 5, bytes(12))
        flight.append({"header": JUNK[3],
                       "forged": RecordHeader(CONTENT_HANDSHAKE, 1, 0, 48
                                              ).pack() + bytes(48),
                       "corrupt": finished[:-1] + bytes([finished[-1] ^ 1]),
                       "epoch0": RecordHeader(CONTENT_HANDSHAKE, 0, 9, 24
                                              ).pack() + fake,
                       }[stray])
        assert server.server_step(flight) == []
        assert server.state is State.FINISHED_WAIT
        client.client_step(server.server_step([finished]))
        self.assert_agree(client, server)

    @staticmethod
    def off_path_finished(message_seq):
        """An epoch-0 record holding a Finished numbered message_seq."""
        fake = wire.pack_handshake(wire.HT_FINISHED, message_seq, bytes(12))
        return RecordHeader(CONTENT_HANDSHAKE, 0, 0, len(fake)).pack() + fake

    def test_message_ahead_of_the_awaited_flight_is_not_filed(self,
                                                              reference):
        # numbered 1, it took the place of the cookie hello, and the pair
        # failed on "expected handshake type 1, got 20"
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        assert server.server_step([self.off_path_finished(1)]) == []
        run_loopback(client, server)
        self.assert_same_handshake(reference, client, server)

    def test_off_path_messages_leave_nothing_filed(self, toy, toy_pki):
        # only the awaited flight's message_seq range is filed, so strays
        # numbered past it cost a fresh server no memory; the record layer
        # holds only the latest four epoch-1 records for the keys and counts
        # each older one as a drop, so junk sent ahead of a flight can
        # neither grow what is held nor lock out its Finished
        client, server = make_pair(toy, toy_pki)
        strays = [self.off_path_finished(seq) for seq in range(1, 1001)]
        strays += [RecordHeader(CONTENT_HANDSHAKE, 1, seq, 0).pack()
                   for seq in range(1000)]
        assert server.server_step(strays) == []
        assert server._messages == {}
        assert len(server.records._held) == 4
        assert server.records.drop_counts == {DROP_OVERFLOW: 996}
        assert run_loopback(client, server).established

    def test_epoch_0_finished_is_never_filed(self, reference):
        # a Finished flight runs as soon as its message is filed, so a
        # forged epoch-0 Finished under the right message_seq must not be
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        hello_verify = server.server_step(client.client_step([]))
        flight = server.server_step(client.client_step(hello_verify))
        finished = server.server_step(client.client_step(flight))
        assert client.state is State.FINISHED_WAIT
        assert client.client_step([self.off_path_finished(6)]) == []
        assert client.state is State.FINISHED_WAIT
        client.client_step(finished)
        self.assert_same_handshake(reference, client, server)

    @settings(max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_grouping_order_and_stray_establishes(self, reference, data):
        """Each flight's records are permuted, cut into datagrams, and
        handed over one or more datagrams per step, with at most one extra:
        a junk datagram, a stale datagram from an earlier flight of the same
        sender, or a duplicated record."""
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        sent = {"client": [], "server": []}
        hello_verifies = 0  # a stale first hello gets one more
        sender, receiver, records = client, server, client.client_step([])
        while records:
            records = data.draw(st.permutations(records))
            extra = data.draw(st.sampled_from(
                ["none", "junk", "stale", "duplicate"]))
            if extra == "duplicate":
                records.insert(data.draw(st.integers(0, len(records))),
                               data.draw(st.sampled_from(records)))
            cuts = sorted(data.draw(st.sets(st.integers(
                1, len(records) - 1)))) if len(records) > 1 else []
            datagrams = [b"".join(records[i:j]) for i, j in
                         zip([0] + cuts, cuts + [len(records)])]
            if extra == "junk" or extra == "stale" and sent[sender.role]:
                datagrams.insert(
                    data.draw(st.integers(0, len(datagrams))),
                    data.draw(st.sampled_from(
                        JUNK if extra == "junk" else sent[sender.role])))
            sent[sender.role] += records
            reply = []
            while datagrams:
                n = data.draw(st.integers(1, len(datagrams)))
                reply += step_of(receiver)(datagrams[:n])
                datagrams = datagrams[n:]
            if receiver is server:  # byte 13 is 0 in an epoch-1 record
                hello_verifies += sum(
                    r[0] == CONTENT_HANDSHAKE and
                    r[13] == wire.HT_HELLO_VERIFY_REQUEST for r in reply)
            sender, receiver, records = receiver, sender, reply
        self.assert_same_handshake(reference, client, server, hello_verifies)

    def test_unparsable_handshake_record_drops_at_epoch_0_aborts_at_1(
            self, toy, toy_pki):
        # probe (A): RFC 6347 §4.1.2.7 discards an invalid record; only an
        # authenticated one can end the session.  A server fed only junk,
        # one datagram per step, answers none of it and counts each
        # datagram too short for a record header as malformed
        client, server = make_pair(toy, toy_pki)
        for datagram in (JUNK[0], JUNK[2], JUNK[0], JUNK[4]):
            assert server.server_step([datagram]) == []
        assert server.state is State.INIT
        assert server.records.drop_counts == {DROP_MALFORMED: 2}
        assert run_loopback(client, server).established

        def bad_finished(role, datagrams):
            if role == "client" and len(datagrams) == 5:
                datagrams[4] = client.records.encode(1, CONTENT_HANDSHAKE,
                                                     b"\x01\x00")
            return datagrams

        client, server = make_pair(toy, toy_pki)
        run_loopback(client, server, bad_finished)
        assert server.failed
        assert server.failure_reason == \
            "bad handshake framing: handshake header truncated"

    def test_off_path_records_do_not_shadow_a_client_hello(self, toy,
                                                           toy_pki):
        # probe (B): epoch 0 keeps no replay window (RFC 6347 §4.2.2).  An
        # off-path Finished numbered 0 must not take the hello's place, nor
        # a ChangeCipherSpec with body 07 the genuine one's: both are dropped
        client, server = make_pair(toy, toy_pki)
        bad_ccs = RecordHeader(CONTENT_CCS, 0, 7, 1).pack() + b"\x07"
        assert server.server_step([JUNK[1], self.off_path_finished(0),
                                   bad_ccs]) == []
        hello_verify = server.server_step(client.client_step([]))
        assert len(hello_verify) == 1
        assert wire.parse_handshake(hello_verify[0][13:])[0] == \
            wire.HT_HELLO_VERIFY_REQUEST
        # a forged hello with a bad cookie is answered, and does not use up
        # the message_seq of the genuine one
        forged = wire.pack_handshake(wire.HT_CLIENT_HELLO, 1,
                                     wire.build_client_hello(
                                         client.client_random, b"\x00" * 32,
                                         toy.tls_code))
        assert len(server.server_step([RecordHeader(
            CONTENT_HANDSHAKE, 0, 9, len(forged)).pack() + forged])) == 1
        flight = server.server_step(client.client_step(hello_verify))
        client.client_step(server.server_step(client.client_step(flight)))
        assert client.established and server.established

    @staticmethod
    def hello_verify(record):
        """The (record seq, message_seq) of a HelloVerifyRequest record."""
        msg_type, seq, _ = wire.parse_handshake(record[13:])
        assert msg_type == wire.HT_HELLO_VERIFY_REQUEST
        return RecordHeader.parse(record).sequence, seq

    @pytest.mark.parametrize("offer", ["ours", "other_curve"])
    def test_forged_hello_leaves_a_fresh_server_in_init(self, reference,
                                                        curves, offer):
        # probe (H): a cookieless hello numbered 0 with another random used
        # to move the server to COOKIE_WAIT, and the genuine hello then fell
        # below the awaited range; offering another curve, it failed the
        # server with "client does not offer our curve"
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        code = curve.tls_code if offer == "ours" else \
            curves["secp256r1"].tls_code
        out = server.server_step([epoch_0_hello(b"F" * 32, code)])
        assert [self.hello_verify(d) for d in out] == [(0, 0)]
        assert server.state is State.INIT and not server.failed
        assert server._messages == {}
        assert run_loopback(client, server).established
        self.assert_same_handshake(reference, client, server, 2)

    def test_re_sent_first_hello_is_answered_again(self, reference):
        # the HelloVerifyRequest is lost, and the client sends its hello
        # again: the server answers it as it did the first
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        hello = client.client_step([])
        lost = server.server_step(hello)
        again = server.server_step(hello)
        assert again == lost and len(again) == 1
        assert server.state is State.INIT
        self.play(client, server, again)
        self.assert_same_handshake(reference, client, server, 2)

    def test_server_numbers_its_records_from_the_hello(self, reference):
        # RFC 6347 §4.2.1: the HelloVerifyRequest carries the hello's record
        # sequence number, and the server's flight goes on from the verified
        # hello's record sequence number and message_seq
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        hello = client.client_step([])[0]
        hello_verify = server.server_step([at_record_seq(hello, 7)])
        assert [self.hello_verify(d) for d in hello_verify] == [(7, 0)]
        cookie_hello = client.client_step(hello_verify)[0]
        flight = server.server_step([at_record_seq(cookie_hello, 9)])
        assert [(RecordHeader.parse(d).sequence,
                 wire.parse_handshake(d[13:])[:2]) for d in flight[:2]] == \
            [(9, (wire.HT_SERVER_HELLO, 1)), (10, (wire.HT_CERTIFICATE, 2))]
        self.play(client, server, flight)
        self.assert_agree(client, server)

    def test_verified_hello_at_another_message_seq_is_dropped(self,
                                                              reference):
        # a copy of the cookie hello renumbered to 3 and delivered first
        # used to make the server number its flight from 3, which the
        # client, awaiting 1, dropped; the server's counters add the copy's
        # cookie check
        curve, pki, _, _ = reference
        client, server = make_pair(curve, pki)
        cookie_hello = client.client_step(server.server_step(
            client.client_step([])))[0]
        msg_type, _, body = wire.parse_handshake(cookie_hello[13:])
        renumbered = cookie_hello[:13] + wire.pack_handshake(msg_type, 3, body)
        assert server.server_step([renumbered]) == []
        assert server.state is State.INIT and server._messages == {}
        self.play(client, server, server.server_step([cookie_hello]))
        self.assert_same_handshake(reference, client, server, 2)

    def test_change_cipher_spec_opens_epoch_1_for_the_rest_of_its_datagram(
            self, toy, toy_pki):
        # a copy of the client's epoch-0 Certificate packed after its
        # ChangeCipherSpec is decoded at read epoch 1, so dropped there
        client, server = make_pair(toy, toy_pki)
        flight = server.server_step(client.client_step(server.server_step(
            client.client_step([]))))
        certificate, exchange, verify, ccs, finished = \
            client.client_step(flight)
        assert server.server_step([certificate, exchange, verify]) == []
        assert server.server_step([ccs + certificate]) == []
        assert server.records.read_epoch == 1
        assert server.records.drop_counts == {DROP_BAD_EPOCH: 1}
        client.client_step(server.server_step([finished]))
        self.assert_agree(client, server)

    @pytest.mark.parametrize("number", ["message_seq", "record_seq"])
    def test_verified_hello_without_room_to_number_is_dropped(self, toy,
                                                              toy_pki, number):
        # the server's flight, numbered on from this hello, would overflow
        # the 16-bit message_seq or the 48-bit record sequence number
        client, server = make_pair(toy, toy_pki)
        hello_verify = server.server_step(client.client_step([]))
        cookie_hello = client.client_step(hello_verify)[0]
        if number == "message_seq":
            msg_type, _, body = wire.parse_handshake(cookie_hello[13:])
            forged = cookie_hello[:13] + \
                wire.pack_handshake(msg_type, 0xFFFF, body)
        else:
            forged = at_record_seq(cookie_hello, (1 << 48) - 2)
        assert server.server_step([forged]) == []
        assert server.state is State.INIT and server._messages == {}
        self.play(client, server, server.server_step([cookie_hello]))
        self.assert_agree(client, server)

    @pytest.mark.parametrize("body", [b"\x01\x00", b"\x02", b"\x02\x28\x00"],
                             ids=["warning", "short", "long"])
    def test_only_a_fatal_alert_ends_a_session(self, reference, body):
        # probe (G): RFC 5246 §7.2, a warning (here close_notify) or a
        # malformed alert is dropped, at a fresh server or at a client
        # waiting for the server's flight; a fatal one is pinned by
        # test_off_path_alert_ends_a_waiting_session
        curve, pki, _, _ = reference
        alert = RecordHeader(CONTENT_ALERT, 0, 1 << 20, len(body)).pack() + \
            body
        client, server = make_pair(curve, pki)
        assert server.server_step([alert]) == []
        assert server.state is State.INIT
        assert run_loopback(client, server).established

        client, server = make_pair(curve, pki)
        flight = server.server_step(client.client_step(
            server.server_step(client.client_step([]))))
        assert client.client_step(flight[:2] + [alert]) == []
        assert client.state is State.COOKIE_WAIT
        self.play(client, server, flight[2:])
        self.assert_same_handshake(reference, client, server)

    def test_record_version_fe_ff_accepted_at_epoch_0_only(self, toy,
                                                           toy_pki):
        # RFC 6347 §4.2.1: a first ClientHello may carry version fe ff
        client, server = make_pair(toy, toy_pki)
        hello = client.client_step([])[0]
        out = server.server_step([hello[:1] + b"\xfe\xff" + hello[3:]])
        assert len(out) == 1
        assert wire.parse_handshake(out[0][13:])[0] == \
            wire.HT_HELLO_VERIFY_REQUEST

        client, server = make_pair(toy, toy_pki)
        assert run_loopback(client, server).established
        sealed = client.seal_app_data(b"data")
        assert server.open_app_data(sealed[:1] + b"\xfe\xff" +
                                    sealed[3:]) is None
        assert server.records.drop_counts == {DROP_MALFORMED: 1}
        assert server.open_app_data(sealed) == b"data"

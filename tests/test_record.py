import pytest

from ecdtls.aesgcm import AeadKey
from ecdtls.record import (CONTENT_APPDATA, CONTENT_HANDSHAKE, DROP_AUTH_FAIL,
                           DROP_BAD_EPOCH, DROP_MALFORMED, DROP_OK,
                           DROP_REPLAY, HEADER_LEN, MAX_SEQUENCE, RecordError,
                           RecordHeader, RecordLayer, ReplayWindow)


def paired_layers():
    a, b = RecordLayer(), RecordLayer()
    key_ab = AeadKey(b"A" * 16, b"sal1")
    key_ba = AeadKey(b"B" * 16, b"sal2")
    a.start_write_epoch(key_ab)
    b.start_read_epoch(key_ab)
    b.start_write_epoch(key_ba)
    a.start_read_epoch(key_ba)
    return a, b


class TestPlaintextRecords:
    def test_epoch0_layout(self):
        layer = RecordLayer()
        record = layer.encode(CONTENT_HANDSHAKE, b"hello")
        assert len(record) == HEADER_LEN + 5
        assert record[0] == CONTENT_HANDSHAKE
        assert record[1:3] == b"\xfe\xfd"
        assert record[3:5] == b"\x00\x00"          # epoch 0
        assert record[5:11] == b"\x00" * 6         # sequence 0
        assert record[11:13] == b"\x00\x05"
        assert record[13:] == b"hello"

    def test_sequence_increments(self):
        layer = RecordLayer()
        layer.encode(CONTENT_HANDSHAKE, b"a")
        record = layer.encode(CONTENT_HANDSHAKE, b"b")
        assert RecordHeader.parse(record).sequence == 1

    def test_oversize_payload_rejected(self):
        layer = RecordLayer()
        with pytest.raises(RecordError):
            layer.encode(CONTENT_HANDSHAKE, b"x" * ((1 << 14) + 1))


class TestAeadRecords:
    def test_round_trip(self):
        a, b = paired_layers()
        record = a.encode(CONTENT_APPDATA, b"secret payload")
        outcome, ctype, payload = b.decode(record)
        assert (outcome, ctype, payload) == (DROP_OK, CONTENT_APPDATA,
                                             b"secret payload")

    def test_ciphertext_overhead_is_explicit_nonce_plus_tag(self):
        a, _ = paired_layers()
        record = a.encode(CONTENT_APPDATA, b"x" * 100)
        assert len(record) == HEADER_LEN + 8 + 100 + 16

    def test_empty_payload_tag_only(self):
        a, b = paired_layers()
        record = a.encode(CONTENT_APPDATA, b"")
        assert len(record) == HEADER_LEN + 8 + 16
        outcome, _, payload = b.decode(record)
        assert outcome == DROP_OK and payload == b""

    def test_flipped_bit_drops_session_usable(self):
        a, b = paired_layers()
        record = bytearray(a.encode(CONTENT_APPDATA, b"payload"))
        record[-1] ^= 1
        outcome, _, _ = b.decode(bytes(record))
        assert outcome == DROP_AUTH_FAIL
        # the session still accepts the next legitimate record
        good = a.encode(CONTENT_APPDATA, b"after")
        assert b.decode(good)[0] == DROP_OK

    def test_replayed_datagram_dropped(self):
        a, b = paired_layers()
        record = a.encode(CONTENT_APPDATA, b"once")
        assert b.decode(record)[0] == DROP_OK
        assert b.decode(record)[0] == DROP_REPLAY

    def test_future_epoch_dropped(self):
        a, b = paired_layers()
        record = bytearray(a.encode(CONTENT_APPDATA, b"x"))
        record[3:5] = (7).to_bytes(2, "big")
        assert b.decode(bytes(record))[0] == DROP_BAD_EPOCH

    def test_malformed_header_dropped(self):
        _, b = paired_layers()
        assert b.decode(b"\x17\xfe")[0] == DROP_MALFORMED
        assert b.decode(b"")[0] == DROP_MALFORMED
        # bad version field
        a, b2 = paired_layers()
        record = bytearray(a.encode(CONTENT_APPDATA, b"x"))
        record[1] = 0xFF
        assert b2.decode(bytes(record))[0] == DROP_MALFORMED

    def test_truncated_body_dropped(self):
        a, b = paired_layers()
        record = a.encode(CONTENT_APPDATA, b"plenty of payload bytes")
        assert b.decode(record[:-4])[0] == DROP_MALFORMED


class TestReplayWindow:
    def test_window_accepts_each_once(self, rng):
        # bounded reordering (jitter < window) never loses a fresh record
        win = ReplayWindow()
        seqs = sorted(range(200), key=lambda s: s + rng.randrange(32))
        accepted = 0
        for s in seqs:
            if not win.seen(s):
                win.mark(s)
                accepted += 1
        assert accepted == 200
        for s in seqs:
            if win.top - s < 64:
                assert win.seen(s)

    def test_shuffled_order_within_window(self, rng):
        win = ReplayWindow()
        seqs = list(range(64))
        rng.shuffle(seqs)
        for s in seqs:
            assert not win.seen(s)
            win.mark(s)
        for s in seqs:
            assert win.seen(s)

    def test_too_old_treated_as_replay(self):
        win = ReplayWindow()
        win.mark(100)
        assert win.seen(100 - 64)
        assert not win.seen(100 - 63)

    def test_fresh_in_window_accepted_once(self, rng):
        win = ReplayWindow()
        stream = [rng.randrange(0, 500) for _ in range(3000)]
        delivered = set()
        for s in stream:
            if win.seen(s):
                continue
            assert s not in delivered or win.top - s >= 64
            win.mark(s)
            delivered.add(s)

    def test_jump_keeps_window_bounded(self):
        # the bitmap after any jump equals the unclamped shift-and-mask, and
        # never grows past the window
        for jump in range(1, 200):
            win = ReplayWindow()
            for seq in (0, 3, 5):
                win.mark(seq)
            want = ((win.bits << jump) | 1) & ((1 << 64) - 1)
            win.mark(5 + jump)
            assert win.bits == want < 2 ** 64

    def test_epoch0_sequence_jump_to_max(self):
        """A far jump costs no memory: it empties the window instead of
        shifting the bitmap by the jump."""
        sender, receiver = RecordLayer(), RecordLayer()
        first = sender.encode(CONTENT_HANDSHAKE, b"first")
        far = RecordHeader(CONTENT_HANDSHAKE, 0, MAX_SEQUENCE, 3).pack() + \
            b"far"
        assert receiver.decode(first) == (DROP_OK, CONTENT_HANDSHAKE, b"first")
        assert receiver.decode(far) == (DROP_OK, CONTENT_HANDSHAKE, b"far")
        window = receiver.windows[0]
        assert window.top == MAX_SEQUENCE
        assert window.bits < 2 ** 64
        assert receiver.decode(far)[0] == DROP_REPLAY
        assert receiver.decode(first)[0] == DROP_REPLAY


class TestNonceUniqueness:
    def test_no_nonce_reuse_across_session(self):
        a, _ = paired_layers()
        nonces = set()
        for _ in range(300):
            record = a.encode(CONTENT_APPDATA, b"data")
            explicit = record[HEADER_LEN:HEADER_LEN + 8]
            nonce = a.write_key.implicit_salt + explicit
            assert nonce not in nonces
            nonces.add(nonce)

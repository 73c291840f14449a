import pytest

from ecdtls.aesgcm import AeadKey
from ecdtls.record import (CONTENT_ALERT, CONTENT_APPDATA, CONTENT_CCS,
                           CONTENT_HANDSHAKE, DROP_AUTH_FAIL, DROP_BAD_EPOCH,
                           DROP_MALFORMED, DROP_OK, DROP_OVERFLOW,
                           DROP_PACKED, DROP_REPLAY, HEADER_LEN,
                           MAX_SEQUENCE, RecordError, RecordHeader,
                           RecordLayer, ReplayWindow)


def paired_layers():
    a, b = RecordLayer(), RecordLayer()
    key_ab = AeadKey(b"A" * 16, b"sal1")
    key_ba = AeadKey(b"B" * 16, b"sal2")
    a.write_key = key_ab
    b.start_read_epoch(key_ab)
    b.write_key = key_ba
    a.start_read_epoch(key_ba)
    return a, b


class TestPlaintextRecords:
    def test_epoch0_layout(self):
        layer = RecordLayer()
        record = layer.encode(0, CONTENT_HANDSHAKE, b"hello")
        assert len(record) == HEADER_LEN + 5
        assert record[0] == CONTENT_HANDSHAKE
        assert record[1:3] == b"\xfe\xfd"
        assert record[3:5] == b"\x00\x00"          # epoch 0
        assert record[5:11] == b"\x00" * 6         # sequence 0
        assert record[11:13] == b"\x00\x05"
        assert record[13:] == b"hello"

    def test_sequence_increments(self):
        layer = RecordLayer()
        layer.encode(0, CONTENT_HANDSHAKE, b"a")
        record = layer.encode(0, CONTENT_HANDSHAKE, b"b")
        assert RecordHeader.parse(record).sequence == 1

    def test_oversize_payload_rejected(self):
        layer = RecordLayer()
        with pytest.raises(RecordError):
            layer.encode(0, CONTENT_HANDSHAKE, b"x" * ((1 << 14) + 1))

    def test_explicit_sequence_moves_no_write_state(self):
        # a stateless HelloVerifyRequest takes the hello's record sequence
        # number (RFC 6347 §4.2.1); the numbering of the epoch goes on
        layer = RecordLayer()
        answer = layer.encode(0, CONTENT_HANDSHAKE, b"hvr", 7)
        assert RecordHeader.parse(answer).sequence == 7
        record = layer.encode(0, CONTENT_HANDSHAKE, b"next")
        assert RecordHeader.parse(record).sequence == 0

    @pytest.mark.parametrize("epoch", [1, 2])
    def test_epoch_without_a_write_key_rejected(self, epoch):
        layer = RecordLayer()
        with pytest.raises(RecordError):
            layer.encode(epoch, CONTENT_HANDSHAKE, b"x")
        assert layer.write_seq == [0, 0]


class TestAeadRecords:
    def test_round_trip(self):
        a, b = paired_layers()
        record = a.encode(1, CONTENT_APPDATA, b"secret payload")
        outcome, ctype, payload = b.decode(record)
        assert (outcome, ctype, payload) == (DROP_OK, CONTENT_APPDATA,
                                             b"secret payload")

    def test_epoch_0_after_epoch_1_keeps_its_own_numbering(self):
        # each record names its epoch (RFC 6347 §4.1): an epoch-0 record
        # written after epoch 1 is plaintext, numbered on from epoch 0's last
        a, _ = paired_layers()
        a.encode(0, CONTENT_CCS, b"\x01")
        a.encode(1, CONTENT_HANDSHAKE, b"fin")
        late = a.encode(0, CONTENT_ALERT, b"\x02\x28")
        header = RecordHeader.parse(late)
        assert (header.epoch, header.sequence) == (0, 1)
        assert RecordLayer().decode(late) == \
            (DROP_OK, CONTENT_ALERT, b"\x02\x28")
        assert RecordHeader.parse(
            a.encode(1, CONTENT_APPDATA, b"x")).sequence == 1

    def test_ciphertext_overhead_is_explicit_nonce_plus_tag(self):
        a, _ = paired_layers()
        record = a.encode(1, CONTENT_APPDATA, b"x" * 100)
        assert len(record) == HEADER_LEN + 8 + 100 + 16

    def test_empty_payload_tag_only(self):
        a, b = paired_layers()
        record = a.encode(1, CONTENT_APPDATA, b"")
        assert len(record) == HEADER_LEN + 8 + 16
        outcome, _, payload = b.decode(record)
        assert outcome == DROP_OK and payload == b""

    def test_flipped_bit_drops_session_usable(self):
        a, b = paired_layers()
        record = bytearray(a.encode(1, CONTENT_APPDATA, b"payload"))
        record[-1] ^= 1
        outcome, _, _ = b.decode(bytes(record))
        assert outcome == DROP_AUTH_FAIL
        # the session still accepts the next legitimate record
        good = a.encode(1, CONTENT_APPDATA, b"after")
        assert b.decode(good)[0] == DROP_OK

    def test_replayed_datagram_dropped(self):
        a, b = paired_layers()
        record = a.encode(1, CONTENT_APPDATA, b"once")
        assert b.decode(record)[0] == DROP_OK
        assert b.decode(record)[0] == DROP_REPLAY

    def test_future_epoch_dropped(self):
        a, b = paired_layers()
        record = bytearray(a.encode(1, CONTENT_APPDATA, b"x"))
        record[3:5] = (7).to_bytes(2, "big")
        assert b.decode(bytes(record))[0] == DROP_BAD_EPOCH

    def test_malformed_header_dropped(self):
        _, b = paired_layers()
        assert b.decode(b"\x17\xfe")[0] == DROP_MALFORMED
        assert b.decode(b"")[0] == DROP_MALFORMED
        # bad version field
        a, b2 = paired_layers()
        record = bytearray(a.encode(1, CONTENT_APPDATA, b"x"))
        record[1] = 0xFF
        assert b2.decode(bytes(record))[0] == DROP_MALFORMED

    def test_truncated_body_dropped(self):
        a, b = paired_layers()
        record = a.encode(1, CONTENT_APPDATA, b"plenty of payload bytes")
        assert b.decode(record[:-4])[0] == DROP_MALFORMED

    def test_what_follows_the_first_record_is_one_packed_drop(self):
        # decode opens the first record only (RFC 6347 §4.1.1 lets a peer
        # pack more): the rest is counted, not silently ignored
        a, b = paired_layers()
        datagram = a.encode(1, CONTENT_APPDATA, b"one") + \
            a.encode(1, CONTENT_APPDATA, b"two") + b"\x17"
        assert b.decode(datagram) == (DROP_OK, CONTENT_APPDATA, b"one")
        assert b.drop_counts == {DROP_PACKED: 1}


class TestRead:
    """`read` cuts a datagram into records (RFC 6347 §4.1.1)."""

    @staticmethod
    def payloads(layer, datagram):
        return [(header.epoch, ctype, payload)
                for header, ctype, payload in layer.read(datagram)]

    def test_records_packed_in_one_datagram_are_each_read(self):
        sender = RecordLayer()
        datagram = sender.encode(0, CONTENT_HANDSHAKE, b"first") + \
            sender.encode(0, CONTENT_CCS, b"\x01")
        receiver = RecordLayer()
        assert self.payloads(receiver, datagram) == [
            (0, CONTENT_HANDSHAKE, b"first"), (0, CONTENT_CCS, b"\x01")]
        assert receiver.drop_counts == {}

    def test_tail_without_a_header_is_one_malformed_record(self):
        record = RecordLayer().encode(0, CONTENT_HANDSHAKE, b"whole")
        receiver = RecordLayer()
        assert self.payloads(receiver, record + record[:HEADER_LEN - 1]) == \
            [(0, CONTENT_HANDSHAKE, b"whole")]
        assert receiver.drop_counts == {DROP_MALFORMED: 1}

    def test_epoch_1_records_wait_for_the_read_epoch(self):
        # the latest four are held, an older one counted as it is pushed out
        sender, _ = paired_layers()
        records = [sender.encode(1, CONTENT_APPDATA, bytes([i]))
                   for i in range(6)]
        receiver = RecordLayer()
        assert self.payloads(receiver, b"".join(records)) == []
        assert receiver.drop_counts == {DROP_OVERFLOW: 2}
        held = receiver.start_read_epoch(sender.write_key)
        assert held == records[2:]
        assert [self.payloads(receiver, r) for r in held] == \
            [[(1, CONTENT_APPDATA, bytes([i]))] for i in range(2, 6)]
        assert receiver.start_read_epoch(sender.write_key) == []

    def test_a_record_is_decoded_only_once_asked_for(self):
        # a ChangeCipherSpec starts the read epoch that the next record of
        # its datagram is decoded under
        sender = RecordLayer()
        ccs = sender.encode(0, CONTENT_CCS, b"\x01")
        key = sender.write_key = AeadKey(b"K" * 16, b"salt")
        receiver = RecordLayer()
        records = receiver.read(ccs + sender.encode(1, CONTENT_HANDSHAKE,
                                                    b"fin"))
        assert next(records)[1:] == (CONTENT_CCS, b"\x01")
        assert receiver.start_read_epoch(key) == []
        assert next(records)[1:] == (CONTENT_HANDSHAKE, b"fin")
        assert next(records, None) is None and receiver.drop_counts == {}


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

    def test_sequence_jump_to_max(self):
        """A far jump costs no memory: it empties the window instead of
        shifting the bitmap by the jump.  (Epoch 0 has no window.)"""
        sender, receiver = paired_layers()
        first = sender.encode(1, CONTENT_HANDSHAKE, b"first")
        sender.write_seq[1] = MAX_SEQUENCE
        far = sender.encode(1, CONTENT_HANDSHAKE, b"far")
        assert receiver.decode(first) == (DROP_OK, CONTENT_HANDSHAKE, b"first")
        assert receiver.decode(far) == (DROP_OK, CONTENT_HANDSHAKE, b"far")
        window = receiver.window
        assert window.top == MAX_SEQUENCE
        assert window.bits < 2 ** 64
        assert receiver.decode(far)[0] == DROP_REPLAY
        assert receiver.decode(first)[0] == DROP_REPLAY


class TestNonceUniqueness:
    def test_no_nonce_reuse_across_session(self):
        a, _ = paired_layers()
        nonces = set()
        for _ in range(300):
            record = a.encode(1, CONTENT_APPDATA, b"data")
            explicit = record[HEADER_LEN:HEADER_LEN + 8]
            nonce = a.write_key.implicit_salt + explicit
            assert nonce not in nonces
            nonces.add(nonce)

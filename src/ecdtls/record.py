"""DTLS 1.2 record layer: 13-byte headers, AEAD protection from epoch 1,
per-epoch sequence numbers, and a 64-entry sliding replay window.  Each
record names its epoch (RFC 6347 §4.1): `encode` takes it as an argument.

Decoding is datagram-tolerant: anything malformed, replayed, or unauthentic
is reported as a drop, never an exception.  `read` cuts a datagram into
records (RFC 6347 §4.1.1), decoding each only when asked for it, so a
ChangeCipherSpec can start read epoch 1 before the next is decoded; until
then the latest `_MAX_HELD` epoch-1 records are held, and an older one is
dropped as an overflow.  Epoch 0 keeps no replay window:
its records carry no MAC, so one forged at a far sequence number would shadow
every genuine one; `message_seq` guards it instead (RFC 6347 §4.2.2).  It
also takes record version fe ff, which a first hello may carry (§4.2.1).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .aesgcm import AeadError, AeadKey, AuthenticationError, aes_gcm_open, \
    aes_gcm_seal

CONTENT_CCS = 20
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPDATA = 23

DTLS12_VERSION = b"\xfe\xfd"
HEADER_LEN = 13
MAX_PLAINTEXT = 1 << 14
MAX_RECORD_PAYLOAD = MAX_PLAINTEXT + 256
MAX_SEQUENCE = (1 << 48) - 1
REPLAY_WINDOW = 64
_MAX_HELD = 4  # epoch-1 records kept until that read epoch starts

DROP_OK = "ok"
DROP_MALFORMED = "malformed"
DROP_REPLAY = "replay"
DROP_BAD_EPOCH = "bad_epoch"
DROP_AUTH_FAIL = "auth_fail"
DROP_OVERFLOW = "overflow"
DROP_PACKED = "packed"


class RecordError(Exception):
    """Usage errors on the sending side (oversize payload, exhausted seq)."""


class RecordHeader:
    __slots__ = ("content_type", "epoch", "sequence", "length")

    def __init__(self, content_type: int, epoch: int, sequence: int,
                 length: int):
        self.content_type = content_type
        self.epoch = epoch
        self.sequence = sequence
        self.length = length

    def pack(self) -> bytes:
        return bytes([self.content_type]) + DTLS12_VERSION + \
            self.epoch.to_bytes(2, "big") + \
            self.sequence.to_bytes(6, "big") + \
            self.length.to_bytes(2, "big")

    @classmethod
    def parse(cls, data: bytes) -> Optional["RecordHeader"]:
        if len(data) < HEADER_LEN:
            return None
        epoch = int.from_bytes(data[3:5], "big")
        if data[1:3] != DTLS12_VERSION and (epoch or data[1:3] != b"\xfe\xff"):
            return None
        return cls(data[0], epoch, int.from_bytes(data[5:11], "big"),
                   int.from_bytes(data[11:13], "big"))


def seq_number_bytes(epoch: int, sequence: int) -> bytes:
    """The 8-byte epoch || 48-bit sequence field used in nonces and AAD."""
    return epoch.to_bytes(2, "big") + sequence.to_bytes(6, "big")


class ReplayWindow:
    """Sliding 64-bit anti-replay bitmap (advanced only after auth).

    Bit i of `bits` marks sequence number top - i as received, so the bitmap
    never holds more than REPLAY_WINDOW bits, however far a record jumps."""

    def __init__(self):
        self.top = -1
        self.bits = 0

    def seen(self, seq: int) -> bool:
        if seq > self.top:
            return False
        if self.top - seq >= REPLAY_WINDOW:
            return True  # too old to track: treat as replayed
        return bool(self.bits & (1 << (self.top - seq)))

    def mark(self, seq: int) -> None:
        if seq > self.top:
            shift = seq - self.top
            if shift >= REPLAY_WINDOW:
                self.bits = 1  # every earlier mark slides out of the window
            else:
                self.bits = ((self.bits << shift) | 1) & \
                    ((1 << REPLAY_WINDOW) - 1)
            self.top = seq
        else:
            self.bits |= 1 << (self.top - seq)


class RecordLayer:
    """One endpoint's record state: write key and per-epoch sequences, read
    key and its replay window.  Epoch 0 is plaintext; epoch 1 is AES-GCM."""

    def __init__(self):
        self.write_seq = [0, 0]  # the next sequence number of epochs 0, 1
        self.write_key: Optional[AeadKey] = None
        self.read_epoch = 0
        self.read_key: Optional[AeadKey] = None
        self.window = ReplayWindow()  # unused at epoch 0
        self.drop_counts: Dict[str, int] = {}
        self._held: List[bytes] = []  # the latest records of read epoch 1

    # -- sending ------------------------------------------------------------

    def start_read_epoch(self, key: AeadKey) -> List[bytes]:
        """Read the next epoch under key; returns the records held for it."""
        self.read_epoch += 1
        self.read_key = key
        self.window = ReplayWindow()
        held, self._held = self._held, []
        return held

    def encode(self, epoch: int, content_type: int, payload: bytes,
               sequence: Optional[int] = None) -> bytes:
        """The record of payload at epoch, numbered on from that epoch's last,
        or at sequence, which moves no write state (RFC 6347 §4.2.1)."""
        if len(payload) > MAX_PLAINTEXT:
            raise RecordError("payload above the 2^14 plaintext bound")
        if epoch > (self.write_key is not None):  # 0, or 1 with the key
            raise RecordError("no write key for epoch %d" % epoch)
        seq = self.write_seq[epoch] if sequence is None else sequence
        if seq > MAX_SEQUENCE:
            raise RecordError("write sequence space exhausted")
        if sequence is None:
            self.write_seq[epoch] = seq + 1
        body = payload
        if epoch:
            explicit = seq_number_bytes(epoch, seq)
            aad = explicit + bytes([content_type]) + DTLS12_VERSION + \
                len(payload).to_bytes(2, "big")
            body = explicit + aes_gcm_seal(self.write_key, explicit, aad,
                                           payload)
        return RecordHeader(content_type, epoch, seq, len(body)).pack() + body

    # -- receiving ----------------------------------------------------------

    def _drop(self, reason: str) -> Tuple[str, None, None]:
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        return reason, None, None

    def read(self, data: bytes) -> Iterator[Tuple[RecordHeader, int, bytes]]:
        """(header, content type, payload) of each record of data that
        `decode` passes, each decoded only once the previous one is taken.
        A tail without a parsable header is one malformed record."""
        while data:
            header = RecordHeader.parse(data)
            size = HEADER_LEN + header.length if header else len(data)
            record, data = data[:size], data[size:]
            if header and header.epoch == 1 and not self.read_epoch:
                self._held.append(record)  # waits for the epoch-1 key
                if len(self._held) > _MAX_HELD:
                    del self._held[0]
                    self._drop(DROP_OVERFLOW)
                continue
            outcome, ctype, payload = self.decode(record)
            if outcome == DROP_OK:
                yield header, ctype, payload

    def decode(self, datagram: bytes) -> Tuple[str, Optional[int],
                                               Optional[bytes]]:
        """Returns (DROP_OK, content_type, payload) or (reason, None, None)
        for the first record of datagram; whatever follows it is one packed
        drop, as delivering it waits for ROADMAP item 2."""
        header = RecordHeader.parse(datagram)
        if header is None:
            return self._drop(DROP_MALFORMED)
        body = datagram[HEADER_LEN:HEADER_LEN + header.length]
        if len(body) != header.length or header.length > MAX_RECORD_PAYLOAD:
            return self._drop(DROP_MALFORMED)
        if len(datagram) > HEADER_LEN + header.length:
            self._drop(DROP_PACKED)
        if header.epoch != self.read_epoch:
            return self._drop(DROP_BAD_EPOCH)
        if header.epoch == 0:
            return DROP_OK, header.content_type, body
        if self.window.seen(header.sequence):
            return self._drop(DROP_REPLAY)
        if len(body) < 8 + 16:
            return self._drop(DROP_MALFORMED)
        explicit, sealed = body[:8], body[8:]
        aad = seq_number_bytes(header.epoch, header.sequence) + \
            bytes([header.content_type]) + DTLS12_VERSION + \
            (len(sealed) - 16).to_bytes(2, "big")
        try:
            payload = aes_gcm_open(self.read_key, explicit, aad, sealed)
        except AuthenticationError:
            return self._drop(DROP_AUTH_FAIL)
        except AeadError:
            return self._drop(DROP_MALFORMED)
        # advance the window only after successful authentication
        self.window.mark(header.sequence)
        return DROP_OK, header.content_type, payload

"""DTLS 1.2 record layer: 13-byte headers, AEAD protection from epoch 1,
per-epoch sequence numbers, and a 64-entry sliding replay window.

Decoding is datagram-tolerant: anything malformed, replayed, or unauthentic
is reported as a drop, never an exception.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import counters
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

DROP_OK = "ok"
DROP_MALFORMED = "malformed"
DROP_REPLAY = "replay"
DROP_BAD_EPOCH = "bad_epoch"
DROP_AUTH_FAIL = "auth_fail"


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
        if data[1:3] != DTLS12_VERSION:
            return None
        return cls(data[0], int.from_bytes(data[3:5], "big"),
                   int.from_bytes(data[5:11], "big"),
                   int.from_bytes(data[11:13], "big"))


def seq_number_bytes(epoch: int, sequence: int) -> bytes:
    """The 8-byte epoch || 48-bit sequence field used in nonces and AAD."""
    return epoch.to_bytes(2, "big") + sequence.to_bytes(6, "big")


class ReplayWindow:
    """Sliding 64-bit anti-replay bitmap (advanced only after auth)."""

    def __init__(self, size: int = REPLAY_WINDOW):
        self.size = size
        self.top = -1
        self.bits = 0

    def seen(self, seq: int) -> bool:
        if seq > self.top:
            return False
        if self.top - seq >= self.size:
            return True  # too old to track: treat as replayed
        return bool(self.bits & (1 << (self.top - seq)))

    def mark(self, seq: int) -> None:
        if seq > self.top:
            shift = seq - self.top
            self.bits = ((self.bits << shift) | 1) & ((1 << self.size) - 1)
            self.top = seq
        else:
            self.bits |= 1 << (self.top - seq)


class RecordLayer:
    """One endpoint's record state: write epoch/sequences, read keys and
    replay windows.  Epoch 0 is plaintext; epoch 1 is AES-GCM."""

    def __init__(self):
        self.write_epoch = 0
        self.write_seq: Dict[int, int] = {0: 0}
        self.write_key: Optional[AeadKey] = None
        self.read_epoch = 0
        self.read_key: Optional[AeadKey] = None
        self.windows: Dict[int, ReplayWindow] = {0: ReplayWindow()}
        self.drop_counts: Dict[str, int] = {}

    # -- sending ------------------------------------------------------------

    def start_write_epoch(self, key: AeadKey) -> None:
        self.write_epoch += 1
        self.write_seq[self.write_epoch] = 0
        self.write_key = key

    def start_read_epoch(self, key: AeadKey) -> None:
        self.read_epoch += 1
        self.read_key = key
        self.windows[self.read_epoch] = ReplayWindow()

    def encode(self, content_type: int, payload: bytes) -> bytes:
        if len(payload) > MAX_PLAINTEXT:
            raise RecordError("payload above the 2^14 plaintext bound")
        epoch = self.write_epoch
        seq = self.write_seq[epoch]
        if seq > MAX_SEQUENCE:
            raise RecordError("write sequence space exhausted")
        self.write_seq[epoch] = seq + 1
        if epoch == 0:
            header = RecordHeader(content_type, 0, seq, len(payload))
            return header.pack() + payload
        explicit = seq_number_bytes(epoch, seq)
        aad = explicit + bytes([content_type]) + DTLS12_VERSION + \
            len(payload).to_bytes(2, "big")
        sealed = aes_gcm_seal(self.write_key, explicit, aad, payload)
        body = explicit + sealed
        header = RecordHeader(content_type, epoch, seq, len(body))
        return header.pack() + body

    # -- receiving ----------------------------------------------------------

    def _drop(self, reason: str) -> Tuple[str, None, None]:
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        return reason, None, None

    def decode(self, datagram: bytes) -> Tuple[str, Optional[int],
                                               Optional[bytes]]:
        """Returns (DROP_OK, content_type, payload) or (reason, None, None)."""
        header = RecordHeader.parse(datagram)
        if header is None:
            return self._drop(DROP_MALFORMED)
        body = datagram[HEADER_LEN:HEADER_LEN + header.length]
        if len(body) != header.length or header.length > MAX_RECORD_PAYLOAD:
            return self._drop(DROP_MALFORMED)
        if header.epoch != self.read_epoch:
            return self._drop(DROP_BAD_EPOCH)
        window = self.windows[self.read_epoch]
        if window.seen(header.sequence):
            return self._drop(DROP_REPLAY)
        if header.epoch == 0:
            window.mark(header.sequence)
            return DROP_OK, header.content_type, body
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
        window.mark(header.sequence)
        return DROP_OK, header.content_type, payload

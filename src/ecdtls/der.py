"""Strict DER (X.690), the one codec for certificates and ECDSA signatures.

Every element has a single-byte tag and a definite, minimal length.  The
forms read are SEQUENCE (entered as a cursor), SET OF with its elements in
non-descending order of their encodings (X.690 11.6), minimal non-negative
INTEGERs, BOOLEAN DEFAULT FALSE (absent, or TRUE as the single byte ff),
OBJECT IDENTIFIERs (non-empty, complete, no subidentifier led by the padding
byte 80, and a first subidentifier of 80 or more under arc 2; X.690 8.19),
BIT STRINGs with 0 unused bits, and UTCTime as YYMMDDHHMMSSZ naming a real
second of 1950..2049 (RFC 5280 4.1.2.5.1).  Anything else is a DerError.
The encoders write the same forms.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

TAG_BOOLEAN = 0x01
TAG_INTEGER = 0x02
TAG_BIT_STRING = 0x03
TAG_OCTET_STRING = 0x04
TAG_OID = 0x06
TAG_UTF8 = 0x0C
TAG_PRINTABLE = 0x13
TAG_UTCTIME = 0x17
TAG_SEQUENCE = 0x30
TAG_SET = 0x31
TAG_CTX0 = 0xA0
TAG_CTX3 = 0xA3

# the characters a PrintableString may hold (X.680 41.4)
PRINTABLE_CHARACTERS = (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                        b"0123456789 '()+,-./:=?")


class DerError(Exception):
    """Input is not strict DER or not the expected structure."""


def der_read_tlv(data: bytes, offset: int) -> Tuple[int, bytes, int]:
    """Return (tag, contents, end_offset); strict DER."""
    if offset + 2 > len(data):
        raise DerError("truncated TLV header")
    tag = data[offset]
    if tag & 0x1F == 0x1F:
        raise DerError("multi-byte tags unsupported")
    first = data[offset + 1]
    pos = offset + 2
    if first == 0x80:
        raise DerError("indefinite length is not DER")
    if first & 0x80:
        nlen = first & 0x7F
        if nlen > 4:
            raise DerError("length of length too large")
        if pos + nlen > len(data):
            raise DerError("truncated long-form length")
        length = int.from_bytes(data[pos:pos + nlen], "big")
        if length < 0x80 or data[pos] == 0:
            raise DerError("non-minimal long-form length")
        pos += nlen
    else:
        length = first
    end = pos + length
    if end > len(data):
        raise DerError("contents overrun input")
    return tag, data[pos:end], end


class DerCursor:
    """Sequential reader over the contents of one constructed element."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    @classmethod
    def whole(cls, data: bytes, tag: int) -> "DerCursor":
        """A cursor over the contents of the one element data is."""
        top = cls(data)
        inner = top.enter(tag)
        top.expect_done()
        return inner

    def done(self) -> bool:
        return self.pos >= len(self.data)

    def expect_done(self) -> None:
        if not self.done():
            raise DerError("trailing bytes in element")

    def peek_tag(self) -> Optional[int]:
        return self.data[self.pos] if not self.done() else None

    def read(self, expect_tag: Optional[int] = None) -> Tuple[int, bytes]:
        tag, contents, self.pos = der_read_tlv(self.data, self.pos)
        if expect_tag is not None and tag != expect_tag:
            raise DerError("expected tag 0x%02x, found 0x%02x"
                           % (expect_tag, tag))
        return tag, contents

    def read_raw(self, tag: int) -> bytes:
        """The next element's full encoding: tag, length and contents."""
        start = self.pos
        self.read(tag)
        return self.data[start:self.pos]

    def enter(self, tag: int) -> "DerCursor":
        return DerCursor(self.read(tag)[1])

    def enter_set_of(self, tag: int) -> List["DerCursor"]:
        """Cursors over the elements of a SET OF, each with the given tag.
        DER sorts them by their encodings, the shorter one padded with zero
        bytes (X.690 11.6), so elements out of that order are refused."""
        body = self.enter(TAG_SET)
        raws = []
        while not body.done():
            raws.append(body.read_raw(tag))
        for a, b in zip(raws, raws[1:]):
            if a.ljust(len(b), b"\0") > b.ljust(len(a), b"\0"):
                raise DerError("SET OF elements out of DER order")
        return [DerCursor.whole(raw, tag) for raw in raws]

    def read_uint(self) -> int:
        """A non-negative INTEGER from its minimal contents octets."""
        contents = self.read(TAG_INTEGER)[1]
        if not contents:
            raise DerError("empty INTEGER")
        if contents[0] & 0x80:
            raise DerError("negative INTEGER")
        if len(contents) > 1 and contents[0] == 0 and not contents[1] & 0x80:
            raise DerError("non-minimal INTEGER")
        return int.from_bytes(contents, "big")

    def read_default_false(self) -> bool:
        """An optional BOOLEAN DEFAULT FALSE: absent reads False.  DER omits a
        DEFAULT value, so a present one must be TRUE, the single byte ff
        (X.690 11.1 and 11.5)."""
        if self.peek_tag() != TAG_BOOLEAN:
            return False
        if self.read(TAG_BOOLEAN)[1] != b"\xff":
            raise DerError("BOOLEAN DEFAULT FALSE must be absent or ff")
        return True

    def read_oid(self) -> str:
        """Dotted decimal of an OBJECT IDENTIFIER (X.690 8.19)."""
        body = self.read(TAG_OID)[1]
        if not body or body[-1] & 0x80:
            raise DerError("empty or truncated OID")
        subids = []
        value = 0
        for byte in body:
            if byte == 0x80 and value == 0:
                raise DerError("non-minimal OID subidentifier")
            value = value << 7 | byte & 0x7F
            if not byte & 0x80:
                subids.append(value)
                value = 0
        top = min(subids[0] // 40, 2)
        arcs = [top, subids[0] - 40 * top] + subids[1:]
        return ".".join(map(str, arcs))

    def read_bit_string(self) -> bytes:
        """The bits of a BIT STRING that must have 0 unused bits."""
        body = self.read(TAG_BIT_STRING)[1]
        if body[:1] != b"\x00":
            raise DerError("BIT STRING must have 0 unused bits")
        return body[1:]

    def read_utctime(self) -> int:
        """Seconds since the epoch of a YYMMDDHHMMSSZ UTCTime; a value that
        names no real second, such as Feb 31, month 13 or hour 24, is
        refused."""
        body = self.read(TAG_UTCTIME)[1]
        if len(body) != 13 or body[12:] != b"Z" or not body[:12].isdigit():
            raise DerError("UTCTime must be YYMMDDHHMMSSZ")
        yy, *rest = (int(body[i:i + 2]) for i in range(0, 12, 2))
        fields = (yy + (1900 if yy >= 50 else 2000), *rest)
        epoch = _timegm(*fields) if 1 <= rest[0] <= 12 else None
        if epoch is None or time.gmtime(epoch)[:6] != fields:
            raise DerError("UTCTime names no real second")
        return epoch


def _timegm(y: int, mo: int, d: int, h: int, mi: int, s: int) -> int:
    """calendar.timegm of a month 1..12: days from the civil date counted in
    years that start in March, so leap days fall last.  Linear in d, h, mi
    and s: Feb 31 reads as early March and hour 24 as the next day, which
    the gmtime round trip then refuses."""
    y -= mo <= 2
    days = 365 * y + y // 4 - y // 100 + y // 400 + \
        (153 * ((mo + 9) % 12) + 2) // 5 + d - 719469
    return ((days * 24 + h) * 60 + mi) * 60 + s


def der_tlv(tag: int, body: bytes) -> bytes:
    n = len(body)
    if n < 0x80:
        return bytes([tag, n]) + body
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([tag, 0x80 | len(raw)]) + raw + body


def der_integer(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 8) // 8 or 1, "big")
    return der_tlv(TAG_INTEGER, raw)


def der_oid(oid: str) -> bytes:
    """OBJECT IDENTIFIER element of an OID in canonical dotted decimal: at
    least two arcs, each written as str(int(arc)), the first 0-2 and the
    second below 40 under arcs 0 and 1."""
    try:
        arcs = [int(arc) for arc in oid.split(".")]
    except ValueError:
        arcs = []
    if len(arcs) < 2 or ".".join(map(str, arcs)) != oid or min(arcs) < 0 \
            or arcs[0] > 2 or (arcs[0] < 2 and arcs[1] >= 40):
        raise DerError("OID %r is not canonical dotted decimal" % oid)
    body = bytearray()
    for value in [40 * arcs[0] + arcs[1]] + arcs[2:]:
        for shift in range(7 * ((value.bit_length() - 1) // 7), 0, -7):
            body.append(value >> shift & 0x7F | 0x80)
        body.append(value & 0x7F)
    return der_tlv(TAG_OID, bytes(body))


def der_utctime(epoch: int) -> bytes:
    """UTCTime element of a second in 1950..2049."""
    tm = time.gmtime(epoch)
    if not 1950 <= tm.tm_year < 2050:
        raise DerError("UTCTime only covers 1950..2049")
    return der_tlv(TAG_UTCTIME, time.strftime("%y%m%d%H%M%SZ", tm).encode())

"""Strict DER (X.690) for the subset that certificates and ECDSA signatures
use: single-byte tags, definite and minimally encoded lengths, and INTEGERs
that are minimally encoded and non-negative.  Anything else is a DerError.
"""

from __future__ import annotations

from typing import Optional, Tuple

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


class DerError(Exception):
    """Input is not strict DER or not the expected structure."""


def der_read_tlv(data: bytes, offset: int) -> Tuple[int, bytes, int, int]:
    """Return (tag, contents, content_offset, end_offset); strict DER."""
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
    return tag, data[pos:end], pos, end


def der_uint(contents: bytes) -> int:
    """Value of a non-negative INTEGER from its minimal contents octets."""
    if not contents:
        raise DerError("empty INTEGER")
    if contents[0] & 0x80:
        raise DerError("negative INTEGER")
    if len(contents) > 1 and contents[0] == 0 and not contents[1] & 0x80:
        raise DerError("non-minimal INTEGER")
    return int.from_bytes(contents, "big")


class DerCursor:
    """Sequential reader over the contents of one constructed element."""

    def __init__(self, data: bytes, base_offset: int = 0):
        self.data = data
        self.pos = 0
        self.base = base_offset

    def done(self) -> bool:
        return self.pos >= len(self.data)

    def peek_tag(self) -> Optional[int]:
        return self.data[self.pos] if not self.done() else None

    def read(self, expect_tag: Optional[int] = None):
        tag, contents, coff, end = der_read_tlv(self.data, self.pos)
        if expect_tag is not None and tag != expect_tag:
            raise DerError("expected tag 0x%02x, found 0x%02x"
                           % (expect_tag, tag))
        span = (self.base + self.pos, self.base + end)
        inner_base = self.base + coff
        self.pos = end
        return tag, contents, span, inner_base

    def enter(self, expect_tag: int) -> "DerCursor":
        _, contents, _, inner_base = self.read(expect_tag)
        return DerCursor(contents, inner_base)

    def read_uint(self) -> int:
        return der_uint(self.read(TAG_INTEGER)[1])


def der_tlv(tag: int, body: bytes) -> bytes:
    n = len(body)
    if n < 0x80:
        return bytes([tag, n]) + body
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([tag, 0x80 | len(raw)]) + raw + body


def der_integer(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 8) // 8 or 1, "big")
    return der_tlv(TAG_INTEGER, raw)

"""Short Weierstrass prime curves, affine points, and the curve registry.

A curve prices nothing: the group law's prices are strings of datapath
units in `scalarmult`, counted by the curve's `PrimeModulus.cost`.

A registry record carries everything a curve is: its parameters plus the TLS
NamedCurve code point and the namedCurve OID that name it in handshakes and
in certificates.  Every registered curve has cofactor 1, as the registry
proves: n is prime and n*G = O, so n divides the point count; both lie in
the Hasse interval, (p + 1 - n)^2 <= 4p, whose width n exceeds, n^2 > 16p,
so the count is n.  An `AffinePoint` is a finite curve point, checked when
made, so on a registered curve it has order n and no caller re-checks it.

The proof is the costly part of a record: the primality tests of p and n
and the scalar multiplication n*G.  A record of the shipped file runs every
other check when the file is read, and its proof at the first lookup that
names it, before the curve is returned; so a process pays only for the
curves it uses, and no curve reaches a caller unproved.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, List, Optional, Union

from .der import DerError, der_oid
from .field import NotPrimeError, PrimeModulus


class CurveError(Exception):
    """Invalid curve parameters or misused points."""


class PointDecodeError(CurveError):
    """Byte string is not a valid uncompressed point encoding."""


class CurveParams:
    """One registered curve: y^2 = x^3 + ax + b over GF(p)."""

    __slots__ = ("id", "mod", "a", "b", "gx", "gy", "n", "tls_code", "oid",
                 "n_mod", "n_bits", "n_bytes", "_generator")

    def __init__(self, id: str, p: int, a: int, b: int,
                 gx: int, gy: int, n: int, tls_code: int, oid: str):
        self.id = id
        self.mod = PrimeModulus(p)
        self.a = a % p
        self.b = b % p
        self.gx = gx % p
        self.gy = gy % p
        self.n = n
        self.tls_code = tls_code
        self.oid = oid
        self.n_mod = PrimeModulus(n)  # group order is prime; doubles as scalar field
        self.n_bits = n.bit_length()
        self.n_bytes = (self.n_bits + 7) // 8
        self._generator = AffinePoint(self, self.gx, self.gy) \
            if self.equation_holds(self.gx, self.gy) else None

    def generator(self) -> "AffinePoint":
        """G: one point, made with the curve, so its rows serve every user."""
        return self._generator or AffinePoint(self, self.gx, self.gy)

    def equation_holds(self, x: int, y: int) -> bool:
        return (y * y - (x * x * x + self.a * x + self.b)) % self.mod.p == 0

    def discriminant_ok(self) -> bool:
        return (4 * self.a ** 3 + 27 * self.b ** 2) % self.mod.p != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveParams) and self.id == other.id \
            and self.mod.p == other.mod.p

    def __hash__(self) -> int:
        return hash((self.id, self.mod.p))

    def __repr__(self) -> str:
        return "CurveParams(%s, %d bits)" % (self.id, self.mod.bitlen)


class AffinePoint:
    """A finite curve point: range and equation checked when made.  Its
    comb `rows` are None until `scalarmult.provision` builds them."""

    __slots__ = ("curve", "x", "y", "rows")

    def __init__(self, curve: CurveParams, x: int, y: int):
        if not (0 <= x < curve.mod.p and 0 <= y < curve.mod.p):
            raise CurveError("coordinates out of field range")
        if not curve.equation_holds(x, y):
            raise CurveError("point not on curve")
        self.curve, self.x, self.y = curve, x, y
        self.rows: Optional[list] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, AffinePoint) and self.curve == other.curve \
            and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve.id, self.x, self.y))

    def __repr__(self) -> str:
        return "AffinePoint(%s, 0x%x, 0x%x)" % (self.curve.id, self.x, self.y)

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding: 0x04 || X || Y."""
        w = self.curve.mod.byte_len
        return b"\x04" + self.x.to_bytes(w, "big") + self.y.to_bytes(w, "big")

    @classmethod
    def decode(cls, data: bytes, curve: CurveParams) -> "AffinePoint":
        w = curve.mod.byte_len
        if len(data) != 1 + 2 * w or data[0] != 0x04:
            raise PointDecodeError("not an uncompressed point of the right width")
        try:
            return cls(curve, int.from_bytes(data[1:1 + w], "big"),
                       int.from_bytes(data[1 + w:], "big"))
        except CurveError as exc:
            raise PointDecodeError(str(exc)) from None


# ---------------------------------------------------------------------------
# Registry

class _Record:
    """A record of the shipped file that passed every check but its proof,
    which waits for the first lookup that names it; `refusal` keeps the
    proof's error, which every later lookup raises again."""

    __slots__ = ("id", "tls_code", "oid", "vals", "refusal")

    def __init__(self, id: str, vals: Dict[str, int], oid: str):
        self.id, self.tls_code, self.oid = id, vals["tls"], oid
        self.vals = vals
        self.refusal: Optional[str] = None

    def curve(self) -> CurveParams:
        """The record's curve, its p and n proved prime."""
        v = self.vals
        try:
            return CurveParams(id=self.id, p=v["p"], a=v["a"], b=v["b"],
                               gx=v["gx"], gy=v["gy"], n=v["n"],
                               tls_code=self.tls_code, oid=self.oid)
        except NotPrimeError as exc:
            raise CurveError("bad registry record %r: %s"
                             % (self.id, exc)) from None


class CurveRegistry:
    """Named curves available to the engine, in the order they were added.
    A curve is validated when registered, by `register` or `load_text`; a
    record of the shipped file (see `builtin_registry`) is registered at the
    first lookup that names it, and holds its name, TLS code point and OID
    until then."""

    def __init__(self):
        self._curves: Dict[str, Union[CurveParams, _Record]] = {}
        self._lock = threading.RLock()

    def get(self, name: str) -> CurveParams:
        try:
            entry = self._curves[name]
        except KeyError:
            raise CurveError("curve %r not registered" % name) from None
        return entry if isinstance(entry, CurveParams) else self._prove(name)

    def by_oid(self, oid: str) -> CurveParams:
        for entry in self._curves.values():
            if entry.oid == oid:
                return self.get(entry.id)
        raise CurveError("no registered curve has OID %s" % oid)

    def _prove(self, name: str) -> CurveParams:
        """Register the pending record name, once, under the lock, so that
        racing lookups share one curve and one G; or refuse it, at this and
        every later lookup.  Registering replaces a value in place, so a
        lookup iterating the curves meanwhile is not disturbed."""
        with self._lock:
            record = self._curves[name]
            if isinstance(record, CurveParams):  # a racing lookup proved it
                return record
            if record.refusal is None:
                try:
                    return self.register(record.curve())
                except CurveError as exc:
                    record.refusal = str(exc)
            raise CurveError(record.refusal)

    def _claim(self, entry: Union[CurveParams, _Record]) -> None:
        """Refuse entry if another curve, registered or pending, holds its
        TLS code point or OID: the handshake names a curve by the one and a
        certificate by the other."""
        for other in self._curves.values():
            if other.id == entry.id:
                continue
            if other.tls_code == entry.tls_code:
                raise CurveError("TLS curve code 0x%04x of %r is taken by %r"
                                 % (entry.tls_code, entry.id, other.id))
            if other.oid == entry.oid:
                raise CurveError("curve OID %s of %r is taken by %r"
                                 % (entry.oid, entry.id, other.id))

    def register(self, params: CurveParams) -> CurveParams:
        """Validate params and add them, replacing a curve or pending record
        of the same id; no two curves may share a TLS code point or an
        OID."""
        with self._lock:
            self._claim(params)
            try:
                _validate_params(params)
            except CurveError as exc:
                raise CurveError("bad registry record %r: %s"
                                 % (params.id, exc)) from None
            self._curves[params.id] = params
            return params

    def load_text(self, text: str) -> None:
        """Register every record of text or none: each is parsed and
        proved, then checked against the registry and the records before
        it, before the first is registered."""
        with self._lock:
            staged = CurveRegistry()
            staged._curves = dict(self._curves)
            for params in parse_registry_text(text):
                staged.register(params)
            self._curves = staged._curves


def _validate_params(params: CurveParams) -> None:
    if not params.discriminant_ok():
        raise CurveError("singular curve (zero discriminant)")
    if not params.equation_holds(params.gx, params.gy):
        raise CurveError("generator not on curve")
    from .scalarmult import order_annihilates_generator
    if not order_annihilates_generator(params):
        raise CurveError("n * G is not the identity")
    p, n = params.mod.p, params.n
    if (p + 1 - n) ** 2 > 4 * p or n * n <= 16 * p:
        raise CurveError("n does not prove cofactor 1 (Hasse bound)")


_RECORD_KEYS = frozenset(("kind", "tls", "oid", "p", "a", "b", "gx", "gy", "n",
                          "h"))


def _parse_records(text: str) -> List[_Record]:
    """The records of a registry text, through every check that needs no
    primality test or scalar multiplication; see `parse_registry_text`."""
    records: List[_Record] = []
    name = None
    fields: Dict[str, str] = {}

    def flush():
        if name is None:
            return
        try:
            if fields.keys() != _RECORD_KEYS:
                raise ValueError("missing key %r"
                                 % min(_RECORD_KEYS - fields.keys()))
            kind = fields.pop("kind")
            oid = fields.pop("oid")
            if not all(re.fullmatch("[0-9a-fA-F]+", v)
                       for v in fields.values()):
                raise ValueError("a value is not plain hex digits")
            vals = {k: int(v, 16) for k, v in fields.items()}
            if kind != "weierstrass":
                raise ValueError("unsupported curve kind %r" % kind)
            if vals["h"] != 1:
                raise ValueError("cofactor must be 1")
            if vals["tls"] > 0xFFFF:
                raise ValueError("TLS code point outside 0..0xffff")
            if max(vals["a"], vals["b"], vals["gx"], vals["gy"]) >= vals["p"]:
                raise ValueError("a, b, gx and gy must be below p")
            der_oid(oid)
            records.append(_Record(name, vals, oid))
        except (ValueError, DerError) as exc:
            raise CurveError("bad registry record %r: %s" % (name, exc)) from None

    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            name = line[1:-1].strip()
            if any(record.id == name for record in records):
                raise CurveError("duplicate registry record %r" % name)
            fields = {}
        elif "=" in line and name is not None:
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in _RECORD_KEYS or key in fields:
                raise CurveError("bad registry record %r: %s key %r" % (
                    name, "repeated" if key in fields else "unknown", key))
            fields[key] = value.strip()
        else:
            raise CurveError("unparseable registry line: %r" % line)
    flush()
    return records


def parse_registry_text(text: str) -> List[CurveParams]:
    """Parse the curve registry format: [name] blocks of key=value lines,
    plain hex digits, a, b, gx and gy below p, except the `oid`, which
    `der.der_oid` must accept.  Each record
    names its curve form in `kind` and its cofactor in `h`; only
    `weierstrass` with h = 1 is accepted, so a record for another form or a
    larger group is refused rather than misread.  A name may head one
    block, and a block must give each of `_RECORD_KEYS` exactly once.  Each
    curve's p and n are proved prime as it is built."""
    return [record.curve() for record in _parse_records(text)]


def _pending_registry(text: str) -> CurveRegistry:
    """A registry of text's records, each through every check but its proof
    now, its TLS code point and OID claimed, and proved at its first
    lookup."""
    registry = CurveRegistry()
    for record in _parse_records(text):
        registry._claim(record)
        registry._curves[record.id] = record
    return registry


_builtin: Optional[CurveRegistry] = None
_BUILTIN_LOCK = threading.Lock()


def builtin_registry() -> CurveRegistry:
    """The registry shipped with the package, read once.  Loading checks the
    whole file but proves no record: a process proves only the curves it
    looks up, each at its first lookup, and a record that fails its proof
    is refused at every lookup."""
    global _builtin
    with _BUILTIN_LOCK:
        if _builtin is None:
            path = os.path.join(os.path.dirname(__file__), "data",
                                "curves.txt")
            with open(path, "r", encoding="utf-8") as fh:
                _builtin = _pending_registry(fh.read())
    return _builtin


def get_curve(name: str) -> CurveParams:
    return builtin_registry().get(name)

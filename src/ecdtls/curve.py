"""Short Weierstrass prime curves, affine points, the group law, and the
curve registry.

The group law is priced in affine coordinates, as the paper's datapath runs
it: one Euclid inversion plus a few multiplications, additions and
subtractions per operation, recorded in one call.  `point_add` and
`point_double` compute affine results natively.  `scalarmult.ecsm_comb`
records these prices summed over its whole schedule in one call, and
computes its result by other means.

A registry record carries everything a curve is: its parameters plus the TLS
NamedCurve code point and the namedCurve OID that name it in handshakes and
in certificates.  Every registered curve has cofactor 1.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from . import counters
from .der import DerError, der_oid
from .field import NotPrimeError, PrimeModulus


class CurveError(Exception):
    """Invalid curve parameters or misused points."""


class PointDecodeError(CurveError):
    """Byte string is not a valid uncompressed point encoding."""


class CurveParams:
    """One registered curve: y^2 = x^3 + ax + b over GF(p)."""

    __slots__ = ("id", "mod", "a", "b", "gx", "gy", "n", "tls_code", "oid",
                 "n_mod", "n_bits", "n_bytes", "add_cost", "double_cost")

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
        # chord and tangent kernels in datapath order; 3 x^2 + a is 3 additions
        self.add_cost = self.mod.cost("ssimmsssms", "point_add")
        self.double_cost = self.mod.cost("maaaaimmsssms", "point_double")

    def generator(self) -> "AffinePoint":
        return AffinePoint(self, self.gx, self.gy)

    def infinity(self) -> "AffinePoint":
        return AffinePoint(self, None, None, at_infinity=True)

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
    """A point on a registered curve, or the point at infinity."""

    __slots__ = ("curve", "x", "y", "at_infinity")

    def __init__(self, curve: CurveParams, x: Optional[int], y: Optional[int],
                 at_infinity: bool = False):
        self.curve = curve
        self.at_infinity = at_infinity
        if at_infinity:
            self.x = None
            self.y = None
        else:
            if not (0 <= x < curve.mod.p and 0 <= y < curve.mod.p):
                raise CurveError("coordinates out of field range")
            self.x = x
            self.y = y

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffinePoint):
            return False
        if self.curve != other.curve:
            return False
        if self.at_infinity or other.at_infinity:
            return self.at_infinity and other.at_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve.id, self.x, self.y, self.at_infinity))

    def __repr__(self) -> str:
        if self.at_infinity:
            return "AffinePoint(%s, infinity)" % self.curve.id
        return "AffinePoint(%s, 0x%x, 0x%x)" % (self.curve.id, self.x, self.y)

    def is_on_curve(self) -> bool:
        return self.at_infinity or self.curve.equation_holds(self.x, self.y)

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding: 0x04 || X || Y."""
        if self.at_infinity:
            raise CurveError("cannot encode the point at infinity")
        w = self.curve.mod.byte_len
        return b"\x04" + self.x.to_bytes(w, "big") + self.y.to_bytes(w, "big")

    @classmethod
    def decode(cls, data: bytes, curve: CurveParams) -> "AffinePoint":
        w = curve.mod.byte_len
        if len(data) != 1 + 2 * w or data[0] != 0x04:
            raise PointDecodeError("not an uncompressed point of the right width")
        x = int.from_bytes(data[1:1 + w], "big")
        y = int.from_bytes(data[1 + w:], "big")
        if x >= curve.mod.p or y >= curve.mod.p:
            raise PointDecodeError("coordinate not below the field modulus")
        pt = cls(curve, x, y)
        if not pt.is_on_curve():
            raise PointDecodeError("point not on curve")
        return pt


def point_add(P: AffinePoint, Q: AffinePoint) -> AffinePoint:
    """Affine chord addition; dispatches to point_double when P == Q."""
    if P.curve != Q.curve:
        raise CurveError("points on different curves")
    if P.at_infinity:
        return Q
    if Q.at_infinity:
        return P
    if P.x == Q.x:
        if P.y == Q.y:
            return point_double(P)
        return P.curve.infinity()  # P + (-P)
    counters.record_all(P.curve.add_cost)
    p = P.curve.mod.p
    lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    x3 = (lam * lam - P.x - Q.x) % p
    y3 = (lam * (P.x - x3) - P.y) % p
    return AffinePoint(P.curve, x3, y3)


def point_double(P: AffinePoint) -> AffinePoint:
    """Affine tangent doubling; 2P of a 2-torsion point is infinity."""
    if P.at_infinity:
        return P
    if P.y == 0:
        return P.curve.infinity()
    counters.record_all(P.curve.double_cost)
    p = P.curve.mod.p
    lam = (3 * P.x * P.x + P.curve.a) * pow(2 * P.y, -1, p) % p
    x3 = (lam * lam - 2 * P.x) % p
    y3 = (lam * (P.x - x3) - P.y) % p
    return AffinePoint(P.curve, x3, y3)


def validate_point(P: AffinePoint) -> None:
    """Checks applied to every externally supplied point."""
    if P.at_infinity:
        raise CurveError("point at infinity not acceptable here")
    if not P.is_on_curve():
        raise CurveError("point fails the curve equation")


# ---------------------------------------------------------------------------
# Registry

class CurveRegistry:
    """Named curves available to the engine; validated when registered."""

    def __init__(self):
        self._curves: Dict[str, CurveParams] = {}

    def names(self) -> List[str]:
        return list(self._curves)

    def get(self, name: str) -> CurveParams:
        try:
            return self._curves[name]
        except KeyError:
            raise CurveError("curve %r not registered" % name) from None

    def by_oid(self, oid: str) -> CurveParams:
        for params in self._curves.values():
            if params.oid == oid:
                return params
        raise CurveError("no registered curve has OID %s" % oid)

    def register(self, params: CurveParams) -> CurveParams:
        """Validate params and add them, replacing a curve of the same id.
        The handshake names a curve by its TLS code point and a certificate
        by its OID, so no two registered curves may share either."""
        for other in self._curves.values():
            if other.id == params.id:
                continue
            if other.tls_code == params.tls_code:
                raise CurveError("TLS curve code 0x%04x of %r is taken by %r"
                                 % (params.tls_code, params.id, other.id))
            if other.oid == params.oid:
                raise CurveError("curve OID %s of %r is taken by %r"
                                 % (params.oid, params.id, other.id))
        try:
            _validate_params(params)
        except CurveError as exc:
            raise CurveError("bad registry record %r: %s"
                             % (params.id, exc)) from None
        self._curves[params.id] = params
        return params

    def load_text(self, text: str) -> None:
        """Register every record of text or none: each is parsed, then
        checked against the registry and the records before it, before the
        first is registered."""
        staged = CurveRegistry()
        staged._curves = dict(self._curves)
        for params in parse_registry_text(text):
            staged.register(params)
        self._curves = staged._curves

    def load_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            self.load_text(fh.read())


def _validate_params(params: CurveParams) -> None:
    if not params.discriminant_ok():
        raise CurveError("singular curve (zero discriminant)")
    if not params.equation_holds(params.gx, params.gy):
        raise CurveError("generator not on curve")
    from .scalarmult import scalar_mul_unchecked
    with counters.isolated():
        if not scalar_mul_unchecked(params.n, params.generator()).at_infinity:
            raise CurveError("n * G is not the identity")


_RECORD_KEYS = frozenset(("kind", "tls", "oid", "p", "a", "b", "gx", "gy", "n",
                          "h"))


def parse_registry_text(text: str) -> List[CurveParams]:
    """Parse the curve registry format: [name] blocks of key=value lines,
    hex except the `oid`, which `der.der_oid` must accept.  Each record
    names its curve form in `kind` and its cofactor in `h`; only
    `weierstrass` with h = 1 is accepted, so a record for another form or a
    larger group is refused rather than misread.  A name may head one
    block, and a block must give each of `_RECORD_KEYS` exactly once."""
    records: List[CurveParams] = []
    name = None
    fields: Dict[str, str] = {}

    def flush():
        if name is None:
            return
        try:
            kind = fields.pop("kind")
            oid = fields.pop("oid")
            vals = {k: int(v, 16) for k, v in fields.items()}
            if kind != "weierstrass":
                raise ValueError("unsupported curve kind %r" % kind)
            if vals["h"] != 1:
                raise ValueError("cofactor must be 1")
            if not 0 <= vals["tls"] <= 0xFFFF:
                raise ValueError("TLS code point outside 0..0xffff")
            der_oid(oid)
            records.append(CurveParams(
                id=name, p=vals["p"], a=vals["a"], b=vals["b"],
                gx=vals["gx"], gy=vals["gy"], n=vals["n"],
                tls_code=vals["tls"], oid=oid))
        except (KeyError, ValueError, DerError, NotPrimeError) as exc:
            raise CurveError("bad registry record %r: %s" % (name, exc)) from None

    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            name = line[1:-1].strip()
            if any(params.id == name for params in records):
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


_builtin: Optional[CurveRegistry] = None


def builtin_registry() -> CurveRegistry:
    """The registry shipped with the package (loaded and validated once)."""
    global _builtin
    if _builtin is None:
        reg = CurveRegistry()
        path = os.path.join(os.path.dirname(__file__), "data", "curves.txt")
        reg.load_file(path)
        _builtin = reg
    return _builtin


def get_curve(name: str) -> CurveParams:
    return builtin_registry().get(name)

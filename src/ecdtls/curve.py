"""Prime-curve parameters, affine points, and the Weierstrass group law.

Group operations use affine coordinates throughout: one Euclid inversion plus
a handful of multiplications per addition or doubling.  Montgomery curves can
be registered for x-only ladder work; the affine group law itself is
Weierstrass-only.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from . import counters, wire
from .field import (FieldElement, FieldError, PrimeModulus, add_int,
                    inv_euclid_int, mul_int, sub_int)

WEIERSTRASS = "weierstrass"
MONTGOMERY = "montgomery"


class CurveError(Exception):
    """Invalid curve parameters or misused points."""


class PointDecodeError(CurveError):
    """Byte string is not a valid uncompressed point encoding."""


class CurveParams:
    """One registered curve: y^2 = x^3 + ax + b, or B y^2 = x^3 + A x^2 + x."""

    __slots__ = ("id", "kind", "mod", "a", "b", "gx", "gy", "n", "h",
                 "n_mod", "n_bits", "n_bytes")

    def __init__(self, id: str, kind: str, p: int, a: int, b: int,
                 gx: int, gy: int, n: int, h: int):
        if kind not in (WEIERSTRASS, MONTGOMERY):
            raise CurveError("unknown curve kind %r" % kind)
        self.id = id
        self.kind = kind
        self.mod = PrimeModulus(p)
        self.a = a % p
        self.b = b % p
        self.gx = gx % p
        self.gy = gy % p
        self.n = n
        self.h = h
        self.n_mod = PrimeModulus(n)  # group order is prime; doubles as scalar field
        self.n_bits = n.bit_length()
        self.n_bytes = (self.n_bits + 7) // 8

    @property
    def p(self) -> int:
        return self.mod.p

    def field(self, value: int) -> FieldElement:
        return FieldElement(value % self.mod.p, self.mod)

    def generator(self) -> "AffinePoint":
        return AffinePoint(self, self.gx, self.gy)

    def infinity(self) -> "AffinePoint":
        return AffinePoint(self, None, None, at_infinity=True)

    def equation_holds(self, x: int, y: int) -> bool:
        p = self.mod.p
        if self.kind == WEIERSTRASS:
            return (y * y - (x * x * x + self.a * x + self.b)) % p == 0
        return (self.b * y * y - (x * x * x + self.a * x * x + x)) % p == 0

    def discriminant_ok(self) -> bool:
        p = self.mod.p
        if self.kind == WEIERSTRASS:
            return (4 * self.a ** 3 + 27 * self.b ** 2) % p != 0
        return (self.b * (self.a * self.a - 4)) % p != 0

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
            if not (0 <= x < curve.p and 0 <= y < curve.p):
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

    def negate(self) -> "AffinePoint":
        if self.at_infinity:
            return self
        return AffinePoint(self.curve, self.x, sub_int(0, self.y, self.curve.mod))

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
        if x >= curve.p or y >= curve.p:
            raise PointDecodeError("coordinate not below the field modulus")
        pt = cls(curve, x, y)
        if not pt.is_on_curve():
            raise PointDecodeError("point not on curve")
        return pt


def _require_weierstrass(P: AffinePoint) -> None:
    if P.curve.kind != WEIERSTRASS:
        raise CurveError("affine group law requires a Weierstrass curve")


def point_add(P: AffinePoint, Q: AffinePoint) -> AffinePoint:
    """Affine chord addition; dispatches to point_double when P == Q."""
    if P.curve != Q.curve:
        raise CurveError("points on different curves")
    _require_weierstrass(P)
    if P.at_infinity:
        return Q
    if Q.at_infinity:
        return P
    mod = P.curve.mod
    if P.x == Q.x:
        if P.y == Q.y:
            return point_double(P)
        return P.curve.infinity()  # P + (-P)
    counters.record("point_add")
    # lambda = (y2 - y1) / (x2 - x1); 1 inversion, 2 muls, 1 squaring
    lam = mul_int(sub_int(Q.y, P.y, mod),
                  inv_euclid_int(sub_int(Q.x, P.x, mod), mod), mod)
    x3 = sub_int(sub_int(mul_int(lam, lam, mod), P.x, mod), Q.x, mod)
    y3 = sub_int(mul_int(lam, sub_int(P.x, x3, mod), mod), P.y, mod)
    return AffinePoint(P.curve, x3, y3)


def point_double(P: AffinePoint) -> AffinePoint:
    """Affine tangent doubling; 2P of a 2-torsion point is infinity."""
    _require_weierstrass(P)
    if P.at_infinity:
        return P
    if P.y == 0:
        return P.curve.infinity()
    counters.record("point_double")
    mod = P.curve.mod
    # lambda = (3 x^2 + a) / (2 y); 1 inversion, 2 muls, 2 squarings
    x2 = mul_int(P.x, P.x, mod)
    num = add_int(add_int(x2, x2, mod), add_int(x2, P.curve.a, mod), mod)
    lam = mul_int(num, inv_euclid_int(add_int(P.y, P.y, mod), mod), mod)
    x3 = sub_int(sub_int(mul_int(lam, lam, mod), P.x, mod), P.x, mod)
    y3 = sub_int(mul_int(lam, sub_int(P.x, x3, mod), mod), P.y, mod)
    return AffinePoint(P.curve, x3, y3)


def validate_point(P: AffinePoint) -> None:
    """Checks applied to every externally supplied point."""
    if P.at_infinity:
        raise CurveError("point at infinity not acceptable here")
    if not P.is_on_curve():
        raise CurveError("point fails the curve equation")
    if P.curve.h > 1:
        T = P
        h = P.curve.h
        # h is tiny (<= 8 for registered curves): repeated doubling/addition
        acc = None
        while h:
            if h & 1:
                acc = T if acc is None else point_add(acc, T)
            h >>= 1
            if h:
                T = point_double(T)
        if acc is None or acc.at_infinity:
            raise CurveError("point in the small cofactor subgroup")


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

    def __contains__(self, name: str) -> bool:
        return name in self._curves

    def register(self, params: CurveParams) -> CurveParams:
        """Validate params and add them, replacing a curve of the same id.
        The handshake names a curve by its TLS code point, so no two
        registered curves may share one."""
        code = wire.tls_curve_id(params.id)
        for other in self._curves:
            if other != params.id and wire.tls_curve_id(other) == code:
                raise CurveError("TLS curve code 0x%04x of %r is taken by %r"
                                 % (code, params.id, other))
        _validate_params(params)
        self._curves[params.id] = params
        return params

    def load_text(self, text: str) -> None:
        for params in parse_registry_text(text):
            self.register(params)

    def load_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            self.load_text(fh.read())


def _validate_params(params: CurveParams) -> None:
    if params.h < 1:
        raise CurveError("cofactor must be positive")
    if not params.discriminant_ok():
        raise CurveError("singular curve (zero discriminant)")
    if not params.equation_holds(params.gx, params.gy):
        raise CurveError("generator not on curve")
    with counters.isolated():
        if params.kind == WEIERSTRASS:
            from .scalarmult import scalar_mul_unchecked
            if not scalar_mul_unchecked(params.n, params.generator()).at_infinity:
                raise CurveError("n * G is not the identity")
        else:
            from .scalarmult import montgomery_ladder_raw
            _, z = montgomery_ladder_raw(params.n, params.gx, params)
            if z != 0:
                raise CurveError("n * G is not the identity")


def parse_registry_text(text: str) -> List[CurveParams]:
    """Parse the curve registry format: [name] blocks of hex key=value lines."""
    records: List[CurveParams] = []
    name = None
    fields: Dict[str, str] = {}

    def flush():
        if name is None:
            return
        try:
            kind = fields.pop("kind")
            vals = {k: int(v, 16) for k, v in fields.items()}
            records.append(CurveParams(
                id=name, kind=kind, p=vals["p"], a=vals["a"], b=vals["b"],
                gx=vals["gx"], gy=vals["gy"], n=vals["n"], h=vals["h"]))
        except (KeyError, ValueError) as exc:
            raise CurveError("bad registry record %r: %s" % (name, exc)) from None

    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            name = line[1:-1].strip()
            fields = {}
        elif "=" in line and name is not None:
            key, _, value = line.partition("=")
            fields[key.strip().lower()] = value.strip()
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

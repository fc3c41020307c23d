"""Exact 2x2 integer lattice primitives and the 64-bit contract.

Everything downstream (fans, polygons, equivalence, enumeration) reduces to
the handful of operations here: signed 2x2 determinants, primitivity tests,
and applying, composing and inverting integer matrix maps.  Solving for the
map that sends one ray pair onto another is part of the equivalence decision
and lives in equivalence.are_equivalent.  All arithmetic runs on exact
Python ints, so no intermediate step can overflow; a ray, RayVector, is
the int pair (x, y) itself.  The 64-bit contract names values instead:
every vertex coordinate, map entry, determinant, vertex turn and f-value
the package produces lies in the signed 64-bit range.  `checked_i64` is the
one gate for that range and for the int type, and words all its errors: it
raises ValueError naming a value that is not an int (a bool, float or str),
and LatticeOverflowError naming an int outside the range.  Each named value
passes it once, where it is produced: here the RayVector coordinates, the
UnimodularMap entries and the results of det2 and UnimodularMap.det;
BoxSpec its box size (so a box past I64_MAX raises before any grid is
built), validation its cone determinants and vertex turns, and analyze its
f-values.  twice_area and identify's basis readings are never checked.  No
message spells out an unbounded value: checked_i64 names an int past 256
bits by its size, and _clipped cuts any other long echo, or names it by its
type when repr refuses it.  _checked_ray reads one vertex's point once and
raises ValueError naming it for a point that is not an (x, y) pair of ints,
else checks it through `checked_i64`.  pair_rays reads each point of a
sequence of pairs once, screens its coordinates inline and builds its ray
unchecked; at a point that fails, _checked_ray raises its error.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Sequence

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class LatticeOverflowError(OverflowError):
    """A lattice computation left the signed 64-bit range."""


def _clipped(value) -> str:
    """repr(value), cut past 80 characters, or its type if repr refuses it."""
    try:
        text = repr(value)
    except ValueError:  # the digit limit of int-to-str conversion
        return f"<{type(value).__name__} too long to show>"
    return text if len(text) <= 80 else f"{text[:60]}... ({len(text)} characters)"


def checked_i64(value: int, context: str) -> int:
    """Pass `value` through if it is an int in the signed 64-bit range; else
    raise ValueError (not an int, bools included) or LatticeOverflowError.
    The message echoes an int of more than 256 bits by its size: str() takes
    quadratic time and refuses 4,300 digits or more."""
    if type(value) is not int:  # not isinstance: bool is an int
        raise ValueError(f"{context} {_clipped(value)} is not an integer")
    if value < I64_MIN or value > I64_MAX:
        shown = value if value.bit_length() <= 256 else f"of {value.bit_length()} bits"
        raise LatticeOverflowError(f"{context} {shown} exceeds the signed 64-bit range")
    return value


class RayVector(tuple):
    """An integer lattice vector, the int pair (x, y) itself: it equals,
    hashes and orders as that pair (x, then y, used for canonical forms)."""

    __slots__ = ()
    x = property(itemgetter(0))
    y = property(itemgetter(1))

    def __new__(cls, x: int, y: int) -> "RayVector":
        return tuple.__new__(cls, (checked_i64(x, "x coordinate"), checked_i64(y, "y coordinate")))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __add__(self, other: "RayVector") -> "RayVector":
        return RayVector(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other: "RayVector") -> "RayVector":
        return RayVector(self[0] - other[0], self[1] - other[1])

    def __neg__(self) -> "RayVector":
        return RayVector(-self[0], -self[1])

    def __mul__(self, other):  # a vector, not a sequence to repeat
        return NotImplemented

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int]:
        return self

    def __repr__(self) -> str:
        return "RayVector(x=%r, y=%r)" % self

    def __str__(self) -> str:
        return "%d,%d" % self


_new = tuple.__new__  # _new(RayVector, pair): the RayVector of a screened pair, unchecked


def _checked_ray(index: int, point, pair=None) -> RayVector:
    """Vertex `index` as a ray; `pair` is what was unpacked from `point`, () if nothing."""
    try:
        x, y = point if pair is None else pair
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ValueError(f"vertex {index} {_clipped(point)}: not an (x, y) pair") from None
    if type(x) is not int or type(y) is not int:  # not isinstance: bool is an int
        raise ValueError(f"vertex {index} {_clipped(point)}: coordinates must be integers")
    return _new(RayVector, (x, y)) if I64_MIN <= x <= I64_MAX and I64_MIN <= y <= I64_MAX else RayVector(x, y)


def pair_rays(points: Sequence) -> tuple[RayVector, ...]:
    """The rays of the int pairs `points`, screened as the module docstring says."""
    lo, hi = I64_MIN, I64_MAX
    rays = []
    for p in points:
        try:
            x, y = p
        except (TypeError, ValueError):  # not iterable, or not two items
            _checked_ray(len(rays) + 1, p, ())  # raises: () does not unpack either
        if type(x) is not int or type(y) is not int or not (lo <= x <= hi and lo <= y <= hi):
            _checked_ray(len(rays) + 1, p, (x, y))  # raises
        rays.append(_new(RayVector, (x, y)))
    return tuple(rays)


class _Record(tuple):
    """An immutable record that is the tuple of its fields.  A subclass names
    them in `_fields`, each read through a property, and checks and builds
    its values in `__new__`.  A record equals only a record of its own type
    with equal fields, hashes as its field tuple, shows a dataclass-style
    repr, pickles and copies through its constructor, and raises
    dataclasses.FrozenInstanceError on any assignment or deletion, importing
    dataclasses only then."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for i, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(self)

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # loaded only to raise it
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError  # loaded only to raise it
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class UnimodularMap(_Record):
    """A 2x2 integer matrix [[a, b], [c, d]], applied to column vectors."""

    __slots__ = ()
    _fields = ("a", "b", "c", "d")

    def __new__(cls, a: int, b: int, c: int, d: int) -> "UnimodularMap":
        return tuple.__new__(cls, (checked_i64(a, "matrix entry a"), checked_i64(b, "matrix entry b"),
                                   checked_i64(c, "matrix entry c"), checked_i64(d, "matrix entry d")))

    def det(self) -> int:
        return checked_i64(self.a * self.d - self.b * self.c, "matrix determinant")

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def inverse(self) -> "UnimodularMap":
        """Inverse of a determinant +-1 matrix; raises ValueError otherwise."""
        det = self.det()
        if det == 1:
            return UnimodularMap(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return UnimodularMap(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"matrix with determinant {det} has no integer inverse")


IDENTITY_MAP = UnimodularMap(1, 0, 0, 1)


def det2(u: RayVector, v: RayVector) -> int:
    """Signed determinant of the pair (u, v): u.x * v.y - v.x * u.y."""
    return checked_i64(u[0] * v[1] - v[0] * u[1], "det2")


def is_primitive(v: RayVector) -> bool:
    """True iff gcd(|x|, |y|) == 1.  The origin has gcd 0 and is not primitive."""
    return math.gcd(*v) == 1


def apply_map(m: UnimodularMap, v: RayVector) -> RayVector:
    return RayVector(m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1])


def compose_maps(m: UnimodularMap, n: UnimodularMap) -> UnimodularMap:
    """Matrix product m @ n, i.e. the map applying n first and m second."""
    return UnimodularMap(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )

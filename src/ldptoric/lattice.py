"""Exact 2x2 integer lattice primitives and the 64-bit contract.

Everything downstream (fans, polygons, equivalence, enumeration) reduces to
the handful of operations here: signed 2x2 determinants, primitivity tests,
and integer matrix maps.  All arithmetic is exact, and every vertex, map
entry, determinant, vertex turn and f-value the package computes lies in
the signed 64-bit range, or the call raises LatticeOverflowError.  That
contract is enforced in two places:

- `within_kernel_bound`: the validation turns, the f-values and the family
  basis readings run on plain int tuples when every coordinate is below
  2**30 in absolute value, a bound under which no intermediate can leave
  the range (the proof is in its docstring), so nothing is checked;
- the checked RayVector arithmetic below (`checked_i64` on every product,
  sum and coordinate), which those kernels fall back on at or above that
  bound and which maps, equivalence and canonical vertices always use; it
  is the only arithmetic that raises.

The cone determinants of a validated cycle were computed in validation
under one of the two, so analyze and twice_area recompute them on plain
ints at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class LatticeOverflowError(OverflowError):
    """A lattice computation left the signed 64-bit range."""


KERNEL_BOUND = 2**30


def within_kernel_bound(points) -> bool:
    """True when every coordinate of the (x, y) pairs has absolute value
    below KERNEL_BOUND = 2**30.

    Proof that the unchecked int-tuple kernels then stay in the signed 64-bit
    range, so the checked arithmetic could not raise on such input: every
    coordinate is at most 2**30 - 1 in absolute value, so
    - a product of two coordinates is below 2**60, and a vertex determinant
      x1*y2 - x2*y1 is below 2**61;
    - an edge-vector difference b - a has coordinates below 2**31, so each
      product in a vertex turn det(b - a, c - b) is below 2**62 and the turn
      is below 2**63 - 1;
    - an f-value, a sum of three vertex determinants, is below 3 * 2**61,
      which is below 2**63 - 1;
    - a basis reading (the image of a vertex under the inverse of a
      determinant-1 vertex pair) is a pair of vertex determinants.
    """
    bound = KERNEL_BOUND
    return all(-bound < x < bound and -bound < y < bound for x, y in points)


def checked_i64(value: int, context: str = "value") -> int:
    """Pass `value` through unchanged, or raise if it needs more than 64 bits."""
    if value < I64_MIN or value > I64_MAX:
        raise LatticeOverflowError(f"{context} {value} exceeds the signed 64-bit range")
    return value


@dataclass(frozen=True, order=True)
class RayVector:
    """An integer lattice vector.  Ordering is (x, then y), used for canonical forms."""

    x: int
    y: int

    def __post_init__(self) -> None:
        checked_i64(self.x, "x coordinate")
        checked_i64(self.y, "y coordinate")

    def __add__(self, other: "RayVector") -> "RayVector":
        return RayVector(checked_i64(self.x + other.x, "sum x"), checked_i64(self.y + other.y, "sum y"))

    def __sub__(self, other: "RayVector") -> "RayVector":
        return RayVector(checked_i64(self.x - other.x, "diff x"), checked_i64(self.y - other.y, "diff y"))

    def __neg__(self) -> "RayVector":
        return RayVector(-self.x, -self.y)

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __str__(self) -> str:
        return f"{self.x},{self.y}"


@dataclass(frozen=True)
class UnimodularMap:
    """A 2x2 integer matrix [[a, b], [c, d]], applied to column vectors."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            checked_i64(getattr(self, name), f"matrix entry {name}")

    def det(self) -> int:
        return checked_i64(
            checked_i64(self.a * self.d, "det term") - checked_i64(self.b * self.c, "det term"),
            "matrix determinant",
        )

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

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


IDENTITY_MAP = UnimodularMap(1, 0, 0, 1)


def det2(u: RayVector, v: RayVector) -> int:
    """Signed determinant of the pair (u, v): u.x * v.y - v.x * u.y."""
    return checked_i64(
        checked_i64(u.x * v.y, "det2 product") - checked_i64(v.x * u.y, "det2 product"),
        "det2",
    )


def is_primitive(v: RayVector) -> bool:
    """True iff gcd(|x|, |y|) == 1.  The origin has gcd 0 and is not primitive."""
    return math.gcd(v.x, v.y) == 1


def apply_map(m: UnimodularMap, v: RayVector) -> RayVector:
    return RayVector(
        checked_i64(checked_i64(m.a * v.x, "map product") + checked_i64(m.b * v.y, "map product"), "map image x"),
        checked_i64(checked_i64(m.c * v.x, "map product") + checked_i64(m.d * v.y, "map product"), "map image y"),
    )


def compose_maps(m: UnimodularMap, n: UnimodularMap) -> UnimodularMap:
    """Matrix product m @ n, i.e. the map applying n first and m second."""
    p = checked_i64
    return UnimodularMap(
        p(p(m.a * n.a, "compose") + p(m.b * n.c, "compose"), "compose entry"),
        p(p(m.a * n.b, "compose") + p(m.b * n.d, "compose"), "compose entry"),
        p(p(m.c * n.a, "compose") + p(m.d * n.c, "compose"), "compose entry"),
        p(p(m.c * n.b, "compose") + p(m.d * n.d, "compose"), "compose entry"),
    )


def solve_map(u1: RayVector, u2: RayVector, w1: RayVector, w2: RayVector) -> UnimodularMap | None:
    """The unique integral unimodular map sending u1 -> w1 and u2 -> w2, or None.

    (u1, u2) must be linearly independent (ValueError otherwise); the rational
    solution is then unique, and None is returned when it fails to be integral
    or fails to have determinant +-1.
    """
    base = det2(u1, u2)
    if base == 0:
        raise ValueError("u1 and u2 must be linearly independent")
    p = checked_i64
    # Cramer on the two rows of the unknown matrix.
    numerators = (
        p(p(w1.x * u2.y, "solve") - p(w2.x * u1.y, "solve"), "solve numerator"),
        p(p(u1.x * w2.x, "solve") - p(u2.x * w1.x, "solve"), "solve numerator"),
        p(p(w1.y * u2.y, "solve") - p(w2.y * u1.y, "solve"), "solve numerator"),
        p(p(u1.x * w2.y, "solve") - p(u2.x * w1.y, "solve"), "solve numerator"),
    )
    entries = []
    for num in numerators:
        quot, rem = divmod(num, base)
        if rem:
            return None
        entries.append(p(quot, "solve entry"))
    m = UnimodularMap(*entries)
    return m if m.is_unimodular() else None

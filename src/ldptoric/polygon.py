"""Validated ray cycles of complete fans and convex LDP polygons.

A FanCycle is a counterclockwise cyclic list of pairwise distinct primitive
rays winding exactly once around the origin; it determines a complete fan.
An LdpPolygon is a FanCycle that additionally has every ray a strictly convex
vertex of the hull, which is exactly the log del Pezzo condition on the
associated surface.  Being a FanCycle, it goes as is to everything that takes
one (analyze, blow_up, twice_area, ...); `vertices` is its name for the rays.

All validation-error indices reported here are 1-based, matching the cyclic
convention used by every external surface of the package; each error keeps
its values as attributes and args, so it pickles as itself.  Validation runs
its checks in a fixed order (coordinates, primitivity, duplicates, cone
determinants, winding, then vertex turns, which validate_fan never computes)
on the input pairs as given, which unpack faster than RayVectors as exact
tuples or lists, and checks the 64-bit range on the values it produces
where the check that uses them runs, so the first failing check of either
kind wins.  Once every cone determinant is at least 1, each step turns
counterclockwise by less than a half-turn, so the winding number counts the
steps from y < 0 to y >= 0: each crosses the positive x axis, and none can
end on the negative one.  A positivity check scans its values in one loop;
screening them first with min() and max() measured slower at every d up to
12 on CPython 3.11.

The duplicate check runs only when the determinant or the winding check
fails, and then before that failure is raised, so every input gets the error
of the listed order.  It is not needed otherwise: when every determinant is
at least 1 and the winding is 1, the d steps turn counterclockwise by angles
in (0, pi) that sum to one full turn, so the rays point in d distinct
directions and, being primitive, are pairwise distinct.

The turn at a vertex is its f-value, so validation checks exactly the data
of a SurfaceReport: _surface_data computes it for validation and for
surface._surface_report alike.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key
from itertools import starmap
from typing import Iterable, Sequence

from .lattice import I64_MAX, LatticeOverflowError, RayVector, _clipped, _Record, checked_i64, det2, pair_rays


class FanValidationError(ValueError):
    """Base class for fan and polygon validation failures."""


class _ValuedError(ValueError):
    """An error that carries values: a subclass declares `fields`, the names
    its values are stored under (`index` unless it says otherwise), and
    `words`, its message from those values.  args holds the values (set by
    BaseException.__new__), so it pickles and copies as itself."""

    fields: tuple[str, ...] = ("index",)

    def __init__(self, *values):
        for name, value in zip(self.fields, values):
            setattr(self, name, value)

    def __str__(self) -> str:
        return type(self).words(*self.args)


class NonPrimitiveRay(_ValuedError, FanValidationError):
    words = lambda index: f"NonPrimitiveRay({index}): ray {index} is not primitive"


class DuplicateRay(_ValuedError, FanValidationError):
    words = lambda index: f"DuplicateRay({index}): ray {index} repeats an earlier ray"


class NotCounterclockwise(_ValuedError, FanValidationError):
    words = lambda index: (f"NotCounterclockwise({index}): consecutive rays {index} and {index + 1} "
                           "do not turn counterclockwise")


class BadWinding(_ValuedError, FanValidationError):
    fields = ("winding",)
    words = lambda winding: f"BadWinding: rays wind {winding} times around the origin, need exactly 1"


class NotStrictlyConvex(_ValuedError, FanValidationError):
    words = lambda index: f"NotStrictlyConvex({index}): ray {index} is not a strict vertex of the hull"


def angular_sort(points: Iterable[RayVector]) -> list[RayVector]:
    """Sort vectors by angle counterclockwise starting at the positive x axis.

    Exact: decided by the half-plane split, [0, pi) before [pi, 2*pi), and one
    determinant sign.  Distinct primitive vectors never share a direction, so
    this is a total order on them."""
    def cmp(u: RayVector, v: RayVector) -> int:
        if u == v:
            return 0
        lower_u = u[1] < 0 or (u[1] == 0 and u[0] < 0)
        if lower_u != (v[1] < 0 or (v[1] == 0 and v[0] < 0)):
            return 1 if lower_u else -1
        return -1 if det2(u, v) > 0 else 1

    return sorted(points, key=cmp_to_key(cmp))


class FanCycle:
    """Counterclockwise cycle of primitive rays winding once around the origin.

    Immutable: assigning an attribute raises FrozenInstanceError.  Its slots
    after `rays` hold memos, so it has no instance dict: _report (analyze's,
    set by validate_ldp_polygon), _tied and _tied_oriented
    (equivalence._normalizations, one per flag) and _family (identify's).  A
    memo is unset until computed, then set once with object.__setattr__.
    ==, hash, repr and pickling read only the rays, == only within one type."""

    __slots__ = ("rays", "_report", "_tied", "_tied_oriented", "_family")

    def __init__(self, rays: tuple[RayVector, ...]) -> None:
        object.__setattr__(self, "rays", rays)

    def __eq__(self, other):
        return self.rays == other.rays if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.rays,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rays={self.rays!r})"

    def __reduce__(self):
        return type(self), (self.rays,)

    __setattr__, __delattr__ = _Record.__setattr__, _Record.__delattr__

    @property
    def d(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> RayVector:
        """1-based cyclic ray access: ray(0) == ray(d), ray(d + 1) == ray(1)."""
        return self.rays[(i - 1) % len(self.rays)]

    def cone_det(self, i: int) -> int:
        """Determinant of the i-th cone, spanned by ray(i) and ray(i + 1)."""
        return det2(self.ray(i), self.ray(i + 1))


class LdpPolygon(FanCycle):
    """A FanCycle whose rays are strict vertices of their convex hull."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple[RayVector, ...]:
        return self.rays


def same_cycle(a: FanCycle, b: FanCycle) -> bool:
    """True iff the two cycles agree up to a cyclic rotation (orientation kept)."""
    if a.d != b.d:
        return False
    if a.rays[0] not in b.rays:
        return False
    k = b.rays.index(a.rays[0])
    return all(a.rays[i] == b.rays[(k + i) % b.d] for i in range(a.d))


class ConeRecord(_Record):
    """Local data of one cone: 1-based index, determinant, singularity flag."""

    __slots__ = ()
    _fields = ("index", "det", "singular")

    def __new__(cls, index: int, det: int, singular: bool) -> "ConeRecord":
        return tuple.__new__(cls, (index, det, singular))


class SurfaceReport(_Record):
    """The stored fields d, dets, f_values and singular_count; the rest is read off them."""

    __slots__ = ()
    _fields = ("d", "dets", "f_values", "singular_count")

    def __new__(cls, d: int, dets: tuple, f_values: tuple, singular_count: int) -> "SurfaceReport":
        return tuple.__new__(cls, (d, dets, f_values, singular_count))

    @property
    def picard_number(self) -> int:
        return self.d - 2

    @property
    def is_log_del_pezzo(self) -> bool:
        return min(self.f_values) >= 1

    @property
    def cones(self) -> tuple[ConeRecord, ...]:
        return tuple(ConeRecord(i, det, det >= 2) for i, det in enumerate(self.dets, start=1))

    @property
    def anticanonical_degrees(self) -> tuple[Fraction, ...]:
        dets = self.dets
        return tuple(Fraction(f, dets[i - 1] * dets[i]) for i, f in enumerate(self.f_values))

    def singular_indices(self) -> tuple[int, ...]:
        return tuple(i for i, det in enumerate(self.dets, start=1) if det >= 2)


def _cone_dets(pts: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The cone determinants det(v_i, v_{i+1}) of the int-pair cycle `pts`."""
    return tuple([x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])])


def _surface_data(pts: tuple[tuple[int, int], ...], dets: tuple[int, ...]) -> SurfaceReport:
    """The report of the int-pair cycle `pts` with cone determinants `dets`,
    all at least 1, exact and unchecked: its vertex turns are its f-values."""
    prv, nxt = pts[-1:] + pts[:-1], pts[1:] + pts[:1]
    # The turn at b between a and c, (b - a) x (c - b), is det(a, b) + det(b, c) + det(c, a).
    turns = tuple([ab + bc + cx * ay - ax * cy
                   for ab, bc, (ax, ay), (cx, cy) in zip((dets[-1],) + dets, dets, prv, nxt)])
    return SurfaceReport(len(pts), dets, turns, len(pts) - dets.count(1))


def _check_positive(values: tuple[int, ...], context: str, error: type[FanValidationError]) -> None:
    """At the first value outside 1..I64_MAX, raise LatticeOverflowError
    naming `context` if it is outside the 64-bit range, else error(index)."""
    for i, value in enumerate(values, start=1):
        if not 0 < value <= I64_MAX:
            checked_i64(value, context)
            raise error(i)


def _validate_fan(points: Sequence) -> tuple[tuple, tuple[RayVector, ...], tuple[int, ...]]:
    """validate_fan's checks; returns the input pairs, rays and dets."""
    pts = tuple(points)  # a sequence: the screen reads it twice
    rays = pair_rays(pts)
    d = len(rays)
    if d < 3:
        raise ValueError(f"a complete fan needs at least 3 rays, got {d}")
    gcds = list(starmap(math.gcd, pts))
    if gcds.count(1) != d:
        raise NonPrimitiveRay(next(i for i, g in enumerate(gcds, start=1) if g != 1))
    dets = _cone_dets(pts)
    try:
        _check_positive(dets, "cone determinant", NotCounterclockwise)
        # Every step now turns ccw by less than a half-turn: see the module docstring.
        winding = sum([ay < 0 <= by for (_, ay), (_, by) in zip(pts, pts[1:] + pts[:1])])
        if winding != 1:
            raise BadWinding(winding)
    except (FanValidationError, LatticeOverflowError):
        # Only here can rays repeat, and a repeat is reported first.
        if len(set(rays)) != d:
            raise DuplicateRay(next(i for i in range(2, d + 1) if rays[i - 1] in rays[: i - 1])) from None
        raise
    return pts, rays, dets


def validate_fan(points: Sequence) -> FanCycle:
    """Check the complete-fan conditions and return the validated cycle.

    Raises, in checking order: ValueError for fewer than 3 rays,
    NonPrimitiveRay, DuplicateRay, NotCounterclockwise (some consecutive pair
    has determinant <= 0), BadWinding (rays wind more than once).  Input order
    is preserved; any starting rotation is accepted.  A coordinate that is not
    an int raises ValueError naming its vertex, and a coordinate or cone
    determinant outside the signed 64-bit range LatticeOverflowError.
    """
    return FanCycle(_validate_fan(points)[1])


def validate_ldp_polygon(points: Sequence) -> LdpPolygon:
    """Validate as fan, then require a strict left turn at every vertex.

    The turn at a vertex is the cross product of its incoming and outgoing
    edge vectors.  A ray that is a convex combination of its neighbours
    (collinear boundary point or interior point) raises NotStrictlyConvex at
    its 1-based index; a turn outside the signed 64-bit range raises
    LatticeOverflowError.  The returned polygon carries the checked
    determinants and turns as its analyze() report.
    """
    pts, rays, dets = _validate_fan(points)
    report = _surface_data(pts, dets)
    _check_positive(report.f_values, "vertex turn", NotStrictlyConvex)
    poly = LdpPolygon(rays)
    object.__setattr__(poly, "_report", report)  # analyze's memo; FanCycle is frozen
    return poly


def twice_area(cycle: FanCycle) -> int:
    """Twice the polygon area: the sum of all cone determinants.  Always positive.

    Not range-checked: validation has already checked every one of these
    determinants."""
    return sum(_cone_dets(cycle.rays))


def parse_vertices(text: str) -> list[RayVector]:
    """Parse the shared vertex text format "x,y;x,y;..." into ray vectors.

    Each coordinate is ASCII decimal digits with an optional sign, and
    whitespace around tokens is ignored.  Malformed tokens raise ValueError
    naming the offending token, and a coordinate outside the signed 64-bit
    range LatticeOverflowError; validation of the resulting cycle is separate.
    """
    out: list[RayVector] = []
    for token in text.split(";"):
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad vertex token {_clipped(token.strip())}: expected 'x,y'")
        # int() alone would also take "1_0" (as 10) and non-ASCII digits.
        matches = [re.fullmatch(r"\s*([+-]?)0*([0-9]+)\s*", part) for part in parts]
        if not all(matches):
            raise ValueError(f"bad vertex token {_clipped(token.strip())}: coordinates must be integers")
        coords = []
        for axis, (sign, digits) in zip("xy", (m.groups() for m in matches)):
            # Past 78 digits, leading zeros stripped, a value is above 2**256,
            # where checked_i64 names it by its size, and int() refuses 4,300.
            if len(digits) > 78:
                raise LatticeOverflowError(f"{axis} coordinate of {len(digits)} digits exceeds the signed 64-bit range")
            coords.append(checked_i64(int(sign + digits), f"{axis} coordinate"))
        out.append(RayVector(*coords))
    return out


def format_vertices(points: Iterable[RayVector]) -> str:
    """Inverse of parse_vertices: "x,y;x,y;..." with no whitespace."""
    return ";".join(f"{x},{y}" for x, y in points)

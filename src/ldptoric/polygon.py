"""Validated ray cycles of complete fans and convex LDP polygons.

A FanCycle is a counterclockwise cyclic list of pairwise distinct primitive
rays winding exactly once around the origin; it determines a complete fan.
An LdpPolygon is a FanCycle that additionally has every ray a strictly convex
vertex of the hull, which is exactly the log del Pezzo condition on the
associated surface.  Being a FanCycle, it goes as is to everything that takes
one (analyze, blow_up, identify, ...); `vertices` is its name for the rays.

All validation-error indices reported here are 1-based, matching the cyclic
convention used by every external surface of the package; each error keeps
its values as attributes and args, so it pickles as itself.

The ordered checks define validation and its errors: coordinates (a bad
point worded by lattice._checked_ray), at least 3 rays, primitivity,
duplicates, cone determinants, winding, then vertex turns, which
validate_fan does not check; a determinant or turn outside the 64-bit range
fails in its check's place.  Once every cone determinant is at least 1, each
step turns counterclockwise by less than a half-turn, so the winding number
counts the steps from y < 0 to y >= 0, each of which crosses the positive x
axis.  Duplicates are looked for only when the determinant or winding check
fails, before it raises: when every determinant is at least 1 and the winding
is 1, the d steps turn counterclockwise by angles in (0, pi) that sum to one
full turn, so the primitive rays point in d distinct directions.

validate_fan and validate_ldp_polygon run one loop that reads each point
once, builds its ray and computes each cone determinant, vertex turn (the
f-value there) and winding step once.  A point that is not a pair of 64-bit
ints raises at once; any other failed test only marks the cycle bad.  A bad
cycle words its first error in the listed order from those values, screening
and computing nothing again; a valid one returns them as its SurfaceReport, a
fan's turns unchecked.  analyze runs this loop on a cycle with no report yet.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterable, Iterator, Sequence

from .lattice import I64_MAX, I64_MIN, LatticeOverflowError, RayVector, _checked_ray, _clipped, _new, _Record, checked_i64, det2


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
    fields = ("index", "next_index")  # next_index is 1 for the pair (ray d, ray 1)
    words = lambda index, next_index=None: (f"NotCounterclockwise({index}): consecutive rays {index} and "
                                            f"{next_index or index + 1} do not turn counterclockwise")


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
    set by validation or the first analyze), _tied
    (equivalence._normalizations) and _family (identify's).  A memo is unset
    until computed, then set once with object.__setattr__.
    ==, hash, repr and pickling read only the rays, == only within one type."""

    __slots__ = ("rays", "_report", "_tied", "_family")

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


class LdpPolygon(FanCycle):
    """A FanCycle whose rays are strict vertices of their convex hull."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple[RayVector, ...]:
        return self.rays


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
    def anticanonical_degrees(self) -> tuple[Fraction, ...]:
        dets = self.dets
        return tuple(Fraction(f, dets[i - 1] * dets[i]) for i, f in enumerate(self.f_values))

    def singular_indices(self) -> tuple[int, ...]:
        return tuple(i for i, det in enumerate(self.dets, start=1) if det >= 2)


def _check_positive(values: Sequence[int], context: str, error: Callable[[int], FanValidationError]) -> None:
    """At the first value outside 1..I64_MAX, raise LatticeOverflowError
    naming `context` if it is outside the 64-bit range, else error(index)."""
    for i, value in enumerate(values, start=1):
        if not 0 < value <= I64_MAX:
            checked_i64(value, context)
            raise error(i)


def _points(points: Sequence) -> Iterator:
    try:
        return iter(points)
    except TypeError:
        raise ValueError(f"vertices {_clipped(points)}: not a sequence of (x, y) pairs") from None


def _validated(points: Sequence, convex: bool) -> tuple[tuple[RayVector, ...], SurfaceReport]:
    """The rays of the cycle `points` and their report, or the error of its
    first failing check in the module docstring's order; the vertex turns
    are checked only if `convex`, and a fan's are its f-values unchecked."""
    rays, dets, turns = [], [], []  # det(v_k, v_k+1) and the turn at v_k, a placeholder 1 at v_0
    lo, hi, winding, good, nonprimitive, ab = I64_MIN, I64_MAX, 0, True, 0, None
    for p in _points(points):
        try:
            x, y = p
        except (TypeError, ValueError):  # not iterable, or not two items
            _checked_ray(len(rays) + 1, p, ())  # raises: () does not unpack either
        if type(x) is not int or type(y) is not int or not (lo <= x <= hi and lo <= y <= hi):
            _checked_ray(len(rays) + 1, p, (x, y))  # raises
        rays.append(_new(RayVector, (x, y)))
        if math.gcd(x, y) != 1 and not nonprimitive:
            nonprimitive = len(rays)
        if ab is None:  # a = v_0 and ab = 1 at v_1 make the turn at v_0 read 1 until it is known
            ax, ay, ab = x, y, 1
        else:  # (a, b, c) are v_k-2, v_k-1, v_k and ab = det(a, b)
            bc = bx * y - x * by
            turn = ab + bc + x * ay - ax * y  # (b - a) x (c - b)
            if not (0 < bc <= hi and 0 < turn <= hi):
                good = False
            winding += by < 0 <= y
            dets.append(bc)
            turns.append(turn)
            ax, ay, ab = bx, by, bc
        bx, by = x, y
    if (d := len(rays)) < 3:
        raise ValueError(f"a complete fan needs at least 3 rays, got {d}")
    (x, y), (x1, y1) = rays[0], rays[1]  # the cone (v_d-1, v_0) and the turns at v_d-1 and v_0
    bc = bx * y - x * by
    turns[0], last = bc + dets[0] + x1 * by - bx * y1, ab + bc + x * ay - ax * y
    good = good and 0 < bc <= hi and 0 < last <= hi and 0 < turns[0] <= hi
    winding += by < 0 <= y
    dets.append(bc)
    turns.append(last)
    if nonprimitive:
        raise NonPrimitiveRay(nonprimitive)
    rays = tuple(rays)
    if not good or winding != 1:
        try:
            _check_positive(dets, "cone determinant", lambda i: NotCounterclockwise(i, i % d + 1))
            # Every step now turns ccw by less than a half-turn: see the module docstring.
            if winding != 1:
                raise BadWinding(winding)
        except (FanValidationError, LatticeOverflowError):
            # Only here can rays repeat, and a repeat is reported first.
            if len(set(rays)) != d:
                raise DuplicateRay(next(i for i in range(2, d + 1) if rays[i - 1] in rays[: i - 1])) from None
            raise
        if convex:
            _check_positive(turns, "vertex turn", NotStrictlyConvex)
    return rays, SurfaceReport(d, tuple(dets), tuple(turns), d - dets.count(1))


def validate_fan(points: Sequence) -> FanCycle:
    """The complete fan of the ray cycle `points` (input order, any rotation),
    or the error of its first failing check in the module docstring's order:
    ValueError for a vertex list that is not iterable, a point that is not an
    (x, y) pair of ints or fewer than 3 rays; NonPrimitiveRay, DuplicateRay,
    NotCounterclockwise, BadWinding; or LatticeOverflowError for a coordinate
    or cone determinant outside the signed 64-bit range.  The fan carries
    the loop's report as analyze's memo when every f-value is in that range."""
    rays, report = _validated(points, False)
    fan = FanCycle(rays)
    if all(I64_MIN <= f <= I64_MAX for f in report.f_values):  # else analyze raises on it
        object.__setattr__(fan, "_report", report)
    return fan


def validate_ldp_polygon(points: Sequence) -> LdpPolygon:
    """validate_fan's checks, then a strict left turn at every vertex (the
    cross product of its incoming and outgoing edges), else NotStrictlyConvex
    at its 1-based index, or LatticeOverflowError for a turn outside 64 bits.
    The polygon carries the checked determinants and turns as its report."""
    rays, report = _validated(points, True)
    poly = LdpPolygon(rays)
    object.__setattr__(poly, "_report", report)  # analyze's memo; FanCycle is frozen
    return poly


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

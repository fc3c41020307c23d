"""Parametric families of LDP polygons with at most three singular points.

Seven families cover every class with one or two singular points and the
five-vertex classes with three:

  dais1   [(1,-1), (p,1), (-1,0)]                      d=3, one singular point
  dais2   [(1,-1), (p,1), (p-1,1), (-1,0)]             d=4, one singular point
  dais3   [(1,-1), (p,1), (p-1,1), (-1,0), (0,-1)]     d=5, one singular point
  two1    [(1,0), (0,1), (-p,-q)]                      d=3, two singular points
  two2    [(1,0), (0,1), (-1,p), (q,r)]                d=4, two singular points
  two3    [(1,0), (0,1), (-1,p+1), (-1,p), (q,r)]      d=5, two singular points
  three5  [(1,0), (0,1), (-1,p), (q,r), (s,t)]         d=5, three singular points

FAMILY_SPECS holds one FamilySpec per tag (its docstring names the fields),
and every function here reads that table.  identify() decides all seven
families the same way: it reads the parameters off each basis reading of a
polygon (the normalizations of its determinant-1 anchors, which equivalence
memoizes on the polygon for canonical_form and are_equivalent too) and
compares that reading with the spec's closed-form reading at those
parameters, with no template built, rotated or mapped.  The readings are
exact ints at any size and never range-checked, since they only select
parameters and never become vertices.  identify() memoizes its result, None
included, in the polygon's `_family` slot, like analyze's `_report`, so
classify_three at d = 5 and a later verification read it for free.
classify_three() sorts the three-singular-point classes into the cases that
exhaust them for d <= 6, and the catalog tagging calls it for each of them.
"""

from __future__ import annotations

import math

from .equivalence import _normalizations
from .lattice import _clipped, _Record
from .polygon import FanCycle, LdpPolygon, NotStrictlyConvex, _ValuedError, validate_ldp_polygon
from .surface import analyze, blow_down_candidates


class FamilySpec(_Record):
    """Everything one family tag fixes.

    `constraints` and `vertices` take the parameters in `params` order;
    `constraints` returns (name, holds) pairs in the order generate() reports
    them.  `reading` is one basis reading of the family polygon in closed form
    (None: `vertices`, a basis reading itself), and `read` maps a basis
    reading (a vertex cycle starting (1, 0), (0, 1)) to the parameters it has
    if it is that reading.
    """

    __slots__ = ()
    _fields = ("params", "singular", "d", "constraints", "vertices", "read", "reading")

    def __new__(cls, params, singular, d, constraints, vertices, read, reading=None) -> "FamilySpec":
        return tuple.__new__(cls, (params, singular, d, constraints, vertices, read, reading))


def _dais_constraints(p):
    return [("p >= 1", p >= 1)]


def _two1_constraints(p, q):
    return [
        ("p >= 2", p >= 2),
        ("q >= 2", q >= 2),
        ("gcd(p, q) == 1", math.gcd(p, q) == 1),
    ]


def _two2_constraints(p, q, r):
    return [
        ("p <= 1", p <= 1),
        ("r <= -p*q - 2", r <= -p * q - 2),
        ("r <= -2", r <= -2),
        ("r <= -q - 1", r <= -q - 1),
        ("r <= q - p*q - 1", r <= q - p * q - 1),
        ("gcd(q, r) == 1", math.gcd(q, r) == 1),
    ]


def _two3_constraints(p, q, r):
    return [
        ("p <= 0", p <= 0),
        ("q >= 1", q >= 1),
        ("q <= -r - 1", q <= -r - 1),
        ("gcd(q, r) == 1", math.gcd(q, r) == 1),
    ]


def _three5_constraints(p, q, r, s, t):
    return [
        ("p <= 1", p <= 1),
        ("r <= -1", r <= -1),
        ("r <= -p*q - 2", r <= -p * q - 2),
        ("r <= q - p*q - 1", r <= q - p * q - 1),
        ("r <= -p*q + q*t - r*s + p*s + t - 1", r <= -p * q + q * t - r * s + p * s + t - 1),
        ("t <= -2", t <= -2),
        ("t <= -s - 1", t <= -s - 1),
        ("t <= q*t - r*s + r - 1", t <= q * t - r * s + r - 1),
        ("q*t - r*s >= 2", q * t - r * s >= 2),
        ("gcd(q, r) == 1", math.gcd(q, r) == 1),
        ("gcd(s, t) == 1", math.gcd(s, t) == 1),
    ]


FAMILY_SPECS = {
    "dais1": FamilySpec(
        ("p",), 1, 3, _dais_constraints, lambda p: ((1, -1), (p, 1), (-1, 0)),
        read=lambda rd: (-rd[2][0] - 1,),
        reading=lambda p: ((1, 0), (0, 1), (-p - 1, -1)),
    ),
    "dais2": FamilySpec(
        ("p",), 1, 4, _dais_constraints, lambda p: ((1, -1), (p, 1), (p - 1, 1), (-1, 0)),
        read=lambda rd: (-rd[2][0] - 1,),
        reading=lambda p: ((1, 0), (0, 1), (-p - 1, -1), (-p, -1)),
    ),
    "dais3": FamilySpec(
        ("p",), 1, 5, _dais_constraints, lambda p: ((1, -1), (p, 1), (p - 1, 1), (-1, 0), (0, -1)),
        read=lambda rd: (-rd[3][0],),
        reading=lambda p: ((1, 0), (0, 1), (-1, 1), (-p, -1), (1 - p, -1)),
    ),
    "two1": FamilySpec(
        ("p", "q"), 2, 3, _two1_constraints, lambda p, q: ((1, 0), (0, 1), (-p, -q)),
        read=lambda rd: (-rd[2][0], -rd[2][1]),
    ),
    "two2": FamilySpec(
        ("p", "q", "r"), 2, 4, _two2_constraints, lambda p, q, r: ((1, 0), (0, 1), (-1, p), (q, r)),
        read=lambda rd: (rd[2][1], *rd[3]),
    ),
    "two3": FamilySpec(
        ("p", "q", "r"), 2, 5, _two3_constraints,
        lambda p, q, r: ((1, 0), (0, 1), (-1, p + 1), (-1, p), (q, r)),
        read=lambda rd: (rd[3][1], *rd[4]),
    ),
    "three5": FamilySpec(
        ("p", "q", "r", "s", "t"), 3, 5, _three5_constraints,
        lambda p, q, r, s, t: ((1, 0), (0, 1), (-1, p), (q, r), (s, t)),
        read=lambda rd: (rd[2][1], *rd[3], *rd[4]),
    ),
}

FAMILY_TAGS = tuple(FAMILY_SPECS)

# identify() looks a polygon's tag up by (singular count, vertex count).
_TAG_BY_SHAPE = {(spec.singular, spec.d): tag for tag, spec in FAMILY_SPECS.items()}


class InvalidParams(_ValuedError):
    fields = ("family", "constraint")
    words = lambda family, constraint: f"invalid parameters for {family}: violates {constraint}"


class FamilyParams(_Record):
    """A family tag plus exactly the integer parameters that tag requires, a
    prefix of p, q, r, s, t; records order as their field tuples."""

    __slots__ = ()
    _fields = ("family", "p", "q", "r", "s", "t")

    def __new__(cls, family: str, p: int | None = None, q: int | None = None, r: int | None = None,
                s: int | None = None, t: int | None = None) -> "FamilyParams":
        if type(family) is not str or family not in FAMILY_SPECS:
            raise ValueError(f"unknown family tag {_clipped(family)}")
        required = FAMILY_SPECS[family].params
        for name, value in zip(cls._fields[1:], (p, q, r, s, t)):
            if name in required and value is None:
                raise ValueError(f"family {family} requires parameter {name}")
            if name not in required and value is not None:
                raise ValueError(f"family {family} takes no parameter {name}")
            if value is not None and type(value) is not int:  # not isinstance: bool is an int
                raise ValueError(f"family {family} parameter {name} {_clipped(value)} is not an integer")
        return tuple.__new__(cls, (family, p, q, r, s, t))

    def as_tuple(self) -> tuple[int, ...]:
        return self[1 : 1 + len(FAMILY_SPECS[self.family].params)]


class FamilyInstance(_Record):
    __slots__ = ()
    _fields = ("params", "polygon")

    def __new__(cls, params: FamilyParams, polygon: LdpPolygon) -> "FamilyInstance":
        return tuple.__new__(cls, (params, polygon))


def generate(fp: FamilyParams) -> FamilyInstance:
    """Build and validate the family polygon; raise InvalidParams naming the
    first violated constraint when the parameters fall outside the family."""
    spec = FAMILY_SPECS[fp.family]
    for name, ok in spec.constraints(*fp.as_tuple()):
        if not ok:
            raise InvalidParams(fp.family, name)
    polygon = validate_ldp_polygon(spec.vertices(*fp.as_tuple()))
    report = analyze(polygon)
    # The constraint systems are exactly the family membership conditions, so
    # a wrong singular count here is an internal error, not bad input.
    if report.singular_count != spec.singular:
        raise AssertionError(
            f"family {fp.family}{fp.as_tuple()} produced singular count "
            f"{report.singular_count}, expected {spec.singular}"
        )
    return FamilyInstance(fp, polygon)


def identify(poly: FanCycle) -> FamilyParams | None:
    """Family parameters of the class of `poly`, or None when no family matches.

    The parameters are read off the basis readings of `poly`, so no range of
    them is searched.  Deterministic: among all matching tuples the
    lexicographically smallest wins.  Singular counts outside 1..3, or a
    3-singular polygon with d != 5, yield None, as does a non-convex
    FanCycle, since an equivalence preserves convexity.
    """
    if hasattr(poly, "_family"):  # None is a result, so the memo is set or unset
        return poly._family
    tag = _TAG_BY_SHAPE.get((analyze(poly).singular_count, poly.d))
    if tag is None:
        return None
    spec = FAMILY_SPECS[tag]
    # Every tag has fewer singular cones than vertices, so `poly` has a smooth
    # cone and its tied normalizations are its basis readings.  Each is the
    # image of `poly` under a determinant +-1 map, so one that equals the
    # spec's reading of the family polygon proves the equivalence itself;
    # every equivalence sends the pair it reads on onto one of the pairs read.
    reading, best = spec.reading or spec.vertices, None
    for rd, _ in _normalizations(poly):
        values = spec.read(rd)
        if best is not None and values >= best:
            continue
        if reading(*values) == rd and all(ok for _, ok in spec.constraints(*values)):
            best = values
    family = None if best is None else FamilyParams(tag, *best)
    object.__setattr__(poly, "_family", family)  # FanCycle is frozen
    return family


def classify_three(poly: FanCycle) -> str:
    """Case tag for a polygon with exactly three singular points.

    picard_le_two for d <= 4; family_d5 when the d=5 family matches;
    blowup_of_picard3 when removing some sum-of-neighbours ray of a d=6
    polygon leaves a valid LDP polygon that still has three singular points;
    none otherwise (no log del Pezzo class with three singular points has
    d >= 7).
    """
    singular_count = analyze(poly).singular_count
    if singular_count != 3:
        raise ValueError(f"classify_three needs exactly 3 singular cones, got {singular_count}")
    d = poly.d
    if d <= 4:
        return "picard_le_two"
    if d == 5:
        return "family_d5" if identify(poly) is not None else "none"
    if d == 6:
        for i in blow_down_candidates(poly):
            # Removing a sum-of-neighbours ray leaves a valid fan, so only
            # convexity can fail.
            try:
                sub = validate_ldp_polygon(poly.rays[: i - 1] + poly.rays[i:])
            except NotStrictlyConvex:
                continue
            if analyze(sub).singular_count == 3:
                return "blowup_of_picard3"
    return "none"

"""Independent reference implementations used to pin expected test values.

The subset oracle enumerates polygons by brute force over point subsets with
float-angle sorting, sharing nothing with the production depth-first search;
agreement between the two is asserted exactly.

The checked reference (`ref_validate_fan` ... `ref_basis_readings`) restates
the package's 64-bit contract on plain int tuples: arithmetic is exact, and
exactly the values the contract names are checked against the signed 64-bit
range (vertex coordinates, cone determinants and vertex turns in
validation, f-values in analysis, map entries and determinants in
`_solve_map`/`_apply`), in the package's checking order and with its
messages; the validation checks raise the same typed errors in the same
order.  Basis readings are never checked.  `ref_are_equivalent` is the
equivalence search as it ran when every product and sum was checked too
(`solve_map` and `apply_map` on every target pair), before the search moved
to exact ints.

`ref_tied_anchors` is equivalence._tied_anchors as it ran when it read every
smooth cone once per orientation, with its own extended gcd.

The brute-force canonical form (`_oracle_form`) normalizes every anchor in
full with its own Bezout recursion; `ref_identify` decides dais membership
with it, so it shares no code with the package's equivalence or family
readings.

`ref_alternating_d5`, `ref_noncontiguous` and `ref_half_plane_violation`
restate verify_catalog's checks (d)-(f) on a plain ray cycle, each by its
own reading of the cone pattern.

`closure_results` blows a ray cycle down and up on int tuples, for the
check that a box catalog holds every LDP class one blow-up or blow-down
away that fits in its box.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from ldptoric import (
    IDENTITY_MAP,
    BadWinding,
    DuplicateRay,
    FamilyParams,
    FanCycle,
    FanValidationError,
    LatticeOverflowError,
    LdpPolygon,
    NonPrimitiveRay,
    NotCounterclockwise,
    NotStrictlyConvex,
    UnimodularMap,
    apply_to_polygon,
    canonical_form,
    compose_maps,
    generate,
    random_unimodular_map,
    validate_fan,
    validate_ldp_polygon,
)
from ldptoric.families import FAMILY_SPECS


def brute_force_classes(n: int) -> set[tuple[tuple[int, int], ...]]:
    """Canonical forms of every LDP polygon with vertices in [-n, n]^2, found
    by testing all point subsets of size >= 3 in float-angle order."""
    points = [
        (x, y)
        for x in range(-n, n + 1)
        for y in range(-n, n + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    out: set[tuple[tuple[int, int], ...]] = set()
    for size in range(3, len(points) + 1):
        for combo in itertools.combinations(points, size):
            ordered = sorted(combo, key=lambda p: math.atan2(p[1], p[0]))
            try:
                poly = validate_ldp_polygon(ordered)
            except FanValidationError:
                continue
            form = canonical_form(poly)
            out.add(tuple(v.as_tuple() for v in form.vertices))
    return out


def random_fan(rng: random.Random, max_d: int = 8, coord: int = 20) -> FanCycle:
    """A uniformly scruffy valid fan: distinct primitive points, angularly
    sorted, resampled until the consecutive determinants are all positive."""
    while True:
        d = rng.randint(3, max_d)
        pts: set[tuple[int, int]] = set()
        while len(pts) < d:
            x, y = rng.randint(-coord, coord), rng.randint(-coord, coord)
            if (x, y) != (0, 0) and math.gcd(x, y) == 1:
                pts.add((x, y))
        ordered = sorted(pts, key=lambda p: math.atan2(p[1], p[0]))
        try:
            return validate_fan(ordered)
        except FanValidationError:
            continue


def random_ldp_polygon(rng: random.Random, seed_polys: list[LdpPolygon]) -> LdpPolygon:
    """A random unimodular image of a random seed polygon; stays LDP."""
    base = rng.choice(seed_polys)
    return apply_to_polygon(random_unimodular_map(rng), base)


def large_shear_product(rng: random.Random, cap: int = 2**31) -> UnimodularMap:
    """Product of shears with multipliers up to 64, stopped before an entry passes cap."""
    m = IDENTITY_MAP
    for _ in range(12):
        a = rng.randint(-64, 64)
        shear = UnimodularMap(1, a, 0, 1) if rng.random() < 0.5 else UnimodularMap(1, 0, a, 1)
        candidate = compose_maps(shear, m)
        if max(abs(e) for e in (candidate.a, candidate.b, candidate.c, candidate.d)) > cap:
            break
        m = candidate
    return m


Point = tuple[int, int]


def _i64(value: int, context: str) -> int:
    if not -(2**63) <= value <= 2**63 - 1:
        raise LatticeOverflowError(f"{context} {value} exceeds the signed 64-bit range")
    return value


def _vector(x: int, y: int) -> Point:
    return (_i64(x, "x coordinate"), _i64(y, "y coordinate"))


def _det(u: Point, v: Point) -> int:
    return u[0] * v[1] - v[0] * u[1]


def _lower_half(v: Point) -> bool:
    return v[1] < 0 or (v[1] == 0 and v[0] < 0)


def ref_validate_fan(points) -> tuple[Point, ...]:
    """The validated ray cycle as int tuples, or the package's error."""
    try:
        points = list(points)
    except TypeError:
        raise ValueError(f"vertices {points!r}: not a sequence of (x, y) pairs") from None
    rays = []
    for i, point in enumerate(points, start=1):
        try:
            x, y = point
        except (TypeError, ValueError):
            raise ValueError(f"vertex {i} {point!r}: not an (x, y) pair") from None
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"vertex {i} {point!r}: coordinates must be integers")
        rays.append(_vector(x, y))
    d = len(rays)
    if d < 3:
        raise ValueError(f"a complete fan needs at least 3 rays, got {d}")
    for i, (x, y) in enumerate(rays, start=1):
        if math.gcd(x, y) != 1:
            raise NonPrimitiveRay(i)
    for i, v in enumerate(rays, start=1):
        if v in rays[: i - 1]:
            raise DuplicateRay(i)
    for i in range(d):
        if _i64(_det(rays[i], rays[(i + 1) % d]), "cone determinant") <= 0:
            raise NotCounterclockwise(i + 1, (i + 1) % d + 1)
    winding = 0
    for i in range(d):
        u, v = rays[i], rays[(i + 1) % d]
        if _lower_half(u) != _lower_half(v):
            winding += not _lower_half(v)
        else:
            winding += not _det(u, v) > 0
    if winding != 1:
        raise BadWinding(winding)
    return tuple(rays)


def ref_validate_ldp_polygon(points) -> tuple[Point, ...]:
    rays = ref_validate_fan(points)
    d = len(rays)
    for i in range(d):
        a, b, c = rays[i - 1], rays[i], rays[(i + 1) % d]
        turn = _det((b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1]))
        if _i64(turn, "vertex turn") <= 0:
            raise NotStrictlyConvex(i + 1)
    return rays


def ref_twice_area(rays: tuple[Point, ...]) -> int:
    d = len(rays)
    return sum(_det(rays[i], rays[(i + 1) % d]) for i in range(d))


def ref_analyze(rays: tuple[Point, ...]) -> dict:
    """The fields of analyze()'s SurfaceReport for a validated cycle."""
    d = len(rays)
    dets = tuple(_det(rays[i], rays[(i + 1) % d]) for i in range(d))
    f_values = tuple(
        _i64(
            _det(rays[i - 1], rays[i]) + _det(rays[i], rays[(i + 1) % d]) + _det(rays[(i + 1) % d], rays[i - 1]),
            "f value",
        )
        for i in range(d)
    )
    return {
        "d": d,
        "picard_number": d - 2,
        "dets": dets,
        "f_values": f_values,
        "anticanonical_degrees": tuple(Fraction(f_values[i], dets[i - 1] * dets[i]) for i in range(d)),
        "is_log_del_pezzo": min(f_values) >= 1,
        "singular_count": sum(1 for det in dets if det >= 2),
    }


def _solve_map(u1: Point, u2: Point, w1: Point, w2: Point) -> tuple[int, int, int, int] | None:
    """The unimodular map sending u1 -> w1 and u2 -> w2 as (a, b, c, d), or
    None: Cramer on exact ints, with the determinant of (u1, u2) checked as
    det2 checks it and the entries as UnimodularMap checks them."""
    base = _i64(_det(u1, u2), "det2")
    numerators = (
        w1[0] * u2[1] - w2[0] * u1[1],
        u1[0] * w2[0] - u2[0] * w1[0],
        w1[1] * u2[1] - w2[1] * u1[1],
        u1[0] * w2[1] - u2[0] * w1[1],
    )
    entries = []
    for num in numerators:
        quot, rem = divmod(num, base)
        if rem:
            return None
        entries.append(quot)
    for name, entry in zip("abcd", entries):
        _i64(entry, f"matrix entry {name}")
    return tuple(entries) if _map_det(tuple(entries)) in (1, -1) else None


def _map_det(m: tuple[int, int, int, int]) -> int:
    a, b, c, d = m
    return _i64(a * d - b * c, "matrix determinant")


def _apply(m: tuple[int, int, int, int], v: Point) -> Point:
    a, b, c, d = m
    return _vector(a * v[0] + b * v[1], c * v[0] + d * v[1])


def ref_basis_readings(rays: tuple[Point, ...]) -> list[tuple[Point, ...]]:
    """Unchecked exact ints: the inverse of the matrix with determinant-1
    columns a, b sends v to (det(v, b), det(a, v))."""
    mirrored = tuple((x, -y) for x, y in reversed(rays))
    readings = []
    for cyc in (rays, mirrored):
        for shift in range(len(cyc)):
            rot = cyc[shift:] + cyc[:shift]
            a, b = rot[0], rot[1]
            if _det(a, b) == 1:
                readings.append(tuple((_det(v, b), _det(a, v)) for v in rot))
    return readings


# The equivalence search as it ran when every product and sum was checked,
# before it moved to exact ints: ref_are_equivalent pins that the exact
# search returns the same map wherever that search did not raise.


def _checked_det(u: Point, v: Point) -> int:
    return _i64(_i64(u[0] * v[1], "det2 product") - _i64(v[0] * u[1], "det2 product"), "det2")


def _checked_solve_map(u1: Point, u2: Point, w1: Point, w2: Point) -> tuple[int, int, int, int] | None:
    base = _checked_det(u1, u2)
    numerators = (
        _i64(_i64(w1[0] * u2[1], "solve") - _i64(w2[0] * u1[1], "solve"), "solve numerator"),
        _i64(_i64(u1[0] * w2[0], "solve") - _i64(u2[0] * w1[0], "solve"), "solve numerator"),
        _i64(_i64(w1[1] * u2[1], "solve") - _i64(w2[1] * u1[1], "solve"), "solve numerator"),
        _i64(_i64(u1[0] * w2[1], "solve") - _i64(u2[0] * w1[1], "solve"), "solve numerator"),
    )
    entries = []
    for num in numerators:
        quot, rem = divmod(num, base)
        if rem:
            return None
        entries.append(_i64(quot, "solve entry"))
    for name, entry in zip("abcd", entries):
        _i64(entry, f"matrix entry {name}")
    return tuple(entries) if _checked_map_det(tuple(entries)) in (1, -1) else None


def _checked_map_det(m: tuple[int, int, int, int]) -> int:
    a, b, c, d = m
    return _i64(_i64(a * d, "det term") - _i64(b * c, "det term"), "matrix determinant")


def _checked_apply(m: tuple[int, int, int, int], v: Point) -> Point:
    a, b, c, d = m
    return _vector(
        _i64(_i64(a * v[0], "map product") + _i64(b * v[1], "map product"), "map image x"),
        _i64(_i64(c * v[0], "map product") + _i64(d * v[1], "map product"), "map image y"),
    )


def ref_are_equivalent(q: LdpPolygon, r: LdpPolygon) -> tuple[int, int, int, int] | None:
    """The product-checked equivalence search: the map (a, b, c, d) of the
    first target pair, in search order, that carries q's vertex set onto r's,
    or None; LatticeOverflowError wherever a product or sum overflows."""
    qv = tuple(v.as_tuple() for v in q.vertices)
    rv = tuple(v.as_tuple() for v in r.vertices)
    if len(qv) != len(rv) or ref_twice_area(qv) != ref_twice_area(rv):
        return None
    d, r_set = len(rv), set(rv)
    for j in range(d):
        for w1, w2 in ((rv[j], rv[(j + 1) % d]), (rv[(j + 1) % d], rv[j])):
            m = _checked_solve_map(qv[0], qv[1], w1, w2)
            if m is None:
                continue
            if {_checked_apply(m, v) for v in qv} == r_set:
                return m
    return None


def _oracle_bezout(a: int, b: int) -> tuple[int, int]:
    # (s, t) with s*a + t*b == 1 for a primitive (a, b).
    if b == 0:
        assert a in (1, -1)
        return a, 0
    q, r = divmod(a, b)
    s, t = _oracle_bezout(b, r)
    return t, s - q * t


def _oracle_form(vertices):
    """Brute-force canonical form: every anchor of the cycle and of its
    mirror fully normalized, lexicographic minimum.  No library helpers;
    the vertices may be int pairs or RayVectors."""
    pts = [(x, y) for x, y in vertices]
    best = None
    for cyc in (pts, [(x, -y) for x, y in reversed(pts)]):
        for i in range(len(cyc)):
            rot = cyc[i:] + cyc[:i]
            (x0, y0), (x1, y1) = rot[0], rot[1]
            s, t = _oracle_bezout(x0, y0)
            # Rows (s, t) and (-y0, x0) send rot[0] to (1, 0); the shear then
            # reduces the second image (u, span) to 0 <= u < span.
            u, span = s * x1 + t * y1, x0 * y1 - x1 * y0
            shift = -(u // span)
            form = [(s * x + t * y + shift * (x0 * y - y0 * x), x0 * y - y0 * x) for x, y in rot]
            assert form[0] == (1, 0) and 0 <= form[1][0] < form[1][1]
            if best is None or form < best:
                best = form
    return tuple(best)


def closure_results(rays: tuple[Point, ...], n: int) -> list[tuple[Point, ...]]:
    """The LDP blow-downs and in-box LDP blow-ups of an LDP ray cycle, on int
    tuples: drop a ray that is the sum of its neighbours (d >= 4), or put
    u + w between the rays of a smooth cone (u, w) when u + w lies in
    [-n, n]^2.  Either way the cycle stays a fan with positive consecutive
    determinants, so it is LDP when every turn of its vertex polygon is
    strictly counterclockwise."""
    d, out = len(rays), []
    for i in range(d):
        (ux, uy), (wx, wy) = rays[i], rays[(i + 1) % d]
        if d >= 4 and rays[i] == (rays[i - 1][0] + wx, rays[i - 1][1] + wy):
            out.append(rays[:i] + rays[i + 1:])
        if _det((ux, uy), (wx, wy)) == 1 and max(abs(ux + wx), abs(uy + wy)) <= n:
            out.append(rays[:i + 1] + ((ux + wx, uy + wy),) + rays[i + 1:])
    return [c for c in out if _strictly_convex(c)]


def _strictly_convex(rays: tuple[Point, ...]) -> bool:
    return all(_det((bx - ax, by - ay), (cx - bx, cy - by)) > 0
               for (ax, ay), (bx, by), (cx, cy) in zip(rays[-1:] + rays[:-1], rays, rays[1:] + rays[:1]))


def _ref_ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return (-old_r, -old_s, -old_t) if old_r < 0 else (old_r, old_s, old_t)


def ref_tied_anchors(pts: list[Point]) -> list:
    """equivalence._tied_anchors as it ran when it read every smooth cone once
    per orientation: the forward cycle with sign 1, then the reversed cycle
    with sign -1, each pair's determinant compared with the sign."""
    orientations = ((pts, 1), (pts[::-1], -1))
    tied = []
    for cyc, sign in orientations:
        for i in range(len(cyc)):
            rot = cyc[i:] + cyc[:i]
            (ax, ay), (bx, by) = rot[0], rot[1]
            if ax * by - bx * ay == sign:
                reading = tuple((sign * (x * by - bx * y), sign * (ax * y - x * ay)) for x, y in rot)
                tied.append((reading, (i, sign)))
    if tied:
        return tied
    rows = {p: _ref_ext_gcd(*p)[1:] for p in pts}
    anchors = []
    for cyc, sign in orientations:
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
            s, t = rows[x0, y0]
            span = sign * (x0 * y1 - x1 * y0)
            anchors.append(((s * x1 + t * y1) % span, span, s, t, cyc, sign, i))
    least = min(anchor[:2] for anchor in anchors)
    for k, span, s, t, cyc, sign, i in anchors:
        if (k, span) == least:
            rot = cyc[i:] + cyc[:i]
            (x0, y0), (x1, y1) = rot[0], rot[1]
            q = (s * x1 + t * y1) // span
            a, b = s + sign * q * y0, t - sign * q * x0
            tied.append((tuple((a * x + b * y, sign * (x0 * y - y0 * x)) for x, y in rot), (i, sign)))
    return tied


DAIS_TAGS = ("dais1", "dais2", "dais3")


def ref_identify(poly: LdpPolygon) -> FamilyParams | None:
    """identify(poly) with its arithmetic on the reference and its
    parameters bounded by twice the area (a bound every family instance
    meets); the family table and constraints are the package's.  The
    template families are read off the exact basis readings; a dais
    polygon's parameter is forced by its area (one cone of determinant p + 1
    and d - 1 smooth cones), and its membership decided by equal brute-force
    forms of the family polygon and `poly`."""
    rays = tuple(v.as_tuple() for v in poly.vertices)
    singular = ref_analyze(rays)["singular_count"]
    tags = [tag for tag, spec in FAMILY_SPECS.items() if (spec.singular, spec.d) == (singular, len(rays))]
    if not tags:
        return None
    tag, spec = tags[0], FAMILY_SPECS[tags[0]]
    bound = ref_twice_area(rays)
    if tag in DAIS_TAGS:
        candidates = {(bound - len(rays),)}
    else:
        candidates = {spec.read(rd) for rd in ref_basis_readings(rays) if spec.vertices(*spec.read(rd)) == rd}
    for values in sorted(candidates):
        if not all(ok for _, ok in spec.constraints(*values)) or any(abs(v) > bound for v in values):
            continue
        fp = FamilyParams(tag, **dict(zip(spec.params, values)))
        if tag not in DAIS_TAGS:
            return fp
        if _oracle_form(generate(fp).polygon.vertices) == _oracle_form(poly.vertices):
            return fp
    return None


# Checks (d)-(f) of verify_catalog, restated on the ray cycle alone.  Cone j
# (0-based) spans rays j and j + 1, and is singular when its determinant is
# at least 2.


def _singular_cones(rays: tuple[Point, ...]) -> list[bool]:
    return [_det(u, v) >= 2 for u, v in zip(rays, rays[1:] + rays[:1])]


def ref_alternating_d5(rays: tuple[Point, ...]) -> bool:
    """Check (d) fires: a pentagon whose two smooth cones are not neighbours,
    so its three singular cones are 1, 3, 5 up to rotation."""
    smooth = [j for j, singular in enumerate(_singular_cones(rays)) if not singular]
    return len(rays) == 5 and len(smooth) == 2 and (smooth[1] - smooth[0]) % 5 in (2, 3)


def ref_noncontiguous(rays: tuple[Point, ...]) -> bool:
    """Check (e) fires: no rotation of the cone cycle lists every singular
    cone before every smooth one."""
    flags = _singular_cones(rays)
    rotations = (flags[k:] + flags[:k] for k in range(len(flags)))
    return not any(rotation == sorted(rotation, reverse=True) for rotation in rotations)


def ref_half_plane_violation(rays: tuple[Point, ...]) -> bool:
    """Check (f) fires: d >= 4, and some smooth cone j between two singular
    cones has det(ray j + 2, ray j - 1) < 2, or the fan has fewer than three
    singular cones."""
    d, flags = len(rays), _singular_cones(rays)
    if d < 4:
        return False
    sandwiched = [j for j in range(d) if flags[j - 1] and flags[(j + 1) % d] and not flags[j]]
    return any(_det(rays[(j + 2) % d], rays[j - 1]) < 2 or sum(flags) < 3 for j in sandwiched)

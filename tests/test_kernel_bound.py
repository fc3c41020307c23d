"""Validation, surface analysis and identify agree with the plain-int
reference of the 64-bit contract on both sides of 2**30.

Below 2**30 in absolute value no product of two coordinates can leave the
signed 64-bit range, so there nothing may raise LatticeOverflowError.  Above
it only a named value (a coordinate, a cone determinant, a vertex turn or an
f-value) outside that range raises, never an intermediate product."""

import math
import random
from collections import Counter

from ldptoric import (
    DuplicateRay,
    LatticeOverflowError,
    analyze,
    identify,
    validate_fan,
    validate_ldp_polygon,
)
from ldptoric.lattice import I64_MAX, I64_MIN

from oracles import (
    _ref_ext_gcd,
    large_shear_product,
    random_fan,
    ref_analyze,
    ref_identify,
    ref_validate_fan,
    ref_validate_ldp_polygon,
)
from test_polygon import VALIDATION_ERRORS

B = 2**30

# A repeated ray together with a later defect: validation looks for repeats
# only once the determinant or winding check fails, and must still report
# DuplicateRay at the reference's index.  (input, later defect, index)
PRECEDENCE_INPUTS = [
    ([(1, 0), (1, 0), (0, 1), (-1, -1)], "non-positive determinant", 2),  # determinant 0
    ([(1, 0), (0, 1), (-1, -1), (0, 1)], "non-positive determinant", 4),
    ([(1, 0), (0, 1), (-1, -1), (1, 0), (0, 1), (-1, -1)], "winding 2", 4),
    ([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (-1, 1), (-1, -1), (1, -1)], "winding 2", 5),
    ([(3037000500, 1), (-1, 3037000500), (-1, -1), (3037000500, 1)], "determinant beyond 64 bits", 4),
    ([(3037000500, -1), (-1, -3037000500), (0, 1), (-1, -3037000500)], "determinant beyond 64 bits", 4),
]

# The three inputs of test_cli.py::test_overflow_is_bad_input, as vertex
# lists, with the value their error message names.
OVERFLOW_INPUTS = [
    ([(9223372036854775808, 1), (0, 1), (-1, -1)], "x coordinate 9223372036854775808"),
    ([(3037000500, 1), (-1, 3037000500), (-1, -1)], "cone determinant 9223372037000250001"),
    ([(1, 0), (0, 1), (-9223372036854775807, -2)], "vertex turn 9223372036854775810"),
]

# The triangle (1,0), (0,1), (x,y) has cone determinants 1, -x and -y, and its
# every vertex turn and f-value is 1 - x - y.  Each input puts one of these
# named values at I64_MAX or just past it; the first has intermediate
# products beyond 64 bits while every named value fits.  The fourth has a
# first cone determinant below I64_MIN, which overflows rather than failing
# the counterclockwise check.
CONTRACT_INPUTS = [
    ([(1, 0), (0, 1), (-3037000500, -3037000499)], None),
    ([(1, 0), (0, 1), (-(2**62) - 1, 3 - 2**62)], None),  # turns I64_MAX
    ([(1, 0), (0, 1), (-(2**63), -1)], f"cone determinant {I64_MAX + 1}"),
    ([(3037000500, -1), (-1, -3037000500), (0, 1)], f"cone determinant {-(3037000500**2) - 1}"),
    ([(1, 0), (0, 1), (-(2**62), 1 - 2**62)], f"vertex turn {I64_MAX + 1}"),
]

# Polygons at 2**30: the products of the rotated squares are near their
# worst case below it (cone determinants near 2**61, f-values near 2**62).
# The last two triangles straddle the coordinate at which the products in
# their vertex turns pass 64 bits; the turns themselves fit either way.
EDGE_INPUTS = [
    [(B - 1, 2 - B), (B - 2, B - 1), (1 - B, B - 2), (2 - B, 1 - B)],
    [(B, 1 - B), (B - 1, B), (-B, B - 1), (1 - B, -B)],
    [(1, 0), (0, 1), (1 - B, 2 - B)],
    [(1, 0), (0, 1), (-B, 1 - B)],
    [(1, 0), (0, 1), (-3037000499, -3037000498)],
    [(1, 0), (0, 1), (-3037000500, -3037000499)],
]


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, OverflowError) as exc:
        return ("error", type(exc), getattr(exc, "index", None), str(exc))


def _rays(cycle):
    return tuple(v.as_tuple() for v in cycle.rays)


def _report(cycle):
    r = analyze(cycle)
    assert r.singular_indices() == tuple(i for i, det in enumerate(r.dets, start=1) if det >= 2)
    return {
        "d": r.d,
        "picard_number": r.picard_number,
        "dets": r.dets,
        "f_values": r.f_values,
        "anticanonical_degrees": r.anticanonical_degrees,
        "is_log_del_pezzo": r.is_log_del_pezzo,
        "singular_count": r.singular_count,
    }


def _small(points) -> bool:
    return all(abs(c) < B for p in points for c in p)


def _agree(points) -> list[str]:
    """Assert agreement on `points`; returns the outcome kinds seen."""
    seen = []
    fan = _outcome(lambda: _rays(validate_fan(points)))
    assert fan == _outcome(ref_validate_fan, points), points
    poly = _outcome(lambda: _rays(validate_ldp_polygon(points)))
    assert poly == _outcome(ref_validate_ldp_polygon, points), points
    seen.append(f"validate:{poly[0] if poly[0] == 'ok' else poly[1].__name__}")
    if fan[0] == "ok":
        cycle = validate_fan(points)
        report = _outcome(_report, cycle)
        assert report == _outcome(ref_analyze, fan[1]), points
        seen.append(f"analyze:{report[0] if report[0] == 'ok' else report[1].__name__}")
    if poly[0] == "ok":
        p = validate_ldp_polygon(points)
        # The report that validation leaves on the polygon.
        assert _outcome(_report, p) == _outcome(ref_analyze, poly[1]), points
        family = _outcome(identify, p)
        assert family == _outcome(ref_identify, p), points
        seen.append(f"identify:{family[0] if family[0] == 'ok' else family[1].__name__}")
    return seen


def test_random_fans_agree_with_reference():
    # Coordinates up to 1.5 * 2**30 straddle 2**30 and keep every
    # determinant of the sampled fans inside 64 bits.
    rng = random.Random(4)
    for coord in (20, 3 * B // 2):
        kinds = set()
        for _ in range(150):
            points = [v.as_tuple() for v in random_fan(rng, coord=coord).rays]
            kinds.update(_agree(points))
        assert {"validate:ok", "validate:NotStrictlyConvex", "analyze:ok", "identify:ok"} <= kinds


def test_large_images_of_box_two_agree_with_reference(box2_catalog):
    # The images of test_canonical_form_on_large_images_of_box_two, mapped
    # in plain ints so that images failing validation are compared too.
    rng = random.Random(2024)
    seen = Counter()
    for entry in box2_catalog:
        for _ in range(20):
            # A product of shears has determinant 1 and keeps the orientation.
            m = large_shear_product(rng)
            points = [(m.a * x + m.b * y, m.c * x + m.d * y) for x, y in entry.vertices]
            below = _small(points)
            seen.update((below, kind) for kind in _agree(points))
    # 3,120 valid images, as in the canonical-form test, on both sides of
    # 2**30; no named value of any image leaves 64 bits.
    assert seen[True, "validate:ok"] == 2058
    assert seen[False, "validate:ok"] == 1062
    assert seen[False, "validate:LatticeOverflowError"] == 0
    assert seen[False, "analyze:LatticeOverflowError"] == 0
    assert seen[True, "identify:ok"] == 2058 and seen[False, "identify:ok"] == 1062


def test_error_kinds_agree_with_reference_on_both_sides():
    # An image under a determinant-1 map with entries near 2**30 has the same
    # defect at the same index, above 2**30.
    a, b, c, d = B + 1, B, 1, 1
    for points, error, _, message in VALIDATION_ERRORS.values():
        cases = [points]
        if type(points) is list:  # a vertex list that is not iterable has no image
            image = [(a * x + b * y, c * x + d * y) for x, y in points]
            assert _small(points) and not _small(image)
            cases.append(image)
        for pts in cases:
            _agree(pts)
            outcome = _outcome(validate_ldp_polygon, pts)
            assert outcome[0] == "error" and outcome[1] is error and outcome[3] == message, (pts, outcome)


def test_a_repeat_is_reported_before_a_later_defect():
    for points, defect, index in PRECEDENCE_INPUTS:
        d = len(points)
        dets = [x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])]
        if defect == "non-positive determinant":
            assert min(dets) <= 0 and max(map(abs, dets)) <= I64_MAX
        elif defect == "winding 2":
            assert min(dets) >= 1 and sum(points[i][1] < 0 <= points[(i + 1) % d][1] for i in range(d)) == 2
        else:
            assert max(map(abs, dets)) > I64_MAX
        assert _agree(points) == ["validate:DuplicateRay"], points
        for validate in (validate_fan, validate_ldp_polygon):
            outcome = _outcome(validate, points)
            assert outcome[1:3] == (DuplicateRay, index), (points, outcome)
            assert outcome[3] == f"DuplicateRay({index}): ray {index} repeats an earlier ray"


def test_overflow_inputs_agree_with_reference():
    for points, message in OVERFLOW_INPUTS:
        assert not _small(points)
        assert _agree(points)[0] == "validate:LatticeOverflowError"
        outcome = _outcome(validate_ldp_polygon, points)
        assert message in outcome[3] and "exceeds the signed 64-bit range" in outcome[3]


def test_inputs_at_the_bound_agree_with_reference():
    seen = []
    for points in EDGE_INPUTS:
        seen += _agree(points)
    # Just below 2**30 nothing overflows.
    for points in EDGE_INPUTS:
        if _small(points):
            for fn in (ref_validate_ldp_polygon, lambda p: ref_analyze(ref_validate_fan(p))):
                assert _outcome(fn, points)[0] == "ok"
    assert seen.count("validate:LatticeOverflowError") == 0


def test_named_values_decide_overflow():
    for points, message in CONTRACT_INPUTS:
        seen = _agree(points)
        outcome = _outcome(validate_ldp_polygon, points)
        if message is None:
            assert seen == ["validate:ok", "analyze:ok", "identify:ok"], points
        else:
            assert outcome[1] is LatticeOverflowError, points
            assert outcome[3] == f"{message} exceeds the signed 64-bit range"
    # As a fan the last triangle validates, and its f-values are the turns.
    fan = validate_fan(CONTRACT_INPUTS[-1][0])
    outcome = _outcome(analyze, fan)
    assert outcome[1] is LatticeOverflowError
    assert outcome[3] == f"f value {I64_MAX + 1} exceeds the signed 64-bit range"


# A hexagon whose cone 2 has determinant 6 * 2**61, past I64_MAX, while every
# other determinant and every vertex turn fits: only the determinant's upper
# bound rejects it.
BIG_CONE = [(2**61 - 1, -4), (2**61, -3), (2**61, 3), (2**61 - 1, 4), (-1, 1), (-1, -1)]


def _past_i64(pts, i, rng):
    """A shear of the cycle `pts` (every determinant and turn kept) that moves
    a coordinate of vertex i just past the signed 64-bit range."""
    axis, side = rng.randrange(2), rng.choice((1, -1))
    if pts[i][1 - axis] == 0:
        axis = 1 - axis
    c, other = pts[i][axis], pts[i][1 - axis]
    k = (side * (2**63 + 1) - c) // other
    while I64_MIN <= c + k * other <= I64_MAX:
        k += side if other > 0 else -side
    return [(x + k * y, y) if axis == 0 else (x, y + k * x) for x, y in pts]


def _defects(pts, i, rng):
    """Per kind of defect, a copy of the int-pair cycle `pts` with it at vertex i."""
    d = len(pts)
    (x, y), (nx, ny) = pts[i], pts[(i + 1) % d]

    def at(point):
        return pts[:i] + [point] + pts[i + 1:]

    # The first primitive lattice point on the edge to the next vertex, or
    # past that vertex on the same line: a vertex between two others turns by 0.
    g = math.gcd(nx - x, ny - y)
    on_line = [(x + (nx - x) // g * m, y + (ny - y) // g * m) for m in range(1, g + 50) if m != g]
    # K * v + q with det(v, q) == 1 is primitive; its cones and turns grow with K.
    _, s, t = _ref_ext_gcd(x, y)
    k = rng.randint(1, (I64_MAX - abs(s) - abs(t)) // max(abs(x), abs(y)))
    # Consecutive vertices listed from a seeded one: the origin may fall
    # outside them, and then the cone that closes them turns clockwise.
    run = [pts[(i + j) % d] for j in range(rng.randint(3, max(3, d - 1)))]
    j, m, r = rng.randrange(len(run)), rng.choice((2, 3)), rng.randrange(d + 1)
    return {
        "float-or-bool": at(rng.choice([(float(x), y), (x, float(y))] + [(bool(x), y)] * (x in (0, 1))
                                       + [(x, bool(y))] * (y in (0, 1)))),
        "past-i64": _past_i64(pts, i, rng),
        "non-pair": at(rng.choice([(x, y, 0), (x,), x])),
        "non-primitive": at((m * x, m * y)),
        "repeat": pts[:r] + [pts[i]] + pts[r:],
        "wound-twice": pts[i:] + pts + pts[:i],
        "swapped": pts[:i] + [pts[(i + 1) % d], pts[i]] + pts[i + 2:] if i + 1 < d else [pts[i]] + pts[1:i] + [pts[0]],
        "collinear": pts[:i + 1] + [next(p for p in on_line if math.gcd(*p) == 1)] + pts[i + 1:],
        "det-or-turn-past-i64": at((k * x - t, k * y + s)),
        "run": run[j:] + run[:j],
        "prefix": pts[:i],
    }


def test_seeded_defects_at_every_vertex_agree_with_reference(box2_catalog):
    # Every box-2 class and one large image of it, each defect at each
    # vertex: validation and the report it leaves agree with the reference
    # in outcome, error type, index and message.  Each check of validation's
    # loop rejects some of these inputs alone (a determinant's upper bound
    # only BIG_CONE), so dropping any one of them fails this test.
    rng = random.Random(30)
    cycles = [list(e.vertices) for e in box2_catalog]
    for pts in cycles[:]:
        m = large_shear_product(rng)
        cycles.append([(m.a * x + m.b * y, m.c * x + m.d * y) for x, y in pts])
    seen = Counter()
    for pts in cycles:
        for i in range(len(pts)):
            for kind, bad in _defects(pts, i, rng).items():
                seen[kind, _agree(bad)[0]] += 1
    for i in range(len(BIG_CONE)):
        rotated = BIG_CONE[i:] + BIG_CONE[:i]
        assert _agree(rotated) == ["validate:LatticeOverflowError"]
        assert _outcome(validate_ldp_polygon, rotated)[3].startswith(f"cone determinant {6 * 2**61} exceeds")
    assert {
        ("float-or-bool", "validate:ValueError"), ("past-i64", "validate:LatticeOverflowError"),
        ("non-pair", "validate:ValueError"), ("non-primitive", "validate:NonPrimitiveRay"),
        ("repeat", "validate:DuplicateRay"), ("wound-twice", "validate:DuplicateRay"),
        ("swapped", "validate:NotCounterclockwise"), ("collinear", "validate:NotStrictlyConvex"),
        ("det-or-turn-past-i64", "validate:LatticeOverflowError"), ("det-or-turn-past-i64", "validate:ok"),
        ("run", "validate:NotCounterclockwise"), ("run", "validate:ok"), ("prefix", "validate:ValueError"),
    } <= set(seen)

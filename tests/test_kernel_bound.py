"""Validation and surface analysis agree with the checked plain-int reference
on both sides of the kernel bound (coordinates below 2**30 in absolute value
run on unchecked int tuples, the rest on checked RayVector arithmetic)."""

import random
from collections import Counter

from ldptoric import (
    BadWinding,
    DuplicateRay,
    NonPrimitiveRay,
    NotCounterclockwise,
    NotStrictlyConvex,
    analyze,
    identify,
    twice_area,
    validate_fan,
    validate_ldp_polygon,
)
from ldptoric.lattice import KERNEL_BOUND

from oracles import (
    large_shear_product,
    random_fan,
    ref_analyze,
    ref_identify,
    ref_twice_area,
    ref_validate_fan,
    ref_validate_ldp_polygon,
)

B = KERNEL_BOUND

# One input of each validation error kind, and the error it must raise.
ERROR_KINDS = [
    ([(1, 0), (0, 2), (-1, -1)], NonPrimitiveRay),
    ([(1, 0), (0, 1), (1, 0), (-1, -1)], DuplicateRay),
    ([(1, 0), (-1, -1), (0, 1)], NotCounterclockwise),
    ([(1, 0), (-1, 0), (0, 1)], NotCounterclockwise),  # a half-turn step, determinant 0
    ([(1, 0), (-1, 1), (0, -1), (1, 1), (-2, -1)], BadWinding),
    ([(1, 0), (0, 1), (-2, -1), (-3, -2)], NotStrictlyConvex),
]

# The three inputs of test_cli.py::test_overflow_is_bad_input, as vertex
# lists, with the context their error message names.
OVERFLOW_INPUTS = [
    ([(9223372036854775808, 1), (0, 1), (-1, -1)], "x coordinate 9223372036854775808"),
    ([(3037000500, 1), (-1, 3037000500), (-1, -1)], "det2 product"),
    ([(1, 0), (0, 1), (-9223372036854775807, -2)], "diff x"),
]

# Polygons at the bound: the kernel products of the rotated squares are near
# their worst case (cone determinants near 2**61, f-values near 2**62).  The
# last two triangles straddle the largest vertex turn that fits 64 bits.
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
    assert tuple(c.index for c in r.cones) == tuple(range(1, r.d + 1))
    assert tuple(c.singular for c in r.cones) == tuple(det >= 2 for det in r.dets)
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
    poly = _outcome(lambda: _rays(validate_ldp_polygon(points).cycle))
    assert poly == _outcome(ref_validate_ldp_polygon, points), points
    seen.append(f"validate:{poly[0] if poly[0] == 'ok' else poly[1].__name__}")
    if fan[0] == "ok":
        cycle = validate_fan(points)
        report = _outcome(_report, cycle)
        assert report == _outcome(ref_analyze, fan[1]), points
        assert _outcome(twice_area, cycle) == _outcome(ref_twice_area, fan[1]), points
        seen.append(f"analyze:{report[0] if report[0] == 'ok' else report[1].__name__}")
    if poly[0] == "ok":
        p = validate_ldp_polygon(points)
        family = _outcome(identify, p)
        assert family == _outcome(ref_identify, p), points
        seen.append(f"identify:{family[0] if family[0] == 'ok' else family[1].__name__}")
    return seen


def test_random_fans_agree_with_reference():
    # Coordinates up to 1.5 * 2**30 straddle the bound and keep every
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
    # 3,113 valid images, as in the canonical-form test, on both sides of the bound.
    assert seen[True, "validate:ok"] == 2058
    assert seen[False, "validate:ok"] == 1055
    assert seen[False, "validate:LatticeOverflowError"] == 7
    assert seen[False, "analyze:LatticeOverflowError"] == 1
    assert seen[True, "identify:ok"] == 2058 and seen[False, "identify:ok"] == 1055


def test_error_kinds_agree_with_reference_on_both_sides():
    # An image under a determinant-1 map with entries near 2**30 has the same
    # defect at the same index, now checked above the bound.
    a, b, c, d = B + 1, B, 1, 1
    for points, error in ERROR_KINDS:
        image = [(a * x + b * y, c * x + d * y) for x, y in points]
        assert _small(points) and not _small(image)
        for pts in (points, image):
            _agree(pts)
            outcome = _outcome(validate_ldp_polygon, pts)
            assert outcome[0] == "error" and outcome[1] is error, (pts, outcome)


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
    # Just below the bound nothing overflows: the kernels' range proof.
    for points in EDGE_INPUTS:
        if _small(points):
            for fn in (ref_validate_ldp_polygon, lambda p: ref_analyze(ref_validate_fan(p))):
                assert _outcome(fn, points)[0] == "ok"
    assert seen.count("validate:LatticeOverflowError") == 1

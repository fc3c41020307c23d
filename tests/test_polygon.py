import copy
import math
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldptoric
from ldptoric import (
    BadWinding,
    DuplicateRay,
    FanCycle,
    FanValidationError,
    LatticeOverflowError,
    NonPrimitiveRay,
    NotCounterclockwise,
    NotStrictlyConvex,
    RayVector,
    UnimodularMap,
    analyze,
    angular_sort,
    apply_map,
    format_vertices,
    parse_vertices,
    validate_fan,
    validate_ldp_polygon,
)


def V(*pairs):
    return [RayVector(x, y) for x, y in pairs]


def test_validate_fan_accepts_projective_plane():
    fan = validate_fan(V((1, 0), (0, 1), (-1, -1)))
    assert fan.d == 3
    assert fan.rays == tuple(V((1, 0), (0, 1), (-1, -1)))


def test_validate_fan_accepts_any_starting_rotation():
    fan = validate_fan(V((-1, -1), (1, 0), (0, 1)))
    assert fan.d == 3
    assert fan.rays == tuple(V((-1, -1), (1, 0), (0, 1)))


def test_fan_cyclic_accessors():
    fan = validate_fan(V((1, 0), (0, 1), (-2, -3)))
    assert fan.ray(1) == RayVector(1, 0)
    assert fan.ray(0) == fan.ray(3) == RayVector(-2, -3)
    assert fan.ray(4) == fan.ray(1)


# One input per validation failure, with its error, the index (winding for
# BadWinding) and the message; test_kernel_bound runs each on a large image too.
VALIDATION_ERRORS = {
    "not-iterable": (5, ValueError, None, "vertices 5: not a sequence of (x, y) pairs"),
    "too-few-rays": ([(1, 0), (-1, 1)], ValueError, None, "a complete fan needs at least 3 rays, got 2"),
    "non-primitive": ([(1, 0), (0, 1), (-2, -4)], NonPrimitiveRay, 3, "NonPrimitiveRay(3): ray 3 is not primitive"),
    "non-primitive-axis": ([(1, 0), (0, 2), (-1, -1)], NonPrimitiveRay, 2,
                           "NonPrimitiveRay(2): ray 2 is not primitive"),
    "origin": ([(1, 0), (0, 0), (0, 1)], NonPrimitiveRay, 2, "NonPrimitiveRay(2): ray 2 is not primitive"),
    # Also clockwise: primitivity is reported first.
    "primitivity-first": ([(2, 0), (-1, -1), (0, 1)], NonPrimitiveRay, 1,
                          "NonPrimitiveRay(1): ray 1 is not primitive"),
    "duplicate": ([(1, 0), (0, 1), (1, 0)], DuplicateRay, 3, "DuplicateRay(3): ray 3 repeats an earlier ray"),
    "duplicate-then-more": ([(1, 0), (0, 1), (1, 0), (-1, -1)], DuplicateRay, 3,
                            "DuplicateRay(3): ray 3 repeats an earlier ray"),
    "clockwise": ([(1, 0), (-1, -1), (0, 1)], NotCounterclockwise, 1,
                  "NotCounterclockwise(1): consecutive rays 1 and 2 do not turn counterclockwise"),
    "half-turn": ([(1, 0), (-1, 0), (0, 1)], NotCounterclockwise, 1,  # determinant 0
                  "NotCounterclockwise(1): consecutive rays 1 and 2 do not turn counterclockwise"),
    # The rays stay in a half-plane: the offending pair is (last, first).
    "wraparound": ([(1, 0), (0, 1), (-1, 0)], NotCounterclockwise, 3,
                   "NotCounterclockwise(3): consecutive rays 3 and 1 do not turn counterclockwise"),
    # A pentagram: every cone determinant is positive, and the rays wind twice.
    "winding": ([(1, 0), (-1, 1), (0, -1), (1, 1), (-2, -1)], BadWinding, 2,
                "BadWinding: rays wind 2 times around the origin, need exactly 1"),
    # Valid fans: (-2, -1) lies on the segment from (0, 1) to (-3, -2), (0, 1)
    # on the one from (1, 0) to (-1, 2), and (1, 1) is a reflex ray.
    "collinear": ([(1, 0), (0, 1), (-2, -1), (-3, -2)], NotStrictlyConvex, 3,
                  "NotStrictlyConvex(3): ray 3 is not a strict vertex of the hull"),
    "on-an-edge": ([(1, 0), (0, 1), (-1, 2), (-1, -1)], NotStrictlyConvex, 2,
                   "NotStrictlyConvex(2): ray 2 is not a strict vertex of the hull"),
    "reflex": ([(4, -1), (1, 1), (-1, 4), (-1, -1)], NotStrictlyConvex, 2,
               "NotStrictlyConvex(2): ray 2 is not a strict vertex of the hull"),
}


@pytest.mark.parametrize("points, error, value, message", VALIDATION_ERRORS.values(), ids=VALIDATION_ERRORS)
def test_validation_error(points, error, value, message):
    # A fan failure fails both validations; a convexity failure is a valid fan.
    checks = [validate_ldp_polygon]
    if error is NotStrictlyConvex:
        assert validate_fan(points).d == len(points)
    else:
        checks.append(validate_fan)
    for validate in checks:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
            validate(points)
        assert type(exc.value) is error
        assert isinstance(exc.value, FanValidationError) == (error is not ValueError)
        assert getattr(exc.value, "winding" if error is BadWinding else "index", None) == value


def test_validate_fan_nonprimitive_index():
    # With several non-primitive rays, the index names the first of them.
    with pytest.raises(NonPrimitiveRay) as exc:
        validate_fan(V((1, 0), (0, 1), (-2, -4), (3, -3)))
    assert exc.value.index == 3
    assert "NonPrimitiveRay(3)" in str(exc.value)


def test_errors_share_base_class():
    # Each kind of fan failure is caught as FanValidationError, a ValueError.
    for bad in (
        V((1, 0), (0, 1), (-2, -4)),
        V((1, 0), (0, 1), (1, 0)),
        V((1, 0), (-1, -1), (0, 1)),
        V((1, 0), (-1, 1), (0, -1), (1, 1), (-2, -1)),
    ):
        with pytest.raises(FanValidationError):
            validate_fan(bad)
    assert issubclass(FanValidationError, ValueError)


def test_validate_ldp_polygon_examples():
    poly = validate_ldp_polygon(V((1, 0), (0, 1), (-2, -3)))
    assert poly.d == 3
    assert poly.vertices == tuple(V((1, 0), (0, 1), (-2, -3)))
    # An LdpPolygon is a FanCycle, and its vertices are its rays.
    assert isinstance(poly, FanCycle) and poly.rays is poly.vertices
    assert validate_fan(V((0, 1), (-2, -3), (1, 0))).rays == poly.rays[1:] + poly.rays[:1]

    pentagon = validate_ldp_polygon(V((1, 0), (0, 1), (-1, 0), (1, -3), (2, -3)))
    assert pentagon.d == 5


def _twice_area(cycle):
    return sum(analyze(cycle).dets)


def test_twice_area():
    assert _twice_area(validate_ldp_polygon(V((1, 0), (0, 1), (-1, -1)))) == 3
    assert _twice_area(validate_ldp_polygon(V((1, 0), (0, 1), (-2, -3)))) == 6
    assert _twice_area(validate_fan(V((1, 0), (0, 1), (-1, 0), (0, -1)))) == 4
    assert _twice_area(validate_ldp_polygon(V((1, 1), (-1, 1), (-1, -1), (1, -1)))) == 8
    assert _twice_area(validate_ldp_polygon(V((1, 0), (0, 1), (-1, 0), (1, -3), (2, -3)))) == 11


def test_twice_area_unimodular_invariance():
    rng = random.Random(7)
    points = V((1, 0), (0, 1), (-1, 0), (1, -3), (2, -3))
    poly = validate_ldp_polygon(points)
    for _ in range(50):
        m = UnimodularMap(1, rng.randint(-3, 3), 0, 1)
        image = [apply_map(m, v) for v in points]
        assert _twice_area(validate_ldp_polygon(image)) == _twice_area(poly)


def test_angular_sort_matches_atan2():
    rng = random.Random(11)
    pts = []
    while len(pts) < 40:
        v = RayVector(rng.randint(-9, 9), rng.randint(-9, 9))
        if math.gcd(v.x, v.y) == 1 and v not in pts:
            pts.append(v)
    expected = sorted(pts, key=lambda v: math.atan2(v.y, v.x) % (2 * math.pi))
    assert angular_sort(pts) == expected


@given(st.permutations([(1, 0), (0, 1), (-1, 0), (1, -3), (2, -3)]))
def test_angular_sort_permutation_invariant(perm):
    pts = V(*perm)
    assert angular_sort(pts) == V((1, 0), (0, 1), (-1, 0), (1, -3), (2, -3))


def test_angular_sort_keeps_equal_points_together():
    assert angular_sort(V((0, 1), (1, 0), (0, 1))) == V((1, 0), (0, 1), (0, 1))


def test_angular_sort_output_validates():
    pts = V((2, -3), (1, -3), (1, 0), (-1, 0), (0, 1))
    assert validate_ldp_polygon(angular_sort(pts)).d == 5




def test_non_integer_coordinates_rejected():
    # int() would truncate 1.9 to 1 and raise OverflowError on infinity.
    for bad in (1.9, float("inf"), True, "1"):
        with pytest.raises(ValueError, match=r"^vertex 1 \(.*\): coordinates must be integers$"):
            validate_ldp_polygon([(bad, 0), (0, 1), (-1, -1)])
    with pytest.raises(ValueError, match=r"^vertex 3 \(-1, -1.0\): coordinates must be integers$"):
        validate_fan([(1, 0), (0, 1), (-1, -1.0)])
    assert validate_fan([(1, 0), (0, 1), (-1, -1)]).rays == tuple(V((1, 0), (0, 1), (-1, -1)))


@pytest.mark.parametrize("validate", [validate_fan, validate_ldp_polygon])
def test_coordinate_errors_keep_their_vertex_order(validate):
    # The first failing vertex names the error, whichever kind comes later.
    with pytest.raises(LatticeOverflowError, match="^x coordinate 9223372036854775808 exceeds"):
        validate([(2**63, 1), (0.5, 1), (-1, -1)])
    with pytest.raises(LatticeOverflowError, match="^y coordinate -9223372036854775809 exceeds"):
        validate([(1, -(2**63) - 1), (0, 1.5), (-1, -1)])
    with pytest.raises(ValueError, match=r"^vertex 1 \(0.5, 1\): coordinates must be integers$"):
        validate([(0.5, 1), (2**63, 1), (-1, -1)])
    with pytest.raises(ValueError, match=r"^vertex 1 \(1.5, 0\): coordinates must be integers$"):
        validate([(1.5, 0), (0, 1), (-1, -1, 0)])
    with pytest.raises(ValueError, match=r"^vertex 1 \(1, True\): coordinates must be integers$"):
        validate([(1, True), (0, 1), (-1, -1, 0)])
    with pytest.raises(ValueError, match=r"^vertex 2 \(0, 1.0\): coordinates must be integers$"):
        validate([(1, 0), (0, 1.0), (2**63, 0)])


@pytest.mark.parametrize("validate", [validate_fan, validate_ldp_polygon])
def test_duplicate_ray_is_named_at_its_second_index(validate):
    with pytest.raises(DuplicateRay) as exc:
        validate([(1, 0), (-1, -1), (0, 1), (-1, -1), (1, 0)])
    assert exc.value.index == 4
    # Primitivity is checked on every ray before any duplicate.
    with pytest.raises(NonPrimitiveRay) as exc:
        validate([(1, 0), (1, 0), (0, 1), (-2, -2)])
    assert exc.value.index == 4


def test_validation_reads_any_iterable_once():
    pts = [(1, 0), (0, 1), (-1, -1)]
    assert validate_ldp_polygon(p for p in pts) == validate_ldp_polygon(pts)
    # Each point is read once as well, on success and on failure alike.
    for validate in (validate_fan, validate_ldp_polygon):
        assert validate([iter(p) for p in pts]) == validate(pts)
        with pytest.raises(NonPrimitiveRay, match=r"^NonPrimitiveRay\(1\)"):
            validate([(2, 0)] + [iter(p) for p in pts[1:]])
        with pytest.raises(ValueError, match=r"^vertex 2 <tuple_iterator object at .*>: coordinates must be integers$"):
            validate([iter(p) for p in [(1, 0), (0, 1.0), (-1, -1)]])
    with pytest.raises(ValueError, match=r"^vertex 2 \(0, 1.0\): coordinates must be integers$"):
        validate_fan(iter([(1, 0), (0, 1.0), (-1, -1)]))


@pytest.mark.parametrize(
    "points, error, screened",
    [
        ([(1, 0), (0, 2), (-1, 0), (0, -1)], NonPrimitiveRay, []),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], NotCounterclockwise, []),
        ([(1, 0), (0, 2), (-1, 0), (0, -1.0)], ValueError, [4]),
        ([(1, 0), (0, 1), (-1, 0), (1, 1)], NotCounterclockwise, []),
        ([(2, 1), (1, 1), (1, 2), (-1, -1)], NotStrictlyConvex, []),  # a fan, reflex at (1, 1)
    ],
)
def test_failed_validation_screens_only_the_unread_points(points, error, screened, monkeypatch):
    # The one loop reads every point once, and screens a point through
    # _checked_ray only where it is bad; a failure is worded from the values
    # the loop read, so no point is screened twice.
    calls, checked = [], []
    checked_ray, check_positive = ldptoric.polygon._checked_ray, ldptoric.polygon._check_positive
    monkeypatch.setattr(ldptoric.polygon, "_checked_ray", lambda i, *args: calls.append(i) or checked_ray(i, *args))
    monkeypatch.setattr(ldptoric.polygon, "_check_positive",
                        lambda values, context, e: checked.append(context) or check_positive(values, context, e))
    with pytest.raises(error):
        validate_ldp_polygon(points)
    assert calls == screened
    calls.clear()
    checked.clear()
    if error is NotStrictlyConvex:  # the fan fails the loop's turn test, and no fan check
        assert validate_fan(points) == FanCycle(tuple(points))
        assert checked == ["cone determinant"]
    else:
        with pytest.raises(error):
            validate_fan(points)
    assert calls == screened


def test_non_integer_ray_vector_rejected():
    for bad in (1.9, float("inf"), True, "1"):
        with pytest.raises(ValueError, match=rf"^x coordinate {re.escape(repr(bad))} is not an integer$"):
            RayVector(bad, 0)
        with pytest.raises(ValueError, match=rf"^y coordinate {re.escape(repr(bad))} is not an integer$"):
            RayVector(0, bad)
    assert RayVector(-1, 2).as_tuple() == (-1, 2)


def test_slotted_ray_vector_and_polygon_pickle():
    # Pool workers may receive either one; RayVector has slots and no __dict__.
    v = RayVector(-3, 2)
    assert not hasattr(v, "__dict__")
    assert pickle.loads(pickle.dumps(v)) == v
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(v, protocol))
        assert type(copy) is RayVector and (copy.x, copy.y) == (-3, 2)
    poly = validate_ldp_polygon([(1, 0), (0, 1), (-2, -3)])
    copy = pickle.loads(pickle.dumps(poly))
    assert copy == poly and type(copy) is type(poly) and copy.vertices[2] == RayVector(-2, -3)


# Sample constructor arguments of every exception class the package exports.
_ERROR_SAMPLES = {
    "LatticeOverflowError": ("det2 9223372036854775808 exceeds the signed 64-bit range",),
    "FanValidationError": ("a fan validation failure",),
    "NonPrimitiveRay": (2,),
    "DuplicateRay": (3,),
    "NotCounterclockwise": (3, 1),
    "BadWinding": (2,),
    "NotStrictlyConvex": (5,),
    "ConeSingular": (1,),
    "InvalidParams": ("two1", "p >= 1"),
    "WorkerPoolError": ("a worker of the spawn pool died before returning its shard",),
}


def test_error_samples_cover_every_exported_error():
    exported = {name for name in ldptoric.__all__
                if isinstance(getattr(ldptoric, name), type) and issubclass(getattr(ldptoric, name), BaseException)}
    assert exported == set(_ERROR_SAMPLES)


@pytest.mark.parametrize("name", sorted(_ERROR_SAMPLES))
def test_exported_error_pickles_and_copies_as_itself(name):
    # Pool workers send their errors back pickled; a garbled or failing
    # rebuild there would hang or mangle the caller's error.
    error = getattr(ldptoric, name)(*_ERROR_SAMPLES[name])
    copies = [pickle.loads(pickle.dumps(error, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies + [copy.copy(error), copy.deepcopy(error)]:
        assert type(copied) is type(error)
        assert str(copied) == str(error)
        assert (copied.args, vars(copied)) == (error.args, vars(error))


def test_parse_vertices():
    assert parse_vertices("1,0;0,1;-2,-3") == V((1, 0), (0, 1), (-2, -3))
    assert parse_vertices(" 1 , 0 ; 0 , 1 ; -2 , -3 ") == V((1, 0), (0, 1), (-2, -3))


def test_parse_vertices_bad_tokens():
    with pytest.raises(ValueError, match=r"bad vertex token '1'"):
        parse_vertices("1;0,1")
    with pytest.raises(ValueError, match=r"bad vertex token 'a,b'"):
        parse_vertices("1,0;a,b")
    with pytest.raises(ValueError, match="bad vertex token"):
        parse_vertices("1,0;;0,1")
    # int() alone reads each of these as an integer.
    for token in ("1_0,1", "\u0661,0", "\uff11,0"):
        with pytest.raises(ValueError, match=f"^bad vertex token '{token}': coordinates must be integers$"):
            parse_vertices(f"{token};0,1;-1,-1")
    assert parse_vertices(" +1 , 0 ;0,1; -1,-1") == V((1, 0), (0, 1), (-1, -1))


def test_parse_vertices_bounds_what_it_echoes():
    # A long run of leading zeros is a small int; a coordinate of many
    # digits gets the range error by its length, x before y, and a long bad
    # token is cut.  Up to 78 digits, the range error names the value.
    assert parse_vertices("0" * 6000 + "1,-" + "0" * 6000 + "2;0,1") == V((1, -2), (0, 1))
    for digits in (4000, 5001):
        with pytest.raises(LatticeOverflowError, match=f"^x coordinate of {digits} digits exceeds the signed 64-bit range$"):
            parse_vertices(f"{'9' * digits},{'9' * digits};0,1")
    with pytest.raises(LatticeOverflowError, match=f"^x coordinate {2**63} exceeds the signed 64-bit range$"):
        parse_vertices(f"{2**63},{'9' * 5000};0,1")
    with pytest.raises(LatticeOverflowError, match=f"^y coordinate -{'1' * 31} exceeds the signed 64-bit range$"):
        parse_vertices(f"1,-000{'1' * 31};0,1")
    with pytest.raises(ValueError, match=r"^bad vertex token '1,x{57}\.\.\. \(5004 characters\): coordinates must be integers$"):
        parse_vertices("1," + "x" * 5000)


def test_format_parse_roundtrip():
    pts = V((1, 0), (0, 1), (-1, 0), (1, -3), (2, -3))
    assert parse_vertices(format_vertices(pts)) == pts
    assert format_vertices(pts) == "1,0;0,1;-1,0;1,-3;2,-3"

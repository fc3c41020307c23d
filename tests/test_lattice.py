import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldptoric import (
    FamilyParams,
    IDENTITY_MAP,
    LatticeOverflowError,
    RayVector,
    UnimodularMap,
    apply_map,
    compose_maps,
    det2,
    is_primitive,
    validate_fan,
    validate_ldp_polygon,
)
from ldptoric.lattice import checked_i64, pair_rays

coords = st.integers(min_value=-10**6, max_value=10**6)
vectors = st.builds(RayVector, coords, coords)


def test_det2_examples():
    assert det2(RayVector(1, 0), RayVector(0, 1)) == 1
    assert det2(RayVector(0, 1), RayVector(-2, -3)) == 2
    assert det2(RayVector(-2, -3), RayVector(1, 0)) == 3
    assert det2(RayVector(2, 1), RayVector(4, 2)) == 0
    assert det2(RayVector(0, 1), RayVector(1, 0)) == -1


@given(vectors, vectors)
def test_det2_antisymmetry(u, v):
    assert det2(u, v) == -det2(v, u)


@given(vectors, vectors, st.sampled_from([
    UnimodularMap(1, 0, 0, 1),
    UnimodularMap(0, 1, 1, 0),
    UnimodularMap(1, 1, 0, 1),
    UnimodularMap(1, 0, -3, 1),
    UnimodularMap(2, 1, 1, 1),
]))
def test_det2_equivariance(u, v, m):
    # det(Mu, Mv) = det(M) * det(u, v) for any linear map
    assert det2(apply_map(m, u), apply_map(m, v)) == m.det() * det2(u, v)


def test_is_primitive():
    assert is_primitive(RayVector(1, 0))
    assert is_primitive(RayVector(-3, 7))
    assert is_primitive(RayVector(0, -1))
    assert not is_primitive(RayVector(0, 0))
    assert not is_primitive(RayVector(2, 4))
    assert not is_primitive(RayVector(0, 2))


def test_vector_arithmetic_and_order():
    a = RayVector(2, -1)
    b = RayVector(-1, 3)
    assert a + b == RayVector(1, 2)
    assert a.as_tuple() == (2, -1)
    assert str(a) == "2,-1"
    assert sorted([b, a]) == [b, a]  # lex order on (x, y)


def test_apply_map():
    shear = UnimodularMap(1, 1, 0, 1)
    assert apply_map(shear, RayVector(0, 1)) == RayVector(1, 1)
    assert apply_map(IDENTITY_MAP, RayVector(5, -7)) == RayVector(5, -7)
    swap = UnimodularMap(0, 1, 1, 0)
    assert apply_map(swap, RayVector(2, 3)) == RayVector(3, 2)


def test_map_det():
    m = UnimodularMap(2, 1, 1, 1)
    assert m.det() == 1
    assert UnimodularMap(1, 0, 0, -1).det() == -1
    assert UnimodularMap(2, 0, 0, 1).det() == 2


def test_compose_order():
    # compose_maps(m, n) acts as m after n
    shear = UnimodularMap(1, 1, 0, 1)
    swap = UnimodularMap(0, 1, 1, 0)
    v = RayVector(1, 2)
    assert apply_map(compose_maps(shear, swap), v) == apply_map(shear, apply_map(swap, v))
    assert compose_maps(shear, swap) != compose_maps(swap, shear)


def test_overflow_detection():
    with pytest.raises(LatticeOverflowError):
        RayVector(2**63, 0)
    with pytest.raises(LatticeOverflowError):
        RayVector(0, -(2**63) - 1)
    big = RayVector(2**62, 2**62 - 1)
    with pytest.raises(LatticeOverflowError):
        det2(big, RayVector(-(2**62), 2**62))
    with pytest.raises(LatticeOverflowError):
        big + big
    with pytest.raises(LatticeOverflowError):
        apply_map(UnimodularMap(1, 1, 0, 1), RayVector(2**62, 2**62))


def test_boundary_values_accepted():
    hi = 2**63 - 1
    lo = -(2**63)
    assert RayVector(hi, lo).as_tuple() == (hi, lo)
    assert det2(RayVector(1, 0), RayVector(0, hi)) == hi


@pytest.mark.parametrize("bad", [0.5, True, math.nan, "a"])
@pytest.mark.parametrize("slot", range(4))
def test_unimodular_map_rejects_a_non_int_entry(bad, slot):
    entries = [1, 0, 0, 1]
    entries[slot] = bad
    name = "abcd"[slot]
    with pytest.raises(ValueError, match=f"^matrix entry {name} {re.escape(repr(bad))} is not an integer$"):
        UnimodularMap(*entries)


def test_checked_i64_is_the_one_integer_gate():
    assert checked_i64(-(2**63), "v") == -(2**63) and checked_i64(2**63 - 1, "v") == 2**63 - 1
    for bad in (False, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"^v {re.escape(repr(bad))} is not an integer$"):
            checked_i64(bad, "v")
    with pytest.raises(LatticeOverflowError, match="^v 9223372036854775808 exceeds"):
        checked_i64(2**63, "v")


def test_a_huge_int_is_a_bounded_overflow_error():
    # str() refuses an int of 4,300 digits or more, so a message that spelled
    # one out raised a plain ValueError; one of more than 256 bits is named by
    # its size, and a long value that is not an int is cut.
    with pytest.raises(LatticeOverflowError, match="^x coordinate of 16610 bits exceeds the signed 64-bit range$"):
        RayVector(10**5000, 0)
    with pytest.raises(LatticeOverflowError, match="^vertex turn of 13288 bits exceeds"):
        checked_i64(-(10**4000), "vertex turn")
    with pytest.raises(LatticeOverflowError, match=f"^det2 {2**256 - 1} exceeds"):
        checked_i64(2**256 - 1, "det2")
    with pytest.raises(ValueError, match=r"^v '7{59}\.\.\. \(5002 characters\) is not an integer$"):
        checked_i64("7" * 5000, "v")


def test_a_value_whose_repr_passes_the_digit_limit_is_named_by_its_type():
    # repr() of a container holding an int of 4,300 digits or more raises
    # ValueError; the message must still be the error's own.
    cases = [
        (lambda: validate_ldp_polygon([(10**5000, 1.5), (0, 1), (-1, -1)]),
         "vertex 1 <tuple too long to show>: coordinates must be integers"),
        (lambda: FamilyParams("two1", p=[10**5000], q=2),
         "family two1 parameter p <list too long to show> is not an integer"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message and len(message) < 200


def test_ray_vector_checks_x_in_full_before_y():
    # x is out of range and y is not an int: x's range check comes first.
    with pytest.raises(LatticeOverflowError, match="^x coordinate"):
        RayVector(2**64, 1.5)
    with pytest.raises(ValueError, match="^x coordinate 1.5 is not an integer$"):
        RayVector(1.5, 2**64)


def test_ray_vector_repr_hash_and_order():
    v = RayVector(-3, 2)
    assert repr(v) == "RayVector(x=-3, y=2)"
    assert hash(v) == hash((v.x, v.y))
    mixed = [RayVector(1, 0), RayVector(-1, 5), RayVector(0, 0), RayVector(-1, -2), RayVector(1, -1)]
    assert sorted(mixed) == [RayVector(-1, -2), RayVector(-1, 5), RayVector(0, 0), RayVector(1, -1), RayVector(1, 0)]


def test_ray_vector_is_immutable_and_does_not_repeat():
    v = RayVector(1, 2)
    with pytest.raises(TypeError):
        v * 2
    with pytest.raises(TypeError):
        2 * v
    with pytest.raises(AttributeError):
        v.x = 5
    assert v == RayVector(1, 2)


def test_ray_vector_is_its_int_pair():
    assert RayVector(1, 0) == (1, 0) and (1, 0) == RayVector(1, 0)
    assert {(1, 0): "e1"}[RayVector(1, 0)] == "e1"
    assert RayVector(1, 0) != (0, 1) and RayVector(1, 0) < (1, 1)


# Per kind, a bad point and its message; {i} is its 1-based vertex index.
BAD_POINTS = {
    "float": ((1.5, 2), "vertex {i} (1.5, 2): coordinates must be integers"),
    "bool": ((1, True), "vertex {i} (1, True): coordinates must be integers"),
    "non-pair": ((1, 2, 3), "vertex {i} (1, 2, 3): not an (x, y) pair"),
    "one-element": ((1,), "vertex {i} (1,): not an (x, y) pair"),
    "non-iterable": (5, "vertex {i} 5: not an (x, y) pair"),
    "x above the range": ((2**63, 1), "x coordinate 9223372036854775808 exceeds the signed 64-bit range"),
    "y below the range": ((1, -(2**63) - 1), "y coordinate -9223372036854775809 exceeds the signed 64-bit range"),
}


@pytest.mark.parametrize("kind", BAD_POINTS)
@pytest.mark.parametrize("slot", range(4))
def test_pair_rays_raises_as_validation_does(kind, slot):
    # pair_rays owns the per-vertex check behind its screen: a bad point at
    # any position raises there exactly what validation reports for it.
    point, message = BAD_POINTS[kind]
    points = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    points[slot] = point
    error = LatticeOverflowError if "range" in kind else ValueError
    for check in (pair_rays, validate_fan, validate_ldp_polygon):
        with pytest.raises(error, match=f"^{re.escape(message.format(i=slot + 1))}$"):
            check(points)


def test_pair_rays_reads_each_point_once():
    # A one-shot iterator point gives the ray of its pair, and a bad one is
    # worded from the pair it gave.
    rays = pair_rays([iter((1, 0)), (0, 1)])
    assert rays == ((1, 0), (0, 1)) and all(type(v) is RayVector for v in rays)
    assert repr(rays) == "(RayVector(x=1, y=0), RayVector(x=0, y=1))"
    assert pair_rays(p for p in [(1, 0), (0, 1)]) == rays
    with pytest.raises(ValueError, match=r"^vertex 2 <tuple_iterator object at .*>: coordinates must be integers$"):
        pair_rays([iter((1, 0)), iter((0, 1.0))])

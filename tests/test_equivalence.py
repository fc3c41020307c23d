import random
from collections import defaultdict

import pytest

from ldptoric import (
    IDENTITY_MAP,
    LatticeOverflowError,
    UnimodularMap,
    analyze,
    apply_map,
    apply_to_polygon,
    are_equivalent,
    canonical_form,
    enumerate_raw,
    parse_vertices,
    random_unimodular_map,
    twice_area,
    validate_ldp_polygon,
)
from ldptoric.lattice import I64_MAX, I64_MIN

from oracles import large_shear_product


def poly(text: str):
    return validate_ldp_polygon(parse_vertices(text))


P2 = poly("1,0;0,1;-1,-1")
P112 = poly("1,0;0,1;-1,-2")
CHIRAL = poly("1,0;0,1;-2,-3")
PENTAGON = poly("1,0;0,1;-1,0;1,-3;2,-3")


def test_self_equivalence_is_identity():
    assert are_equivalent(P2, P2) == IDENTITY_MAP


def test_swap_example():
    q = poly("1,0;0,1;-2,-3")
    r = poly("1,0;0,1;-3,-2")
    m = are_equivalent(q, r)
    assert m == UnimodularMap(0, 1, 1, 0)


def test_inequivalent_by_area():
    assert twice_area(P2) != twice_area(P112)
    assert are_equivalent(P2, P112) is None


def test_inequivalent_by_vertex_count():
    assert are_equivalent(P2, PENTAGON) is None


def test_returned_map_carries_vertex_set():
    rng = random.Random(21)
    for base in (P2, CHIRAL, PENTAGON):
        for _ in range(25):
            m = random_unimodular_map(rng)
            image = apply_to_polygon(m, base)
            got = are_equivalent(base, image)
            assert got is not None
            assert {apply_map(got, v) for v in base.vertices} == set(image.vertices)


def test_orientation_preserving_distinguishes_chirality():
    mirror = apply_to_polygon(UnimodularMap(1, 0, 0, -1), CHIRAL)
    # cone determinants read (1, 3, 2) instead of (1, 2, 3): the mirror class
    assert are_equivalent(CHIRAL, mirror) is not None
    assert are_equivalent(CHIRAL, mirror, orientation_preserving=True) is None


def test_orientation_preserving_still_finds_rotations():
    m = UnimodularMap(0, -1, 1, 0)  # quarter turn, determinant +1
    image = apply_to_polygon(m, CHIRAL)
    assert are_equivalent(CHIRAL, image, orientation_preserving=True) is not None


def test_canonical_form_is_valid_and_idempotent():
    for base in (P2, P112, CHIRAL, PENTAGON):
        form = canonical_form(base)
        again = canonical_form(form.as_polygon())
        assert form.vertices == again.vertices
        assert form.as_polygon().d == base.d
        assert twice_area(form.as_polygon()) == twice_area(base)


def test_canonical_form_invariance_under_random_maps():
    rng = random.Random(33)
    for base in (P2, P112, CHIRAL, PENTAGON):
        want = canonical_form(base).vertices
        for _ in range(60):
            image = apply_to_polygon(random_unimodular_map(rng), base)
            assert canonical_form(image).vertices == want


def test_canonical_form_invariant_under_rotation_of_input():
    vs = CHIRAL.vertices
    want = canonical_form(CHIRAL).vertices
    for shift in range(len(vs)):
        rotated = validate_ldp_polygon(vs[shift:] + vs[:shift])
        assert canonical_form(rotated).vertices == want


def test_canonical_text_roundtrip():
    form = canonical_form(PENTAGON)
    assert poly(form.text()).vertices == form.vertices


def test_orientation_preserving_form_splits_mirror_pair():
    mirror = apply_to_polygon(UnimodularMap(1, 0, 0, -1), CHIRAL)
    assert canonical_form(CHIRAL).vertices == canonical_form(mirror).vertices
    a = canonical_form(CHIRAL, orientation_preserving=True).vertices
    b = canonical_form(mirror, orientation_preserving=True).vertices
    assert a != b


def test_achiral_polygon_has_equal_forms():
    a = canonical_form(P2).vertices
    b = canonical_form(P2, orientation_preserving=True).vertices
    assert a == b


def test_canonical_form_equal_iff_equivalent_on_box_one():
    cycles = enumerate_raw(1)
    polys = [validate_ldp_polygon(c) for c in cycles]
    forms = [canonical_form(p).vertices for p in polys]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            equivalent = are_equivalent(polys[i], polys[j]) is not None
            assert equivalent == (forms[i] == forms[j])


def test_canonical_form_classes_on_box_two():
    groups = defaultdict(list)
    for cyc in enumerate_raw(2):
        p = validate_ldp_polygon(cyc)
        groups[canonical_form(p).vertices].append(p)
    assert len(groups) == 156
    # within a class: everything equivalent to the representative
    for members in groups.values():
        rep = members[0]
        for other in members[1:]:
            assert are_equivalent(rep, other) is not None
    # across classes: representatives pairwise inequivalent
    reps = [members[0] for members in groups.values()]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert are_equivalent(reps[i], reps[j]) is None


def test_apply_to_polygon_validates_and_preserves_data():
    rng = random.Random(5)
    for _ in range(50):
        m = random_unimodular_map(rng)
        image = apply_to_polygon(m, PENTAGON)
        assert image.d == PENTAGON.d
        assert twice_area(image) == twice_area(PENTAGON)
        rep_a = analyze(PENTAGON.cycle)
        rep_b = analyze(image.cycle)
        assert sorted(rep_a.dets) == sorted(rep_b.dets)


def test_apply_to_polygon_rejects_non_unimodular():
    with pytest.raises(ValueError, match="determinant"):
        apply_to_polygon(UnimodularMap(2, 0, 0, 1), P2)


def test_random_unimodular_map_properties():
    rng = random.Random(1)
    for _ in range(300):
        m = random_unimodular_map(rng)
        assert m.det() in (1, -1)
        assert max(abs(e) for e in (m.a, m.b, m.c, m.d)) <= 5


def _oracle_bezout(a: int, b: int) -> tuple[int, int]:
    # (s, t) with s*a + t*b == 1 for a primitive (a, b).
    if b == 0:
        assert a in (1, -1)
        return a, 0
    q, r = divmod(a, b)
    s, t = _oracle_bezout(b, r)
    return t, s - q * t


def _oracle_form(vertices, orientation_preserving: bool):
    """Brute-force canonical form: every anchor of the cycle (and of its
    mirror) fully normalized, lexicographic minimum.  No library helpers."""
    pts = [(v.x, v.y) for v in vertices]
    cycles = [pts]
    if not orientation_preserving:
        cycles.append([(x, -y) for x, y in reversed(pts)])
    best = None
    for cyc in cycles:
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


def _form_tuples(p, orientation_preserving: bool = False):
    return tuple(v.as_tuple() for v in canonical_form(p, orientation_preserving).vertices)


def test_canonical_form_matches_brute_force_oracle():
    rng = random.Random(44)
    polys = [validate_ldp_polygon(c) for c in enumerate_raw(2)]
    assert len(polys) == 1533
    polys += [apply_to_polygon(random_unimodular_map(rng), rng.choice(polys)) for _ in range(500)]
    for p in polys:
        for flag in (False, True):
            assert _form_tuples(p, flag) == _oracle_form(p.vertices, flag)


def test_canonical_form_has_no_spurious_overflow():
    # Valid and equivalent to a box-2 class, but intermediate products of the
    # normalization pass the 64-bit range.
    big = poly(
        "-434756865,-199614667;-677606117,-311116696;"
        "4692301180,2154427481;2467575216,1132964755"
    )
    small = poly("1,0;0,1;-3,-5;-1,-3")
    assert are_equivalent(big, small) is not None
    assert canonical_form(big).vertices == canonical_form(small).vertices


def test_canonical_form_on_large_images_of_box_two(box2_catalog):
    # Images with coordinates near 2**32: the checked-arithmetic normalization
    # this replaced raised LatticeOverflowError on 6 of these valid images.
    rng = random.Random(2024)
    valid = 0
    for entry in box2_catalog:
        base = entry.polygon()
        for _ in range(20):
            try:
                image = apply_to_polygon(large_shear_product(rng), base)
            except LatticeOverflowError:
                continue
            valid += 1
            form = canonical_form(image).vertices
            assert tuple(v.as_tuple() for v in form) == entry.vertices
            assert all(I64_MIN <= c <= I64_MAX for v in form for c in v.as_tuple())
    assert valid == 3113


def test_canonical_form_out_of_range_raises():
    # A valid near-regular octagon of radius m: every consecutive product fits
    # 64 bits, but each normalization has det(v_i, v_i+2) ~ m**2 > I64_MAX.
    m, a = 3_200_000_000, 2_262_741_700
    octagon = poly(
        f"{m},1;{a},{a + 1};-1,{m};{-a - 1},{a};"
        f"{-m},-1;{-a},{-a - 1};1,{-m};{a + 1},{-a}"
    )
    with pytest.raises(LatticeOverflowError):
        canonical_form(octagon)

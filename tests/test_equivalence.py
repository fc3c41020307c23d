import math
import pickle
import random
from collections import Counter, defaultdict
from fractions import Fraction

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
    format_vertices,
    identify,
    parse_vertices,
    random_unimodular_map,
    validate_fan,
    validate_ldp_polygon,
)
from ldptoric import equivalence
from ldptoric.lattice import I64_MAX, I64_MIN

from oracles import _oracle_form, large_shear_product, ref_are_equivalent, ref_tied_anchors


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
    assert sum(analyze(P2).dets) != sum(analyze(P112).dets)
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


def test_canonical_form_is_valid_and_idempotent():
    for base in (P2, P112, CHIRAL, PENTAGON):
        form = canonical_form(base)
        assert validate_ldp_polygon(form.vertices) == form
        again = canonical_form(form)
        assert form.vertices == again.vertices
        assert form.d == base.d
        assert sum(analyze(form).dets) == sum(analyze(base).dets)


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
    assert poly(format_vertices(form.vertices)).vertices == form.vertices


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
        assert sum(analyze(image).dets) == sum(analyze(PENTAGON).dets)
        rep_a = analyze(PENTAGON)
        rep_b = analyze(image)
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


def _form_tuples(p):
    return tuple(v.as_tuple() for v in canonical_form(p).vertices)


def test_canonical_form_matches_brute_force_oracle():
    rng = random.Random(44)
    polys = [validate_ldp_polygon(c) for c in enumerate_raw(2)]
    assert len(polys) == 1533
    polys += [apply_to_polygon(random_unimodular_map(rng), rng.choice(polys)) for _ in range(500)]
    for p in polys:
        assert _form_tuples(p) == _oracle_form(p.vertices)


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
    # Images with coordinates near 2**32, whose intermediate products pass
    # 64 bits while every vertex and determinant fits: all 3,120 validate,
    # and every one gets the catalog form.
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
    assert valid == 3120


def test_canonical_form_out_of_range_raises():
    # A valid near-regular octagon of radius m: every consecutive product fits
    # 64 bits, but each normalization has det(v_i, v_i+2) ~ m**2 > I64_MAX.
    m, a = 3_200_000_000, 2_262_741_700
    octagon = poly(
        f"{m},1;{a},{a + 1};-1,{m};{-a - 1},{a};"
        f"{-m},-1;{-a},{-a - 1};1,{-m};{a + 1},{-a}"
    )
    message = "^y coordinate 10240000000000000001 exceeds the signed 64-bit range$"
    with pytest.raises(LatticeOverflowError, match=message):
        canonical_form(octagon)


def test_are_equivalent_where_the_form_is_out_of_range():
    # The octagon of test_canonical_form_out_of_range_raises: its maps come
    # from the same normalization, which never becomes RayVectors.  The
    # maps are those the search over r's target pairs returned, so they also
    # pin the order: the first by the index in r of the image of q's first
    # vertex (determinant 1) or second vertex (determinant -1).
    m, a = 3_200_000_000, 2_262_741_700
    octagon = poly(
        f"{m},1;{a},{a + 1};-1,{m};{-a - 1},{a};"
        f"{-m},-1;{-a},{-a - 1};1,{-m};{a + 1},{-a}"
    )
    one, quarter = UnimodularMap(1, 0, 0, 1), UnimodularMap(0, -1, 1, 0)
    half, three_quarters = UnimodularMap(-1, 0, 0, -1), UnimodularMap(0, 1, -1, 0)
    rotated = [one, quarter, quarter, half, half, three_quarters, three_quarters, one]
    negated = [half, three_quarters, three_quarters, one, one, quarter, quarter, half]
    vs, neg = octagon.vertices, tuple((-x, -y) for x, y in octagon.vertices)
    for k in range(8):
        assert are_equivalent(octagon, validate_ldp_polygon(vs[k:] + vs[:k])) == rotated[k]
        assert are_equivalent(octagon, validate_ldp_polygon(neg[k:] + neg[:k])) == negated[k]
    swapped = apply_to_polygon(UnimodularMap(0, 1, 1, 0), octagon)
    assert are_equivalent(octagon, swapped) == UnimodularMap(-1, 0, 0, 1)


def _assert_maps_onto(m, q, r) -> None:
    # Re-applied in plain ints, m carries q's vertex set onto r's.
    assert m.a * m.d - m.b * m.c in (1, -1)
    images = {(m.a * v.x + m.b * v.y, m.c * v.x + m.d * v.y) for v in q.vertices}
    assert images == {v.as_tuple() for v in r.vertices}


def _connecting_maps(q, r) -> set[tuple[int, int, int, int]]:
    """Every integer matrix carrying q's vertex set onto r's: Cramer in
    Fractions against every ordered adjacent pair of r."""
    (x1, y1), (x2, y2) = q.vertices[0].as_tuple(), q.vertices[1].as_tuple()
    base = x1 * y2 - x2 * y1
    rv = [v.as_tuple() for v in r.vertices]
    found = set()
    for j in range(len(rv)):
        for w1, w2 in ((rv[j - 1], rv[j]), (rv[j], rv[j - 1])):
            entries = (
                Fraction(w1[0] * y2 - w2[0] * y1, base), Fraction(x1 * w2[0] - x2 * w1[0], base),
                Fraction(w1[1] * y2 - w2[1] * y1, base), Fraction(x1 * w2[1] - x2 * w1[1], base),
            )
            if any(e.denominator != 1 for e in entries):
                continue
            a, b, c, d = map(int, entries)
            if {(a * v.x + b * v.y, c * v.x + d * v.y) for v in q.vertices} == set(rv):
                found.add((a, b, c, d))
    return found


def test_no_spurious_overflow_below_the_kernel_bound(box2_catalog):
    # Pairs A.P, B.P of images of each class P under shear products (so of
    # determinant 1) with entries up to 2**27: every coordinate stays below
    # 2**30, and every connecting map fits 64 bits.  The checked search
    # overflowed on most of these pairs in an intermediate product.
    rng = random.Random(7)
    pairs = []
    for entry in box2_catalog:
        for _ in range(4):
            a, b = large_shear_product(rng, 2**27), large_shear_product(rng, 2**27)
            pairs.append((apply_to_polygon(a, entry.polygon()), apply_to_polygon(b, entry.polygon())))
    assert len(pairs) == 624
    for q, r in pairs:
        assert all(abs(c) < 2**30 for p in (q, r) for v in p.vertices for c in v.as_tuple())
        m = are_equivalent(q, r)
        assert m is not None, (q.vertices, r.vertices)
        _assert_maps_onto(m, q, r)


def test_overflow_exactly_when_no_connecting_map_fits(box2_catalog):
    # One side sheared along x, the other along y, by about 2**40: a
    # connecting map B g A^-1 then has an entry near 2**80 unless the
    # automorphism g cancels it.  Where the first map found is out of range
    # the search goes on; it raises only when no connecting map fits.
    shear_x, shear_y = UnimodularMap(1, 2**40 + 3, 0, 1), UnimodularMap(1, 0, 5 - 2**40, 1)
    seen = Counter()
    for entry in box2_catalog:
        q = apply_to_polygon(shear_x, entry.polygon())
        r = apply_to_polygon(shear_y, entry.polygon())
        if all(max(map(abs, m)) > I64_MAX for m in _connecting_maps(q, r)):
            with pytest.raises(LatticeOverflowError):
                are_equivalent(q, r)
            seen["raised"] += 1
        else:
            _assert_maps_onto(are_equivalent(q, r), q, r)
            seen["map"] += 1
    assert seen == {"raised": 148, "map": 8}


def test_overflow_falls_back_to_the_first_map_that_fits(box2_catalog):
    # The "map" cases of test_overflow_exactly_when_no_connecting_map_fits:
    # the map returned is the first that fits 64 bits in the documented
    # order, by the index in r of the image of q's first vertex
    # (determinant +1) or of its second (determinant -1), +1 first on a tie.
    shear_x, shear_y = UnimodularMap(1, 2**40 + 3, 0, 1), UnimodularMap(1, 0, 5 - 2**40, 1)
    seen = Counter()
    for entry in box2_catalog:
        q = apply_to_polygon(shear_x, entry.polygon())
        r = apply_to_polygon(shear_y, entry.polygon())
        index = {v.as_tuple(): k for k, v in enumerate(r.vertices)}
        q0, q1 = q.vertices[0], q.vertices[1]
        ordered = []
        for m in _connecting_maps(q, r):
            det = m[0] * m[3] - m[1] * m[2]
            v = q0 if det == 1 else q1
            ordered.append(((index[m[0] * v.x + m[1] * v.y, m[2] * v.x + m[3] * v.y], det != 1), m))
        fitting = [m for _, m in sorted(ordered) if max(map(abs, m)) <= I64_MAX]
        if not fitting:
            continue
        got = are_equivalent(q, r)
        assert (got.a, got.b, got.c, got.d) == fitting[0]
        seen["first fits" if fitting[0] == min(ordered)[1] else "fallback"] += 1
    # In every one of them the first map in order overflows.
    assert seen == {"fallback": 8}


def test_search_matches_the_checked_reference(box2_catalog):
    # Images of each class under small maps (either determinant) and under
    # shear products with entries up to 2**27, plus an image of a different
    # class with the same d and area.
    rng = random.Random(11)
    polys = [entry.polygon() for entry in box2_catalog]
    by_shape = defaultdict(list)
    for p in polys:
        by_shape[p.d, sum(analyze(p).dets)].append(p)
    cases = []
    for base in polys:
        small = [apply_to_polygon(random_unimodular_map(rng), base) for _ in range(2)]
        large = [apply_to_polygon(large_shear_product(rng, 2**27), base) for _ in range(2)]
        cases += [tuple(small), tuple(large), (small[0], large[0])]
        others = [p for p in by_shape[base.d, sum(analyze(base).dets)] if p is not base]
        if others:
            other = rng.choice(others)
            cases.append((small[1], apply_to_polygon(random_unimodular_map(rng), other)))
            cases.append((large[1], apply_to_polygon(large_shear_product(rng, 2**27), other)))
    seen = Counter()
    for q, r in cases:
        try:
            want = ref_are_equivalent(q, r)
        except LatticeOverflowError:
            got = are_equivalent(q, r)
            if _oracle_form(q.vertices) == _oracle_form(r.vertices):
                _assert_maps_onto(got, q, r)
                seen["reference raised, map"] += 1
            else:
                assert got is None
                seen["reference raised, none"] += 1
            continue
        got = are_equivalent(q, r)
        assert (got if got is None else (got.a, got.b, got.c, got.d)) == want
        seen["same map" if want is not None else "both none"] += 1
    assert min(seen[k] for k in ("reference raised, map", "reference raised, none", "same map", "both none")) > 0


def test_basis_readings_are_memoized_on_the_polygon(monkeypatch):
    # One memo per polygon object serves canonical_form, identify and
    # are_equivalent: the tied anchors are computed once for it.
    want = canonical_form(PENTAGON)
    calls = []
    tied_anchors = equivalence._tied_anchors
    monkeypatch.setattr(equivalence, "_tied_anchors", lambda pts, dets: calls.append(pts) or tied_anchors(pts, dets))
    p = poly("1,0;0,1;-1,0;1,-3;2,-3")
    for _ in range(2):
        assert canonical_form(p) == want
        assert are_equivalent(p, p) == IDENTITY_MAP
        assert identify(p) is not None
    assert len(calls) == 1
    # An equal polygon built separately computes its own, equal normalizations.
    other = poly("1,0;0,1;-1,0;1,-3;2,-3")
    assert canonical_form(other) == canonical_form(p)
    assert len(calls) == 2


def test_normalizations_are_memoized_least_first(box2_catalog):
    # canonical_form and are_equivalent read entry [0] of the memo: it must
    # be the least tied anchor, and the memo the tied anchors sorted.
    rng = random.Random(15)
    polys = [entry.polygon() for entry in box2_catalog]
    polys += [apply_to_polygon(random_unimodular_map(rng), p) for p in polys]
    # A canonical form has no report until _normalizations asks analyze.
    forms = [canonical_form(p) for p in polys]
    assert not any(hasattr(form, "_report") for form in forms)
    for p in polys + forms:
        tied = equivalence._tied_anchors([v.as_tuple() for v in p.vertices], analyze(p).dets)
        memo = equivalence._normalizations(p)
        assert memo == sorted(tied)
        assert memo[0] == min(tied)
    # The report analyze computed for a form is validation's for its vertices.
    for form in forms:
        assert form._report == validate_ldp_polygon(form.vertices)._report


def test_readings_memo_is_invisible_to_eq_hash_repr_and_pickle():
    fresh, read = poly("1,0;0,1;-2,-3"), poly("1,0;0,1;-2,-3")
    canonical_form(read)
    assert hasattr(read, "_tied") and not hasattr(fresh, "_tied")
    assert read == fresh and fresh == read
    assert hash(read) == hash(fresh) and repr(read) == repr(fresh)
    for obj in (fresh, read):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
        assert canonical_form(copy) == canonical_form(fresh)
        assert are_equivalent(copy, fresh) == IDENTITY_MAP


def test_canonical_form_and_are_equivalent_need_ldp_polygons():
    # A complete fan, even one whose rays form an LDP polygon, has no
    # canonical form here: for the non-convex d = 5 fan, normalizing its rays
    # would give a "polygon" that is not LDP.
    fans = [validate_fan([(-1, 2), (-5, -4), (6, -1), (-1, 3), (-2, 5)]), validate_fan(CHIRAL.rays)]
    for fan in fans:
        with pytest.raises(TypeError, match="^canonical_form needs an LdpPolygon, got FanCycle$"):
            canonical_form(fan)
        for q, r in ((fan, fan), (fan, CHIRAL), (CHIRAL, fan)):
            with pytest.raises(TypeError, match="^are_equivalent needs LdpPolygons, got "):
                are_equivalent(q, r)


def test_smooth_cone_form_uses_no_bezout_row(monkeypatch):
    calls = []
    bezout_row = equivalence._bezout_row

    def counting(x, y):
        calls.append((x, y))
        return bezout_row(x, y)

    monkeypatch.setattr(equivalence, "_bezout_row", counting)
    for p in (P2, CHIRAL, PENTAGON, apply_to_polygon(UnimodularMap(3, 2, 1, 1), PENTAGON)):
        assert analyze(p).dets[0] == 1
        assert _form_tuples(p) == _oracle_form(p.vertices)
    assert calls == []
    # A polygon with no smooth cone takes the Bezout rows.
    no_smooth = poly("1,1;-1,1;-1,-1;1,-1")
    assert _form_tuples(no_smooth) == _oracle_form(no_smooth.vertices)
    assert len(calls) == 4


def test_bezout_row_inverts_every_primitive_point():
    rng = random.Random(14)
    # [-4, 4]^2 includes the unit vectors (0, +-1) and (+-1, 0).
    points = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if math.gcd(x, y) == 1]
    while len(points) < 250:
        x, y = (rng.choice((1, -1)) * (2**62 - rng.randrange(2**40)) for _ in range(2))
        if math.gcd(x, y) == 1:
            points.append((x, y))
    for x, y in points:
        s, t = equivalence._bezout_row(x, y)
        assert s * x + t * y == 1, (x, y)


def test_forms_without_a_smooth_cone_match_the_oracle(box2_catalog):
    rng = random.Random(12)
    polys = [e.polygon() for e in box2_catalog if min(e.dets) >= 2]
    assert len(polys) > 10
    polys += [apply_to_polygon(random_unimodular_map(rng), p) for p in polys for _ in range(3)]
    for p in polys:
        assert all(rd[1] != (0, 1) for rd, _ in equivalence._normalizations(p))
        assert _form_tuples(p) == _oracle_form(p.vertices)


def test_each_tied_anchor_names_its_pair_as_listed(box2_catalog):
    # An anchor (k, sign) is the pair pts[k], pts[k + sign] of the cycle as
    # listed: its normalization is the image of pts[k], pts[k + sign],
    # pts[k + 2*sign], ... under one integer map of determinant sign, which
    # Cramer's rule solves on the first pair.  On a unimodular image of every
    # box-2 class.
    rng = random.Random(16)
    seen = Counter()
    for entry in box2_catalog:
        image = apply_to_polygon(random_unimodular_map(rng), entry.poly)
        pts = [v.as_tuple() for v in image.vertices]
        d = len(pts)
        for rd, (k, sign) in equivalence._tied_anchors(pts, analyze(image).dets):
            walk = [pts[(k + sign * t) % d] for t in range(d)]
            (x1, y1), (x2, y2) = walk[0], walk[1]
            (u1, z1), (u2, z2) = rd[0], rd[1]
            base = x1 * y2 - x2 * y1
            entries = [divmod(n, base) for n in (u1 * y2 - u2 * y1, x1 * u2 - x2 * u1,
                                                  z1 * y2 - z2 * y1, x1 * z2 - x2 * z1)]
            assert all(r == 0 for _, r in entries), (pts, rd, (k, sign))
            a, b, c, e = (n for n, _ in entries)
            assert a * e - b * c == sign
            assert [(a * x + b * y, c * x + e * y) for x, y in walk] == list(rd)
            seen[sign] += 1
    assert min(seen[1], seen[-1]) > 100, seen


def test_tied_anchors_match_the_two_orientation_reading(box3_catalog):
    # Each smooth cone is read once, forwards, and its backward anchor is
    # derived from that reading: the same readings and anchors as reading
    # both orientations.  The reference names a backward
    # anchor by its index i in the reversed cycle, which is index d - 1 - i
    # as listed.  The lists are compared sorted: no consumer reads their
    # order, so _tied_anchors no longer keeps the reference's.  On every
    # box-3 class and on a rotated unimodular image of each, which moves the
    # anchor indices.
    rng = random.Random(13)
    seen = Counter()
    for entry in box3_catalog:
        image = apply_to_polygon(random_unimodular_map(rng, 9), entry.poly)
        shift = rng.randrange(image.d)
        rotated = image.vertices[shift:] + image.vertices[:shift]
        for pts in (list(entry.vertices), [v.as_tuple() for v in rotated]):
            d = len(pts)
            want = [(rd, (i if s == 1 else d - 1 - i, s)) for rd, (i, s) in ref_tied_anchors(pts)]
            assert sorted(equivalence._tied_anchors(pts, analyze(validate_fan(pts)).dets)) == sorted(want)
            smooth = [i for i in range(d) if pts[i][0] * pts[(i + 1) % d][1] - pts[(i + 1) % d][0] * pts[i][1] == 1]
            seen["smooth" if smooth else "no smooth cone"] += 1
            seen["smooth cone at d - 1"] += d - 1 in smooth
    assert min(seen.values()) > 100, seen

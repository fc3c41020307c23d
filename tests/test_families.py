import itertools
import pickle
import random
import re

import pytest

from ldptoric import (
    FAMILY_TAGS,
    FamilyParams,
    FanValidationError,
    InvalidParams,
    NotStrictlyConvex,
    analyze,
    apply_to_polygon,
    are_equivalent,
    blow_down,
    blow_down_candidates,
    canonical_form,
    classify_three,
    format_vertices,
    generate,
    identify,
    parse_vertices,
    random_unimodular_map,
    validate_fan,
    validate_ldp_polygon,
)
from ldptoric import families
from ldptoric.families import FAMILY_SPECS

from oracles import ref_basis_readings, ref_identify


def poly(text: str):
    return validate_ldp_polygon(parse_vertices(text))


def test_family_params_field_discipline():
    FamilyParams("dais1", p=3)
    FamilyParams("two1", p=2, q=3)
    FamilyParams("three5", p=0, q=1, r=-3, s=2, t=-3)
    with pytest.raises(ValueError, match="requires parameter q"):
        FamilyParams("two1", p=2)
    with pytest.raises(ValueError, match="takes no parameter r"):
        FamilyParams("two1", p=2, q=3, r=1)
    with pytest.raises(ValueError, match="unknown family tag"):
        FamilyParams("dais4", p=1)
    # An unhashable tag is worded too, not a TypeError from the table lookup.
    with pytest.raises(ValueError, match=r"^unknown family tag \[1\]$"):
        FamilyParams([1])
    # Rejected before any constraint runs: math.gcd and >= raise an untyped TypeError.
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match=rf"^family two1 parameter p {re.escape(repr(bad))} is not an integer$"):
            generate(FamilyParams("two1", p=bad, q=3))
    with pytest.raises(ValueError, match="^family dais1 parameter p '3' is not an integer$"):
        FamilyParams("dais1", p="3")


def test_family_params_as_tuple():
    fp = FamilyParams("two2", p=0, q=1, r=-2)
    assert fp.as_tuple() == (0, 1, -2)
    assert FamilyParams("dais2", p=4).as_tuple() == (4,)


# Family parameters and what generate gives: the vertices and the analyze()
# report (d, dets, f-values, singular count), or the first violated constraint.
@pytest.mark.parametrize("fp, expected", [
    pytest.param(FamilyParams("dais1", p=1), ("1,-1;1,1;-1,0", (3, (2, 1, 1), (4, 4, 4), 1)), id="dais1"),
    pytest.param(FamilyParams("two1", p=2, q=3), ("1,0;0,1;-2,-3", (3, (1, 2, 3), (6, 6, 6), 2)), id="two1"),
    pytest.param(FamilyParams("two2", p=0, q=1, r=-2), ("1,0;0,1;-1,0;1,-2", (4, (1, 1, 2, 2), (2, 2, 4, 4), 2)),
                 id="two2"),
    pytest.param(FamilyParams("two3", p=0, q=1, r=-2),
                 ("1,0;0,1;-1,1;-1,0;1,-2", (5, (1, 1, 1, 2, 2), (2, 1, 1, 2, 4), 2)), id="two3"),
    pytest.param(FamilyParams("three5", p=0, q=1, r=-3, s=2, t=-3),
                 ("1,0;0,1;-1,0;1,-3;2,-3", (5, (1, 1, 3, 3, 3), (2, 2, 5, 3, 3), 3)), id="three5"),
    pytest.param(FamilyParams("dais1", p=0), "p >= 1", id="dais1-p"),
    pytest.param(FamilyParams("two1", p=1, q=3), "p >= 2", id="two1-p"),
    pytest.param(FamilyParams("two1", p=2, q=4), "gcd(p, q) == 1", id="two1-gcd"),
    pytest.param(FamilyParams("two2", p=0, q=1, r=-1), "r <= -p*q - 2", id="two2-r"),
    pytest.param(FamilyParams("two3", p=1, q=1, r=-2), "p <= 0", id="two3-p"),
    pytest.param(FamilyParams("three5", p=0, q=1, r=-3, s=2, t=-2), "t <= -s - 1", id="three5-t"),
    pytest.param(FamilyParams("dais3", p=0), "p >= 1", id="dais3-p"),
])
def test_generate_examples(fp, expected):
    if isinstance(expected, str):
        message = f"invalid parameters for {fp.family}: violates {expected}"
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$") as exc:
            generate(fp)
        assert (exc.value.family, exc.value.constraint) == (fp.family, expected)
    else:
        polygon = generate(fp).polygon
        assert (format_vertices(polygon.vertices), tuple(analyze(polygon))) == expected


# A polygon, its singular count and the family identify finds for it, whose
# family polygon must then be equivalent to it.
@pytest.mark.parametrize("text, singular, expected", [
    pytest.param("1,0;0,1;-2,-3", 2, FamilyParams("two1", p=2, q=3), id="two1"),
    pytest.param("1,0;0,1;-1,-2", 1, FamilyParams("dais1", p=1), id="dais1"),
    pytest.param("1,0;0,1;-1,0;1,-3;2,-3", 3, FamilyParams("three5", p=0, q=-2, r=-3, s=-1, t=-3), id="three5"),
    pytest.param("1,0;0,1;-1,-1", 0, None, id="smooth"),
    pytest.param("1,1;-1,1;-1,-1;1,-1", 4, None, id="four-singular"),
    # Three singular points but d = 6: classify_three's case, not a family.
    pytest.param("1,0;0,1;-1,1;-1,0;1,-3;2,-3", 3, None, id="three-singular-hexagon"),
])
def test_identify_examples(text, singular, expected):
    q = poly(text)
    assert analyze(q).singular_count == singular
    assert identify(q) == expected
    if expected is not None:
        assert are_equivalent(generate(expected).polygon, q) is not None


def test_identify_matches_on_all_small_family_instances():
    cases = []
    for p in range(1, 4):
        for tag in ("dais1", "dais2", "dais3"):
            cases.append(FamilyParams(tag, p=p))
    cases.append(FamilyParams("two1", p=2, q=3))
    cases.append(FamilyParams("two1", p=3, q=4))
    cases.append(FamilyParams("two2", p=0, q=1, r=-2))
    cases.append(FamilyParams("two2", p=1, q=1, r=-3))
    cases.append(FamilyParams("two3", p=0, q=1, r=-2))
    cases.append(FamilyParams("two3", p=-1, q=2, r=-3))
    cases.append(FamilyParams("three5", p=0, q=1, r=-3, s=2, t=-3))
    for fp in cases:
        inst = generate(fp)
        got = identify(inst.polygon)
        assert got is not None, fp
        assert got.family == fp.family
        assert are_equivalent(generate(got).polygon, inst.polygon) is not None


def test_identify_agrees_with_are_equivalent_on_box_two(box2_catalog):
    # identify keeps a candidate only when a basis reading equals the family
    # polygon's reading at its anchor; are_equivalent is the independent
    # reference for that.
    rng = random.Random(20191001)
    matched = 0
    for entry in box2_catalog:
        if entry.singular_count not in (1, 2, 3):
            continue
        base = entry.polygon()
        fp = identify(base)
        matched += fp is not None
        images = [base] + [apply_to_polygon(random_unimodular_map(rng), base) for _ in range(4)]
        for image in images:
            assert identify(image) == fp, (entry.vertices, image.vertices)
            if fp is not None:
                assert are_equivalent(generate(fp).polygon, image) is not None, (fp, image.vertices)
    assert matched == 55


def test_template_reading_round_trip():
    # Each family's closed-form reading is a basis reading of its polygon, the
    # vertex list itself for the families given on the standard basis, and
    # `read` inverts it.
    assert list(FAMILY_SPECS) == list(FAMILY_TAGS) and len(FAMILY_TAGS) == 7
    assert [tag for tag, spec in FAMILY_SPECS.items() if spec.reading is not None] == ["dais1", "dais2", "dais3"]
    for tag, spec in FAMILY_SPECS.items():
        for values in itertools.product(range(-3, 4), repeat=len(spec.params)):
            reading = (spec.reading or spec.vertices)(*values)
            assert reading in ref_basis_readings(spec.vertices(*values)), (tag, values)
            assert spec.read(reading) == values, (tag, values)


def test_family_params_within_twice_area_on_sweep():
    # identify searches no parameter range: twice the area bounds every
    # parameter of a family polygon, and each family polygon is identified.
    checked = 0
    for tag, spec in FAMILY_SPECS.items():
        span = range(-5, 6) if tag == "three5" else range(-9, 10)
        for values in itertools.product(span, repeat=len(spec.params)):
            if not all(ok for _, ok in spec.constraints(*values)):
                continue
            fp = FamilyParams(tag, **dict(zip(spec.params, values)))
            q_poly = generate(fp).polygon
            assert max(map(abs, values)) <= sum(analyze(q_poly).dets), fp
            assert identify(q_poly) is not None, fp
            checked += 1
    assert checked == 1297


def test_distinct_tuples_give_distinct_classes_for_dais():
    forms = {canonical_form(generate(FamilyParams("dais1", p=p)).polygon).vertices
             for p in range(1, 9)}
    assert len(forms) == 8


# A polygon, its singular count and its classify_three case, or None where it
# raises because the count is not 3.
@pytest.mark.parametrize("text, singular, case", [
    pytest.param("2,-1;-1,2;-1,-1", 3, "picard_le_two", id="triangle"),
    pytest.param("1,0;0,1;-1,0;1,-3;2,-3", 3, "family_d5", id="pentagon"),
    # The pentagon blown up at cone 2; at cone 1, (1, 0) would turn reflex.
    pytest.param("1,0;0,1;-1,1;-1,0;1,-3;2,-3", 3, "blowup_of_picard3", id="blowup"),
    pytest.param("1,0;0,1;-1,-1", 0, None, id="smooth"),
    pytest.param("1,0;0,1;-2,-3", 2, None, id="two-singular"),
])
def test_classify_three_examples(text, singular, case):
    q = poly(text)
    assert analyze(q).singular_count == singular
    if case is None:
        with pytest.raises(ValueError, match=f"^classify_three needs exactly 3 singular cones, got {singular}$"):
            classify_three(q)
    else:
        assert classify_three(q) == case


def test_classify_three_d6_validates_each_blow_down_fan_once(box2_catalog, monkeypatch):
    # Each blow-down is validated once, by the validator classify_three
    # calls; the outcomes are those of a full validate_ldp_polygon of every
    # blow-down.
    def reference(p):
        for i in blow_down_candidates(p):
            try:
                sub = validate_ldp_polygon(blow_down(p, i).rays)
            except FanValidationError:
                continue
            if analyze(sub).singular_count == 3:
                return "blowup_of_picard3", blow_down_candidates(p).index(i) + 1
        return "none", len(blow_down_candidates(p))

    calls = []
    validate = families.validate_ldp_polygon
    monkeypatch.setattr(families, "validate_ldp_polygon", lambda pts: calls.append(1) or validate(pts))
    sixes = [e.poly for e in box2_catalog if e.d == 6 and e.singular_count == 3]
    assert sixes
    for six in sixes:
        want, tried = reference(six)
        del calls[:]
        assert classify_three(six) == want
        assert len(calls) == tried


@pytest.mark.parametrize(
    "rays, candidates",
    [
        ([(-1, -3), (0, -1), (1, 4), (-2, 1), (-4, 1), (-1, 0)], []),
        ([(-1, -3), (2, -1), (1, 0), (2, 3), (1, 4), (0, 1)], [6]),
        ([(-3, -4), (1, -1), (4, -3), (2, 1), (1, 1), (0, 1), (-1, 3)], []),
    ],
    ids=["d6-no-blow-down", "d6-non-convex-blow-down", "d7"],
)
def test_classify_three_none_on_complete_fans(rays, candidates):
    # No box-3 LDP hexagon has a non-convex blow-down, and no LDP polygon
    # with three singular points has d >= 7, so these non-LDP fans are the
    # only way to reach those returns.
    fan = validate_fan(rays)
    assert analyze(fan).singular_count == 3 and blow_down_candidates(fan) == candidates
    for i in candidates:
        with pytest.raises(NotStrictlyConvex):
            validate_ldp_polygon(fan.rays[: i - 1] + fan.rays[i:])
    assert classify_three(fan) == "none"


def test_identify_and_classify_three_take_a_complete_fan():
    # identify reads the rays of any FanCycle: the LDP triangle built by
    # validate_fan is still two1(2, 3).  An equivalence preserves convexity,
    # so the non-convex three-singular pentagon fan matches no family.
    assert identify(validate_fan([(1, 0), (0, 1), (-2, -3)])) == FamilyParams("two1", p=2, q=3)
    rays = [(-1, 2), (-5, -4), (6, -1), (-1, 3), (-2, 5)]
    with pytest.raises(NotStrictlyConvex):
        validate_ldp_polygon(rays)
    fan = validate_fan(rays)
    assert analyze(fan).singular_count == 3 and fan.d == 5
    assert identify(fan) is None and classify_three(fan) == "none"


def test_generate_raises_an_internal_error_on_a_wrong_singular_count(monkeypatch):
    spec = FAMILY_SPECS["dais1"]
    monkeypatch.setitem(FAMILY_SPECS, "dais1", type(spec)(spec.params, 2, *spec[2:]))
    with pytest.raises(AssertionError, match=r"family dais1\(1,\) produced singular count 1, expected 2"):
        generate(FamilyParams("dais1", p=1))


def test_classify_three_reads_the_identify_memo(monkeypatch):
    pent = poly("1,0;0,1;-1,0;1,-3;2,-3")
    calls = []
    readings = families._normalizations
    monkeypatch.setattr(families, "_normalizations", lambda *a: calls.append(1) or readings(*a))
    family = identify(pent)
    assert family is not None and len(calls) == 1
    assert classify_three(pent) == "family_d5"
    assert identify(pent) is family and len(calls) == 1


def test_identify_memo_is_no_field():
    p, q = poly("1,0;0,1;-1,0;1,-3;2,-3"), poly("1,0;0,1;-1,0;1,-3;2,-3")
    family = identify(p)
    assert p._family is family and not hasattr(q, "_family")
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and not hasattr(copy, "_family")
    assert identify(copy) == family


def test_identify_and_classify_three_match_the_reference_on_box_three(box3_catalog):
    # Fresh polygons, so no memo of the session catalog is read.
    rng = random.Random(15)
    threes = [e for e in box3_catalog if e.singular_count == 3]
    assert threes
    for entry in threes:
        p = validate_ldp_polygon(entry.vertices)
        image = apply_to_polygon(random_unimodular_map(rng), validate_ldp_polygon(entry.vertices))
        family, case = identify(p), classify_three(p)
        assert family == ref_identify(p) == identify(image) == ref_identify(image), entry.vertices
        assert case == classify_three(image)
        if p.d == 5:
            assert (case == "family_d5") == (family is not None)

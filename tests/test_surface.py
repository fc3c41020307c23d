import pickle
import random
from fractions import Fraction

import pytest

from ldptoric import (
    ConeSingular,
    analyze,
    classify_catalog,
    classify_three,
    enumerate_ldp,
    identify,
    blow_down,
    blow_down_candidates,
    blow_up,
    nonsingular_arc_contiguous,
    parse_vertices,
    validate_fan,
    validate_ldp_polygon,
    verify_catalog,
)
from ldptoric import FanCycle, RayVector, surface
from ldptoric.lattice import I64_MAX, LatticeOverflowError

from oracles import random_fan, ref_analyze


def fan(text: str):
    return validate_fan(parse_vertices(text))


def test_f_value_examples():
    assert analyze(fan("1,0;0,1;-2,-3")).f_values == (6, 6, 6)
    assert analyze(fan("1,0;0,1;-1,0;1,-3;2,-3")).f_values == (2, 2, 5, 3, 3)


def test_f_value_accepts_polygon():
    poly = validate_ldp_polygon(parse_vertices("1,0;0,1;-2,-3"))
    assert analyze(poly).f_values[0] == 6


# A fan with its cone determinants, f-values, anticanonical degrees, log del
# Pezzo verdict and singular cone indices.
@pytest.mark.parametrize("text, dets, f_values, degrees, ldp, singular", [
    pytest.param("1,0;0,1;-1,-1", (1, 1, 1), (3, 3, 3), "3 3 3", True, (), id="projective-plane"),
    pytest.param("1,0;0,1;-2,-3", (1, 2, 3), (6, 6, 6), "2 3 1", True, (2, 3), id="weighted-triangle"),
    pytest.param("2,-1;-1,2;-1,-1", (3, 3, 3), (9, 9, 9), "1 1 1", True, (1, 2, 3), id="three-singular-triangle"),
    pytest.param("1,0;0,1;-1,0;1,-3;2,-3", (1, 1, 3, 3, 3), (2, 2, 5, 3, 3), "2/3 2 5/3 1/3 1/3", True, (3, 4, 5),
                 id="pentagon"),
    # Degrees stay exact rationals when they are not all positive.
    pytest.param("1,0;0,1;-1,2;-1,-1", (1, 1, 3, 1), (3, 0, 3, 6), "3 0 1 2", False, (3,), id="non-ldp"),
])
def test_analyze_examples(text, dets, f_values, degrees, ldp, singular):
    rep = analyze(fan(text))
    d = len(dets)
    assert (rep.d, rep.picard_number, rep.dets, rep.f_values) == (d, d - 2, dets, f_values)
    assert rep.anticanonical_degrees == tuple(map(Fraction, degrees.split()))
    assert rep.is_log_del_pezzo is ldp
    assert (rep.singular_count, rep.singular_indices()) == (len(singular), singular)


def test_degree_formula_consistency():
    rng = random.Random(3)
    for _ in range(200):
        rep = analyze(random_fan(rng))
        d = rep.d
        for i in range(1, d + 1):
            lhs = rep.anticanonical_degrees[i - 1] * rep.dets[i - 2] * rep.dets[i - 1]
            assert lhs == rep.f_values[i - 1]
        assert rep.is_log_del_pezzo == (min(rep.f_values) >= 1)
        assert rep.is_log_del_pezzo == all(x > 0 for x in rep.anticanonical_degrees)


def test_blow_up_examples():
    up = blow_up(fan("1,0;0,1;-1,-1"), 1)
    assert [v.as_tuple() for v in up.rays] == [(1, 0), (1, 1), (0, 1), (-1, -1)]

    up = blow_up(fan("1,0;0,1;-1,0;1,-3"), 2)
    assert [v.as_tuple() for v in up.rays] == [(1, 0), (0, 1), (-1, 1), (-1, 0), (1, -3)]

    # A fan whose f-values, 2**63 + 2, pass 64 bits: analyze refuses it, but
    # blow_up checks only that it is a fan.
    wide = fan(f"1,0;0,1;{-(2**62) - 1},{-(2**62)}")
    with pytest.raises(LatticeOverflowError, match="^f value"):
        analyze(wide)
    assert [v.as_tuple() for v in blow_up(wide, 1).rays] == [(1, 0), (1, 1), (0, 1), (-(2**62) - 1, -(2**62))]


def test_blow_up_wraparound_cone():
    up = blow_up(fan("1,0;0,1;-1,-1"), 3)
    assert [v.as_tuple() for v in up.rays] == [(1, 0), (0, 1), (-1, -1), (0, -1)]


def test_blow_up_singular_cone_rejected():
    with pytest.raises(ConeSingular) as exc:
        blow_up(fan("1,0;0,1;-2,-3"), 2)
    assert exc.value.index == 2
    assert "ConeSingular(2)" in str(exc.value)


def test_blow_up_index_range():
    cyc = fan("1,0;0,1;-1,-1")
    with pytest.raises(IndexError):
        blow_up(cyc, 0)
    with pytest.raises(IndexError):
        blow_up(cyc, 4)


def test_blow_up_preserves_singular_data():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        cyc = random_fan(rng)
        rep = analyze(cyc)
        smooth = [i for i, det in enumerate(rep.dets, start=1) if det == 1]
        if not smooth:
            continue
        i = rng.choice(smooth)
        up = blow_up(cyc, i)
        up_rep = analyze(up)
        assert up_rep.d == rep.d + 1
        assert up_rep.singular_count == rep.singular_count
        assert sorted(x for x in up_rep.dets if x >= 2) == sorted(x for x in rep.dets if x >= 2)
        assert sorted(up_rep.dets).count(1) == sorted(rep.dets).count(1) + 1
        checked += 1


def test_blow_down_candidates_examples():
    assert blow_down_candidates(fan("1,0;1,1;0,1;-1,-1")) == [2]
    assert blow_down_candidates(fan("1,0;0,1;-1,0;0,-1")) == []
    # both ray 2 and ray 3 equal the sum of their neighbours here
    assert blow_down_candidates(fan("1,0;0,1;-1,1;-1,0;1,-3")) == [2, 3]


def test_blow_down_candidates_needs_four_rays():
    with pytest.raises(ValueError):
        blow_down_candidates(fan("1,0;0,1;-1,-1"))


def test_blow_down_examples():
    down = blow_down(fan("1,0;1,1;0,1;-1,-1"), 2)
    assert [v.as_tuple() for v in down.rays] == [(1, 0), (0, 1), (-1, -1)]


def test_blow_down_errors():
    cyc = fan("1,0;0,1;-1,0;0,-1")
    with pytest.raises(ValueError, match="not the sum"):
        blow_down(cyc, 1)
    with pytest.raises(IndexError):
        blow_down(cyc, 5)
    with pytest.raises(ValueError, match="at least 4"):
        blow_down(fan("1,0;0,1;-1,-1"), 1)


def test_blow_up_down_roundtrip():
    rng = random.Random(9)
    checked = 0
    while checked < 100:
        cyc = random_fan(rng)
        smooth = [i for i, det in enumerate(analyze(cyc).dets, start=1) if det == 1]
        if not smooth:
            continue
        i = rng.choice(smooth)
        up = blow_up(cyc, i)
        down = blow_down(up, i + 1)  # inserted ray sits right after ray i
        assert down.rays == cyc.rays
        checked += 1


def test_nonsingular_arc_contiguous():
    assert nonsingular_arc_contiguous(analyze(fan("1,0;0,1;-1,-1")))
    assert nonsingular_arc_contiguous(analyze(fan("1,0;0,1;-1,0;1,-3;2,-3")))
    # all four cones singular: contiguous by convention
    assert nonsingular_arc_contiguous(analyze(fan("1,1;-1,1;-1,-1;1,-1")))
    # dets (2,1,2,1): singular cones alternate, not one arc
    alternating = analyze(fan("1,0;1,2;0,1;-2,-1"))
    assert alternating.dets == (2, 1, 2, 1)
    assert not nonsingular_arc_contiguous(alternating)


def test_alternating_half_plane_fan_is_not_ldp():
    # valid fan with dets (1,2,1,2) and f(3) = 0: consistent with the arc
    # statement because it is not log del Pezzo
    rep = analyze(fan("1,0;0,1;-2,-1;-3,-2"))
    assert rep.dets == (1, 2, 1, 2)
    assert rep.f_values[2] == 0
    assert not rep.is_log_del_pezzo
    assert not nonsingular_arc_contiguous(rep)


def test_analyze_is_memoized_on_the_cycle():
    poly = validate_ldp_polygon(parse_vertices("1,0;0,1;-1,0;1,-3;2,-3"))
    cyc = fan("1,0;0,1;-2,-3")
    assert analyze(cyc) is analyze(cyc)
    assert analyze(poly) is analyze(poly) is analyze(poly)
    # An equal cycle built separately computes its own, equal report.
    other = fan("1,0;0,1;-2,-3")
    assert analyze(other) is not analyze(cyc) and analyze(other) == analyze(cyc)


def test_memo_is_invisible_to_eq_hash_repr_and_pickle():
    for make in (lambda: fan("1,0;0,1;-2,-3"), lambda: validate_ldp_polygon(parse_vertices("1,0;0,1;-2,-3"))):
        fresh, analyzed = make(), make()
        analyze(analyzed)
        assert analyzed == fresh and fresh == analyzed
        assert hash(analyzed) == hash(fresh)
        assert repr(analyzed) == repr(fresh)
        for obj in (fresh, analyzed):
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
            assert analyze(copy) == analyze(fresh)


def _count_reports(monkeypatch) -> list:
    """Patch the validation that analyze runs on a cycle with no report;
    returns the list that records the rays of each cycle it runs on."""
    runs = []
    uncached = surface._validated

    def counting(rays, convex):
        runs.append(tuple(v.as_tuple() for v in rays))
        return uncached(rays, convex)

    monkeypatch.setattr(surface, "_validated", counting)
    return runs


def test_one_report_per_entry_in_classify_catalog(monkeypatch):
    # A fresh catalog: the session fixture's polygons may be analyzed already.
    runs = _count_reports(monkeypatch)
    entries = enumerate_ldp(2)
    # Validation leaves each entry's report on its polygon, before any analyze.
    reports = {entry.vertices: entry.poly._report for entry in entries}
    tagged = classify_catalog(entries)
    assert verify_catalog(tagged).ok
    assert all(analyze(entry.poly) is reports[entry.vertices] for entry in tagged)
    # The d = 6 three-singular case split validates the blow-downs it
    # analyzes, so their reports come from validation too.
    six = [e for e in tagged if e.d == 6 and e.singular_count == 3]
    assert len(six) == 5 and all(blow_down_candidates(e.poly) for e in six)
    assert runs == []


def test_one_report_for_analyze_identify_classify_three(monkeypatch):
    runs = _count_reports(monkeypatch)
    poly = validate_ldp_polygon(parse_vertices("1,0;0,1;-1,0;1,-3;2,-3"))
    report = poly._report
    assert analyze(poly) is report and report.singular_count == 3
    assert identify(poly) is not None
    assert classify_three(poly) == "family_d5"
    assert analyze(poly) is report and runs == []
    # validate_fan leaves its loop's report on the fan too; a cycle built by
    # hand computes its report once, on the first analyze.
    cycle = validate_fan(parse_vertices("1,0;0,1;-1,0;1,-3;2,-3"))
    assert analyze(cycle) is cycle._report and analyze(cycle) == report and runs == []
    hand = FanCycle(cycle.rays)
    assert analyze(hand) is analyze(hand) and analyze(hand) == report
    assert runs == [tuple(v.as_tuple() for v in hand.rays)]


def test_blow_up_reads_the_report_of_a_validated_cycle(monkeypatch):
    # blow_up validates only a cycle with no report: not a validated polygon
    # or fan, nor a hand-built cycle that analyze has seen.
    runs = _count_reports(monkeypatch)
    text = "1,0;0,1;-1,0;1,-3;2,-3"
    hand = FanCycle(fan(text).rays)
    want = [blow_up(hand, i) for i in (1, 2)]
    assert runs == [tuple(v.as_tuple() for v in hand.rays)] * 2
    runs.clear()
    analyze(hand)
    for cycle in (validate_ldp_polygon(parse_vertices(text)), fan(text), hand):
        assert [blow_up(cycle, i) for i in (1, 2)] == want
        with pytest.raises(ConeSingular):
            blow_up(cycle, 3)
    assert runs == [tuple(v.as_tuple() for v in hand.rays)]


# The triangle (1,0), (0,1), (x,y) has cone determinants 1, -x and -y, and
# every vertex turn 1 - x - y, here I64_MAX, then I64_MAX + 1.
TURNS_I64_MAX = [(1, 0), (0, 1), (-(2**62) - 1, 3 - 2**62)]
TURNS_PAST_I64_MAX = [(1, 0), (0, 1), (-(2**62) - 1, 2 - 2**62)]


def test_validate_fan_keeps_its_report_only_inside_the_64_bit_range():
    inside = validate_fan(TURNS_I64_MAX)
    assert inside._report.f_values == (I64_MAX,) * 3 and analyze(inside) is inside._report
    # Past the range the fan validates but carries no report, so analyze
    # runs the loop and raises on the f-value, as on a hand-built cycle.
    past = validate_fan(TURNS_PAST_I64_MAX)
    assert not hasattr(past, "_report")
    for cycle in (past, FanCycle(past.rays)):
        with pytest.raises(LatticeOverflowError, match=f"^f value {I64_MAX + 1} exceeds the signed 64-bit range$"):
            analyze(cycle)
        assert not hasattr(cycle, "_report")


def test_validated_report_equals_the_computed_one(box3_catalog):
    # The one validation loop's report equals the reference field for field,
    # with tuple dets and f-values: analyze's on validate_fan's cycle, and
    # validate_ldp_polygon's when the cycle is an LDP polygon.  On every box-3
    # class, on random fans (most have an f-value <= 0, so the loop's report
    # comes from its error path) and at the top of the 64-bit range.
    rng = random.Random(11)
    fans = [[v.as_tuple() for v in random_fan(rng).rays] for _ in range(3000)]
    seen = {True: 0, False: 0}
    for pts in [list(e.vertices) for e in box3_catalog] + fans + [TURNS_I64_MAX]:
        report, ref = analyze(validate_fan(pts)), ref_analyze(tuple(pts))
        assert {key: getattr(report, key) for key in ref} == ref, pts
        assert type(report.dets) is type(report.f_values) is tuple
        seen[ref["is_log_del_pezzo"]] += 1
        if ref["is_log_del_pezzo"]:
            assert validate_ldp_polygon(pts)._report == report
    assert min(seen.values()) > 300, seen
    assert analyze(validate_ldp_polygon(TURNS_I64_MAX)).f_values == (I64_MAX,) * 3


# A FanCycle built by hand is validated on its first analyze and on every
# blow_up, before its cone index is read, as validate_fan validates its rays.
@pytest.mark.parametrize("rays, error", [
    pytest.param(((1, 0), (0, 1), (1, 0)), "DuplicateRay(3): ray 3 repeats an earlier ray", id="repeat"),
    pytest.param(((2, 0), (0, 1), (-1, -1)), "NonPrimitiveRay(1): ray 1 is not primitive", id="non-primitive"),
    pytest.param(((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1), (-1, 0), (0, -1)),
                 "DuplicateRay(5): ray 5 repeats an earlier ray", id="winds-twice"),
    pytest.param(((1, 0), (0, 1), (1, 1)),
                 "NotCounterclockwise(2): consecutive rays 2 and 3 do not turn counterclockwise", id="clockwise"),
    pytest.param(((1, 0), (-1, 0)), "a complete fan needs at least 3 rays, got 2", id="two-rays"),
])
def test_hand_built_cycle_is_checked_not_trusted(rays, error):
    cycle = FanCycle(tuple(RayVector(x, y) for x, y in rays))
    for call in (analyze, lambda c: blow_up(c, 1), lambda c: blow_up(c, 0)):
        with pytest.raises(ValueError) as raised:
            call(cycle)
        assert str(raised.value) == error
    assert not hasattr(cycle, "_report")


def test_report_stores_only_dets_and_f_values():
    rep = analyze(fan("1,0;0,1;-1,0;1,-3;2,-3"))
    assert surface.SurfaceReport(rep.d, rep.dets, rep.f_values, rep.singular_count) == rep
    assert not hasattr(rep, "__dict__")
    assert rep.anticanonical_degrees == rep.anticanonical_degrees
    assert repr(rep) == "SurfaceReport(d=5, dets=(1, 1, 3, 3, 3), f_values=(2, 2, 5, 3, 3), singular_count=3)"


def test_lazy_fields_match_the_oracle_report(box2_catalog):
    for entry in box2_catalog:
        rep, ref = analyze(entry.polygon()), ref_analyze(entry.vertices)
        assert rep.anticanonical_degrees == ref["anticanonical_degrees"]
        assert rep.dets == ref["dets"]
        assert rep.singular_indices() == tuple(i for i, det in enumerate(ref["dets"], start=1) if det >= 2)

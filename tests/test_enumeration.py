import concurrent.futures
import gc
import itertools
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ldptoric import (
    LatticeOverflowError,
    RayVector,
    analyze,
    canonical_form,
    classify_catalog,
    det2,
    enumerate_ldp,
    enumerate_raw,
    primitive_points,
    validate_fan,
    validate_ldp_polygon,
    verify_catalog,
)
from ldptoric import enumeration
from ldptoric.enumeration import (
    _SQUARE_SYMMETRIES,
    BOX_CAVEAT,
    CHECKS,
    EnumerationStats,
    VerificationReport,
    _chains_from,
    _is_alternating_d5,
    _shard_worker,
    _shards,
    _violates_half_plane,
)
from ldptoric.equivalence import _canonical_key, _tied_anchors, apply_to_polygon, random_unimodular_map
from ldptoric.surface import nonsingular_arc_contiguous

from oracles import (
    _oracle_form,
    closure_results,
    random_fan,
    ref_alternating_d5,
    ref_half_plane_violation,
    ref_noncontiguous,
    ref_validate_ldp_polygon,
)

# D4, built here: the 8 signed permutation matrices (a, b, c, d).
D4 = {(a, b, c, d) for a, b, c, d in itertools.product((-1, 0, 1), repeat=4)
      if abs(a) + abs(b) == abs(c) + abs(d) == abs(a) + abs(c) == 1}


def _d4_image(g, vs):
    a, b, c, d = g
    return [(a * x + b * y, c * x + d * y) for x, y in vs]


def _box_tuples(n):
    return [v.as_tuple() for v in primitive_points(n)]


def _unrooted_chains(n):
    pts = _box_tuples(n)
    # Each walk starts from a first edge [i, j]: j > i at determinant >= 1.
    edges = [[i, j] for i, (x, y) in enumerate(pts) for j in range(i + 1, len(pts)) if x * pts[j][1] - pts[j][0] * y >= 1]
    return [tuple(pts[j] for j in chain) for edge in edges for chain in _chains_from(pts, edge)]


def _orbit_least(chain):
    # The full test: no D4 image of the vertex set sorts below it.
    key = sorted(chain)
    return all(sorted(_d4_image(g, chain)) >= key for g in D4)


def _rooted_and_kept(n, monkeypatch):
    """Every chain of the rooted walk at box n, as int tuples, and the set
    the shards keep: with the canonical key made the identity, a shard's
    keys are the chains its weight test kept."""
    monkeypatch.setattr(enumeration, "_canonical_key", lambda chain: chain)
    rooted, kept = [], set()
    for shard in _shards(_box_tuples(n)):
        cands, prefix = shard[:2]
        rooted += [tuple(cands[j] for j in chain) for chain in _chains_from(cands, prefix)]
        keys, n_raw, n_kept, _ = _shard_worker(shard)
        assert len(keys) == n_kept
        kept |= keys
    return rooted, kept


def test_box_below_one_is_a_value_error():
    for box in (0, -2):
        with pytest.raises(ValueError, match="^box size must be at least 1$"):
            enumerate_ldp(box)


@pytest.mark.parametrize("box", [2.5, "2", True])
def test_box_that_is_not_an_int_is_a_value_error(box):
    with pytest.raises(ValueError, match=re.escape(f"box size {box!r} is not an integer")):
        enumerate_ldp(box)


@pytest.mark.parametrize("jobs", [2.5, "2", True, False, 0, -1])
def test_bad_jobs_is_a_value_error_before_any_pool(jobs, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built")

    # The pooled branch looks the pool up here, as a later run with two jobs shows.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match=re.escape(f"jobs {jobs!r} is not None or an integer of at least 1")):
        enumerate_ldp(1, jobs=jobs)
    with pytest.raises(AssertionError, match="a pool was built"):
        enumerate_ldp(1, jobs=2)


def test_box_that_is_a_float_is_a_value_error():
    with pytest.raises(ValueError, match=re.escape("box size 1.5 is not an integer")):
        enumerate_ldp(1.5)


def test_box_above_the_64_bit_range_is_an_overflow():
    # Raised before any grid is built: a box this size would never finish enumerating.
    with pytest.raises(LatticeOverflowError, match="^box size 9223372036854775808 exceeds"):
        enumerate_ldp(2**63)


def test_primitive_points_box_one():
    pts = [v.as_tuple() for v in primitive_points(1)]
    assert pts == [
        (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
    ]


def test_primitive_points_skip_imprimitive():
    pts = primitive_points(2)
    tuples = {v.as_tuple() for v in pts}
    assert (2, 2) not in tuples
    assert (0, 2) not in tuples
    assert (2, 1) in tuples
    assert len(pts) == 16


def test_box_one_class_count(box1_catalog):
    assert len(box1_catalog) == 11


def test_smooth_classes_in_box_one(box1_catalog):
    # The 5 smooth classes are the toric del Pezzo surfaces.
    assert sorted(e.d for e in box1_catalog if e.singular_count == 0) == [3, 4, 4, 5, 6]


def test_box_two_class_count(box2_catalog):
    assert len(box2_catalog) == 156


def test_box_three_catalog_is_closed_under_blow_down_and_in_box_blow_up(box3_catalog):
    # Blowing down keeps the other vertices, so an LDP blow-down of a class
    # lies in the same box; so does an LDP blow-up by a ray sum in the box.
    # Each must be a class of the catalog, whose vertices are their own
    # canonical form (which _oracle_form reproduces).  The counts show the
    # check is not vacuous: 5,218 blow-downs and 1,154 blow-ups.
    classes = {entry.vertices for entry in box3_catalog}
    downs = ups = 0
    missing = set()
    for entry in box3_catalog:
        for rays in closure_results(entry.vertices, 3):
            downs += len(rays) < entry.d
            ups += len(rays) > entry.d
            form = _oracle_form(rays)
            if form not in classes:
                missing.add(form)
    assert not missing, f"classes missing from the catalog: {sorted(missing)}"
    assert (downs, ups) == (5218, 1154)


def test_entries_sorted_and_deterministic(box1_catalog):
    again = enumerate_ldp(1, jobs=2)
    assert again == box1_catalog
    keys = [(e.d, e.vertices) for e in box1_catalog]
    assert keys == sorted(keys)


def test_box_orbit_pruning_is_sound(box2_catalog):
    assert len(D4) == 8 and len(_SQUARE_SYMMETRIES) == 7
    assert set(_SQUARE_SYMMETRIES) == D4 - {(1, 0, 0, 1)}

    def image(g, vs):
        a, b, c, d = g
        return frozenset((a * x + b * y, c * x + d * y) for x, y in vs)

    raw = {frozenset(v.as_tuple() for v in c): c for c in enumerate_raw(2)}
    assert all(image(g, vs) in raw for vs in raw for g in D4)
    least = [vs for vs in raw if all(sorted(vs) <= sorted(image(g, vs)) for g in D4)]
    assert len(least) == 219

    def form(chain):
        return tuple(v.as_tuple() for v in canonical_form(validate_ldp_polygon(chain)).vertices)

    everything = {form(c) for c in raw.values()}
    assert {e.vertices for e in box2_catalog} == everything == {form(raw[vs]) for vs in least}


def test_box_two_canonicalizes_only_orbit_least_chains():
    stats = EnumerationStats()
    assert len(enumerate_ldp(2, stats=stats)) == 156
    assert stats.canonicalizations == 219
    assert (stats.roots, len(stats.raw_chains), sum(stats.raw_chains), stats.classes) == (3, 11, 533, 156)


@pytest.mark.parametrize("n, roots, raw, kept", [(1, 2, 32, 14), (2, 3, 533, 219)])
def test_stats_are_the_same_for_every_worker_count(n, roots, raw, kept):
    one, two = EnumerationStats(), EnumerationStats()
    assert enumerate_ldp(n, jobs=1, stats=one) == enumerate_ldp(n, jobs=2, stats=two)
    for stats in (one, two):
        assert (stats.roots, sum(stats.raw_chains), stats.canonicalizations) == (roots, raw, kept)
        assert list(stats.seconds) == ["dfs", "orbit_test", "canonical_key", "shard_loop", "entries"]
    assert one.raw_chains == two.raw_chains


# Read from stdin, so a spawned worker has no main module file to re-run and
# dies as it starts.
_DEAD_WORKERS_SCRIPT = """
import multiprocessing, sys
sys.path.insert(0, {src!r})
from ldptoric import WorkerPoolError, enumerate_ldp
multiprocessing.set_start_method("spawn")
try:
    enumerate_ldp(2, jobs=2)
except WorkerPoolError as exc:
    print(exc)
"""


def test_pool_whose_workers_cannot_start_raises():
    src = str(Path(enumeration.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-"], input=_DEAD_WORKERS_SCRIPT.format(src=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("a worker of the spawn pool died before returning its shard")
    # Each worker that died printed its traceback; none was replaced.
    assert 1 <= out.stderr.count("FileNotFoundError") <= 2


@pytest.mark.parametrize("n, roots", [(1, 2), (2, 3), (3, 5)])
def test_each_root_is_its_own_orbit_minimum(n, roots):
    pts = _box_tuples(n)

    def orbit_min(p):
        return min(_d4_image(g, [p])[0] for g in D4)

    shards = _shards(pts)
    lists = list({cands[0]: cands for cands, *_ in shards}.values())
    assert [cands[0] for cands in lists] == [p for p in pts if orbit_min(p) == p]
    assert len(lists) == roots
    # The point of rank r in (x, y) order weighs 2^(R-1-r).
    weight = {p: 2 ** (len(pts) - 1 - r) for r, p in enumerate(sorted(pts))}
    for cands in lists:
        s = cands[0]
        assert all(_d4_image(g, [s])[0] >= s for g in D4)
        # Every point whose orbit stays at or above s, in angular order from s.
        i = pts.index(s)
        assert cands == [p for p in pts[i:] + pts[:i] if orbit_min(p) >= s]
        # One shard per second vertex at determinant >= 1, each with the
        # root's weight tables: the candidates' weights, then per g that of
        # g^-1 s and those of the candidates' images.
        mine = [shard[1:] for shard in shards if shard[0] is cands]
        seconds = [prefix for prefix, _, _ in mine]
        assert seconds == [[0, j] for j, p in enumerate(cands) if det2(RayVector(*s), RayVector(*p)) >= 1]
        tables = [weight[p] for p in cands], [
            (weight[next(p for p in pts if _d4_image(g, [p])[0] == s)], [weight[q] for q in _d4_image(g, cands)])
            for g in _SQUARE_SYMMETRIES
        ]
        assert all((weights, images) == tables for _, weights, images in mine)


def test_sorted_list_order_is_the_reverse_of_weight_sum_order():
    # On random equal-size vertex sets of box 4, from equal up to all 48
    # points: the sorted list that compares smaller has the larger weight
    # sum, with the weights the shards use.  The root (-4, -3) is the least
    # point, so its candidates are every box point.
    pts = _box_tuples(4)
    cands, _, weights, _ = next(shard for shard in _shards(pts) if shard[0][0] == (-4, -3))
    assert min(pts) == (-4, -3) and sorted(cands) == sorted(pts) and len(pts) == 48
    weight = dict(zip(cands, weights))
    assert sorted(weights) == [2**r for r in range(48)]
    rng = random.Random(36)
    seen = Counter()
    for _ in range(5000):
        a = rng.sample(pts, rng.randint(1, 48))
        # A third of the pairs differ in one point only, anywhere in the
        # sorted list, and a third are one set in two orders.
        b = [rng.sample(pts, len(a)), a[:-1] + rng.sample(pts, 1), rng.sample(a, len(a))][rng.randrange(3)]
        if len(set(b)) < len(b):
            continue
        order = (sorted(a) > sorted(b)) - (sorted(a) < sorted(b))
        sums = sum(map(weight.get, a)), sum(map(weight.get, b))
        assert order == (sums[1] > sums[0]) - (sums[1] < sums[0]), (a, b)
        seen[order] += 1
    assert min(seen.values()) > 300, seen


def test_rooted_kept_set_equals_the_unrooted_kept_set(monkeypatch):
    unrooted = {frozenset(c) for c in _unrooted_chains(2) if _orbit_least(c)}
    rooted, kept = _rooted_and_kept(2, monkeypatch)
    assert len(rooted) == 533
    # The weight test keeps exactly the rooted chains the full test keeps.
    assert kept == {c for c in rooted if _orbit_least(c)}
    assert len(kept) == len(unrooted) == 219
    assert {frozenset(c) for c in kept} == unrooted


@pytest.mark.parametrize("n, raw, least", [(1, 32, 14), (3, 36797, 17410)])
def test_weight_test_keeps_the_fully_sorted_orbit_least_chains(n, raw, least, monkeypatch):
    rooted, kept = _rooted_and_kept(n, monkeypatch)
    assert len(rooted) == raw
    assert kept == {c for c in rooted if _orbit_least(c)}
    assert len(kept) == least


def test_chains_from_leaves_no_cyclic_garbage():
    # The recursive walk must not keep itself alive through a reference
    # cycle: with the collector off, every object a call made is freed by
    # reference counting alone, found chains included.
    shards = _shards(_box_tuples(2))
    gc.collect()
    gc.disable()
    try:
        found = sum(len(_chains_from(cands, prefix)) for cands, prefix, *_ in shards)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert found == 533
    assert unreachable == 0


def test_canonical_key_matches_canonical_form():
    rng = random.Random(11)

    def form(p):
        return tuple(v.as_tuple() for v in canonical_form(p).vertices)

    chains = _unrooted_chains(2)
    assert len(chains) == 1533
    for chain in chains:
        poly = validate_ldp_polygon(chain)
        assert _canonical_key(chain) == form(poly)
    for chain in rng.sample(chains, 200):
        image = apply_to_polygon(random_unimodular_map(rng, max_entry=40), validate_ldp_polygon(chain))
        pts = [v.as_tuple() for v in image.vertices]
        assert _canonical_key(pts) == form(image) == _oracle_form(image.vertices)


def test_lazy_canonical_key_is_the_least_tied_reading(box3_catalog):
    # _canonical_key eliminates the tied anchors point by point and reads
    # only the survivor in full.  On every box-3 class, and on a seeded
    # unimodular image of each class with at least 4 tied anchors, rotated:
    # the symmetric cycles, where two anchors tie at every point.
    rng = random.Random(17)
    seen = Counter()
    for entry in box3_catalog:
        tied = _tied_anchors(list(entry.vertices), analyze(entry.poly).dets)
        assert _canonical_key(list(entry.vertices)) == min(tied)[0]
        if len(tied) >= 4:
            image = apply_to_polygon(random_unimodular_map(rng, 40), entry.poly)
            shift = rng.randrange(image.d)
            pts = [v.as_tuple() for v in image.vertices[shift:] + image.vertices[:shift]]
            image_tied = _tied_anchors(pts, analyze(validate_fan(pts)).dets)
            least = min(image_tied)[0]
            assert _canonical_key(pts) == least
            seen["read all d points"] += sum(rd == least for rd, _ in image_tied) >= 2
            seen["smooth" if least[1] == (0, 1) else "no smooth cone"] += 1
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("case", ["on", "off", "raises"])
def test_enumerate_ldp_leaves_the_collector_as_it_found_it(case, monkeypatch):
    # The collector is paused while the entries are built and restored as the
    # caller had it, also when building them raises.
    seen = []
    validate = enumeration.validate_ldp_polygon

    def watched(key):
        seen.append(gc.isenabled())
        if case == "raises":
            raise RuntimeError("seeded")
        return validate(key)

    monkeypatch.setattr(enumeration, "validate_ldp_polygon", watched)
    was = gc.isenabled()
    gc.disable() if case == "off" else gc.enable()
    try:
        if case == "raises":
            with pytest.raises(RuntimeError, match="^seeded$"):
                enumerate_ldp(1)
        else:
            assert len(enumerate_ldp(1)) == 11
        assert gc.isenabled() == (case != "off")
    finally:
        gc.enable() if was else gc.disable()
    assert seen and not any(seen)


def test_box_monotonicity(box1_catalog, box2_catalog):
    small = {e.vertices for e in box1_catalog}
    large = {e.vertices for e in box2_catalog}
    assert small <= large


def test_entry_data_matches_reanalysis(box1_catalog):
    for entry in box1_catalog:
        poly = validate_ldp_polygon(entry.vertices)
        rep = analyze(poly)
        assert entry.d == rep.d
        assert entry.dets == rep.dets
        assert entry.singular_count == rep.singular_count
        assert entry.family is None and entry.three_case is None
        # stored list is the canonical representative of its class
        assert tuple(v.as_tuple() for v in canonical_form(poly).vertices) == entry.vertices


def test_raw_cycles_are_rotations_of_valid_polygons():
    raws = enumerate_raw(1)
    assert len(raws) == 64
    for chain in raws:
        validate_ldp_polygon(chain)


def test_every_box_two_dfs_chain_passes_the_reference_validation():
    # The shards validate no chain, only each class's entry; this checks every
    # chain of the unrooted walk, with a validation that shares no code with
    # the package.
    chains = _unrooted_chains(2)
    assert len(chains) == 1533
    for chain in chains:
        assert ref_validate_ldp_polygon(chain) == chain


def test_classify_catalog_fills_expected_fields(box2_catalog):
    classified = classify_catalog(box2_catalog)
    assert [e.vertices for e in classified] == [e.vertices for e in box2_catalog]
    for entry in classified:
        if entry.singular_count == 0 or entry.singular_count > 3:
            assert entry.family is None
            assert entry.three_case is None
        if entry.singular_count in (1, 2):
            assert entry.family is not None
            assert entry.three_case is None
        if entry.singular_count == 3:
            assert entry.three_case in ("picard_le_two", "family_d5", "blowup_of_picard3")
            if entry.d == 5:
                assert entry.family is not None
                assert entry.family.family == "three5"


def test_tagging_calls_classify_three_once_per_three_singular_entry(box2_catalog, monkeypatch):
    # classify_catalog and verify_catalog both tag through classify_three,
    # once for each three-singular entry and never for another.
    calls = []
    classify_three = enumeration.classify_three

    def counting(p):
        calls.append((p, classify_three(p)))
        return calls[-1][1]

    monkeypatch.setattr(enumeration, "classify_three", counting)
    threes = [e.poly for e in box2_catalog if e.singular_count == 3]
    classified = classify_catalog(box2_catalog)
    tags = [(e.poly, e.three_case) for e in classified if e.singular_count == 3]
    assert [p for p, _ in calls] == threes and calls == tags
    assert Counter((p.d, tag) for p, tag in tags) == {
        (3, "picard_le_two"): 3, (4, "picard_le_two"): 14, (5, "family_d5"): 19, (6, "blowup_of_picard3"): 5,
    }
    del calls[:]
    assert verify_catalog(classified).ok
    assert calls == tags


def test_family_tags_match_vertex_count(box2_catalog):
    tag_by_d = {
        1: {3: "dais1", 4: "dais2", 5: "dais3"},
        2: {3: "two1", 4: "two2", 5: "two3"},
    }
    for entry in classify_catalog(box2_catalog):
        if entry.singular_count in (1, 2):
            assert entry.family.family == tag_by_d[entry.singular_count][entry.d]


def test_verify_catalog_box_one(box1_catalog):
    report = verify_catalog(box1_catalog)
    assert report.ok
    assert report.total == 11
    found = report.counterexamples
    assert found["one_singular_unmatched"] == []
    assert found["two_singular_unmatched"] == []
    assert found["three_singular_unclassified"] == []
    assert found["alternating_d5"] == []
    assert found["noncontiguous"] == []
    assert found["half_plane_violations"] == []


def test_verify_catalog_box_two(box2_catalog):
    report = verify_catalog(box2_catalog)
    assert report.ok
    assert report.total == 156


@pytest.mark.parametrize(
    "vertices, check",
    [
        (((1, 0), (0, 1), (-3, -1)), "one_singular_unmatched"),  # dais1, p = 2
        (((1, 0), (0, 1), (-3, -2)), "two_singular_unmatched"),  # two1, p = 2, q = 3
    ],
)
def test_verify_catalog_lists_a_dropped_family_tag(box2_catalog, monkeypatch, vertices, check):
    # A planted defect: the tagging path loses one known box-2 family.
    identify = enumeration.identify

    def dropping(poly):
        return None if poly.vertices == vertices else identify(poly)

    monkeypatch.setattr(enumeration, "identify", dropping)
    report = verify_catalog(box2_catalog)
    assert not report.ok and report.total == 156
    assert report.counterexamples == {name: [vertices] if name == check else [] for name in CHECKS}


# A box-2 hexagon with three singular points, one blow-up of a d = 5 class.
THREE_SINGULAR_HEXAGON = ((1, 0), (0, 1), (-5, 2), (-4, 1), (0, -1), (1, -1))


def test_verify_catalog_lists_a_dropped_three_case(box2_catalog, monkeypatch):
    # A planted defect: classify_three loses one of box 2's five d = 6
    # three-singular classes.
    sixes = [e.vertices for e in box2_catalog if e.d == 6 and e.singular_count == 3]
    assert len(sixes) == 5 and THREE_SINGULAR_HEXAGON in sixes
    classify_three = enumeration.classify_three

    def dropping(poly):
        return "none" if poly.vertices == THREE_SINGULAR_HEXAGON else classify_three(poly)

    monkeypatch.setattr(enumeration, "classify_three", dropping)
    report = verify_catalog(box2_catalog)
    assert not report.ok and report.total == 156
    assert report.counterexamples == {
        name: [THREE_SINGULAR_HEXAGON] if name == "three_singular_unclassified" else [] for name in CHECKS
    }


def test_checks_d_to_f_match_their_oracles_on_random_fans():
    # Checks (d)-(f) read only surface data, so they run on any complete
    # fan.  Each fires on many non-LDP fans and agrees with its test-side
    # predicate; none fires on an LDP fan, as the paper's theorem says.
    rng = random.Random(5)
    fired, ldp = Counter(), 0
    for _ in range(20_000):
        fan = random_fan(rng, max_d=8, coord=6)
        surf, rays = analyze(fan), tuple(map(tuple, fan.rays))
        verdicts = {
            "alternating_d5": _is_alternating_d5(surf.singular_indices(), surf.d),
            "noncontiguous": not nonsingular_arc_contiguous(surf),
            "half_plane_violations": surf.d >= 4 and _violates_half_plane(fan, surf),
        }
        assert verdicts == {
            "alternating_d5": ref_alternating_d5(rays),
            "noncontiguous": ref_noncontiguous(rays),
            "half_plane_violations": ref_half_plane_violation(rays),
        }
        ldp += surf.is_log_del_pezzo
        if surf.is_log_del_pezzo:
            assert not any(verdicts.values()), rays
        fired.update(name for name, failed in verdicts.items() if failed)
    assert ldp == 4205
    assert fired == {"alternating_d5": 73, "noncontiguous": 1563, "half_plane_violations": 5887}


def test_half_plane_check_fires_on_a_non_ldp_fan():
    # Cones 1 and 3 are singular and sandwich the smooth cone 2, and there
    # are only two singular cones; no LDP polygon does this.
    fan = validate_fan([(1, 0), (1, 2), (0, 1), (-2, -1)])
    surf = analyze(fan)
    assert surf.dets == (2, 1, 2, 1) and not surf.is_log_del_pezzo
    assert _violates_half_plane(fan, surf)


def test_verification_report_serialization(box1_catalog):
    report = verify_catalog(box1_catalog)
    data = report.to_dict()
    assert list(data) == [
        "total",
        "one_singular_unmatched",
        "two_singular_unmatched",
        "three_singular_unclassified",
        "alternating_d5",
        "noncontiguous",
        "half_plane_violations",
        "ok",
        "note",
    ]
    assert data["ok"] is True
    assert data["total"] == 11
    assert data["note"] == BOX_CAVEAT and "box" in data["note"]
    # The caveat is a class constant, not a field.
    assert VerificationReport._fields == ("total", "counterexamples")
    assert "note" not in repr(report)


def test_alternating_pattern_detector():
    assert _is_alternating_d5((1, 3, 5), 5)
    assert _is_alternating_d5((2, 4, 1), 5)  # rotation of {1, 3, 5}
    assert _is_alternating_d5((3, 5, 2), 5)
    # on a 5-cycle, any non-contiguous 3-subset is a rotation of {1, 3, 5}
    assert _is_alternating_d5((1, 3, 4), 5)
    assert not _is_alternating_d5((1, 2, 3), 5)
    assert not _is_alternating_d5((2, 3, 4), 5)
    assert not _is_alternating_d5((4, 5, 1), 5)
    assert not _is_alternating_d5((1, 3, 5), 6)
    assert not _is_alternating_d5((1, 3), 5)


def test_catalog_has_expected_d_range(box2_catalog):
    ds = sorted({e.d for e in box2_catalog})
    assert min(ds) == 3
    assert max(ds) >= 6
    # no 2-singular class beyond d=5, no 3-singular class beyond d=6
    assert all(e.d <= 5 for e in box2_catalog if e.singular_count == 2)
    assert all(e.d <= 6 for e in box2_catalog if e.singular_count == 3)


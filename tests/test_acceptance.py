"""Acceptance gate: the eleven desk-scale checks, one test each.

Each test records a PASS/FAIL line (echoed immediately under -s, and always
repeated in the end-of-run scorecard section), then asserts.  Timed criteria
build their own artifacts inside the measured window instead of using shared
session fixtures.
"""

import hashlib
import itertools
import math
import random
import time

import pytest

from ldptoric import (
    FamilyParams,
    analyze,
    apply_to_polygon,
    blow_down,
    blow_up,
    canonical_form,
    check_params,
    classify_catalog,
    enumerate_ldp,
    enumerate_raw,
    f_value,
    format_vertices,
    generate,
    nonsingular_arc_contiguous,
    parse_vertices,
    random_unimodular_map,
    validate_fan,
    verify_catalog,
)
from ldptoric.cli import write_catalog
from ldptoric.enumeration import EnumerationStats, _is_alternating_d5
from ldptoric.families import FAMILY_SPECS

from oracles import brute_force_classes, random_fan, random_ldp_polygon

from _scorecard import record


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    record(line)
    assert ok, line


@pytest.fixture(scope="module")
def box2_entries():
    return enumerate_ldp(2)


@pytest.fixture(scope="module")
def box3_stats():
    """The EnumerationStats that box3_pipeline fills."""
    return EnumerationStats()


@pytest.fixture(scope="module")
def box3_pipeline(box3_stats):
    """Full n=3 pipeline, timed: enumerate, classify, verify."""
    started = time.perf_counter()
    entries = enumerate_ldp(3, stats=box3_stats)
    classified = classify_catalog(entries)
    report = verify_catalog(entries)
    elapsed = time.perf_counter() - started
    return entries, classified, report, elapsed


def test_criterion_01_five_smooth_classes():
    started = time.perf_counter()
    entries = enumerate_ldp(1)
    elapsed = time.perf_counter() - started
    smooth = [e for e in entries if e.singular_count == 0]
    ok = len(smooth) == 5 and elapsed < 10.0
    _report(1, ok, f"box n=1 has {len(smooth)} smooth classes (want 5) in {elapsed:.2f}s (< 10s)")


def test_criterion_02_oracle_equivalence():
    started = time.perf_counter()
    mismatches = []
    for n in (1, 2):
        dfs = {e.vertices for e in enumerate_ldp(n)}
        oracle = brute_force_classes(n)
        if dfs != oracle:
            mismatches.append((n, len(dfs), len(oracle)))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60.0
    _report(2, ok, f"DFS vs brute-force oracle for n in {{1,2}}: mismatches={mismatches} in {elapsed:.2f}s (< 60s)")


def test_criterion_03_one_singular_coverage(box3_pipeline):
    entries, classified, report, elapsed = box3_pipeline
    ones = [e for e in classified if e.singular_count == 1]
    unmatched = [e.vertices for e in ones if e.family is None or not e.family.family.startswith("dais")]
    ok = len(ones) > 0 and not unmatched and elapsed < 120.0
    _report(
        3,
        ok,
        f"{len(ones) - len(unmatched)}/{len(ones)} 1-singular n=3 entries match a dais family; "
        f"pipeline {elapsed:.2f}s (< 120s)",
    )


def test_criterion_04_two_singular_coverage(box3_pipeline):
    entries, classified, report, elapsed = box3_pipeline
    twos = [e for e in classified if e.singular_count == 2]
    bad = [
        e.vertices
        for e in twos
        if e.family is None or e.family.family not in ("two1", "two2", "two3") or e.d > 5
    ]
    ok = len(twos) > 0 and not bad
    _report(4, ok, f"{len(twos) - len(bad)}/{len(twos)} 2-singular n=3 entries match two1/two2/two3 with d <= 5")


def test_criterion_05_three_singular_coverage(box3_pipeline):
    entries, classified, report, elapsed = box3_pipeline
    threes = [e for e in classified if e.singular_count == 3]
    expected_case = {3: "picard_le_two", 4: "picard_le_two", 5: "family_d5", 6: "blowup_of_picard3"}
    bad = [
        e.vertices
        for e in threes
        if e.d >= 7 or e.three_case != expected_case.get(e.d)
    ]
    ok = len(threes) > 0 and not bad
    _report(5, ok, f"{len(threes) - len(bad)}/{len(threes)} 3-singular entries classify, none with d >= 7")


def test_criterion_06_no_alternating_d5(box2_entries, box3_pipeline):
    entries3, _, _, _ = box3_pipeline
    offenders = []
    scanned = 0
    for entry in list(enumerate_ldp(1)) + list(box2_entries) + list(entries3):
        scanned += 1
        surf = analyze(entry.polygon())
        if _is_alternating_d5(surf.singular_indices(), entry.d):
            offenders.append(entry.vertices)
    ok = not offenders
    _report(6, ok, f"0 of {scanned} entries (boxes 1..3) have the rotated {{1,3,5}} singular pattern: {offenders!r}")


def test_criterion_07_contiguity(box3_pipeline):
    entries, classified, report, elapsed = box3_pipeline
    noncontiguous = [
        e.vertices for e in entries if not nonsingular_arc_contiguous(analyze(e.polygon()))
    ]
    witness = validate_fan(parse_vertices("1,0;0,1;-2,-1;-3,-2"))
    witness_rep = analyze(witness)
    witness_ok = f_value(witness, 3) == 0 and not witness_rep.is_log_del_pezzo
    ok = not noncontiguous and witness_ok
    _report(
        7,
        ok,
        f"{len(entries) - len(noncontiguous)}/{len(entries)} n=3 entries contiguous; "
        f"alternating witness fan has f(3)=0 and is not LDP: {witness_ok}",
    )


def test_criterion_08_criterion_consistency():
    rng = random.Random(20260814)
    mismatches = 0
    for _ in range(10_000):
        cycle = random_fan(rng, max_d=8, coord=20)
        rep = analyze(cycle)
        by_f = min(rep.f_values) >= 1
        by_degrees = all(x > 0 for x in rep.anticanonical_degrees)
        if by_f != by_degrees or by_f != rep.is_log_del_pezzo:
            mismatches += 1
    _report(8, mismatches == 0, f"10000 random fans (d <= 8, coords <= 20): {mismatches} criterion mismatches")


def test_criterion_09_family_soundness_sweep():
    exceptions = []
    passing = 0
    for tag, spec in FAMILY_SPECS.items():
        for values in itertools.product(range(-8, 9), repeat=len(spec.params)):
            fp = FamilyParams(tag, *values)
            if not check_params(fp):
                continue
            passing += 1
            try:
                inst = generate(fp)
                rep = analyze(inst.polygon)
                if not rep.is_log_del_pezzo or rep.singular_count != spec.singular:
                    exceptions.append((fp.family, fp.as_tuple(), rep.singular_count))
            except Exception as exc:  # noqa: BLE001 - any failure is a criterion exception
                exceptions.append((fp.family, fp.as_tuple(), repr(exc)))
    ok = passing > 0 and not exceptions
    _report(9, ok, f"{passing} tuples with |params| <= 8 generate correctly; exceptions={exceptions[:3]!r}")


def test_criterion_10_canonical_form_invariance(box2_entries):
    rng = random.Random(77)
    mismatches = 0
    for entry in box2_entries:
        base = entry.polygon()
        want = canonical_form(base).vertices
        for _ in range(100):
            image = apply_to_polygon(random_unimodular_map(rng), base)
            if canonical_form(image).vertices != want:
                mismatches += 1
    _report(
        10,
        mismatches == 0,
        f"{len(box2_entries)} n=2 entries x 100 random maps: {mismatches} canonical-form mismatches",
    )


def test_criterion_11_blow_up_laws(box2_entries):
    rng = random.Random(4242)
    seeds = [e.polygon() for e in box2_entries]
    failures = 0
    checked = 0
    while checked < 1_000:
        poly = random_ldp_polygon(rng, seeds)
        rep = analyze(poly)
        smooth = [c.index for c in rep.cones if not c.singular]
        if not smooth:
            continue  # criterion demands a nonsingular cone, keep drawing
        checked += 1
        i = rng.choice(smooth)
        up = blow_up(poly, i)
        if analyze(up).singular_count != rep.singular_count:
            failures += 1
            continue
        down = blow_down(up, i + 1)
        if down.rays != poly.rays or format_vertices(down.rays) != format_vertices(poly.rays):
            failures += 1
    _report(11, failures == 0, f"1000 random LDP fans with a smooth cone: {failures} blow-up law failures")


def test_box_three_catalog_bytes_pinned(box3_pipeline, tmp_path):
    """Not a scored criterion: the box-3 raw and classified catalogs keep
    their write_catalog bytes (sha256 as in perfbench/expected.py)."""
    entries, classified, _, _ = box3_pipeline
    assert len(entries) == 13660
    digests = []
    for name, catalog in (("raw", entries), ("classified", classified)):
        path = tmp_path / f"{name}.jsonl"
        write_catalog(catalog, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [
        "1965ac4133bec9f91e2ccde2afd79254b2818be073d3cad34b3b507fb84539bb",
        "f47ce14a08c225b8e9e63238ff473ba56e9d0f666c6d3113a3118e9aa339662e",
    ]


def test_box_three_enumeration_stats(box3_pipeline, box3_stats):
    """Not a scored criterion: the rooted walk's work at box 3, as the
    library reports it.  The unrooted walk finds 137,295 raw chains."""
    entries, _, _, _ = box3_pipeline
    stats = box3_stats
    assert (stats.roots, sum(stats.raw_chains), stats.canonicalizations, stats.classes) == (5, 36797, 17410, 13660)
    assert stats.classes == len(entries)


def test_box_three_raw_chains_all_validate():
    """Not a scored criterion: enumerate_raw validates every raw chain of
    the unrooted walk, most of which the rooted shards never visit."""
    assert len(enumerate_raw(3)) == 137295


def test_box_three_gorenstein_index_counts(box3_pipeline):
    """Not a scored criterion: the Gorenstein index (lcm of the lattice
    heights det(v_i, v_i+1) / gcd(v_i+1 - v_i) of the edges), read from the
    vertices alone.  Kasprzyk-Kreuzer-Nill (LMS J. Comput. Math. 2010) list
    16, 30 and 99 toric log del Pezzo surfaces of index 1, 2 and 3; a box
    can hold fewer, never more."""
    entries, _, _, _ = box3_pipeline
    counts = {1: 0, 2: 0, 3: 0}
    for entry in entries:
        vs = entry.vertices
        index = 1
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            height, rem = divmod(x0 * y1 - x1 * y0, math.gcd(x1 - x0, y1 - y0))
            assert rem == 0
            index = math.lcm(index, height)
        if index in counts:
            counts[index] += 1
    assert counts == {1: 16, 2: 28, 3: 76}
    assert counts[2] <= 30 and counts[3] <= 99

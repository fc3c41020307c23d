"""The benchmark's workloads and the checks on their outputs.

Every library call goes through a `call(name, fn, *args)` hook, so the same
code runs untraced (`direct`) and traced (`Tracer.call`).

- Box pipeline: enumerate_ldp -> write/read_catalog -> classify_catalog ->
  write/read_catalog -> verify_catalog, the path the CLI's enumerate,
  classify and check commands take.
- Parallel enumeration: enumerate_ldp with a worker pool, output hash checked.
- Query stream: single-polygon lookups against a classified box catalog.
  validate -> canonical_form -> dict lookup -> analyze -> identify /
  classify_three -> are_equivalent to the stored representative.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ldptoric import cli, enumeration, equivalence, families, polygon, surface
from ldptoric.lattice import LatticeOverflowError, compose_maps

from expected import EXPECTED


def direct(name, fn, *args, **kwargs):
    """The untraced call hook."""
    return fn(*args, **kwargs)


@dataclass
class Tally:
    """Operations attempted, those whose output checks failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.extend(found)


def sha256_of(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def check_raw_catalog(n: int, path: Path) -> list[str]:
    """The enumerate_ldp catalog, as write_catalog serialised it."""
    exp = EXPECTED[n]
    digest, size = sha256_of(path)
    if (digest, size) != (exp.raw_sha256, exp.raw_bytes):
        return [f"box {n} catalog sha256 {digest} ({size} B), expected {exp.raw_sha256} ({exp.raw_bytes} B)"]
    return []


def tag_histogram(entries) -> tuple[Counter, Counter]:
    fams = Counter(e.family.family for e in entries if e.family is not None)
    cases = Counter(e.three_case for e in entries if e.three_case is not None)
    return fams, cases


def check_classified(n: int, path: Path, entries, report) -> list[str]:
    exp = EXPECTED[n]
    problems = []
    digest, _ = sha256_of(path)
    if digest != exp.classified_sha256:
        problems.append(f"box {n} classified sha256 {digest}, expected {exp.classified_sha256}")
    if len(entries) != exp.classes:
        problems.append(f"box {n} has {len(entries)} classes, expected {exp.classes}")
    fams, cases = tag_histogram(entries)
    if dict(fams) != exp.families or dict(cases) != exp.three_cases:
        problems.append(f"box {n} tag histogram {dict(fams)} {dict(cases)}")
    if not report.ok:
        problems.append(f"box {n} verify_catalog found counterexamples")
    return problems


def pipeline_pass(n: int, workdir: Path, call=direct) -> tuple[float, list[str], int, int]:
    """One single-process box pipeline.  Returns (seconds, problems, classes,
    catalog bytes); the checks run after the clock stops."""
    raw_path, tagged_path = workdir / "raw.jsonl", workdir / "classified.jsonl"
    t0 = time.perf_counter()
    entries = call("enumeration.enumerate_ldp", enumeration.enumerate_ldp, n, jobs=1)
    call("cli.write_catalog", cli.write_catalog, entries, str(raw_path))
    entries = call("cli.read_catalog", cli.read_catalog, str(raw_path))
    tagged = call("enumeration.classify_catalog", enumeration.classify_catalog, entries)
    call("cli.write_catalog", cli.write_catalog, tagged, str(tagged_path))
    tagged = call("cli.read_catalog", cli.read_catalog, str(tagged_path))
    report = call("enumeration.verify_catalog", enumeration.verify_catalog, tagged)
    elapsed = time.perf_counter() - t0
    problems = check_raw_catalog(n, raw_path) + check_classified(n, tagged_path, tagged, report)
    size = raw_path.stat().st_size
    # Every pass writes new files, as a CLI run writes a new catalog.  On ext4,
    # truncating and rewriting the previous pass's files starts writeback on
    # close, which stalled write_catalog by up to 13 ms in a box-1 pass.
    raw_path.unlink()
    tagged_path.unlink()
    return elapsed, problems, len(tagged), size


def parallel_pass(n: int, jobs: int, workdir: Path) -> tuple[float, list[str]]:
    """enumerate_ldp with a pool of `jobs` workers; the output is hashed afterwards."""
    path = workdir / "parallel.jsonl"
    t0 = time.perf_counter()
    entries = enumeration.enumerate_ldp(n, jobs=jobs)
    elapsed = time.perf_counter() - t0
    cli.write_catalog(entries, str(path))
    return elapsed, check_raw_catalog(n, path)


def build_index(n: int) -> tuple[dict, list]:
    """The classified box-n catalog keyed by canonical vertices, each with its
    representative polygon; also the entries in catalog order."""
    entries = enumeration.classify_catalog(enumeration.enumerate_ldp(n, jobs=1))
    return {e.vertices: (e, e.polygon()) for e in entries}, entries


def check_index(n: int, entries, workdir: Path) -> list[str]:
    path = workdir / "index.jsonl"
    cli.write_catalog(entries, str(path))
    return check_classified(n, path, entries, enumeration.verify_catalog(entries))


# ---------------------------------------------------------------- queries

WARM_UP_BOX = 1  # one untimed pass at this box warms the pipeline code and files first
QUERY_BOX = 2  # box of the catalog that queries are answered against
# Queries timed between two reference samples: about 10 ms of work, short
# enough for the samples to follow most bursts of contention.  Over 6 s
# segments of one run, query p99 varied by 4.6% with chunks of 25 and by 8.3%
# with chunks of 100.
QUERY_CHUNK = 25
# The traffic mix.  No source gives one: the shares follow the wording of the
# workload's specification (images of catalog classes, family instances that
# are "mostly misses", and "a small share" of bad inputs) and are set by hand.
# As a check, on a 2-vCPU Intel Xeon VM under CPython 3.11 the raw p99/p50
# over all queries is 1.56/0.49 ms = 3.2, against 2/0.65 = 3.1 for the
# prototype the specification quotes.  Per kind, raw p50 there is 0.48 ms for
# a hit, 0.56 ms for a miss and 0.03 ms for a bad input, so the hit/miss split
# moves the figures little and the bad share mostly adds cheap queries.  Every
# run records p50, p99 and count per kind ("query_kinds" in its record), so
# its results can be re-weighted to another mix without running again.
HIT_SHARE = 0.70
MISS_SHARE = 0.25  # the rest are bad inputs
# random_unimodular_map takes 1-12 shear or swap steps and stops early at its
# cap.  Twelve steps reach entries of at most 233 (a Fibonacci number), so this
# cap never stops a map: each query gets the library's full random map.  The
# composed pair moves box-2 vertices to coordinates of up to about 2 * 10**3
# and family instances to up to about 1.4 * 10**4, far from the box and far
# inside the signed 64-bit range.
MAP_ENTRY_CAP = 10**4  # cap for each of the two random maps composed per query
BAD_KINDS = ("non_primitive", "collinear", "clockwise", "overflow")
# Smallest k with k * k beyond the signed 64-bit range.
OVERFLOW_BASE = 3037000500

FAMILY_SINGULAR = {"dais1": 1, "dais2": 1, "dais3": 1, "two1": 2, "two2": 2, "two3": 2, "three5": 3}
# Parameter ranges for miss queries, drawn from until generate accepts.  The
# upper ends are set by hand to reach well past what fits in [-2, 2]^2: source
# coordinates go up to 60 and cone determinants up to about 900, against 8 in
# the box, and over seeds 1-3 only 13-20 of about 740 miss slots (2-3%) land
# in the box-2 catalog.
FAMILY_RANGES = {
    "dais1": {"p": (1, 60)},
    "dais2": {"p": (1, 60)},
    "dais3": {"p": (1, 60)},
    "two1": {"p": (2, 60), "q": (2, 60)},
    "two2": {"p": (-6, 1), "q": (-30, 30), "r": (-60, -2)},
    "two3": {"p": (-6, 0), "q": (1, 40), "r": (-60, -2)},
    "three5": {"p": (-4, 1), "q": (-15, 15), "r": (-40, -1), "s": (-15, 15), "t": (-40, -2)},
}
# Collinear template: (1, 0) lies on the edge from (1, -1) to (1, 1).
COLLINEAR = ((1, -1), (1, 0), (1, 1), (-1, 0))


@dataclass(frozen=True)
class Query:
    kind: str  # "hit", "miss" or "bad"
    vertices: tuple[tuple[int, int], ...]
    source: tuple | None = None  # canonical vertices of the source class (hit)
    family: str | None = None  # generating family tag (miss)
    error: type | None = None  # expected exception type (bad)
    error_index: int | None = None  # expected 1-based index on the exception (bad)
    bad_kind: str | None = None


@dataclass
class Answer:
    key: tuple | None = None
    entry: object = None
    singular: int | None = None
    family: object = None
    three_case: str | None = None
    matrix: object = None
    error: Exception | None = None


def cone_dets(vertices) -> list[int]:
    d = len(vertices)
    return [
        vertices[i][0] * vertices[(i + 1) % d][1] - vertices[(i + 1) % d][0] * vertices[i][1]
        for i in range(d)
    ]


def _random_map(rng: random.Random):
    return compose_maps(
        equivalence.random_unimodular_map(rng, MAP_ENTRY_CAP),
        equivalence.random_unimodular_map(rng, MAP_ENTRY_CAP),
    )


def _moved(vertices, m, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Image of a ccw vertex cycle under m, kept ccw, from a random start."""
    img = [(m.a * x + m.b * y, m.c * x + m.d * y) for x, y in vertices]
    if m.a * m.d - m.b * m.c < 0:
        img.reverse()
    k = rng.randrange(len(img))
    return tuple(img[k:] + img[:k])


def _family_polygon(rng: random.Random):
    tag = rng.choice(families.FAMILY_TAGS)
    while True:
        params = {name: rng.randint(lo, hi) for name, (lo, hi) in FAMILY_RANGES[tag].items()}
        try:
            return tag, families.generate(families.FamilyParams(tag, **params)).polygon
        except families.InvalidParams:
            continue


@dataclass(frozen=True)
class Source:
    """One query slot, fixed for the whole run.  Each repetition poses it
    again through a fresh random unimodular image, so no input repeats."""

    kind: str  # "hit", "miss" or one of BAD_KINDS
    vertices: tuple[tuple[int, int], ...]  # ccw cycle: catalog class, family instance or template
    family: str | None = None  # generating family tag (miss)


def make_sources(seed: int, entries, count: int) -> list[Source]:
    """`count` seed-determined query slots against the catalog `entries`."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        u = rng.random()
        if u < HIT_SHARE:
            out.append(Source("hit", rng.choice(entries).vertices))
        elif u < HIT_SHARE + MISS_SHARE:
            tag, poly = _family_polygon(rng)
            out.append(Source("miss", tuple(v.as_tuple() for v in poly.vertices), tag))
        else:
            kind = rng.choice(BAD_KINDS)
            verts = {"overflow": (), "collinear": COLLINEAR}.get(kind)
            out.append(Source(kind, verts if verts is not None else rng.choice(entries).vertices))
    return out


def pose(source: Source, seed: int, slot: int, rep: int) -> Query:
    """The query of `slot` in repetition `rep`; the same arguments give the same query."""
    rng = random.Random(f"{seed}/{slot}/{rep}")
    kind = source.kind
    if kind == "overflow":
        k = OVERFLOW_BASE + rng.randrange(10**6)
        cyc = [(k, 1), (-1, k), (-1, -1)]
        s = rng.randrange(3)
        return Query("bad", tuple(cyc[s:] + cyc[:s]), error=LatticeOverflowError, bad_kind=kind)
    m = _random_map(rng)
    verts = _moved(source.vertices, m, rng)
    if kind == "hit":
        return Query("hit", verts, source=source.vertices)
    if kind == "miss":
        return Query("miss", verts, family=source.family)
    if kind == "collinear":
        middle = (m.a, m.c)  # the image of (1, 0)
        return Query("bad", verts, error=polygon.NotStrictlyConvex,
                     error_index=verts.index(middle) + 1, bad_kind=kind)
    if kind == "clockwise":
        return Query("bad", verts[::-1], error=polygon.NotCounterclockwise, error_index=1, bad_kind=kind)
    i = rng.randrange(len(verts))
    scaled = verts[:i] + ((2 * verts[i][0], 2 * verts[i][1]),) + verts[i + 1:]
    return Query("bad", scaled, error=polygon.NonPrimitiveRay, error_index=i + 1, bad_kind=kind)


def answer(q: Query, index: dict, call=direct) -> Answer:
    """One lookup, exactly as a user of the catalog would run it."""
    try:
        poly = call("query.validate", polygon.validate_ldp_polygon, q.vertices)
    except (polygon.FanValidationError, LatticeOverflowError) as exc:
        return Answer(error=exc)
    form = call("query.canonical_form", equivalence.canonical_form, poly)
    key = tuple(v.as_tuple() for v in form.vertices)
    found = index.get(key)
    sc = call("query.analyze", surface.analyze, poly).singular_count
    family = call("query.identify", families.identify, poly) if sc in (1, 2, 3) else None
    case = call("query.classify_three", families.classify_three, poly) if sc == 3 else None
    matrix = None
    if found is not None:
        matrix = call("query.are_equivalent", equivalence.are_equivalent, poly, found[1])
    return Answer(key, found[0] if found else None, sc, family, case, matrix)


def _maps_onto(m, src, dst) -> bool:
    if m is None or m.a * m.d - m.b * m.c not in (1, -1):
        return False
    return {(m.a * x + m.b * y, m.c * x + m.d * y) for x, y in src} == set(dst)


def check_answer(q: Query, a: Answer) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    if q.kind == "bad":
        if type(a.error) is not q.error:
            return f"{q.bad_kind}: expected {q.error.__name__}, got {a.error!r}"
        if q.error_index is not None and getattr(a.error, "index", None) != q.error_index:
            return f"{q.bad_kind}: expected index {q.error_index}, got {a.error!r}"
        return None
    if a.error is not None:
        return f"{q.kind}: unexpected {a.error!r}"
    dets = sorted(cone_dets(q.vertices))
    e = a.entry
    if e is not None:
        if sorted(e.dets) != dets or a.singular != e.singular_count:
            return f"{q.kind}: cone data differ from catalog entry {e.vertices}"
        if a.family != e.family or a.three_case != e.three_case:
            return f"{q.kind}: tags {a.family} {a.three_case} differ from catalog entry {e.vertices}"
        if not _maps_onto(a.matrix, q.vertices, e.vertices):
            return f"{q.kind}: matrix {a.matrix} does not map the query onto {e.vertices}"
    if q.kind == "hit":
        return None if a.key == q.source else f"hit: found {a.key}, expected {q.source}"
    if a.family is None or a.family.family != q.family or a.singular != FAMILY_SINGULAR[q.family]:
        return f"miss: {q.family} instance identified as {a.family} with {a.singular} singular"
    # Two box vectors span at most determinant 2*2 + 2*2 = 8, and the multiset
    # of cone determinants is a class invariant.
    if e is not None and max(dets) > 8:
        return f"miss: cone determinant {max(dets)} cannot occur in the box, yet found {e.vertices}"
    return None

"""Exhaustive enumeration of LDP polygons with vertices in a coordinate box,
up to unimodular equivalence, plus catalog-wide structural checks.

The search walks primitive lattice vectors of the box in exact angular order.
A polygon's counterclockwise cycle, started at its angularly smallest vertex,
visits strictly increasing angles, so chains over the sorted vector list with
strictly increasing positions find every cycle exactly once.  Consecutive
determinants >= 1 keep each angular step below a half-turn, which makes the
once-around winding automatic at closure.  Strict-left-turn pruning is exact:
the turn at a vertex equals its f-value, so partial chains that already
violate the log del Pezzo condition are cut immediately.  The DFS runs on
one list of plain int tuples and emits int-tuple chains.

The 8 signed permutations of the square (the group D4) lie in GL(2, Z) and map
the box onto itself, so the raw cycles are closed under D4 and each orbit lies
in one class.  Each class therefore keeps a cycle whose sorted vertex set is
the least in its D4 orbit, and only those cycles are validated and
canonicalized: D4 preserves validity, so every class keeps a validated
representative.  enumerate_raw validates every raw cycle.  Each catalog
entry keeps its validated polygon, so an in-process enumerate, classify and
verify validates and analyzes each class once.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace

from .lattice import RayVector, det2, is_primitive
from .polygon import LdpPolygon, angular_sort, validate_ldp_polygon
from .surface import SurfaceReport, analyze, nonsingular_arc_contiguous
from .equivalence import canonical_form
from .families import FamilyParams, _three_case, identify

BOX_CAVEAT = (
    "classes whose every representative needs coordinates beyond the box are absent; "
    "all findings are no-counterexample-within-the-box statements"
)


@dataclass(frozen=True)
class BoxSpec:
    """Search box [-n, n] x [-n, n]; n must be an int of at least 1."""

    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int:  # not isinstance: bool is an int
            raise ValueError(f"box size {self.n!r} is not an integer")
        if self.n < 1:
            raise ValueError("box size must be at least 1")


@dataclass(frozen=True)
class CatalogEntry:
    """One equivalence class: its validated canonical polygon plus two tags.

    family and three_case stay None until a classification pass fills them.
    The vertices and the surface data are read-only properties of the
    polygon and of analyze(poly), which memoizes its report on the polygon."""

    poly: LdpPolygon
    family: FamilyParams | None = None
    three_case: str | None = None

    vertices = property(lambda self: tuple(v.as_tuple() for v in self.poly.vertices))
    d = property(lambda self: self.poly.d)
    picard_number = property(lambda self: analyze(self.poly).picard_number)
    dets = property(lambda self: analyze(self.poly).dets)
    f_values = property(lambda self: analyze(self.poly).f_values)
    singular_count = property(lambda self: analyze(self.poly).singular_count)

    def polygon(self) -> LdpPolygon:
        return self.poly


def primitive_points(n: int) -> list[RayVector]:
    """Primitive vectors of the box, sorted by exact angular order."""
    pts = [
        RayVector(x, y)
        for x in range(-n, n + 1)
        for y in range(-n, n + 1)
        if (x, y) != (0, 0) and is_primitive(RayVector(x, y))
    ]
    return angular_sort(pts)


def _chains_from(pts: list[tuple[int, int]], start: int) -> list[tuple[tuple[int, int], ...]]:
    """All LDP cycles, as int tuples, whose angularly smallest vertex is
    pts[start]; pts is primitive_points as int tuples."""
    found: list[tuple[tuple[int, int], ...]] = []
    fx, fy = pts[start]
    total = len(pts)

    def extend(chain: list[int], last_index: int) -> None:
        # Inline det2 and the vertex turn: (ex, ey) is the last edge of the chain.
        lx, ly = pts[chain[-1]]
        px, py = pts[chain[-2]] if len(chain) >= 2 else (lx, ly)
        ex, ey = lx - px, ly - py
        if len(chain) >= 3:
            sx, sy = pts[chain[1]]
            if (
                lx * fy - fx * ly >= 1
                and ex * (fy - ly) - (fx - lx) * ey >= 1
                and (fx - lx) * (sy - fy) - (sx - fx) * (fy - ly) >= 1
            ):
                found.append(tuple(pts[j] for j in chain))
        for nxt in range(last_index + 1, total):
            cx, cy = pts[nxt]
            if lx * cy - cx * ly < 1:
                continue
            if len(chain) >= 2 and ex * (cy - ly) - (cx - lx) * ey < 1:
                continue
            chain.append(nxt)
            extend(chain, nxt)
            chain.pop()

    extend([start], start)
    return found


def enumerate_raw(n: int) -> list[tuple[RayVector, ...]]:
    """Every LDP polygon cycle with vertices in the box, one rotation each
    (starting at the angularly smallest vertex), each one validated."""
    pts = [v.as_tuple() for v in primitive_points(n)]
    chains = (chain for start in range(len(pts)) for chain in _chains_from(pts, start))
    return [validate_ldp_polygon(chain).vertices for chain in chains]


# The signed permutations of the square other than the identity, as
# (a, b, c, d) for (x, y) -> (a*x + b*y, c*x + d*y).
_SQUARE_SYMMETRIES = (
    (-1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, -1),
    (0, 1, 1, 0), (0, -1, 1, 0), (0, 1, -1, 0), (0, -1, -1, 0),
)


def _is_orbit_least(key: list[tuple[int, int]]) -> bool:
    """True iff the sorted vertex list `key` is least in its D4 orbit.  Sorted
    lists compare by their least vertex first, so an image is sorted only
    when its least vertex ties with key[0]."""
    first = key[0]
    for a, b, c, d in _SQUARE_SYMMETRIES:
        image = [(a * x + b * y, c * x + d * y) for x, y in key]
        least = min(image)
        if least < first or (least == first and sorted(image) < key):
            return False
    return True


def _shard_worker(args: tuple[list[tuple[int, int]], int]) -> set[tuple[tuple[int, int], ...]]:
    pts, start = args
    out: set[tuple[tuple[int, int], ...]] = set()
    for chain in _chains_from(pts, start):
        # Validate and canonicalize only the D4-orbit-least vertex set of each orbit.
        if not _is_orbit_least(sorted(chain)):
            continue
        form = canonical_form(validate_ldp_polygon(chain))
        out.add(tuple(v.as_tuple() for v in form.vertices))
    return out


def enumerate_ldp(box: BoxSpec | int, jobs: int | None = 1) -> list[CatalogEntry]:
    """All equivalence classes with a representative inside the box.

    Dedup by canonical form; the returned list is sorted by (d, vertices) and
    identical for every worker count.  jobs=None uses all logical cores.
    """
    if not isinstance(box, BoxSpec):
        box = BoxSpec(box)
    # Computed once per call and shared by every shard.
    pts = [v.as_tuple() for v in primitive_points(box.n)]
    shard_args = [(pts, s) for s in range(len(pts))]
    canon: set[tuple[tuple[int, int], ...]] = set()
    if jobs == 1:
        for args in shard_args:
            canon |= _shard_worker(args)
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            for part in pool.map(_shard_worker, shard_args):
                canon |= part
    entries = [CatalogEntry(validate_ldp_polygon(vertices)) for vertices in canon]
    entries.sort(key=lambda e: (e.d, e.vertices))
    return entries


def _classify(poly: LdpPolygon) -> tuple[SurfaceReport, FamilyParams | None, str | None]:
    """The one tagging path: analyze the polygon, then identify and
    classify_three as the singular count asks."""
    surf = analyze(poly)
    sc = surf.singular_count
    family = identify(poly) if sc in (1, 2, 3) else None
    three_case = _three_case(poly, sc, family) if sc == 3 else None
    return surf, family, three_case


def classify_catalog(entries: list[CatalogEntry]) -> list[CatalogEntry]:
    """Fill family and three_case for every entry (a separate, pure pass)."""
    out = []
    for entry in entries:
        _, family, three_case = _classify(entry.poly)
        out.append(replace(entry, family=family, three_case=three_case))
    return out


# verify_catalog's checks (a)-(f), in report order.
CHECKS = (
    "one_singular_unmatched", "two_singular_unmatched", "three_singular_unclassified",
    "alternating_d5", "noncontiguous", "half_plane_violations",
)


@dataclass
class VerificationReport:
    """Catalog-wide check results: for each name in CHECKS, the canonical
    vertex tuples of its counterexamples, so an all-empty report certifies
    the box."""

    total: int
    counterexamples: dict[str, list]
    note: str = BOX_CAVEAT

    @property
    def ok(self) -> bool:
        return not any(self.counterexamples.values())

    def to_dict(self) -> dict:
        checks = self.counterexamples.items()
        found = {name: [list(map(list, v)) for v in vs] for name, vs in checks}
        return {"total": self.total, **found, "ok": self.ok, "note": self.note}


def _is_alternating_d5(singular_indices: tuple[int, ...], d: int) -> bool:
    # True when, after some rotation, exactly cones 1, 3, 5 are singular.
    if d != 5 or len(singular_indices) != 3:
        return False
    base = {i - 1 for i in singular_indices}
    return any({(i + k) % 5 for i in base} == {0, 2, 4} for k in range(5))


def _violates_half_plane(poly: LdpPolygon, surf: SurfaceReport) -> bool:
    # Check (f): a nonsingular cone sandwiched between two singular ones.
    d = surf.d
    singular = [det >= 2 for det in surf.dets]  # singular[i - 1]: cone i
    for i in range(1, d + 1):
        if singular[i - 2] and singular[i % d] and not singular[i - 1]:
            if det2(poly.ray(i + 2), poly.ray(i - 1)) < 2 or surf.singular_count < 3:
                return True
    return False


def verify_catalog(entries: list[CatalogEntry]) -> VerificationReport:
    """Run the structural checks the small-singular-count theory predicts.

    (a) every 1-singular entry matches a dais family;
    (b) every 2-singular entry matches two1/two2/two3 and has d <= 5;
    (c) every 3-singular entry classifies (picard_le_two / family_d5 /
        blowup_of_picard3) and has d <= 6;
    (d) no d=5 entry has singular cones in the rotated {1, 3, 5} pattern;
    (e) every entry has its singular cones in one contiguous arc;
    (f) whenever two singular cones sandwich a single nonsingular one, the
        outer ray pair spans determinant >= 2 and the entry has >= 3 singular
        points in total (d >= 4 entries).
    """
    found: dict[str, list] = {name: [] for name in CHECKS}
    for entry in entries:
        surf, family, three_case = _classify(entry.poly)
        sc, d = surf.singular_count, surf.d
        verdicts = {
            "one_singular_unmatched": sc == 1 and family is None,
            "two_singular_unmatched": sc == 2 and (family is None or d > 5),
            "three_singular_unclassified": sc == 3 and (three_case == "none" or d > 6),
            "alternating_d5": _is_alternating_d5(surf.singular_indices(), d),
            "noncontiguous": not nonsingular_arc_contiguous(surf),
            "half_plane_violations": d >= 4 and _violates_half_plane(entry.poly, surf),
        }
        for name, failed in verdicts.items():
            if failed:
                found[name].append(entry.vertices)
    return VerificationReport(len(entries), found)

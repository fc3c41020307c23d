"""Exhaustive enumeration of LDP polygons with vertices in a coordinate box,
up to unimodular equivalence, plus catalog-wide structural checks.

The search walks primitive lattice vectors of the box in exact angular order.
A polygon's counterclockwise cycle, started at any of its vertices, visits
strictly increasing angles within one turn, so chains over the vector list,
rotated to start at that vertex, with strictly increasing positions find
every cycle through it exactly once.  Consecutive determinants >= 1 keep
each angular step below a half-turn, which makes the once-around winding
automatic at closure.  Strict-left-turn pruning is exact: the turn at a
vertex equals its f-value, so partial chains that already violate the log
del Pezzo condition are cut immediately.  The DFS runs on lists of plain int
tuples and emits int-tuple chains.

The 8 signed permutations of the square (the group D4) lie in GL(2, Z) and map
the box onto itself, so the raw cycles are closed under D4 and each orbit lies
in one class.  Each class therefore keeps a cycle whose sorted vertex list
`key` is the least in its D4 orbit, and only those cycles are canonicalized.
Sorted lists compare by their least vertex first, so such a cycle has
g.v >= key[0] for every vertex v and every g in D4.  The walk is therefore
rooted at that least vertex s = key[0]: the roots are the points with
g.s >= s for all g, and a root's candidates are the points v whose least
D4 image is >= s, in angular order starting at s.  Every cycle through s
has exactly one rotation starting at s, so the chains kept by the orbit
test, and hence the classes, are exactly those of the unrooted walk, which
enumerate_raw keeps.  After rooting, no image of a chain has a vertex
below s, so an image can tie with `key` only when it contains s, and only
those images are sorted.

The shards (one per root and second vertex, so that no root's walk holds a
worker alone) reduce each kept chain to its canonical key on int tuples and
validate nothing.  Each class is validated once, when its CatalogEntry is
built from the key; a unimodular image is valid exactly when its chain is,
so this checks every catalog class.  This entries stage runs in the parent:
it groups the keys by vertex count and first three vertices, sorts each
group on its own and joins the groups in order, the (d, vertices) order,
then builds the entries with the cyclic collector paused, since they hold
no reference cycle, and restores the collector as the caller had it.
enumerate_raw validates every raw cycle.  Each catalog entry keeps its
validated polygon, so an in-process enumerate, classify and verify
validates and analyzes each class once.  enumerate_ldp merges the shard
results in shard order in one loop, whether they come from map in process
(jobs == 1) or from _pooled's ProcessPoolExecutor, which takes one shard
per task; a worker that dies breaks the pool, which raises WorkerPoolError
instead of waiting on a replacement.
"""

from __future__ import annotations

import gc
import time

from .lattice import RayVector, _Record, checked_i64, det2, is_primitive
from .polygon import LdpPolygon, angular_sort, validate_ldp_polygon
from .surface import SurfaceReport, analyze, nonsingular_arc_contiguous
from .equivalence import _canonical_key
from .families import FamilyParams, classify_three, identify

BOX_CAVEAT = (
    "classes whose every representative needs coordinates beyond the box are absent; "
    "all findings are no-counterexample-within-the-box statements"
)


class BoxSpec(_Record):
    """Search box [-n, n] x [-n, n]; n must be an int in 1..I64_MAX."""

    __slots__ = ()
    _fields = ("n",)

    def __new__(cls, n: int) -> "BoxSpec":
        if checked_i64(n, "box size") < 1:
            raise ValueError("box size must be at least 1")
        return tuple.__new__(cls, (n,))


class CatalogEntry(_Record):
    """One equivalence class: its validated canonical polygon plus two tags.

    family and three_case stay None until a classification pass fills them.
    The vertices and the surface data are read-only properties of the
    polygon and of analyze(poly), which memoizes its report on the polygon."""

    __slots__ = ()
    _fields = ("poly", "family", "three_case")

    def __new__(cls, poly: LdpPolygon, family: FamilyParams | None = None, three_case: str | None = None):
        return tuple.__new__(cls, (poly, family, three_case))

    vertices = property(lambda self: self.poly.vertices)
    d = property(lambda self: self.poly.d)
    picard_number = property(lambda self: analyze(self.poly).picard_number)
    dets = property(lambda self: analyze(self.poly).dets)
    f_values = property(lambda self: analyze(self.poly).f_values)
    singular_count = property(lambda self: analyze(self.poly).singular_count)

    def polygon(self) -> LdpPolygon:
        return self.poly


class EnumerationStats:
    """The work of one enumerate_ldp call, filled in when passed as `stats`;
    the counts are the same for every worker count.

    roots: walk roots; raw_chains: the LDP cycles that each (root, second
    vertex) shard found, in shard order; canonicalizations: the cycles kept
    by the D4 orbit test, one canonical key each; classes: distinct keys.
    seconds per stage: "dfs", "orbit_test" and "canonical_key" summed over
    the shards (inside the workers when jobs > 1), then the wall times
    "shard_loop" and "entries" (sorting the keys in groups by d and first
    three vertices, then validating each into its entry with the collector
    paused).
    vars(stats) is the record as a dict.  Not a dataclass: the dataclass()
    call would compile its methods at import, about 0.7 ms, a third of the
    package's import time with bytecode present."""

    def __init__(self) -> None:
        self.roots = 0
        self.raw_chains: list[int] = []
        self.canonicalizations = 0
        self.classes = 0
        self.seconds: dict[str, float] = {}


def primitive_points(n: int) -> list[RayVector]:
    """Primitive vectors of the box, sorted by exact angular order."""
    grid = (RayVector(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1))
    return angular_sort(filter(is_primitive, grid))


Chain = tuple[tuple[int, int], ...]


def _first_edges(pts: list[tuple[int, int]], i: int) -> list[list[int]]:
    """The first edges [i, j] of the chains from pts[i]: each later j with det(pts[i], pts[j]) >= 1."""
    sx, sy = pts[i]
    return [[i, j] for j in range(i + 1, len(pts)) if sx * pts[j][1] - pts[j][0] * sy >= 1]


def _chains_from(pts: list[tuple[int, int]], prefix: list[int]) -> list[Chain]:
    """All LDP cycles, as int tuples, that begin with the points pts[i] for i
    in `prefix` and go on through strictly increasing positions of `pts`.

    pts is a list of primitive int tuples in angular order starting at
    pts[prefix[0]] (primitive_points, or a rotation of a sublist of it), and
    the prefix is a valid partial chain of two points or more: increasing
    positions, consecutive determinants >= 1 and strict left turns."""
    found: list[Chain] = []
    _extend(pts, found, list(prefix))
    return found


def _extend(pts: list[tuple[int, int]], found: list[Chain], chain: list[int]) -> None:
    """_chains_from's step: append to `found` every LDP cycle that extends
    the partial chain `chain`, of two points or more, past its last position."""
    # Inline det2 and the vertex turn: (ex, ey) is the last edge of the chain.
    lx, ly = pts[chain[-1]]
    px, py = pts[chain[-2]]
    ex, ey = lx - px, ly - py
    if len(chain) >= 3:
        (fx, fy), (sx, sy) = pts[chain[0]], pts[chain[1]]
        if (
            lx * fy - fx * ly >= 1
            and ex * (fy - ly) - (fx - lx) * ey >= 1
            and (fx - lx) * (sy - fy) - (sx - fx) * (fy - ly) >= 1
        ):
            found.append(tuple(pts[j] for j in chain))
    for nxt in range(chain[-1] + 1, len(pts)):
        cx, cy = pts[nxt]
        if lx * cy - cx * ly < 1 or ex * (cy - ly) - (cx - lx) * ey < 1:
            continue
        chain.append(nxt)
        _extend(pts, found, chain)
        chain.pop()


def enumerate_raw(n: int) -> list[tuple[RayVector, ...]]:
    """Every LDP polygon cycle with vertices in the box, one rotation each
    (starting at the angularly smallest vertex), each one validated: the
    unrooted walk."""
    pts = list(map(tuple, primitive_points(n)))
    edges = (edge for i in range(len(pts)) for edge in _first_edges(pts, i))
    return [validate_ldp_polygon(chain).vertices for edge in edges for chain in _chains_from(pts, edge)]


# The signed permutations of the square other than the identity, as
# (a, b, c, d) for (x, y) -> (a*x + b*y, c*x + d*y).
_SQUARE_SYMMETRIES = (
    (-1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, -1),
    (0, 1, 1, 0), (0, -1, 1, 0), (0, 1, -1, 0), (0, -1, -1, 0),
)


def _shards(pts: list[tuple[int, int]]) -> list[tuple[list[tuple[int, int]], list[int]]]:
    """(candidates, [0, j]) per root and first edge [0, j] (_first_edges),
    over the angularly sorted box points `pts`; the module docstring says
    which points are roots and candidates."""
    least = [
        min([(x, y)] + [(a * x + b * y, c * x + d * y) for a, b, c, d in _SQUARE_SYMMETRIES])
        for x, y in pts
    ]
    shards = []
    for i, (sx, sy) in enumerate(pts):
        if least[i] == (sx, sy):
            cands = [p for p, m in zip(pts[i:] + pts[:i], least[i:] + least[:i]) if m >= (sx, sy)]
            shards += [(cands, edge) for edge in _first_edges(cands, 0)]
    return shards


def _root_preimages(s: tuple[int, int]) -> list[tuple[tuple[int, int], tuple[int, int, int, int]]]:
    """(g^-1 s = g^T s, g) for every g in _SQUARE_SYMMETRIES."""
    sx, sy = s
    return [((a * sx + c * sy, b * sx + d * sy), (a, b, c, d)) for a, b, c, d in _SQUARE_SYMMETRIES]


def _is_orbit_least(chain: Chain, preimages: list) -> bool:
    """True iff the sorted vertex list of a rooted chain is least in its D4
    orbit, sorting only the images that contain the root s = chain[0]: those
    of g whose preimage g^-1 s is a vertex.  `preimages` is
    _root_preimages(s), which a shard computes once."""
    key = None
    for pre, (a, b, c, d) in preimages:
        if pre in chain:
            key = key or sorted(chain)
            if sorted([(a * x + b * y, c * x + d * y) for x, y in chain]) < key:
                return False
    return True


def _shard_worker(shard: tuple[list[tuple[int, int]], list[int]]):
    """(canonical keys of its orbit-least chains, raw chains, kept chains,
    (dfs, orbit test, canonical key) seconds) of one shard."""
    cands, prefix = shard
    t0 = time.perf_counter()
    chains = _chains_from(cands, prefix)
    t1 = time.perf_counter()
    preimages = _root_preimages(cands[prefix[0]])
    kept = [chain for chain in chains if _is_orbit_least(chain, preimages)]
    t2 = time.perf_counter()
    keys = {_canonical_key(chain) for chain in kept}
    t3 = time.perf_counter()
    return keys, len(chains), len(kept), (t1 - t0, t2 - t1, t3 - t2)


class WorkerPoolError(RuntimeError):
    """A worker process of enumerate_ldp's pool died before it returned its
    shard, for example a spawned worker that could not re-run the main
    module."""


def _pooled(shards: list, jobs: int | None):
    """_shard_worker's results on every shard, in shard order, from a pool
    of `jobs` processes (None: all logical cores).  A worker that dies
    breaks the pool, which raises WorkerPoolError and starts no replacement."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        # Shard sizes span three orders of magnitude and there are only tens
        # of shards, so the pool takes one shard per task.  map yields in
        # shard order and drops each result it yields, so a merged shard's
        # keys are freed.
        yield from pool.map(_shard_worker, shards)
    except BrokenProcessPool:
        method = multiprocessing.get_start_method()
        raise WorkerPoolError(
            f"a worker of the {method} pool died before returning its shard "
            f"({method} workers re-import the main module, which must be an importable file)"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)


def enumerate_ldp(
    box: BoxSpec | int, jobs: int | None = 1, stats: EnumerationStats | None = None
) -> list[CatalogEntry]:
    """All equivalence classes with a representative inside the box.

    Dedup by canonical form; the returned list is sorted by (d, vertices) and
    identical for every worker count.  jobs is None, for all logical cores,
    or an int of at least 1; with more than one job the shards run in a
    process pool, and a pool whose worker dies raises WorkerPoolError.
    `stats`, when given, is filled in with this call's work.
    """
    if not isinstance(box, BoxSpec):
        box = BoxSpec(box)
    if jobs is not None and (type(jobs) is not int or jobs < 1):  # not isinstance: bool is an int
        raise ValueError(f"jobs {jobs!r} is not None or an integer of at least 1")
    t0 = time.perf_counter()
    shards = _shards(list(map(tuple, primitive_points(box.n))))
    results = map(_shard_worker, shards) if jobs == 1 else _pooled(shards, jobs)
    canon: set[Chain] = set()
    raw = []
    kept = 0
    stage = [0.0, 0.0, 0.0]
    for keys, n_raw, n_kept, seconds in results:
        canon |= keys
        raw.append(n_raw)
        kept += n_kept
        stage = [total + s for total, s in zip(stage, seconds)]
    t1 = time.perf_counter()
    # A key is its entry's vertex list: grouped by d and first three vertices,
    # each group sorted on its own, the groups joined in order give the
    # (d, vertices) order in fewer compares than one sort.
    groups: dict[tuple, list[Chain]] = {}
    for key in canon:
        groups.setdefault((len(key), key[:3]), []).append(key)
    for group in groups.values():
        group.sort()
    # The entries hold no reference cycle: pause the collector while they are built.
    enabled = gc.isenabled()
    gc.disable()
    try:
        entries = [CatalogEntry(validate_ldp_polygon(key)) for prefix in sorted(groups) for key in groups[prefix]]
    finally:
        if enabled:
            gc.enable()
    if stats is not None:
        stats.roots = len({cands[0] for cands, _ in shards})
        stats.raw_chains, stats.canonicalizations, stats.classes = raw, kept, len(entries)
        stats.seconds = dict(zip(("dfs", "orbit_test", "canonical_key"), stage))
        stats.seconds.update(shard_loop=t1 - t0, entries=time.perf_counter() - t1)
    return entries


def _classify(poly: LdpPolygon) -> tuple[SurfaceReport, FamilyParams | None, str | None]:
    """The one tagging path: analyze the polygon, then identify and
    classify_three as the singular count asks."""
    surf = analyze(poly)
    sc = surf.singular_count
    family = identify(poly) if sc in (1, 2, 3) else None
    three_case = classify_three(poly) if sc == 3 else None
    return surf, family, three_case


def classify_catalog(entries: list[CatalogEntry]) -> list[CatalogEntry]:
    """Fill family and three_case for every entry (a separate, pure pass)."""
    out = []
    for entry in entries:
        _, family, three_case = _classify(entry.poly)
        out.append(CatalogEntry(entry.poly, family, three_case))
    return out


# verify_catalog's checks (a)-(f), in report order.
CHECKS = (
    "one_singular_unmatched", "two_singular_unmatched", "three_singular_unclassified",
    "alternating_d5", "noncontiguous", "half_plane_violations",
)


class VerificationReport(_Record):
    """Catalog-wide check results: for each name in CHECKS, the canonical
    vertex tuples of its counterexamples, so an all-empty report certifies
    the box.  Its dict field makes hash() raise."""

    __slots__ = ()
    _fields = ("total", "counterexamples")
    note = BOX_CAVEAT  # a class constant, not a field

    def __new__(cls, total: int, counterexamples: dict[str, list]) -> "VerificationReport":
        return tuple.__new__(cls, (total, counterexamples))

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
    Every tag is re-derived by _classify; the stored ones are never read.
    """
    found: dict[str, list] = {name: [] for name in CHECKS}
    for entry in entries:
        surf, family, three_case = _classify(entry.poly)
        sc, d = surf.singular_count, surf.d
        verdicts = (  # in CHECKS order
            sc == 1 and family is None,
            sc == 2 and (family is None or d > 5),
            sc == 3 and (three_case == "none" or d > 6),
            _is_alternating_d5(surf.singular_indices(), d),
            not nonsingular_arc_contiguous(surf),
            d >= 4 and _violates_half_plane(entry.poly, surf),
        )
        for name, failed in zip(CHECKS, verdicts):
            if failed:
                found[name].append(entry.vertices)
    return VerificationReport(len(entries), found)

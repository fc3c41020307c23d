"""GL(2, Z) equivalence testing and canonical forms for LDP polygons.

Two polygons are equivalent when an integer matrix of determinant +-1 maps
the vertex set of one onto the other.  One normalization decides this and
gives the canonical form.  An anchor (k, sign) is the adjacent vertex pair
pts[k], pts[(k + sign) % d] of the cycle as listed, read in place on the
walk pts[k], pts[k + sign], ...: forwards (sign 1), or backwards (sign -1)
with the sign of every determinant flipped, the one mirror convention.  Its
normalization is that walk under the unique map, of determinant the anchor's
sign, that sends its first vertex to (1, 0) and its second to (k, D) with
0 <= k < D.  The pair (k, D) depends only on the anchor pair
(x0, y0), (x1, y1): D is their determinant, and k is s*x1 + t*y1 reduced mod
D, for a Bezout row (s, t) of the first vertex (_bezout_row).  Any row will
do: two rows differ by a multiple of (y0, -x0), which shifts k by a multiple
of D, and the map's first row is the one row (a, b) with a*x0 + b*y0 = 1 and
a*x1 + b*y1 = k, whichever row gave k.  So the least pair is found first and
only the anchors tied for it are normalized in full (_tied_anchors; the
forward anchors alone when orientation_preserving).  The least normalization
is the canonical form: its candidate set depends only on the equivalence
class, never on the input coordinates or starting vertex, which makes it a
valid dedup key.  With a smooth cone the least pair is (0, 1), held by
exactly the determinant-1 pairs, and each of them normalizes to its basis
reading with no Bezout row; families.identify() reads the families off these
readings.  Each is read once, forwards: the backward reading of the same
pair, anchor (j + 1, -1) for forward anchor j, is the forward one with every
point swapped, read backwards from the second point.  Without a smooth cone,
each vertex gets one Bezout row, for its forward and its backward anchor.

_canonical_key is the least normalization of a cycle's int tuples (the
enumeration shards' dedup key, no memo, no sort), read lazily.  It takes the
anchors _tied_anchors(pts, False) takes, the Bezout ones through the same
least-(k, D) selection (_least_ties), as maps.  Every tied reading starts
(1, 0), (k, D), so for t = 2, 3, ... it maps only point t of each anchor's
walk and keeps the anchors least there, until one anchor is left or all d
points are read, and then builds that anchor's reading alone.

canonical_form, identify and are_equivalent read the tied anchors memoized
in a polygon slot per flag (_normalizations), as analyze memoizes its
report.  The memo is sorted once, least first, so the canonical form and
its anchor are entry [0]; its det-1 test reads the cone determinants of
analyze's report: the one validation left on the polygon, or for a
canonical form the one analyze computes.
are_equivalent takes q's entry [0]; each tied anchor of r with the same
normalization gives one connecting map, and every connecting map arises so.
So two polygons are equivalent exactly when their least normalizations
agree, and r's anchors that give maps are the first of its memo.  Their
order keys come from the anchor indices alone, and Cramer's rule on exact
ints runs once for the returned map, again only after an entry overflows.
The 64-bit contract is enforced once, when the returned UnimodularMap is
built, never on the normalization, so a class whose form leaves the 64-bit
range still gets its maps.  The form is an LdpPolygon, not re-validated: a
determinant +-1 map carries the validated input onto it, so its cone
determinants and vertex turns are the input's, already held to the 64-bit
contract.  Its coordinates are checked when they become RayVectors.
"""

from __future__ import annotations

from typing import Sequence

from .lattice import (
    IDENTITY_MAP,
    LatticeOverflowError,
    UnimodularMap,
    apply_map,
    compose_maps,
    pair_rays,
)
from .polygon import FanCycle, LdpPolygon, validate_ldp_polygon
from .surface import analyze


def _bezout_row(x: int, y: int) -> tuple[int, int]:
    """A row (s, t) with s*x + t*y == 1, for a primitive (x, y)."""
    if y == 0:
        return x, 0  # x is +-1
    s = pow(x, -1, abs(y))
    return s, (1 - s * x) // y


Reading = tuple[tuple[int, int], ...]
# An anchor (k, sign): the pair pts[k], pts[(k + sign) % d] of the cycle as
# listed, read forwards (sign 1) or backwards (sign -1).
Anchor = tuple[int, int]


def _read_on_pair(rot) -> Reading:
    """The int tuples `rot` mapped by the inverse of the matrix with columns
    a, b = rot[0], rot[1], whose determinant must be 1: that inverse sends v
    to (det(v, b), det(a, v))."""
    (ax, ay), (bx, by) = rot[0], rot[1]
    return tuple([(x * by - bx * y, ax * y - x * ay) for x, y in rot])


def _least_ties(pts: Sequence[tuple[int, int]], signs: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, ties) for the least (k, D) over the anchors (k, sign) of `pts`,
    sign in `signs`: (s, t, k, sign) for each anchor tied there, (s, t) a
    Bezout row of pts[k]."""
    d = len(pts)
    least = None
    # Each span is recomputed here: reading it from the cone dets measured slower.
    for k, (x0, y0) in enumerate(pts):
        s, t = _bezout_row(x0, y0)
        for sign in signs:
            x1, y1 = pts[(k + sign) % d]
            span = sign * (x0 * y1 - x1 * y0)
            key = ((s * x1 + t * y1) % span, span)
            if least is None or key < least:
                least, ties = key, [(s, t, k, sign)]
            elif key == least:
                ties.append((s, t, k, sign))
    return least[1], ties


def _tied_anchors(pts: Sequence[tuple[int, int]], orientation_preserving: bool,
                  dets: Sequence[int]) -> list[tuple[Reading, Anchor]]:
    """(normalization, anchor) for every anchor of the int-tuple cycle `pts`
    tied at the least (k, D), over the forward anchors only when
    orientation_preserving and over both orientations together otherwise.
    `dets` are the cone determinants of `pts`."""
    d = len(pts)
    # A smooth cone: the least (k, D) is (0, 1), held by exactly the
    # determinant-1 pairs, and each of them normalizes to its basis reading.
    tied = [(_read_on_pair(pts[i:] + pts[:i]), (i, 1)) for i, det in enumerate(dets) if det == 1]
    if tied:
        if orientation_preserving:
            return tied
        # Backwards, anchor (j + 1, -1) is forward anchor j reversed.  Its
        # reading is j's reading F, each point swapped, in the order F[1], F[0],
        # F[d - 1], ..., F[2].
        back = [(tuple([(y, x) for x, y in rd[1::-1] + rd[:1:-1]]), ((j + 1) % d, -1)) for rd, (j, _) in tied]
        return tied + back
    # One Bezout row per vertex, for its forward anchor and its backward one.
    span, ties = _least_ties(pts, (1,) if orientation_preserving else (1, -1))
    for s, t, k, sign in ties:
        # The walk pts[k], pts[k + sign], ...; row (s, t) plus the shear that
        # reduces the second vertex mod span.
        rot = pts[k:] + pts[:k] if sign == 1 else pts[k::-1] + pts[:k:-1]
        (x0, y0), (x1, y1) = rot[0], rot[1]
        q = (s * x1 + t * y1) // span
        a, b = s + sign * q * y0, t - sign * q * x0
        tied.append((tuple([(a * x + b * y, sign * (x0 * y - y0 * x)) for x, y in rot]), (k, sign)))
    return tied


def _normalizations(poly: FanCycle, orientation_preserving: bool) -> list[tuple[Reading, Anchor]]:
    """_tied_anchors of the rays of any FanCycle `poly`, least first: sorted
    and memoized in its slot for the flag on the first call, like analyze's
    report, whose cone dets it reads.  Exact ints, never range-checked."""
    slot = "_tied_oriented" if orientation_preserving else "_tied"
    tied = getattr(poly, slot, None)
    if tied is None:
        tied = sorted(_tied_anchors(poly.rays, orientation_preserving, analyze(poly).dets))
        object.__setattr__(poly, slot, tied)  # FanCycle is frozen
    return tied


def _canonical_key(pts: Sequence[tuple[int, int]]) -> Reading:
    """The vertices of canonical_form(poly), as int tuples, straight from the
    int tuples of a valid LDP cycle: no validation, no RayVectors, no memo.
    The anchors that _tied_anchors(pts, False) ties, as maps
    (a, b, c, e, k, sign) sending v on the walk of anchor (k, sign) to
    (a*x + b*y, c*x + e*y), are eliminated point by point; only the least
    one's reading is built."""
    d = len(pts)
    maps = []
    # The smooth cone's own scan skips the Bezout rows: over all kept chains it
    # measured 30% faster at box 1, 25% at box 2, even at box 3, 2% slower at box 4.
    for k, ((ax, ay), (bx, by)) in enumerate(zip(pts, pts[1:] + pts[:1])):
        if ax * by - bx * ay == 1:
            # Forward anchor k sends v to (det(v, b), det(a, v)); backward
            # anchor k + 1 to the same point swapped.
            maps += [(by, -bx, -ay, ax, k, 1), (-ay, ax, by, -bx, (k + 1) % d, -1)]
    if not maps:
        span, ties = _least_ties(pts, (1, -1))
        for s, t, k, sign in ties:
            # Row (s, t) plus the shear that reduces the second vertex mod span.
            (x0, y0), (x1, y1) = pts[k], pts[(k + sign) % d]
            q = (s * x1 + t * y1) // span
            maps.append((s + sign * q * y0, t - sign * q * x0, -sign * y0, sign * x0, k, sign))
    # Every tied reading starts (1, 0), (k, D): keep the maps least at point t.
    for t in range(2, d):
        if len(maps) == 1:
            break
        least = None
        for m in maps:
            a, b, c, e, k, sign = m
            x, y = pts[(k + sign * t) % d]
            p = (a * x + b * y, c * x + e * y)
            if least is None or p < least:
                least, keep = p, [m]
            elif p == least:
                keep.append(m)
        maps = keep
    a, b, c, e, k, sign = maps[0]
    rot = pts[k:] + pts[:k] if sign == 1 else pts[k::-1] + pts[:k:-1]
    return tuple([(a * x + b * y, c * x + e * y) for x, y in rot])


def canonical_form(poly: LdpPolygon, orientation_preserving: bool = False) -> LdpPolygon:
    """Deterministic, equivalence-invariant representative of the class of `poly`.

    With orientation_preserving=True only determinant +1 maps are allowed, so
    a chiral polygon and its mirror image get distinct forms.  The first of the
    normalizations memoized on `poly`, for either flag; for the default flag it
    equals _canonical_key's key (test_canonical_key_matches_canonical_form).
    Raises TypeError for a cycle that is not an LdpPolygon.
    """
    if not isinstance(poly, LdpPolygon):
        raise TypeError(f"canonical_form needs an LdpPolygon, got {type(poly).__name__}")
    form = _normalizations(poly, orientation_preserving)[0][0]
    return LdpPolygon(pair_rays(form))


def are_equivalent(
    q: LdpPolygon, r: LdpPolygon, orientation_preserving: bool = False
) -> UnimodularMap | None:
    """A unimodular map carrying the vertex set of q onto that of r, or None.

    The map returned is the first connecting map that fits 64 bits in the
    order of the index in r of the image of q's first vertex (determinant
    +1) or of its second (determinant -1), determinant +1 first on a tie.
    Raises LatticeOverflowError when every connecting map has an entry
    outside the signed 64-bit range, and TypeError when q or r is not an
    LdpPolygon.
    """
    if not (isinstance(q, LdpPolygon) and isinstance(r, LdpPolygon)):
        raise TypeError(f"are_equivalent needs LdpPolygons, got {type(q).__name__}, {type(r).__name__}")
    form, (i, s) = _normalizations(q, orientation_preserving)[0]
    n = q.d
    # r's normalizations equal to q's least one come first, least first.
    maps = []
    for r_form, (j, e) in _normalizations(r, orientation_preserving):
        if r_form != form:
            break
        # With indices as listed, the map sends q_pts[i + s*t] to r_pts[j + e*t]
        # and has determinant e*s, so q_pts[0] goes to r_pts[j - i] when that
        # is +1, and q_pts[1] to r_pts[j + i - 1] when -1.  No two maps share this key.
        maps.append((((j - i) % n, 0) if e == s else ((j + i - 1) % n, 1), j, e))
    if not maps:
        return None
    q_pts, r_pts = q.vertices, r.vertices
    (x1, y1), (x2, y2) = q_pts[i], q_pts[(i + s) % n]
    base = x1 * y2 - x2 * y1
    overflow = None
    for _, j, e in sorted(maps):
        # Cramer on the anchor pairs is exact, since the map is integral.
        (u1, z1), (u2, z2) = r_pts[j], r_pts[(j + e) % n]
        try:
            return UnimodularMap(
                (u1 * y2 - u2 * y1) // base,
                (x1 * u2 - x2 * u1) // base,
                (z1 * y2 - z2 * y1) // base,
                (x1 * z2 - x2 * z1) // base,
            )
        except LatticeOverflowError as exc:
            overflow = overflow or exc
    raise overflow


def apply_to_polygon(m: UnimodularMap, poly: LdpPolygon) -> LdpPolygon:
    """Image polygon under a determinant +-1 map, re-validated.

    A determinant -1 map reverses the cycle orientation, so the image list is
    reversed before validation.
    """
    det = m.det()
    if det not in (1, -1):
        raise ValueError(f"map determinant {det} is not +-1")
    images = [apply_map(m, v) for v in poly.vertices]
    if det == -1:
        images.reverse()
    return validate_ldp_polygon(images)


_ELEMENTARY_MAPS = (
    UnimodularMap(1, 1, 0, 1),
    UnimodularMap(1, -1, 0, 1),
    UnimodularMap(1, 0, 1, 1),
    UnimodularMap(1, 0, -1, 1),
    UnimodularMap(0, 1, 1, 0),
)


def random_unimodular_map(rng: random.Random, max_entry: int = 5) -> UnimodularMap:
    """Random product of elementary shears and the swap, entries capped at
    max_entry.  rng is a random.Random; annotations are not evaluated, so
    this module does not import random."""
    m = IDENTITY_MAP
    for _ in range(rng.randint(1, 12)):
        candidate = compose_maps(rng.choice(_ELEMENTARY_MAPS), m)
        entries = (candidate.a, candidate.b, candidate.c, candidate.d)
        if max(abs(e) for e in entries) > max_entry:
            break
        m = candidate
    return m

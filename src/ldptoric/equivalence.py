"""GL(2, Z) equivalence testing and canonical forms for LDP polygons.

Two polygons are equivalent when an integer matrix of determinant +-1 maps
the vertex set of one onto the other.  Any such map carries adjacent vertex
pairs to adjacent vertex pairs, so equivalence is decidable by solving for
the map on one fixed pair against every ordered adjacent pair of the target.
Only targets whose determinant is +-det of that pair can succeed, so only
those are solved, by Cramer's rule on exact ints, and the image set is
compared on exact ints; the 64-bit contract is enforced once, when the
returned UnimodularMap is built.

The canonical form picks a distinguished representative of each class: every
rotation of the vertex cycle (and of the mirrored cycle, unless restricted to
determinant +1) is normalized by the unique determinant-one map that sends
its leading vertex to (1, 0) and its second vertex to (k, D) with
0 <= k < D; the lexicographically least normalized vertex list wins.  The
candidate set depends only on the equivalence class, never on the input
coordinates or starting vertex, which makes the form a valid dedup key.
The mirrored cycle is the cycle read backwards with the sign of every
determinant flipped (_orientations), the one mirror convention here.

The pair (k, D) depends only on the anchor pair (D is their determinant, k
the Bezout row applied to the second vertex, reduced mod D), so the least
pair is found first and only the anchors tied for it are normalized in full.
With a smooth cone the least pair is (0, 1), held by exactly the
determinant-1 pairs, and the normalization of such a pair is its basis
reading: the form is the least of basis_readings(), the ccw ones alone when
orientation_preserving.  basis_readings() is memoized on the polygon, like
analyze's report, and families.identify() reads the families off the same
readings.  Without a smooth cone, each vertex gets one Bezout row, shared by
both orientations (_bezout_key).  This runs on exact int tuples:
_canonical_key is the form's vertex list computed from a cycle's int tuples
(the enumeration shards' dedup key), and canonical_form is the same two
helpers on a polygon's memoized readings.  The form is an LdpPolygon, not
re-validated: a determinant +-1 map carries the validated input onto it, so
its cone determinants and vertex turns are the input's, already held to the
64-bit contract.  Its coordinates are checked when they become RayVectors.
"""

from __future__ import annotations

import random
from typing import Sequence

from .lattice import (
    IDENTITY_MAP,
    LatticeOverflowError,
    RayVector,
    UnimodularMap,
    apply_map,
    compose_maps,
)
from .polygon import LdpPolygon, twice_area, validate_ldp_polygon


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


Reading = tuple[tuple[int, int], ...]


def _read_on_pair(rot, sign: int = 1) -> Reading:
    """The int tuples `rot` mapped by the inverse of the matrix with columns
    a, b = rot[0], rot[1], whose determinant must be sign = +-1: that inverse
    sends v to sign * (det(v, b), det(a, v))."""
    (ax, ay), (bx, by) = rot[0], rot[1]
    return tuple((sign * (x * by - bx * y), sign * (ax * y - x * ay)) for x, y in rot)


def _orientations(pts: Sequence[tuple[int, int]]):
    """The cycle read forwards with sign 1 and backwards with sign -1, the one
    mirror convention: the backwards cycle's pairs have determinant -det, and
    normalizing it with the sign flipped gives exactly the normalizations of
    the mirrored cycle [(x, -y) for (x, y) in reversed(pts)]."""
    return ((pts, 1), (pts[::-1], -1))


def _readings(pts: Sequence[tuple[int, int]]) -> tuple[tuple[Reading, ...], tuple[Reading, ...]]:
    """basis_readings of the int-tuple cycle `pts`, without the memo."""
    return tuple(
        tuple(
            _read_on_pair(cyc[i:] + cyc[:i], sign)
            for i, ((ax, ay), (bx, by)) in enumerate(zip(cyc, cyc[1:] + cyc[:1]))
            if ax * by - bx * ay == sign
        )
        for cyc, sign in _orientations(pts)
    )


def basis_readings(poly: LdpPolygon) -> tuple[tuple[Reading, ...], tuple[Reading, ...]]:
    """(ccw, mirrored): the vertex cycles of `poly` remapped so the leading
    two rays become the standard basis, one reading per adjacent
    determinant-1 ray pair, read forwards and backwards (_orientations).

    Each reading is the image of `poly` under a determinant +-1 map (+1 for
    the ccw readings), and every such equivalence onto a polygon whose list
    starts (1,0), (0,1) shows up among them.  Exact ints, never range-checked.
    Computed on the first call for a polygon object and memoized on it as
    `_readings`, like analyze's report."""
    readings = poly.__dict__.get("_readings")
    if readings is None:
        readings = _readings([v.as_tuple() for v in poly.vertices])
        object.__setattr__(poly, "_readings", readings)  # FanCycle is frozen
    return readings


def _bezout_key(pts: Sequence[tuple[int, int]], orientation_preserving: bool) -> Reading:
    """The least normalization of the int-tuple cycle `pts`, for a cycle
    without a smooth cone."""
    # One Bezout row per vertex, shared by both orientations: k is reduced
    # mod the span, so any row gives the same key and the same normalization.
    rows = {p: _ext_gcd(*p)[1:] for p in pts}
    orientations = _orientations(pts)
    anchors = []
    for cyc, sign in orientations[:1] if orientation_preserving else orientations:
        for i, (x0, y0) in enumerate(cyc):
            x1, y1 = cyc[(i + 1) % len(cyc)]
            s, t = rows[x0, y0]
            span = sign * (x0 * y1 - x1 * y0)
            anchors.append(((s * x1 + t * y1) % span, span, s, t, cyc, sign, i))
    least = min(anchor[:2] for anchor in anchors)
    best: Reading | None = None
    for k, span, s, t, cyc, sign, i in anchors:
        if (k, span) == least:
            # Row (s, t) plus the shear that reduces the second vertex mod span.
            rot = cyc[i:] + cyc[:i]
            (x0, y0), (x1, y1) = rot[0], rot[1]
            q = (s * x1 + t * y1) // span
            a, b = s + sign * q * y0, t - sign * q * x0
            candidate = tuple((a * x + b * y, sign * (x0 * y - y0 * x)) for x, y in rot)
            if best is None or candidate < best:
                best = candidate
    assert best is not None
    return best


def _canonical_key(pts: Sequence[tuple[int, int]], orientation_preserving: bool = False) -> Reading:
    """The vertices of canonical_form, as int tuples, straight from the int
    tuples of a valid LDP cycle: no validation, no RayVectors, no memo."""
    ccw, mirrored = _readings(pts)
    if ccw:
        return min(ccw if orientation_preserving else ccw + mirrored)
    return _bezout_key(pts, orientation_preserving)


def canonical_form(poly: LdpPolygon, orientation_preserving: bool = False) -> LdpPolygon:
    """Deterministic, equivalence-invariant representative of the class of `poly`.

    With orientation_preserving=True only determinant +1 maps are allowed, so
    a chiral polygon and its mirror image get distinct forms.  _canonical_key
    on the polygon's int tuples, with the readings memoized on `poly`.
    """
    ccw, mirrored = basis_readings(poly)
    if ccw:
        # A smooth cone: the least key is (0, 1), held by exactly the
        # determinant-1 pairs, and each of them normalizes to its reading.
        best = min(ccw if orientation_preserving else ccw + mirrored)
    else:
        best = _bezout_key([v.as_tuple() for v in poly.vertices], orientation_preserving)
    return LdpPolygon(tuple(RayVector(x, y) for x, y in best))


def are_equivalent(
    q: LdpPolygon, r: LdpPolygon, orientation_preserving: bool = False
) -> UnimodularMap | None:
    """A unimodular map carrying the vertex set of q onto that of r, or None.

    Complete search: an equivalence must send the adjacent pair (v1, v2) of q
    to an ordered adjacent pair of r (reversed order for determinant -1 maps),
    so all 2 * d such targets are tried, in exact ints.  Raises
    LatticeOverflowError when every such map has an entry outside the signed
    64-bit range.
    """
    if q.d != r.d or twice_area(q) != twice_area(r):
        return None
    q_pts = [v.as_tuple() for v in q.vertices]
    r_pts = [v.as_tuple() for v in r.vertices]
    r_set = set(r_pts)
    (x1, y1), (x2, y2) = q_pts[0], q_pts[1]
    base = x1 * y2 - x2 * y1
    overflow = None
    for j in range(r.d):
        w, w_next = r_pts[j], r_pts[(j + 1) % r.d]
        # A map of determinant +-1 sends (v1, v2) to a pair of determinant
        # +-base, and only the forward (reversed) pair can have +base (-base).
        if w[0] * w_next[1] - w_next[0] * w[1] != base:
            continue
        targets = [(w, w_next)]
        if not orientation_preserving:
            targets.append((w_next, w))
        for (u1, z1), (u2, z2) in targets:
            # Cramer on the two rows of the map; an integral solution then
            # has determinant +-1.
            a, ra = divmod(u1 * y2 - u2 * y1, base)
            b, rb = divmod(x1 * u2 - x2 * u1, base)
            c, rc = divmod(z1 * y2 - z2 * y1, base)
            d, rd = divmod(x1 * z2 - x2 * z1, base)
            if ra or rb or rc or rd:
                continue
            if {(a * x + b * y, c * x + d * y) for x, y in q_pts} == r_set:
                try:
                    return UnimodularMap(a, b, c, d)
                except LatticeOverflowError as exc:
                    overflow = overflow or exc
    if overflow is not None:
        raise overflow
    return None


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
    """Random product of elementary shears and the swap, entries capped at max_entry."""
    m = IDENTITY_MAP
    for _ in range(rng.randint(1, 12)):
        candidate = compose_maps(rng.choice(_ELEMENTARY_MAPS), m)
        entries = (candidate.a, candidate.b, candidate.c, candidate.d)
        if max(abs(e) for e in entries) > max_entry:
            break
        m = candidate
    return m

"""Singularity data of the toric surface behind a fan cycle.

Cone i (spanned by rays i and i + 1, both 1-based) carries a local index: the
determinant of its spanning pair.  Determinant 1 means a smooth cone, 2 or
more a singular point of that local index.  The f-value at a ray decides the
log del Pezzo condition: the surface is log del Pezzo iff f >= 1 everywhere,
and f(i) divided by the two adjacent cone determinants is the exact
anticanonical degree of the boundary divisor at ray i.  Both are computed on
exact ints, and the f-value at a ray is the vertex turn there.

A SurfaceReport (defined in polygon, next to the validation that fills it)
stores d, the cone determinants, the f-values and the singular count; the
rest is read off them on every access.

analyze() returns the report memoized in the `_report` slot of a FanCycle,
out of ==, hash, repr and pickling; later calls return the same object.
Its one source is validation's loop (polygon._validated).  validate_ldp_polygon
sets that memo from the values it has just checked, as validate_fan does when
every f-value is in the signed 64-bit range, so analyze on such a cycle
computes nothing, and the tagging path (analyze, identify, classify_three) and
equivalence's normalizations read that one report.  Any other cycle is
validated as a fan on its first analyze, its f-values range-checked.
blow_up reads the cone's determinant off the memo when it is set, else off
that loop run first, before it reads the cone index, so a hand-built non-fan
raises its validation error instead of growing a ray.
"""

from __future__ import annotations

from .lattice import checked_i64
from .polygon import FanCycle, SurfaceReport, _validated, _ValuedError, validate_fan


class ConeSingular(_ValuedError):
    words = lambda index: f"ConeSingular({index}): cone {index} has determinant >= 2, cannot subdivide by ray sum"


def analyze(cycle: FanCycle) -> SurfaceReport:
    """Full singularity and degree report of a cycle, memoized.  A cycle with
    no report from validate_ldp_polygon or validate_fan is validated as a fan
    on the first call, then its f-values checked against the 64-bit range."""
    report = getattr(cycle, "_report", None)
    if report is None:
        report = _validated(cycle.rays, False)[1]
        for f in report.f_values:
            checked_i64(f, "f value")
        object.__setattr__(cycle, "_report", report)  # FanCycle is frozen
    return report


def blow_up(cycle: FanCycle, i: int) -> FanCycle:
    """Subdivide the smooth cone i by inserting the primitive ray v_i + v_{i+1}.

    Raises validate_fan's error when `cycle` is not a complete fan, then
    IndexError for an i outside 1..d, then ConeSingular(i) when the cone
    determinant is not 1.  The result has d + 1 rays and the same multiset
    of singular cone determinants: the determinant-1 cone is replaced by
    two determinant-1 cones.
    """
    dets = (getattr(cycle, "_report", None) or _validated(cycle.rays, False)[1]).dets
    if not 1 <= i <= cycle.d:
        raise IndexError(f"cone index {i} out of range 1..{cycle.d}")
    if dets[i - 1] != 1:
        raise ConeSingular(i)
    inserted = cycle.ray(i) + cycle.ray(i + 1)
    rays = cycle.rays[:i] + (inserted,) + cycle.rays[i:]
    return FanCycle(rays)


def blow_down_candidates(cycle: FanCycle) -> list[int]:
    """1-based indices i with v_i == v_{i-1} + v_{i+1}; requires d >= 4.

    Removing such a ray always leaves a valid fan with d - 1 rays; whether the
    smaller fan is log del Pezzo is not checked here.
    """
    if cycle.d < 4:
        raise ValueError("blow-down needs at least 4 rays")
    return [i for i in range(1, cycle.d + 1) if cycle.ray(i) == cycle.ray(i - 1) + cycle.ray(i + 1)]


def blow_down(cycle: FanCycle, i: int) -> FanCycle:
    """Remove ray i, which must be one of blow_down_candidates.  Exact inverse of blow_up."""
    candidates = blow_down_candidates(cycle)
    if not 1 <= i <= cycle.d:
        raise IndexError(f"ray index {i} out of range 1..{cycle.d}")
    if i not in candidates:
        raise ValueError(f"ray {i} is not the sum of its neighbours")
    return validate_fan(cycle.rays[: i - 1] + cycle.rays[i:])


def nonsingular_arc_contiguous(report: SurfaceReport) -> bool:
    """True iff the singular cones form one contiguous cyclic arc.

    All-singular and all-nonsingular both count as contiguous.  Equivalent
    check: at most two singular/nonsingular boundaries around the cycle.
    """
    flags = [det >= 2 for det in report.dets]
    return sum(a != b for a, b in zip(flags, flags[1:] + flags[:1])) <= 2

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
validate_ldp_polygon sets that memo from the values it has just checked, so
analyze on a validated polygon computes nothing, and the tagging path
(analyze, identify, classify_three) and equivalence's normalizations read
that one report.  Any other cycle (validate_fan's, blow_up's, a canonical
form) gets its report from _surface_report on the first call:
polygon._surface_data, the one formula for both, with the f-values checked
against the 64-bit range.
"""

from __future__ import annotations

from .lattice import checked_i64
from .polygon import FanCycle, SurfaceReport, _cone_dets, _surface_data, _ValuedError, validate_fan


class ConeSingular(_ValuedError):
    words = lambda index: f"ConeSingular({index}): cone {index} has determinant >= 2, cannot subdivide by ray sum"


def f_value(cycle: FanCycle, i: int) -> int:
    """det(v_{i-1}, v_i) + det(v_i, v_{i+1}) + det(v_{i+1}, v_{i-1}) for 1 <= i <= d,
    read off analyze()."""
    if not 1 <= i <= cycle.d:
        raise IndexError(f"ray index {i} out of range 1..{cycle.d}")
    return analyze(cycle).f_values[i - 1]


def analyze(cycle: FanCycle) -> SurfaceReport:
    """Full singularity and degree report of a validated cycle, memoized."""
    report = getattr(cycle, "_report", None)
    if report is None:
        report = _surface_report(cycle)
        object.__setattr__(cycle, "_report", report)  # FanCycle is frozen
    return report


def _surface_report(cycle: FanCycle) -> SurfaceReport:
    """analyze() without the memo, for a cycle that validate_ldp_polygon did
    not build.  Validation has already checked the cone determinants; the
    f-values are checked here."""
    report = _surface_data(cycle.rays, _cone_dets(cycle.rays))
    for f in report.f_values:
        checked_i64(f, "f value")
    return report


def blow_up(cycle: FanCycle, i: int) -> FanCycle:
    """Subdivide the smooth cone i by inserting the primitive ray v_i + v_{i+1}.

    Raises ConeSingular(i) when the cone determinant is not 1.  The result has
    d + 1 rays and the same multiset of singular cone determinants: the
    determinant-1 cone is replaced by two determinant-1 cones.
    """
    if not 1 <= i <= cycle.d:
        raise IndexError(f"cone index {i} out of range 1..{cycle.d}")
    if cycle.cone_det(i) != 1:
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
    d = len(flags)
    boundaries = sum(1 for i in range(d) if flags[i] != flags[(i + 1) % d])
    return boundaries <= 2

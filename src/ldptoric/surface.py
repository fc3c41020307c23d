"""Singularity data of the toric surface behind a fan cycle.

Cone i (spanned by rays i and i + 1, both 1-based) carries a local index: the
determinant of its spanning pair.  Determinant 1 means a smooth cone, 2 or
more a singular point of that local index.  The f-value at a ray decides the
log del Pezzo condition: the surface is log del Pezzo iff f >= 1 everywhere,
and f(i) divided by the two adjacent cone determinants is the exact
anticanonical degree of the boundary divisor at ray i.  Both are computed on
exact ints; the f-values are checked against the signed 64-bit range as they
are produced, and the cone determinants were checked by validation.

A SurfaceReport stores d, the cone determinants, the f-values and the
singular count.  picard_number and is_log_del_pezzo are read off them on
every access; cones and anticanonical_degrees are built on first access and
cached on the report, which keeps them out of ==, hash and repr.  The
catalog, tagging and query paths read only the stored fields.

analyze() computes the report of a FanCycle object once and memoizes it on
that (immutable) cycle, outside its dataclass fields, so the memo takes no
part in ==, hash or repr.  An LdpPolygon is a FanCycle, so the memo sits on
the polygon itself, and callers that pass the same polygon on, such as the
tagging path (analyze, identify, classify_three), share one computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .lattice import checked_i64
from .polygon import FanCycle, validate_fan


class ConeSingular(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"ConeSingular({index}): cone {index} has determinant >= 2, cannot subdivide by ray sum")


@dataclass(frozen=True, slots=True)
class ConeRecord:
    """Local data of one cone: 1-based index, determinant, singularity flag."""

    index: int
    det: int
    singular: bool


@dataclass(frozen=True)
class SurfaceReport:
    """The stored fields d, dets, f_values and singular_count; the rest is
    derived from them, cones and anticanonical_degrees once, on first access."""

    d: int
    dets: tuple[int, ...]
    f_values: tuple[int, ...]
    singular_count: int

    @property
    def picard_number(self) -> int:
        return self.d - 2

    @property
    def is_log_del_pezzo(self) -> bool:
        return min(self.f_values) >= 1

    @cached_property
    def cones(self) -> tuple[ConeRecord, ...]:
        return tuple(ConeRecord(i, det, det >= 2) for i, det in enumerate(self.dets, start=1))

    @cached_property
    def anticanonical_degrees(self) -> tuple[Fraction, ...]:
        dets = self.dets
        return tuple(Fraction(f, dets[i - 1] * dets[i]) for i, f in enumerate(self.f_values))

    def singular_indices(self) -> tuple[int, ...]:
        return tuple(i for i, det in enumerate(self.dets, start=1) if det >= 2)


def f_value(cycle: FanCycle, i: int) -> int:
    """det(v_{i-1}, v_i) + det(v_i, v_{i+1}) + det(v_{i+1}, v_{i-1}) for 1 <= i <= d,
    read off analyze()."""
    if not 1 <= i <= cycle.d:
        raise IndexError(f"ray index {i} out of range 1..{cycle.d}")
    return analyze(cycle).f_values[i - 1]


def analyze(cycle: FanCycle) -> SurfaceReport:
    """Full singularity and degree report for the surface of a validated cycle.

    Computed on the first call for a cycle object; later calls return the
    same report object."""
    report = cycle.__dict__.get("_report")
    if report is None:
        report = _surface_report(cycle)
        object.__setattr__(cycle, "_report", report)  # FanCycle is frozen
    return report


def _surface_report(cycle: FanCycle) -> SurfaceReport:
    """analyze() without the memo."""
    d = cycle.d
    pts = [(v.x, v.y) for v in cycle.rays]
    prv, nxt = pts[-1:] + pts[:-1], pts[1:] + pts[:1]
    # Validation has already checked these.
    dets = tuple(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, nxt))
    # f(i) = det(v_{i-1}, v_i) + det(v_i, v_{i+1}) + det(v_{i+1}, v_{i-1}).
    f_values = tuple(
        checked_i64(dets[i - 1] + dets[i] + (x1 * y0 - x0 * y1), "f value")
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(prv, nxt))
    )
    return SurfaceReport(d, dets, f_values, sum(1 for det in dets if det >= 2))


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
    """Remove ray i, which must equal the sum of its neighbours.  Exact inverse of blow_up."""
    if cycle.d < 4:
        raise ValueError("blow-down needs at least 4 rays")
    if not 1 <= i <= cycle.d:
        raise IndexError(f"ray index {i} out of range 1..{cycle.d}")
    if cycle.ray(i) != cycle.ray(i - 1) + cycle.ray(i + 1):
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

"""Identities and literature counts, computed from vertex lists alone.

Nothing here uses the package beyond producing its inputs and the values
under test: the dual polygon, its area and the edge heights are computed
from the vertices with plain ints and Fractions.
"""

import math
import random
from fractions import Fraction

from ldptoric import analyze

from oracles import random_fan


def _dual_twice_area(vertices) -> Fraction:
    """Shoelace twice-area of the polygon {m : <m, v_i> >= -1}, whose vertex
    for cone i solves <m, v_i> = <m, v_{i+1}> = -1."""
    d = len(vertices)
    dual = []
    for i in range(d):
        (a, b), (c, e) = vertices[i], vertices[(i + 1) % d]
        det = a * e - c * b
        dual.append((Fraction(b - e, det), Fraction(c - a, det)))
    return sum(dual[i][0] * dual[(i + 1) % d][1] - dual[(i + 1) % d][0] * dual[i][1] for i in range(d))


def _edge_heights(vertices) -> list[int]:
    """Lattice height of each edge over the origin: its determinant divided
    by its lattice length."""
    d = len(vertices)
    heights = []
    for i in range(d):
        (a, b), (c, e) = vertices[i], vertices[(i + 1) % d]
        heights.append((a * e - c * b) // math.gcd(c - a, e - b))
    return heights


def test_degree_sum_is_twice_the_dual_area_on_box_two(box2_catalog):
    # (-K)^2 = sum of the anticanonical degrees = twice the dual polygon's area.
    smooth = 0
    for entry in box2_catalog:
        degrees = analyze(entry.polygon()).anticanonical_degrees
        assert sum(degrees) == _dual_twice_area(entry.vertices), entry.vertices
        pairs = zip(entry.vertices, entry.vertices[1:] + entry.vertices[:1])
        if all(x0 * y1 - x1 * y0 == 1 for (x0, y0), (x1, y1) in pairs):
            # Smooth toric surfaces satisfy Noether's formula K^2 = 12 - d.
            smooth += 1
            assert sum(degrees) == 12 - len(entry.vertices), entry.vertices
    assert smooth == 5


def test_degree_sum_is_twice_the_dual_area_on_random_fans():
    # The identity holds for every complete fan, log del Pezzo or not, with
    # the dual area taken as a signed shoelace sum.
    rng = random.Random(17)
    for _ in range(200):
        fan = random_fan(rng)
        vertices = [v.as_tuple() for v in fan.rays]
        assert sum(analyze(fan).anticanonical_degrees) == _dual_twice_area(vertices), vertices


def test_sixteen_reflexive_classes_in_box_two(box2_catalog):
    # Index 1 (every edge at lattice height 1) means reflexive, and there are
    # exactly 16 reflexive polygons up to GL(2, Z) (Kasprzyk-Kreuzer-Nill,
    # LMS J. Comput. Math. 2010), all with vertices in [-2, 2]^2.
    reflexive = [e for e in box2_catalog if all(h == 1 for h in _edge_heights(e.vertices))]
    assert len(reflexive) == 16

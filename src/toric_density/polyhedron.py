"""Newton polyhedra of lattice supports: faces, the diagonal face, the dual index.

The polyhedron is conv(generators) + R_+^n. Facet normals are nonnegative
because translating along any coordinate axis stays inside. The diagonal ray
R_+ (1,...,1) enters through a unique boundary point t0 * 1; the smallest
face containing it drives all the asymptotics downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional

from . import lp
from .hull import upward_hull
from .model import InvariantError, UniformMultiplicativeSpec, polar_scale
from .vectors import dot, frac, fracvec, rank, vsub


@dataclass(frozen=True)
class NewtonPolyhedron:
    n: int
    points: tuple            # generating lattice points
    vertices: tuple          # extreme points (subset of points)
    facets: tuple            # (normal, offset): <normal, x> >= offset on the hull

    def min_support(self, a) -> Fraction:
        """m(a) = min over the hull of <a, x>, attained at a vertex for a >= 0."""
        a = fracvec(a)
        return min(dot(a, v) for v in self.vertices)


@dataclass(frozen=True)
class Face:
    polar: tuple             # the defining vector a with face = argmin <a, .>
    offset: Fraction         # m(a)
    generators: tuple        # generating points lying on the face
    recession: frozenset     # coordinate directions contained in the face
    dim: int
    compact: bool

    def contains(self, x) -> bool:
        return dot(self.polar, x) == self.offset


@dataclass(frozen=True)
class DiagonalFace:
    t0: Fraction             # diagonal hitting parameter: t0 * 1 on the boundary
    face: Face
    c: tuple                 # normalized polar vector, strictly interior choice
    iota: Fraction           # |c| = 1 / t0
    rho: int                 # support points on the face minus its dimension
    face_point_count: int
    compact: bool


def build_polyhedron(points) -> NewtonPolyhedron:
    """Exact facet/vertex description of conv(points) + R_+^n."""
    pts = [fracvec(p) for p in points]
    if not pts:
        raise ValueError("no generating points")
    n = len(pts[0])
    facets, vertices = upward_hull(pts, n)
    return NewtonPolyhedron(n=n, points=tuple(sorted(set(pts))),
                            vertices=tuple(vertices), facets=tuple(facets))


def support_face(e: NewtonPolyhedron, a):
    """(m(a), face) for a nonzero nonnegative direction a."""
    a = fracvec(a)
    if all(x == 0 for x in a) or any(x < 0 for x in a):
        raise ValueError("polar direction must be nonnegative and nonzero")
    m = e.min_support(a)
    gens = tuple(p for p in e.points if dot(a, p) == m)
    rec = frozenset(i for i, ai in enumerate(a) if ai == 0)
    span = [vsub(p, gens[0]) for p in gens[1:]]
    span += [tuple(Fraction(1 if j == i else 0) for j in range(e.n)) for i in sorted(rec)]
    return m, Face(polar=a, offset=m, generators=gens, recession=rec,
                   dim=rank(span), compact=not rec)


def diagonal_hit(facets) -> Fraction:
    """Smallest t with t * (1,...,1) inside an upward hull, from its facets."""
    return max(frac(m) / sum(w) for w, m in facets if sum(w) > 0)


def diagonal_block(facets, points) -> tuple:
    """(t0, active, on_face, recession, span) of the face where the diagonal
    enters the upward hull of points with these facets: the hitting
    parameter, the facets through t0 * 1, the points on all of them, the
    coordinates it recedes along, and its directions, the differences of
    its points from the first and then the recession units."""
    n = len(points[0])
    t0 = diagonal_hit(facets)
    active = [(w, m) for w, m in facets if t0.numerator * sum(w) == m * t0.denominator]
    if not active:
        raise InvariantError("diagonal ray must exit through some facet")
    on_face = []
    for p in points:        # <w, p> = m as <w, q> = m den, q = den p integral
        den = lcm(*(x.denominator for x in p))
        q = [x.numerator * (den // x.denominator) for x in p]
        if all(sum(map(mul, w, q)) == m * den for w, m in active):
            on_face.append(p)
    recession = [i for i in range(n) if all(w[i] == 0 for w, _ in active)]
    span = [vsub(p, on_face[0]) for p in on_face[1:]]
    span += [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in recession]
    return t0, active, on_face, recession, span


def _polar_system(e: NewtonPolyhedron, face_gens, recession):
    """(a_eq, b_eq, a_ge, b_ge) of the face's normalized polar set in c.

    Equalities: <c, g> = 1 at every face point g, then c_i = 0 along every
    recession direction i. Inequalities: <c, v> >= 1 at every off-face
    vertex v, then c_i >= 0 at every other coordinate.
    """
    units = [[int(j == i) for j in range(e.n)] for i in range(e.n)]
    rec = [units[i] for i in sorted(recession)]
    free = [units[i] for i in range(e.n) if i not in recession]
    off = [list(v) for v in e.vertices if v not in face_gens]
    return ([list(g) for g in face_gens] + rec, [1] * len(face_gens) + [0] * len(rec),
            off + free, [1] * len(off) + [0] * len(free))


def _interior_polar(e: NewtonPolyhedron, face_gens, recession):
    """A normalized polar vector in the relative interior of the face's polar set.

    Solves the rows of `_polar_system` with a slack column delta on every
    inequality (off-face vertices at <c, v> >= 1 + delta, free coordinates
    at c_i >= delta) and the row delta <= 1, maximizing delta. Any
    vertex-of-the-LP choice can sit on the boundary of the polar set
    (selecting a larger face), which breaks strict positivity, so the
    interior point is the safe canonical representative.
    """
    a_eq, b_eq, a_ge, b_ge = _polar_system(e, face_gens, recession)
    a_ge = [row + [-1] for row in a_ge] + [[0] * e.n + [-1]]   # delta <= 1
    val, x = lp.solve_lp([0] * e.n + [1], [row + [0] for row in a_eq], b_eq,
                         a_ge, b_ge + [-1], maximize=True)
    if val <= 0:
        raise ValueError("face has no normalized polar vector in the open cone")
    return tuple(x[:e.n])


def diagonal_face(e: NewtonPolyhedron,
                  spec: Optional[UniformMultiplicativeSpec] = None) -> DiagonalFace:
    """The smallest face meeting the diagonal, with its polar data.

    When the weight spec is supplied, the face point count enumerates every
    supported lattice point on the face (possible exactly when the face is
    compact: the polar vector is then strictly positive and bounds the
    search). Otherwise generating points on the face are counted, a lower
    bound.
    """
    t0, _, gens, rec, span = diagonal_block(e.facets, e.points)
    gens, rec = tuple(gens), frozenset(rec)
    point_dim = rank(span[:len(gens) - 1])
    dim = rank(span)
    compact = not rec
    c = _interior_polar(e, gens, rec)
    iota = sum(c, Fraction(0))
    if iota * t0 != 1:
        raise InvariantError("normalized polar must invert the hitting parameter")

    face = Face(polar=c, offset=Fraction(1), generators=gens, recession=rec,
                dim=dim, compact=compact)
    if spec is not None and compact:
        # weights beyond {0,1} count with multiplicity, matching the pole
        # order of the associated local series
        count = sum(spec.g(v) for v in face_points(spec, c))
    else:
        count = len(gens)
    # the log power subtracts the dimension spanned by the face's lattice
    # points; for compact faces this is the face dimension itself, and the
    # count always exceeds it (k points span at most an affine (k-1)-space)
    rho = count - point_dim
    return DiagonalFace(t0=t0, face=face, c=c, iota=iota, rho=rho,
                        face_point_count=count, compact=compact)


def face_points(spec: UniformMultiplicativeSpec, c):
    """The supported lattice points v with <c, v> = 1 (c strictly positive)."""
    scale = polar_scale(c)
    return sorted(v for v, _, _, expo in spec.support(c, max_expo=scale)
                  if expo == scale)


def iota_lp(e: NewtonPolyhedron):
    """min |c| over the dual of the hull intersected with the positive orthant.

    Vertex constraints suffice because the recession cone is the full
    positive orthant. Exact rational simplex; the minimizer is one (possibly
    boundary) normalized polar vector of the diagonal face.
    """
    nverts = list(e.vertices)
    objective = [1] * e.n
    a_ge = [list(v) for v in nverts]
    b_ge = [1] * len(nverts)
    val, x = lp.solve_lp(objective, a_ge=a_ge, b_ge=b_ge)
    return val, tuple(x)


def polar_vectors(e: NewtonPolyhedron, face: Face, want: int = 2):
    """Distinct normalized polar vectors of a face (for invariance checks).

    The interior vector first, then midpoints between it and the vertices
    of the polar set that minimize or maximize one free coordinate, over
    the rows of `_polar_system`; a midpoint counts when `support_face`
    returns the same face points. Returns between one and `want` vectors;
    a single vector means the polar set is a point.
    """
    gens, rec = face.generators, face.recession
    center = _interior_polar(e, gens, rec)
    system = _polar_system(e, gens, rec)
    out = [center]
    for sense in (False, True):
        for coord in (i for i in range(e.n) if i not in rec):
            objective = [int(j == coord) for j in range(e.n)]
            try:
                _, x = lp.solve_lp(objective, *system, maximize=sense)
            except lp.Unbounded:
                continue
            cand = tuple((a + b) / 2 for a, b in zip(center, x))
            if cand not in out and support_face(e, cand)[1].generators == gens:
                out.append(cand)
            if len(out) >= want:
                return out
    return out


def lemma1_check(e: NewtonPolyhedron, face: Face, c) -> bool:
    """Face meets the diagonal exactly when |c| equals the dual index."""
    c = fracvec(c)
    iota, _ = iota_lp(e)
    t0 = diagonal_hit(e.facets)
    diag = tuple(t0 for _ in range(e.n))
    meets = face.contains(diag)
    return meets == (sum(c, Fraction(0)) == iota)

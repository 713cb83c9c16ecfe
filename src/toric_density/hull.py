"""Exact convex geometry via the double description method.

No floats: the double description runs in Python integers. Every ray is
kept primitive, lineality is eliminated by integer combinations, and each
ray carries the set of processed constraints tight at it, so that two rays
are tested for adjacency combinatorially (Fukuda-Prodon, "Double
description method revisited", 1996): no other ray's tight set contains
their common one. The central object is the upward-closed hull
conv(points) + R_+^n, described by facets (w, m) meaning <w, x> >= m holds
on the hull and with equality on the facet; normals and offsets are ints.
A polytope's volume takes one double description too: on the lifted points
(p, 1) the tight sets are the facets' point sets, and a pulling
triangulation recurses on these bitmasks, with no hull of any face. The
integer kernels (dot, rank, det) are the shared ones of `vectors`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .model import InvariantError
from .vectors import det, dot, fracvec, is_zero, primitive, rank


# upward hulls in more coordinates are refused with DimensionOverflow
DIM_CAP = 10


class DimensionOverflow(Exception):
    pass


def check_dimension(n: int):
    """Refuse an upward hull in more than DIM_CAP coordinates."""
    if n > DIM_CAP:
        raise DimensionOverflow(f"hull dimension {n} exceeds cap {DIM_CAP}")


def _tight_rays(gens, dim):
    """(rays, tight) of `dual_rays`: tight[i] is the bitmask of the gens
    vanishing on rays[i], bit j for the j-th of the nonzero gens after
    scaling to primitive vectors and dropping repeats."""
    gens = list(dict.fromkeys(primitive(g) for g in gens if not is_zero(g)))
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    # rays[i] with tight[i], the bitmask of processed gens vanishing on it
    rays: list[tuple] = []
    tight: list[int] = []

    for j, g in enumerate(gens):
        bit = 1 << j
        vals_l = [dot(g, l) for l in lineality]
        hit = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if hit is not None:
            # g cuts the lineality space: project everything onto g = 0
            # along lstar, which becomes a ray tight at every earlier gen
            lstar = lineality[hit]
            vstar = vals_l[hit]
            if vstar < 0:
                lstar = tuple(-x for x in lstar)
                vstar = -vstar
            lineality = [primitive(tuple(vstar * a - v * b for a, b in zip(l, lstar)))
                         for i, (l, v) in enumerate(zip(lineality, vals_l)) if i != hit]
            new = {}
            for r, t in zip(rays, tight):
                v = dot(g, r)
                rr = tuple(vstar * a - v * b for a, b in zip(r, lstar))
                new.setdefault(primitive(rr), t | bit)
            new.setdefault(primitive(lstar), bit - 1)
        else:
            vals = [dot(g, r) for r in rays]
            if all(v >= 0 for v in vals):
                tight = [t | bit if v == 0 else t for t, v in zip(tight, vals)]
                continue
            plus = [i for i, v in enumerate(vals) if v > 0]
            minus = [i for i, v in enumerate(vals) if v < 0]
            new = {rays[i]: tight[i] for i in plus}
            new.update((rays[i], tight[i] | bit) for i, v in enumerate(vals) if v == 0)
            # adjacent rays have >= dim_eff - 2 common tight gens, and no
            # third ray is tight at all of them
            need = dim - len(lineality) - 2
            for ip in plus:
                for im in minus:
                    common = tight[ip] & tight[im]
                    if common.bit_count() < need:
                        continue
                    if any(t & common == common for k, t in enumerate(tight)
                           if k != ip and k != im):
                        continue
                    comb = tuple(vals[ip] * a - vals[im] * b
                                 for a, b in zip(rays[im], rays[ip]))
                    new.setdefault(primitive(comb), common | bit)
        rays = list(new)
        tight = list(new.values())

    if lineality:
        raise ValueError("dual cone contains a line (degenerate input)")
    return rays, tight


def dual_rays(gens, dim):
    """Extreme rays of the cone {z : <g, z> >= 0 for every g in gens}.

    Returns primitive integer tuples. Raises ValueError if the dual cone
    still contains a line (the primal cone is not full dimensional).
    """
    return _tight_rays(gens, dim)[0]


def _integer_facets(gens, n):
    """Sorted integer facets (w, m), w != 0, of the cone over gens in R^(n+1).

    Each dual ray (w, w0) gives <w, x> >= m = -w0 on the points x with
    (x, 1) among the gens.
    """
    return sorted((ray[:n], -ray[n]) for ray in dual_rays(gens, n + 1)
                  if not is_zero(ray[:n]))


def upward_hull(points, n):
    """Facets and vertices of conv(points) + R_+^n.

    Facets come back as integer (normal, offset) pairs with the normal
    nonnegative; vertices are a subset of the input points.
    """
    check_dimension(n)
    pts = list(dict.fromkeys(map(fracvec, points)))
    if not pts:
        raise ValueError("empty point set")
    # each point p enters as the integer vector s (p, 1), s > 0; the unit
    # rays (e_i, 0) make the hull upward closed, and the zero normal they
    # leave is the t >= 0 inequality of the homogenization
    lifted = [primitive(p + (1,)) for p in pts]
    units = [tuple(1 if i == j else 0 for j in range(n)) + (0,) for i in range(n)]
    facets = _integer_facets(lifted + units, n)
    if any(x < 0 for w, _ in facets for x in w):
        raise InvariantError("facet normals of an upward hull are nonnegative")
    vertices = []
    for p, sp in zip(pts, lifted):
        tightnormals = [w for w, m in facets if dot(w, sp) == m * sp[n]]
        if rank(tightnormals) == n:
            vertices.append(p)
    vertices.sort()
    return facets, vertices


def polytope_facets(points, n):
    """Integer facets (w, m) of the bounded hull conv(points), assumed full dimensional."""
    pts = list(dict.fromkeys(map(fracvec, points)))
    return _integer_facets([p + (1,) for p in pts], n)


def _face_simplices(mask, dim, facet_masks):
    """The simplices, as bitmasks of their points, of a pulling triangulation
    of the face of dimension dim whose points are the bits of mask.

    A face with dim + 1 points is a simplex. Otherwise its lowest point is
    coned over each of its facets that misses it; those are the maximal
    proper intersections of mask with the polytope's facets.
    """
    if mask.bit_count() == dim + 1:
        return [mask]
    apex = mask & -mask
    cuts = {mask & f for f in facet_masks} - {mask, 0}
    facets = [c for c in cuts if not any(c != o and c & o == c for o in cuts)]
    return [apex | s for face in facets if not face & apex
            for s in _face_simplices(face, dim - 1, facet_masks)]


def polytope_volume(points) -> Fraction:
    """Exact Lebesgue volume of conv(points); 0 for lower-dimensional hulls.

    The points are scaled by the common denominator L of their coordinates
    and sorted. One double description of the lifted points (p, 1) gives
    the facet-point incidences, which the pulling triangulation
    (`_face_simplices`) recurses on; the |det| of its simplices
    (`vectors.det`) are summed and the total divided once by n! L^n.
    """
    pts = list(dict.fromkeys(map(fracvec, points)))
    if not pts:
        return Fraction(0)
    n = len(pts[0])
    den = lcm(*(x.denominator for p in pts for x in p))
    ipts = sorted(tuple(x.numerator * (den // x.denominator) for x in p) for p in pts)
    base = ipts[0]
    if rank([tuple(a - b for a, b in zip(p, base)) for p in ipts[1:]]) < n:
        return Fraction(0)
    # (p, 1) is primitive and the points distinct, so bit i is ipts[i], and
    # the lowest bit of a face is its lowest point, one of its vertices
    _, facet_masks = _tight_rays([p + (1,) for p in ipts], n + 1)
    total = 0
    for simplex in _face_simplices((1 << len(ipts)) - 1, n, facet_masks):
        p0, *rest = (p for i, p in enumerate(ipts) if simplex >> i & 1)
        total += abs(det([tuple(a - b for a, b in zip(p, p0)) for p in rest]))
    return Fraction(total, factorial(n) * den ** n)

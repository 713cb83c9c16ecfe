"""Exact convex geometry via the double description method.

Everything here is rational arithmetic; no floats. The central object is the
upward-closed hull conv(points) + R_+^n, described by facets (w, m) meaning
<w, x> >= m holds on the hull and with equality on the facet.
"""

from __future__ import annotations

from fractions import Fraction

from .model import InvariantError
from .vectors import dot, frac, fracvec, is_zero, primitive, rank, vsub


class DimensionOverflow(Exception):
    pass


def _dedup(vectors):
    seen = set()
    out = []
    for v in vectors:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def dual_rays(gens, dim):
    """Extreme rays of the cone {z : <g, z> >= 0 for every g in gens}.

    Returns primitive integer tuples. Raises ValueError if the dual cone
    still contains a line (the primal cone is not full dimensional).
    """
    gens = _dedup([primitive(g) for g in gens if not is_zero(g)])
    lineality = [tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)]
    rays: list[tuple] = []
    processed: list[tuple] = []

    for g in gens:
        vals_l = [dot(g, l) for l in lineality]
        hit = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if hit is not None:
            lstar = lineality[hit]
            vstar = vals_l[hit]
            if vstar < 0:
                lstar = tuple(-x for x in lstar)
                vstar = -vstar
            new_lin = []
            for i, l in enumerate(lineality):
                if i == hit:
                    continue
                new_lin.append(tuple(a - (vals_l[i] / vstar) * b for a, b in zip(l, lstar)))
            new_rays = []
            for r in rays:
                v = dot(g, r)
                rr = tuple(a - (v / vstar) * b for a, b in zip(r, lstar))
                if not is_zero(rr):
                    new_rays.append(primitive(rr))
            new_rays.append(primitive(lstar))
            lineality = new_lin
            rays = _dedup(new_rays)
        else:
            vals = [dot(g, r) for r in rays]
            if all(v >= 0 for v in vals):
                processed.append(g)
                continue
            plus = [i for i, v in enumerate(vals) if v > 0]
            zero = [i for i, v in enumerate(vals) if v == 0]
            minus = [i for i, v in enumerate(vals) if v < 0]
            tight = [frozenset(j for j, h in enumerate(processed) if dot(h, rays[i]) == 0)
                     for i in range(len(rays))]
            dim_eff = dim - len(lineality)
            keep = [rays[i] for i in plus + zero]
            for ip in plus:
                for im in minus:
                    common = tight[ip] & tight[im]
                    # adjacency: tight normals at both span a (dim_eff - 2)-space
                    if rank([processed[j] for j in common]) != dim_eff - 2:
                        continue
                    comb = tuple(vals[ip] * a - vals[im] * b
                                 for a, b in zip(rays[im], rays[ip]))
                    if not is_zero(comb):
                        keep.append(primitive(comb))
            rays = _dedup(keep)
        processed.append(g)

    if lineality:
        raise ValueError("dual cone contains a line (degenerate input)")
    return rays


def upward_hull(points, n, dim_cap=10):
    """Facets and vertices of conv(points) + R_+^n.

    Facets come back as (normal, offset) pairs with normal a primitive
    nonnegative integer vector; vertices are a subset of the input points.
    """
    if n > dim_cap:
        raise DimensionOverflow(f"hull dimension {n} exceeds cap {dim_cap}")
    pts = _dedup([fracvec(p) for p in points])
    if not pts:
        raise ValueError("empty point set")
    gens = [p + (Fraction(1),) for p in pts]
    gens += [tuple(Fraction(1 if i == j else 0) for j in range(n)) + (Fraction(0),)
             for i in range(n)]
    facets = []
    for ray in dual_rays(gens, n + 1):
        w, w0 = ray[:n], ray[n]
        if is_zero(w):
            continue  # the t >= 0 inequality of the homogenization
        if any(x < 0 for x in w):
            raise InvariantError("facet normals of an upward hull are nonnegative")
        facets.append((tuple(map(frac, w)), -frac(w0)))
    facets.sort()
    vertices = []
    for p in pts:
        tightnormals = [w for w, m in facets if dot(w, p) == m]
        if rank(tightnormals) == n:
            vertices.append(p)
    vertices.sort()
    return facets, vertices


def polytope_facets(points, n):
    """Facets (w, m) of the bounded hull conv(points), assumed full dimensional."""
    pts = _dedup([fracvec(p) for p in points])
    gens = [p + (Fraction(1),) for p in pts]
    facets = []
    for ray in dual_rays(gens, n + 1):
        w, w0 = ray[:n], ray[n]
        if is_zero(w):
            continue
        facets.append((tuple(map(frac, w)), -frac(w0)))
    facets.sort()
    return facets


def _triangulate_map(proj, idx, n):
    """Triangulate the full-dimensional hull of n-coordinate points.

    Coordinates are carried in a dict keyed by original index so that the
    recursion (apex over opposite facets, facets projected one coordinate
    down) can return index tuples referring to the caller's point list.
    """
    pts = {i: proj[i] for i in idx}

    if n == 1:
        lo = min(idx, key=lambda i: pts[i])
        hi = max(idx, key=lambda i: pts[i])
        return [(lo, hi)]
    if len(idx) == n + 1:
        return [tuple(idx)]
    local = [pts[i] for i in idx]
    facets = polytope_facets(local, n)
    apex_local = min(range(len(idx)), key=lambda k: local[k])
    apex = idx[apex_local]
    out = []
    for w, m in facets:
        if dot(w, local[apex_local]) == m:
            continue
        face_idx = [idx[k] for k in range(len(idx)) if dot(w, local[k]) == m]
        drop = next(j for j in range(n) if w[j] != 0)
        sub = _triangulate_map({i: tuple(x for j, x in enumerate(pts[i]) if j != drop)
                                for i in face_idx}, face_idx, n - 1)
        for s in sub:
            out.append((apex,) + s)
    return out


def _det(mat):
    mat = [list(r) for r in mat]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def polytope_volume(points) -> Fraction:
    """Exact Lebesgue volume of conv(points); 0 for lower-dimensional hulls."""
    pts = _dedup([fracvec(p) for p in points])
    if not pts:
        return Fraction(0)
    n = len(pts[0])
    base = pts[0]
    if rank([vsub(p, base) for p in pts[1:]]) < n:
        return Fraction(0)
    simplices = _triangulate_map({i: p for i, p in enumerate(pts)}, list(range(len(pts))), n)
    total = Fraction(0)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    for s in simplices:
        p0 = pts[s[0]]
        mat = [vsub(pts[i], p0) for i in s[1:]]
        total += abs(_det(mat))
    return total / fact

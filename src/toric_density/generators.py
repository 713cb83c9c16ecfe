"""Minimal generators of a weight support, with proven caps.

The support S*(g) of a uniform multiplicative weight is upward closed enough
for convex purposes: any point dominating another contributes nothing new to
the hull conv(S*) + R_+^n. By Dickson's lemma the componentwise-minimal
subset is finite. For every weight kind, toric, hypersurface and free, its
size is bounded by a theorem (`proven_cap`), so one enumeration at that cap
is complete (`generators_with_check`). `stabilization_check`, a rerun at
twice the cap, stays as the reference that the tests hold the proven cap
against.

The enumeration reads the one support walk, `UniformMultiplicativeSpec.support`,
over |v| <= cap, and keeps each point that dominates no point kept before it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import Optional

from .hull import dual_rays, upward_hull
from .model import UniformMultiplicativeSpec


@dataclass(frozen=True)
class LatticePointSet:
    """An antichain of weighted lattice points plus completeness metadata."""

    points: tuple
    cap: int
    stabilized: bool
    spec: UniformMultiplicativeSpec


def _support_cone_rays(spec: UniformMultiplicativeSpec) -> list:
    """The extremal rays of the support's cone, primitive in its lattice.

    A toric support lies in ker A, whose cone {Az = 0, z >= 0} is pointed;
    its rays come exact from `dual_rays`. A hypersurface support lies in
    the lattice {q | <a, v>}, whose primitive point on the axis e_j is
    (q / gcd(a_j, q)) e_j.
    """
    n = spec.arity
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if spec.kind == "toric":
        rows = list(spec.payload)
        return dual_rays(rows + [tuple(-x for x in r) for r in rows] + units, n)
    q = sum(spec.payload)
    return [tuple(q // gcd(a, q) * x for x in e) for a, e in zip(spec.payload, units)]


def proven_cap(spec: UniformMultiplicativeSpec) -> int:
    """A cap |v| <= cap that every minimal generator obeys.

    The toric and hypersurface supports are unions over i of the saturated
    monoids M_i of the lattice points with v_i = 0 in a cone, and a minimal
    point of the support is irreducible in its M_i, so it is in the Hilbert
    basis of M_i. That basis lies in the half-open parallelepipeds spanned
    by linearly independent extremal rays of M_i (Bruns-Gubeladze,
    Polytopes, Rings and K-Theory, ch. 2): v = sum l_r r with 0 <= l_r < 1,
    or v is a ray. The rays of M_i are the rays r of the whole cone with
    r_i = 0, since v_i = 0 cuts out a face. So the largest, over i, of the
    sum of |r|_1 over those rays bounds |v|_1. The free support N^n has the
    unit vectors as its minimal points.
    """
    if spec.kind == "free":
        return 1
    rays = _support_cone_rays(spec)
    return max(sum(sum(r) for r in rays if r[i] == 0) for i in range(spec.arity))


def minimal_generators(spec: UniformMultiplicativeSpec, cap: Optional[int] = None) -> LatticePointSet:
    """All componentwise-minimal nonzero points of the support within |v| <= cap.

    The support walk runs in lexicographic order, which puts every point
    after all the points it dominates, so a point is kept when it dominates
    none kept before. The origin is skipped, since g(0) = 1 would make it
    the only generator. The cap defaults to the proven one.
    """
    if spec.arity < 1:
        raise ValueError("arity must be at least 1")
    if cap is None:
        cap = proven_cap(spec)
    if cap < 1:
        raise ValueError("cap must be positive")
    pts: list[tuple] = []
    for v, _, level, _ in spec.support((1,) * spec.arity, max_level=cap):
        if level and not any(all(a >= b for a, b in zip(v, h)) for h in pts):
            pts.append(v)
    return LatticePointSet(points=tuple(pts), cap=cap, stabilized=False, spec=spec)


def stabilization_check(spec: UniformMultiplicativeSpec, current: LatticePointSet) -> LatticePointSet:
    """Re-enumerate at twice the cap; stable when the hull vertices agree.

    Returns the doubled-cap set carrying the flag. No command reads it: it
    is the reference that the tests check `proven_cap` against, and the
    benchmark's tracer wraps it.
    """
    doubled = minimal_generators(spec, 2 * current.cap)
    _, v1 = upward_hull(current.points, spec.arity)
    _, v2 = upward_hull(doubled.points, spec.arity)
    return replace(doubled, stabilized=(v1 == v2))


def generators_with_check(spec: UniformMultiplicativeSpec) -> LatticePointSet:
    """The minimal generators, enumerated once at the proven cap and so
    stabilized by theorem."""
    proven = proven_cap(spec)
    if proven == 0:
        raise ValueError("the weight support has no nonzero point")
    return replace(minimal_generators(spec, proven), stabilized=True)

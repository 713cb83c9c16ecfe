"""Minimal generators of a weight support, with a stabilization heuristic.

The support S*(g) of a uniform multiplicative weight is upward closed enough
for convex purposes: any point dominating another contributes nothing new to
the hull conv(S*) + R_+^n. By Dickson's lemma the componentwise-minimal
subset is finite, but no effective bound is available in general, so
completeness is certified heuristically: enumerate up to a cap, then double
the cap and compare the resulting hull vertex sets.

The enumeration walks |v| = 1, 2, ..., cap one coordinate prefix at a time
and skips every subtree whose completions all dominate an accepted
generator; see `_enumerate_minimal`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .hull import upward_hull
from .model import UniformMultiplicativeSpec
from .vectors import dot


class CapTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class LatticePointSet:
    """An antichain of weighted lattice points plus completeness metadata."""

    points: tuple
    cap: int
    stabilized: bool
    spec: UniformMultiplicativeSpec
    compact_face_members: Optional[frozenset] = None

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _enumerate_minimal(spec: UniformMultiplicativeSpec, cap: int):
    """Graded scan of |v| <= cap keeping the g-supported antichain.

    Grading makes the filter one-directional: a point can only dominate
    earlier accepted points, never be dominated by later ones. The head of a
    generator is its prefix up to its last nonzero coordinate, and heads[j]
    holds the heads of length j. A prefix that dominates a head has only
    dominating completions, so its subtree is dead. Its parent was alive, so
    only heads of its own length can kill it, and deadness is monotone in
    its last coordinate: one pass over heads[k + 1] gives the first dead
    child of a prefix of length k, and the scan of its children stops there.
    """
    n = spec.arity
    accepted: list[tuple] = []
    heads: list[list[tuple]] = [[] for _ in range(n + 1)]

    def rec(prefix, rest):
        k = len(prefix)
        # prefix + (x,) is dead from the first x reaching h[k] of a head h
        # of length k + 1 that prefix dominates
        stop = rest + 1
        for h in heads[k + 1]:
            if h[k] < stop and all(a >= b for a, b in zip(prefix, h)):
                stop = h[k]
        if k == n - 1:
            nu = prefix + (rest,)
            if rest < stop and spec.g(nu):
                accepted.append(nu)
                last = max(i for i, x in enumerate(nu) if x)
                heads[last + 1].append(nu[:last + 1])
            return
        for x in range(stop):
            rec(prefix + (x,), rest - x)

    for total in range(1, cap + 1):
        rec((), total)
    return accepted


def minimal_generators(spec: UniformMultiplicativeSpec, cap: Optional[int] = None) -> LatticePointSet:
    """All componentwise-minimal points of the support within |v| <= cap."""
    if spec.arity < 1:
        raise ValueError("arity must be at least 1")
    if cap is None:
        cap = spec.default_cap
    if cap < 1:
        raise ValueError("cap must be positive")
    pts = _enumerate_minimal(spec, cap)
    if not pts and cap < 2 * spec.default_cap:
        raise CapTooSmall(f"no support points with |v| <= {cap}")
    return LatticePointSet(points=tuple(sorted(pts)), cap=cap, stabilized=False, spec=spec)


def membership(spec: UniformMultiplicativeSpec, nu) -> int:
    """The exact weight g(v)."""
    return spec.weight(nu)


def _compact_face_flags(points, facets, n):
    """Points lying on at least one compact face of the hull with these facets.

    The smallest face containing a point is cut out by its tight facets;
    it is compact exactly when no coordinate direction is orthogonal to all
    of them. Points interior to the hull lie on no face and are excluded.
    """
    members = set()
    for p in points:
        tight = [w for w, m in facets if dot(w, p) == m]
        if tight and all(any(w[i] != 0 for w in tight) for i in range(n)):
            members.add(tuple(p))
    return frozenset(members)


def stabilization_check(spec: UniformMultiplicativeSpec, current: LatticePointSet) -> LatticePointSet:
    """Re-enumerate at twice the cap; stable when the hull vertices agree.

    Returns the doubled-cap set carrying the flag and the compact-face
    membership of each point. The criterion is a pragmatic stand-in for an
    effective generator bound, which is not available; downstream constants
    refuse to certify when the flag is off.
    """
    doubled = minimal_generators(spec, 2 * current.cap)
    _, v1 = upward_hull(current.points, spec.arity)
    facets, v2 = upward_hull(doubled.points, spec.arity)
    return replace(doubled, stabilized=(v1 == v2),
                   compact_face_members=_compact_face_flags(doubled.points, facets,
                                                            spec.arity))


def generators_with_check(spec: UniformMultiplicativeSpec, cap: Optional[int] = None) -> LatticePointSet:
    """Convenience pipeline: enumerate, then stabilize."""
    return stabilization_check(spec, minimal_generators(spec, cap))

"""Small exact linear-algebra helpers for rational vectors (Fractions or ints)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', floats and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def fracvec(v) -> tuple:
    return tuple(frac(x) for x in v)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vsub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def rank(rows) -> int:
    """Rank of a list of rational vectors (exact, fraction-free elimination).

    Each row is scaled to a primitive integer vector first, and each
    eliminated row again, so the entries stay small integers.
    """
    mat = [primitive(r) for r in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col]
            if f != 0:
                mat[i] = primitive([top[col] * a - f * b for a, b in zip(mat[i], top)])
        r += 1
        if r == len(mat):
            break
    return r


def primitive(v) -> tuple:
    """Scale a rational vector to a primitive integer vector (direction kept)."""
    if not all(type(x) is int for x in v):
        v = fracvec(v)
        den = lcm(*(x.denominator for x in v))
        v = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def format_frac(x: Fraction):
    """JSON-friendly form: plain int when integral, else 'p/q' string."""
    x = frac(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"

"""Small exact linear-algebra helpers over `fractions.Fraction`."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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
    """Rank of a list of rational vectors (Gaussian elimination, exact)."""
    mat = [list(map(frac, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def primitive(v) -> tuple:
    """Scale a rational vector to a primitive integer vector (direction kept)."""
    v = fracvec(v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def format_frac(x: Fraction):
    """JSON-friendly form: plain int when integral, else 'p/q' string."""
    x = frac(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"

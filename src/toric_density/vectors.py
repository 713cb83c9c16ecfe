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


def pivot_columns(rows) -> list:
    """Ascending pivot columns of a list of rational vectors (exact,
    fraction-free elimination): the first coordinates on which the rows
    are independent.

    Each row is scaled to a primitive integer vector first, and each
    eliminated row again, so the entries stay small integers.
    """
    mat = [primitive(r) for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col]
            if f != 0:
                mat[i] = primitive([top[col] * a - f * b for a, b in zip(mat[i], top)])
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return pivots


def rank(rows) -> int:
    """Rank of a list of rational vectors."""
    return len(pivot_columns(rows))


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


def format_digits(x) -> str:
    """x rounded half up to 30 significant digits, printed as mpmath.nstr(x, 30).

    x is anything Fraction takes exactly (int, float, Decimal, Fraction).
    The notation is fixed while the leading digit's exponent e lies strictly
    between -10 and 30, else d.ddd followed by e+N or e-N; trailing zeros
    go, but one digit stays after the point.
    """
    x = Fraction(x)
    if not x:
        return "0.0"
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator

    def at_least(e):   # n/d >= 10^e
        return n * 10 ** max(-e, 0) >= d * 10 ** max(e, 0)

    e = (n.bit_length() - d.bit_length()) * 3 // 10
    while at_least(e + 1):
        e += 1
    while not at_least(e):
        e -= 1
    k = 29 - e
    num, den = (n * 10 ** k, d) if k >= 0 else (n, d * 10 ** -k)
    kept = (2 * num + den) // (2 * den)
    if kept == 10 ** 30:        # a carry through a run of nines
        kept //= 10
        e += 1
    digits = str(kept)
    exponent = 0
    if -10 < e < 30:
        split = 1 if e < 0 else e + 1
        digits = "0" * max(-e, 0) + digits
    else:
        split, exponent = 1, e
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return sign + text + (f"e{exponent:+d}" if exponent else "")

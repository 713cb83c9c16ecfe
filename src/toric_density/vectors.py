"""Small exact linear-algebra helpers for rational vectors (Fractions or ints)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, ldexp, prod
from operator import mul


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', floats and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def fracvec(v) -> tuple:
    return tuple(frac(x) for x in v)


def dot(u, v):
    """Exact dot product: an int on int vectors, else a Fraction."""
    return sum(map(mul, u, v))


def vsub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def scaled(v) -> tuple:
    """(den, ints): the least common denominator of a rational vector v and
    the integer vector den * v."""
    if all(type(x) is int for x in v):
        return 1, tuple(v)
    v = fracvec(v)
    den = lcm(*(x.denominator for x in v))
    return den, tuple(x.numerator * (den // x.denominator) for x in v)


def primitive(v) -> tuple:
    """Scale a rational vector to a primitive integer vector (direction kept)."""
    v = scaled(v)[1]
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else v


def _echelon(rows) -> tuple:
    """(mat, pivots, sign, den) of Bareiss's fraction-free elimination (Math.
    Comp. 22, 1968) of the rational rows, each scaled to integers, den the
    product of their scales. mat is in echelon form: row r's pivot is in
    column pivots[r], a column with no pivot is skipped, and each row swap
    flips sign. Every entry below the rows done is a minor of the swapped
    rows, so the divisions are exact; a square nonsingular mat ends on
    sign * det(mat)."""
    rows = [scaled(r) for r in rows]
    mat = [list(v) for _, v in rows]
    pivots, sign, prev = [], 1, 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        for piv in range(r, len(mat)):
            if mat[piv][col]:
                break
        else:
            continue
        if piv != r:
            mat[r], mat[piv], sign = mat[piv], mat[r], -sign
        top = mat[r][col:]
        for row in mat[r + 1:]:
            f = row[col]
            row[col:] = [(a * top[0] - f * b) // prev for a, b in zip(row[col:], top)]
        prev = top[0]
        pivots.append(col)
    return mat, pivots, sign, prod(d for d, _ in rows)


def pivot_columns(rows) -> list:
    """Ascending pivot columns of a list of rational vectors: the first
    coordinates on which the rows are independent."""
    return _echelon(rows)[1]


def rank(rows) -> int:
    """Rank of a list of rational vectors."""
    return len(pivot_columns(rows))


def det(rows):
    """Determinant of a square rational matrix of size >= 1: an int on int rows."""
    mat, pivots, sign, den = _echelon(rows)
    d = sign * mat[-1][-1] if len(pivots) == len(mat) else 0
    return d if den == 1 else Fraction(d, den)


def solve(columns, rhs):
    """(x, |det|) with sum_i x_i columns[i] = rhs, exactly, for a square
    rational system; None if the columns are singular. With d the last
    pivot, d x is integral (Cramer), so back substitution divides exactly."""
    size = len(rhs)
    mat, pivots, _, den = _echelon([*row, b] for row, b in zip(zip(*columns), rhs))
    if pivots[size - 1:] != [size - 1]:
        return None
    d, dx = mat[-1][-2], [0] * size
    for i in range(size - 1, -1, -1):
        dx[i] = (d * mat[i][-1] - dot(mat[i][i + 1:-1], dx[i + 1:])) // mat[i][i]
    return [Fraction(x, d) for x in dx], Fraction(abs(d), den)


def iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for integers x >= 0 and 1 <= k < 1024. With 2^q <=
    x^(1/k), the float root is good to about 2^-51: read in units of
    2^(q-50) and raised by 2 units, it starts integer Newton steps above
    the root, which decrease to the floor root and stop there."""
    if x < 0:
        raise ValueError("negative radicand")
    if k == 1 or x < 2:
        return x
    n = x.bit_length()
    q = (n - 1) // k
    cut = max(n - 64, 0)
    top = min(q, 50)
    r = (int(ldexp(ldexp(x >> cut, cut - q * k) ** (1.0 / k), top)) + 2) << q - top
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


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

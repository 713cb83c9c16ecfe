"""Dense two-phase simplex over exact rationals, in integers.

Small problems only (tens of variables); Bland's rule guarantees
termination. Variables are nonnegative. The tableau is an integer matrix T
over one denominator d > 0, pivoted by the integer-preserving update of
Edmonds (1967) and Bareiss (1968) and reduced by the gcd of T and d.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .vectors import frac


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _pivot(tab, basis, d, row, col) -> int:
    """Pivot tab/d on (row, col) in place; returns the new denominator."""
    p, prow = tab[row][col], tab[row]
    for i, line in enumerate(tab):
        f = line[col]
        tab[i] = ([a * d for a in prow] if i == row else
                  [a * p - f * b for a, b in zip(line, prow)] if f else [a * p for a in line])
    d *= p
    g = gcd(d, *chain.from_iterable(tab)) * (1 if d > 0 else -1)  # a drive-out p can be < 0
    if g != 1:
        tab[:] = [[a // g for a in line] for line in tab]
    basis[row] = col
    return d // g


def _run_simplex(tab, basis, d, cost, width, banned=frozenset()):
    """Minimize the integer cost over tab/d; cost has `width` entries (one per
    column). Returns (d, the objective times d)."""
    while True:
        # z_j = c_B . T_j, so d times the reduced cost r_j is d c_j - z_j
        cb = [cost[b] for b in basis]
        z = [sum(map(mul, cb, col)) for col in zip(*tab)] or [0] * (width + 1)
        skip = banned.union(basis)          # Bland: the first column with r_j < 0
        entering = next((j for j in range(width) if j not in skip and d * cost[j] < z[j]), -1)
        if entering < 0:
            return d, z[-1]
        # least ratio rhs/a over a > 0, cross-multiplied; ties to the least basis index
        leave = -1
        for i, line in enumerate(tab):
            if line[entering] > 0 and (leave < 0 or (
                    line[-1] * tab[leave][entering], basis[i])
                    < (tab[leave][-1] * line[entering], basis[leave])):
                leave = i
        if leave < 0:
            raise Unbounded()
        d = _pivot(tab, basis, d, leave, entering)


def solve_lp(objective, a_eq=(), b_eq=(), a_ge=(), b_ge=(), maximize=False):
    """Solve min (or max) objective.x  s.t.  a_eq x = b_eq, a_ge x >= b_ge, x >= 0.

    Returns (optimal value, x) as exact Fractions.
    """
    obj = [-frac(c) if maximize else frac(c) for c in objective]
    n = len(obj)

    rows = [([frac(x) for x in a], frac(b)) for a, b in zip(a_eq, b_eq)]
    neq = len(rows)
    rows += [([frac(x) for x in a], frac(b)) for a, b in zip(a_ge, b_ge)]
    m = len(rows)
    nslack = m - neq
    width = n + nslack + m  # structural + surplus + artificial
    d = lcm(1, *(x.denominator for a, b in rows for x in a + [b]))
    tab = []
    for i, (a, b) in enumerate(rows):
        sign = -1 if b < 0 else 1       # make rhs nonnegative
        line = [sign * x.numerator * (d // x.denominator) for x in a + [b]]
        line[n:n] = [0] * (nslack + m)
        if i >= neq:
            line[n + i - neq] = -sign * d   # surplus
        line[n + nslack + i] = d        # artificials are the starting basis
        tab.append(line)
    basis = [n + nslack + i for i in range(m)]

    phase1 = [0] * (n + nslack) + [1] * m
    d, art_sum = _run_simplex(tab, basis, d, phase1, width)
    if art_sum != 0:
        raise Infeasible()
    # pivot any lingering artificial out of the basis (or drop a redundant row)
    for i in range(m - 1, -1, -1):
        if basis[i] >= n + nslack:
            col = next((j for j in range(n + nslack) if tab[i][j] != 0), None)
            if col is None:
                del tab[i], basis[i]
            else:
                d = _pivot(tab, basis, d, i, col)

    scale = lcm(1, *(c.denominator for c in obj))
    phase2 = [c.numerator * (scale // c.denominator) for c in obj] + [0] * (nslack + m)
    banned = frozenset(range(n + nslack, width))
    d, val = _run_simplex(tab, basis, d, phase2, width, banned)
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[i][-1], d)
    val = Fraction(val, d * scale)
    return (-val if maximize else val), tuple(x)

"""Ground truth and assembly: exact point counts, height zeta partial sums,
and the full predicted leading constant.

The innermost unit of counting is a 2-D array block; Python loops only
over the coordinates before it. Three enumerators produce the positive
primitive solutions of the monomial relations:

- the relation enumerator (`_enumerate_relations`) serves any problem. Its
  blocks are x_(w-1) by x_w, or x_(w-2) by x_(w-1) when a relation uses the
  last coordinate: x_w is then solved per cell by an exact integer root;
- the coprime-pair grid (`_pair_grid`) scans coprime (w1, w2) under a
  monomial coordinate map; it serves the torus of P^1 and the two-variable
  hypersurfaces;
- the valuation solve (`_count_prefix_solve`) serves counts on
  hypersurfaces with n >= 3: x_(n-1) is an array, and x_n runs over
  base * j^step, where base is the least value that makes every prime's
  valuation of the product a multiple of q.

Two reductions consume their points: an exact count, with heights compared
as scaled integers (`_height_mask`), and a zeta collector of float heights
summed per s. Array products run in int64 only when a bound (box to the
exponent sum of a relation side, or the height limit) shows they fit, and
otherwise on numpy object arrays of Python ints. Coprimality of a block
with a gcd g is one kernel (`_coprime_block`): each prime p of g, or every
prime when there is no g, strikes out the columns divisible by p in the
rows divisible by p. Fixed chunk partitions reduced in order keep every
result independent of the thread count.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .euler import EulerReport, euler_constant
from .generators import generators_with_check
from .model import (GeneralizedPolynomial, InvariantError, ToricProblem,
                    ellipticity_witness, hypersurface_problem,
                    hypersurface_weight, restrict_to_hypersurface, sign_count,
                    toric_weight)
from .polyhedron import build_polyhedron, diagonal_face, face_points
from .quadrature import ConstantValue
from .vectors import frac, rank
from .volumes import MixedTypeT, mixed_volume_constant


class BoxTooLarge(Exception):
    pass


class NonCompactFace(Exception):
    pass


DEFAULT_BUDGET = 10_000_000_000
ZETA_BUDGET = 100_000_000  # zeta_partial's default number of terms
# Fixed partitions keep reductions independent of the thread count. The
# zeta float sums also depend on GRID_ROWS, the pair-grid rows per chunk.
CHUNK = 2048
GRID_ROWS = 256
# cells per block of the relation enumerator, which bound its memory: a
# block of int64 products holds this many, a block of sup-norm coprimality,
# one byte per cell, eight times as many
BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class CountResult:
    t: Fraction
    count: int
    box: tuple
    mode: str
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class ManinReport:
    iota: Fraction
    rho: int
    c: tuple
    sign_factor: int
    degree: Fraction
    volume: ConstantValue
    euler: EulerReport
    leading_constant: float
    zeta_constant: float           # leading_constant * iota * (rho-1)!
    rel_error: float
    compact: bool
    dimension_ok: bool
    stabilized: bool
    face_points: tuple


def _threads(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, threads)
    return max(1, int(os.environ.get("MANIN_TORIC_THREADS", "1")))


def _iroot(x: int, k: int) -> int:
    """Floor integer k-th root, Newton on integers."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0 or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def _perfect_root(x: int, k: int) -> Optional[int]:
    r = _iroot(x, k)
    return r if r ** k == x else None


def _height_data(poly: GeneralizedPolynomial, t: Fraction):
    """(integer terms, limit): height <= t iff the terms sum to at most limit."""
    if not poly.has_integer_exponents:
        raise ValueError("exact counting needs integer exponents in the height")
    scale, terms = poly.scaled_integer_terms()
    d = poly.degree
    if d.denominator != 1:
        raise ValueError("homogeneous integer degree required")
    return terms, math.floor(frac(t) ** int(d) * scale)


def _poly_box(poly: GeneralizedPolynomial, t: Fraction) -> int:
    """Per-coordinate enumeration bound: P(m) >= kappa max(m)^d."""
    kappa = ellipticity_witness(poly)
    d = float(poly.degree)
    return int(math.floor(float(t) / kappa ** (1.0 / d) * (1 + 1e-12)))


def _eval_terms_int(terms, point):
    """Sum of the integer terms at a point of ints or broadcast int arrays."""
    total = 0
    for coeff, exps in terms:
        v = coeff
        for x, e in zip(point, exps):
            if e:
                v = v * x ** e
        total = total + v
    return total


def _height_mask(terms, limit, peaks, coords):
    """Exact mask of P <= limit over broadcast integer coordinates.

    coords(dtype) builds the coordinates, each at most its entry of peaks.
    They are int64 when sum |c| prod peak^e, which bounds every partial sum,
    and limit fit in it, else numpy object arrays of Python ints.
    """
    bound = sum(abs(c) * math.prod(p ** e for p, e in zip(peaks, exps))
                for c, exps in terms)
    dtype = np.int64 if max(bound, limit, *peaks) < 2 ** 63 else object
    return _eval_terms_int(terms, coords(dtype)) <= limit


def _float_heights(poly: GeneralizedPolynomial, coords):
    """P(coords)^(1/d) in float64 over broadcast coordinate arrays."""
    total = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in coords)))
    for c, e in poly.monomials:
        term = float(c)
        for x, ek in zip(coords, e):
            if ek:
                term = term * x ** float(ek)
        total += term
    return total ** (1.0 / float(poly.degree))


def _chunk_map(fn, starts, threads):
    """fn over a fixed partition, results in partition order: reductions of
    the results do not depend on the thread count."""
    starts = list(starts)
    nthreads = _threads(threads)
    if nthreads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            return list(pool.map(fn, starts))
    return [fn(lo) for lo in starts]


def _count_setup(poly, t, w, height_mode):
    """(t, per-coordinate box, exact height data or None for the sup norm)."""
    t = frac(t)
    if t < 1:
        raise ValueError("t must be at least 1")
    if height_mode == "sup":
        return t, int(t), None
    if height_mode != "polynomial":
        raise ValueError(f"unknown height mode {height_mode!r}")
    if poly is None or poly.nvars != w or not poly.is_homogeneous:
        raise ValueError("polynomial mode needs a homogeneous height in all coordinates")
    return t, _poly_box(poly, t), _height_data(poly, t)


def count_points(problem: ToricProblem, poly: Optional[GeneralizedPolynomial],
                 t, height_mode: str = "polynomial", budget: int = DEFAULT_BUDGET,
                 threads: Optional[int] = None) -> CountResult:
    """Exact count of torus points of height at most t.

    The count is the sign factor times the number of positive primitive
    integer solutions of the monomial relations inside the height ball.
    """
    w = problem.width
    t, box, hdata = _count_setup(poly, t, w, height_mode)
    rows = problem.rows
    solving = [r for r in rows if r[w - 1] != 0]
    est = box ** (w - 1) if solving or not rows else box ** w
    for r in rows:
        last = max(j for j in range(w) if r[j] != 0)
        if last < w - 1:
            est = max(est // box, 1)
    if est > budget:
        raise BoxTooLarge(f"estimated {est:.3g} operations exceed budget {budget:.3g}")

    csign = sign_count(problem).value
    started = time.monotonic()
    total = _enumerate_relations(rows, w, box, hdata, threads, _count_batch, int)
    return CountResult(t=t, count=csign * total, box=(box,) * w, mode=height_mode,
                       elapsed=time.monotonic() - started)


def _count_batch(prefix, coords, keep) -> int:
    return int(np.count_nonzero(keep))


def _monomial_sides(pairs, values, one=1):
    """Both sides of a monomial relation given by its (column, nonzero
    exponent) pairs, evaluated at values (ints or arrays); each side starts
    from one, which fixes the shape and dtype of array sides."""
    num = den = one
    for j, a in pairs:
        if a > 0:
            num = num * values[j] ** a
        else:
            den = den * values[j] ** (-a)
    return num, den


def _factorize(m: int) -> dict:
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _smallest_prime_factors(n: int):
    """spf[m] for 0 <= m <= n: the least prime factor of m, with spf[0] = 0
    and spf[1] = 1."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            tail = spf[p * p::p]
            tail[tail == 0] = p
    idx = np.arange(n + 1, dtype=np.int64)
    spf[spf == 0] = idx[spf == 0]
    return spf


@functools.lru_cache(maxsize=8)
def _primes_upto(n: int):
    """The primes <= n as a read-only int64 array (cached)."""
    spf = _smallest_prime_factors(n)
    primes = np.flatnonzero(spf == np.arange(n + 1))[2:]
    primes.flags.writeable = False
    return primes


def _coprime_block(g: int, lo: int, nrows: int, ncols: int):
    """Mask of the cells (lo + i, j + 1), 0 <= i < nrows, 0 <= j < ncols,
    with gcd(g, lo + i, j + 1) = 1; g = 0 means no third number.

    Every prime p of g (every prime <= ncols for g = 0) strikes out the
    columns divisible by p in the rows divisible by p; a prime that divides
    no row costs one vectorized remainder, not a strike.
    """
    if g < 0:
        raise ValueError(f"coprimality needs g >= 0, got {g}")
    keep = np.ones((nrows, ncols), dtype=bool)
    primes = np.fromiter(_factorize(g), dtype=np.int64) if g else _primes_upto(ncols)
    first = -lo % primes  # the first row divisible by each prime
    hit = first < nrows
    for p, i in zip(primes[hit].tolist(), first[hit].tolist()):
        keep[i::p, p - 1::p] = False
    return keep


def _enumerate_relations(rows, w, box, hdata, threads, batch, start):
    """Positive primitive solutions in [1, box]^w, in 2-D blocks.

    The block's columns are x_w, or x_(w-1) when a relation uses the last
    column: x_w is then solved per cell from the first such relation by an
    exact integer root. Its rows are the coordinate before the columns, in
    runs of about BLOCK_CELLS cells (none when w = 2 and x_2 is solved: the
    block is one row of x_1). Python loops only over the coordinates before
    the rows, the prefix. Relations that end at a prefix coordinate are
    checked per prefix, those that end at the row coordinate filter the
    rows, the rest run on the block; so does the height floor. Each block's
    solutions go to batch(prefix, coords, keep): keep masks the cells and
    coords, one array per coordinate after the prefix, broadcast to its
    shape. The results are summed from start() per chunk of x_1 values,
    then in chunk order.
    """
    checks = {}  # relations by their last column, as (column, exponent) pairs
    for r in rows:
        pairs = tuple((j, a) for j, a in enumerate(r) if a)
        checks.setdefault(pairs[-1][0], []).append(pairs)
    solving = checks.get(w - 1, [])
    col = w - 2 if solving else w - 1  # the block's column coordinate
    row = col - 1                      # its row coordinate; -1 for none
    terms, limit = hdata if hdata else (None, None)
    vec = np.arange(1, box + 1, dtype=np.int64)
    run = max(1, BLOCK_CELLS * (1 if solving or hdata else 8) // box)  # rows
    arrayed = [r for c in range(max(row, 0), w) for r in checks.get(c, [])]
    side = max((sum(abs(a) for _, a in r if (a > 0) == sign)
                for r in arrayed for sign in (True, False)), default=0)
    # every relation product on arrays is at most box^side: int64 when that fits
    dtype = np.int64 if box ** side < 2 ** 63 else object

    def cast(prefix, arrays, dt):
        return prefix + tuple(x.astype(dt) for x in arrays)

    def sides(r, prefix, arrays):
        """Both sides of relation r, each in the least shape its arrays
        broadcast to."""
        one = np.ones((1,) * arrays[0].ndim, dtype)
        return _monomial_sides(r, cast(prefix, arrays, dtype), one)

    def holds(r, prefix, arrays):
        num, den = sides(r, prefix, arrays)
        return num == den

    def prefix_ok(depth, values):
        for r in checks.get(depth - 1, []):
            num, den = _monomial_sides(r, values)
            if num != den:
                return False
        if hdata and depth < w:
            floor_pt = tuple(values) + (1,) * (w - depth)
            if _eval_terms_int(terms, floor_pt) > limit:
                return False
        return True

    def row_ok(prefix, rv):
        """Mask of the row values rv that pass the relations ending at the
        row coordinate and the height floor."""
        ok = np.ones(len(rv), dtype=bool)
        for r in checks.get(row, []):
            ok &= holds(r, prefix, (rv,))
        if hdata:
            ones = (1,) * (w - row - 1)
            ok &= _height_mask(terms, limit, prefix + (box,) + ones,
                               lambda dt: cast(prefix, (rv,), dt) + ones)
        return ok

    def unsolved(prefix, g, lo, hi):
        """The block of rows [lo, hi) by x_w."""
        keep = _coprime_block(g, lo, hi - lo, box)
        rv = vec[lo - 1:hi - 1]
        ok = row_ok(prefix, rv)
        if not ok.all():
            keep, rv = keep[ok], rv[ok]
        blk = (rv[:, None], vec[None, :])
        if hdata:
            keep &= _height_mask(terms, limit, prefix + (box, box),
                                 lambda dt: cast(prefix, blk, dt))
        return batch(prefix, blk, keep)

    if solving:  # x_w^e times the monomial `head` of the other columns
        head, (_, e) = solving[0][:-1], solving[0][-1]
        k = abs(e)

    def solve(prefix, g, rv, cv):
        """The block of row values rv by column values cv (rv None: one row,
        no row coordinate) with x_w solved from `head`; g is the prefix's
        gcd (0 for none). The cells that pass are gathered by flat index."""
        blk = (cv[None, :],) if rv is None else (rv[:, None], cv[None, :])
        shape = (len(blk[0]), len(cv))
        num, den = sides(head, prefix, blk)
        if e < 0:
            num, den = den, num
        ok = np.broadcast_to(den, shape) % num == 0
        for r in checks.get(col, []):
            ok &= holds(r, prefix, blk)
        if hdata:
            ok &= _height_mask(terms, limit, prefix + (box,) * len(blk) + (1,),
                               lambda dt: cast(prefix, blk, dt) + (1,))
        flat = np.flatnonzero(ok)
        ri = flat // shape[1]
        ci = flat - ri * shape[1]

        def pick(x):  # x at the cells, from its broadcast shape
            if x.shape == shape:
                return x.ravel().take(flat)
            if x.shape[1] == 1:
                return np.broadcast_to(x[:, 0], shape[:1]).take(ri)
            return x[0].take(ci)

        val = pick(den) // pick(num)
        if k == 1:
            ms = val
        elif dtype is object:
            ms = np.array([_iroot(v, k) for v in val.tolist()], dtype=object)
        else:  # a float estimate, confirmed exactly below
            ms = np.rint(val.astype(np.float64) ** (1.0 / k)).astype(np.int64)
        fit = (ms >= 1) & (ms <= box)
        if k > 1:  # k <= side, so a clipped root's k-th power fits the dtype
            fit &= np.where(fit, ms, 1).astype(dtype) ** k == val
        cells = [cv.take(ci[fit]), ms[fit].astype(np.int64)]
        if rv is not None:
            cells.insert(0, rv.take(ri[fit]))
        keep = functools.reduce(np.gcd, cells, g) == 1
        for r in solving[1:]:
            keep &= holds(r, prefix, cells)
        if hdata:
            keep &= _height_mask(terms, limit, prefix + (box,) * len(cells),
                                 lambda dt: cast(prefix, cells, dt))
        return batch(prefix, tuple(cells), keep)

    def blocks(prefix, g, lo, hi):
        """The rows [lo, hi) after the prefix, a run at a time."""
        if row < 0:
            return solve(prefix, g, None, vec[lo - 1:hi - 1])
        total = start()
        for a in range(lo, hi, run):
            b = min(a + run, hi)
            if solving:
                rv = vec[a - 1:b - 1]
                total += solve(prefix, g, rv[row_ok(prefix, rv)], vec)
            else:
                total += unsolved(prefix, g, a, b)
        return total

    def rec(depth, values, g, lo, hi):
        """Coordinate depth + 1 over [lo, hi) after the prefix values."""
        if depth == max(row, 0):
            return blocks(values, g, lo, hi)
        total = start()
        for m in range(lo, hi):
            vals = values + (m,)
            if prefix_ok(depth + 1, vals):
                total += rec(depth + 1, vals, gcd(g, m), 1, box + 1)
        return total

    def chunk(lo):
        return rec(0, (), 0, lo, min(lo + CHUNK, box + 1))

    return sum(_chunk_map(chunk, range(1, box + 1, CHUNK), threads), start())


def _two_var_powers(a):
    """The primitive solutions of x1^a1 x2^a2 = x3^q are (w1^q1, w2^q2,
    w1^e1 w2^e2) over coprime w1, w2: these exponents as (w1, w2) pairs."""
    q = sum(a)
    g1, g2 = gcd(a[0], q), gcd(a[1], q)
    return (q // g1, 0), (0, q // g2), (a[0] // g1, a[1] // g2)


def _pair_coords(v1, v2, powers):
    """Coordinates w1^a w2^b, one (a, b) per coordinate, over the grid v1 x v2."""
    coords = []
    for a, b in powers:
        if a and b:
            coords.append((v1 ** a)[:, None] * (v2 ** b)[None, :])
        elif a:
            coords.append((v1 ** a)[:, None])
        else:
            coords.append((v2 ** b)[None, :])
    return coords


def _pair_grid(w1max, w2max, reduce, threads):
    """reduce(v1, v2, coprime mask) over the rows of [1, w1max] x [1, w2max]
    in fixed chunks of GRID_ROWS; the results come back in chunk order."""
    v2 = np.arange(1, w2max + 1, dtype=np.int64)

    def chunk(lo):
        v1 = np.arange(lo, min(lo + GRID_ROWS - 1, w1max) + 1, dtype=np.int64)
        return reduce(v1, v2, _coprime_block(0, lo, len(v1), w2max))

    return _chunk_map(chunk, range(1, w1max + 1, GRID_ROWS), threads)


def count_points_hypersurface(a, poly: Optional[GeneralizedPolynomial], t,
                              height_mode: str = "polynomial",
                              budget: int = DEFAULT_BUDGET,
                              threads: Optional[int] = None) -> CountResult:
    """Fast path for x_1^a1 ... x_n^an = x_(n+1)^q; agrees with count_points.

    For n = 2 the primitive solutions are exactly (w1^q1, w2^q2) with
    coprime w's, so the scan is a small coprimality grid. Larger n walks
    prefixes and solves the final coordinate through prime valuations.
    """
    a = tuple(int(x) for x in a)
    problem = hypersurface_problem(a)
    n = len(a)
    w = n + 1
    t, box, hdata = _count_setup(poly, t, w, height_mode)
    csign = sign_count(problem).value
    started = time.monotonic()
    if n == 2:
        total = _count_two_var(a, box, hdata, threads)
    else:
        total = _count_prefix_solve(a, box, hdata, budget)
    return CountResult(t=t, count=csign * total, box=(box,) * w, mode=height_mode,
                       elapsed=time.monotonic() - started)


def _count_two_var(a, box, hdata, threads) -> int:
    powers = _two_var_powers(a)
    w1max, w2max = _iroot(box, powers[0][0]), _iroot(box, powers[1][1])
    peaks = [w1max ** p * w2max ** q for p, q in powers]

    def reduce(v1, v2, cop):
        if hdata:
            cop &= _height_mask(*hdata, peaks, lambda dtype: _pair_coords(
                v1.astype(dtype), v2.astype(dtype), powers))
        return int(np.count_nonzero(cop))
    return sum(_pair_grid(w1max, w2max, reduce, threads))


def _count_prefix_solve(a, box, hdata, budget) -> int:
    """x_1^a1 ... x_n^an = x_(n+1)^q for n >= 3, solved through valuations.

    Python walks m_1..m_(n-2) and m_(n-1) is an array. The product is a
    q-th power iff m_n = base * j^step for a j >= 1, where base is the
    least m_n that makes every prime's valuation a multiple of q. The base
    of each m_(n-1) on its own comes once from a smallest-prime-factor
    sieve; a prefix corrects it at the prefix's primes. Bases saturate at
    box + 1, which stands for no solution. The root is checked exactly on
    arrays, in int64 while (box + 1)^q fits and on Python ints otherwise.
    """
    n = len(a)
    q = sum(a)
    g_last = gcd(a[-1], q)
    step = q // g_last
    inv = pow(a[-1] // g_last, -1, step) if step > 1 else 0
    terms, limit = hdata if hdata else (None, None)
    if box ** (n - 1) > budget:
        raise BoxTooLarge(f"prefix box {box}^{n - 1} exceeds budget")
    cap = box + 1
    if cap * cap >= 2 ** 63:  # saturated products of two bases must fit
        raise BoxTooLarge(f"box {box} is beyond the int64 valuation solve")
    dtype = np.int64 if cap ** q < 2 ** 63 else object
    vec = np.arange(1, box + 1, dtype=np.int64)
    jpow = np.array([j ** step for j in range(1, _iroot(box, step) + 1)], dtype=np.int64)

    def least_exponent(v):
        """The least e >= 0 with v + a_n e = 0 mod q per valuation v, or -1
        where there is none."""
        r = -v % q
        return np.where(r % g_last == 0, r // g_last * inv % step, -1)

    def power(p, e):
        """min(p^e, cap) elementwise, and cap where e = -1."""
        out = np.ones(np.shape(e), dtype=np.int64)
        for i in range(step - 1):
            out = np.where(i < e, np.minimum(out * p, cap), out)
        return np.where(e < 0, cap, out)

    # own[m - 1]: the base of m_(n-1) = m alone, from the smallest prime
    # factors: each pass divides out one prime of every m
    spf = _smallest_prime_factors(box)
    own = np.ones(box, dtype=np.int64)
    rest = vec
    while (rest > 1).any():
        p = spf[rest]
        v = np.zeros(box, dtype=np.int64)
        while (d := (rest % p == 0) & (p > 1)).any():
            rest = np.where(d, rest // p, rest)
            v += d
        own = np.minimum(own * power(p, least_exponent(a[-2] * v)), cap)

    def last_two(values, g, rval, rfac):
        """Solutions after the prefix values with gcd g, product rval and
        valuations rfac."""
        rest, base = vec, np.ones(box, dtype=np.int64)
        for p, vpre in rfac.items():
            if vpre % q:  # else `own` already has p's exponent
                v = np.zeros(box, dtype=np.int64)  # v_p(m)
                pk = p
                while pk <= box:
                    v[pk - 1::pk] += 1
                    pk *= p
                rest = rest // p ** v
                base = np.minimum(base * power(p, least_exponent(vpre + a[-2] * v)), cap)
        base = np.minimum(base * own[rest - 1], cap)
        if hdata:
            base[~_height_mask(terms, limit, values + (box, 1, 1),
                               lambda dt: values + (vec.astype(dt), 1, 1))] = cap
        reps = np.searchsorted(jpow, box // base, side="right")  # the j per m
        mi = np.repeat(vec, reps)
        j = np.arange(len(mi)) - np.repeat(np.cumsum(reps) - reps, reps)
        mn = np.repeat(base, reps) * jpow[j]
        ok = np.gcd(np.gcd(mi, g), mn) == 1
        mi, mn = mi[ok], mn[ok]
        prod = rval * mi.astype(dtype) ** a[-2] * mn.astype(dtype) ** a[-1]
        if dtype is object:
            y = np.array([_iroot(x, q) for x in prod.tolist()], dtype=object)
        else:  # a float estimate, confirmed exactly below
            y = np.rint(prod.astype(np.float64) ** (1.0 / q)).astype(np.int64)
        bad = (y ** q != prod).nonzero()[0]
        if len(bad):
            raise InvariantError(f"valuation solve gave {mn[bad[0]]}, but the "
                                 f"product is no {q}-th power")
        if hdata is None:
            return len(mi)
        y = y.astype(np.int64)
        return int(np.count_nonzero(_height_mask(
            terms, limit, values + (box,) * 3,
            lambda dt: values + (mi.astype(dt), mn.astype(dt), y.astype(dt)))))

    def rec(idx, values, g, rval, rfac):
        if idx == n - 2:
            return last_two(values, g, rval, rfac)
        total = 0
        for m in range(1, box + 1):
            if hdata is not None:
                floor_pt = values + (m,) + (1,) * (n - idx)
                if _eval_terms_int(terms, floor_pt) > limit:
                    break
            nf = dict(rfac)
            for p, v in _factorize(m).items():
                nf[p] = nf.get(p, 0) + a[idx] * v
            total += rec(idx + 1, values + (m,), gcd(g, m), rval * m ** a[idx], nf)
        return total

    return rec(0, (), 0, 1, {})


@dataclass(frozen=True)
class ZetaSample:
    s: float
    partial: float
    tail_estimate: float
    covered_height: float
    covered_count: int

    @property
    def value(self) -> float:
        return self.partial + self.tail_estimate

    def probe(self, iota: float, rho: int) -> float:
        """(s - iota)^rho times the estimated zeta value."""
        return (self.s - iota) ** rho * self.value


def _pipeline_inputs(problem_or_a, poly):
    """Normalize the entry points to (spec, weight polynomial, sign factor).

    Accepts a toric problem, a hypersurface exponent vector, or a raw weight
    spec (sign factor 1, no counting support for the latter).
    """
    from .model import UniformMultiplicativeSpec
    if isinstance(problem_or_a, UniformMultiplicativeSpec):
        spec = problem_or_a
        if poly is not None and poly.nvars != spec.arity:
            raise ValueError("height polynomial arity must match the weight")
        return spec, poly, 1, None
    if isinstance(problem_or_a, ToricProblem):
        problem = problem_or_a
        if poly is not None and poly.nvars != problem.width:
            raise ValueError("height polynomial must use every homogeneous coordinate")
        return toric_weight(problem), poly, sign_count(problem).value, problem
    a = tuple(int(x) for x in problem_or_a)
    problem = hypersurface_problem(a)
    weight_poly = restrict_to_hypersurface(poly, a) if poly is not None else None
    return hypersurface_weight(a), weight_poly, sign_count(problem).value, problem


def manin_constant(problem_or_a, poly: GeneralizedPolynomial,
                   cap: Optional[int] = None, cutoff: int = 100_000,
                   quad_tol: float = 1e-9, euler_tol: float = 1e-10,
                   precision: int = 160, seed: int = 0) -> ManinReport:
    """Assemble the predicted leading constant for the height density.

    sign * d^rho * A0 * Euler / (iota * (rho-1)!), with A0 the mixed volume
    constant of the face type against the (restricted) height polynomial and
    Euler the regularized product at the normalized polar vector.
    """
    spec, weight_poly, csign, _ = _pipeline_inputs(problem_or_a, poly)
    if weight_poly is None or not weight_poly.is_homogeneous:
        raise ValueError("a homogeneous height polynomial is required")
    gens = generators_with_check(spec, cap)
    e = build_polyhedron(gens.points)
    df = diagonal_face(e, spec)
    if not df.compact:
        raise NonCompactFace("the diagonal face is not compact; no predicted constant")
    dim_ok = df.face.dim == rank(list(gens.points)) - 1

    pts = face_points(spec, df.c)
    t_type = MixedTypeT.of(pts, [spec.g(b) for b in pts])
    k_reg = sum(t_type.multiplicities)
    if k_reg != df.face_point_count:
        raise InvariantError(f"face points carry weight {k_reg}, the diagonal "
                             f"face counts {df.face_point_count}")
    volume = mixed_volume_constant(t_type, weight_poly, tol=quad_tol, seed=seed)
    euler = euler_constant(spec, df.c, k_reg, cutoff=cutoff, tol=euler_tol,
                           precision=precision, generators=gens)
    rho = df.rho
    iota = df.iota
    d = weight_poly.degree
    euler_f = float(euler.value)
    lead = csign * float(d) ** rho * volume.value * euler_f \
        / (float(iota) * math.factorial(rho - 1))
    rel = 0.0
    if volume.value:
        rel += abs(volume.abs_error / volume.value)
    if euler_f:
        rel += abs(euler.error_bound / euler_f)
    return ManinReport(iota=iota, rho=rho, c=df.c, sign_factor=csign, degree=d,
                       volume=volume, euler=euler, leading_constant=lead,
                       zeta_constant=lead * float(iota) * math.factorial(rho - 1),
                       rel_error=rel, compact=df.compact, dimension_ok=dim_ok,
                       stabilized=gens.stabilized, face_points=tuple(pts))


def predicted_density(report: ManinReport, t: float) -> float:
    """C * t^iota * (log t)^(rho - 1)."""
    return report.leading_constant * t ** float(report.iota) \
        * math.log(t) ** (report.rho - 1)


def sup_norm_prediction(problem_or_a):
    """(C, iota, rho) for the max-coordinate height, where a closed form exists.

    Covers the full torus of projective space (Schanuel-style box count) and
    two-variable hypersurfaces via the coprime power parametrization. The
    constant includes the sign factor, i.e. it predicts the full point count.
    """
    import mpmath as mp
    if isinstance(problem_or_a, ToricProblem):
        if problem_or_a.l != 0:
            raise ValueError("sup-norm prediction implemented for the full torus only")
        n = problem_or_a.n
        return 2 ** n / float(mp.zeta(n + 1)), Fraction(n + 1), 1
    a = tuple(int(x) for x in problem_or_a)
    if len(a) != 2:
        raise ValueError("sup-norm prediction implemented for two-variable hypersurfaces")
    (q1, _), (_, q2), _ = _two_var_powers(a)
    csign = sign_count(hypersurface_problem(a)).value
    iota = Fraction(1, q1) + Fraction(1, q2)
    return csign / float(mp.zeta(2)), iota, 1


def zeta_partial(problem_or_a, poly: GeneralizedPolynomial, s_values,
                 iota: Fraction, rho: int = 1, term_budget: int = ZETA_BUDGET,
                 height_mode: str = "polynomial",
                 threads: Optional[int] = None):
    """Partial sums of the height zeta function at real s > iota.

    One enumeration pass covers every requested s. Points are truncated at
    the largest height whose ball is provably inside the scanned box; the
    tail is extrapolated from the measured count at the boundary (reported
    separately, an estimate rather than a certified bound).
    """
    single = isinstance(s_values, (int, float))
    s_list = [float(s_values)] if single else [float(s) for s in s_values]
    iota_f = float(iota)
    for s in s_list:
        if s <= iota_f:
            raise ValueError(f"s = {s} is not beyond the abscissa {iota_f}")
    spec, weight_poly, csign, problem = _pipeline_inputs(problem_or_a, poly)
    if problem is None:
        raise ValueError("zeta sums need a toric problem or exponent vector")
    powers = None
    if spec.kind == "hypersurface" and spec.arity == 2:
        powers = _two_var_powers(problem.rows[0][:2])
    elif problem.l == 0 and problem.width == 2:
        powers = ((1, 0), (0, 1))
    if powers:
        sums, h_cov, n_cov = _zeta_pair_grid(powers, poly, s_list, term_budget,
                                             height_mode, threads)
    else:
        sums, h_cov, n_cov = _zeta_relations(problem, poly, s_list, term_budget,
                                             height_mode, threads)
    out = []
    for s, partial in zip(s_list, sums):
        n_b = csign * n_cov
        if rho == 1:
            tail = n_b * h_cov ** (-s) * iota_f / (s - iota_f)
        else:
            from scipy import integrate as _si
            delta = n_b / (h_cov ** iota_f * math.log(h_cov) ** (rho - 1))
            val, _ = _si.quad(lambda h: h ** (iota_f - s - 1)
                              * math.log(h) ** (rho - 1), h_cov, np.inf)
            tail = delta * s * val - n_b * h_cov ** (-s)
        out.append(ZetaSample(s=s, partial=csign * partial, tail_estimate=tail,
                              covered_height=h_cov, covered_count=n_b))
    return out[0] if single else out


def _zeta_pair_grid(powers, poly, s_list, term_budget, height_mode, threads):
    """Float heights over the coprime grid w1, w2 <= sqrt(term_budget).

    The ball of height h lies in the grid while every coordinate w_i^(q_i)
    <= h / kappa^(1/d) (sup norm: kappa = 1) keeps w_i <= wmax.
    """
    wmax = int(math.sqrt(term_budget))
    edge = min((wmax + 1) ** powers[0][0], (wmax + 1) ** powers[1][1])
    kappa, d = ((ellipticity_witness(poly), float(poly.degree))
                if height_mode == "polynomial" else (1.0, 1.0))
    h_cov = kappa ** (1 / d) * edge * (1 - 1e-9)

    def reduce(v1, v2, cop):
        coords = _pair_coords(v1.astype(np.float64), v2.astype(np.float64), powers)
        if height_mode == "polynomial":
            hval = _float_heights(poly, coords)
        else:
            hval = functools.reduce(np.maximum, coords)
        mask = cop & (hval <= h_cov)
        hsel = hval[mask]
        return ([float(np.sum(hsel ** (-s))) for s in s_list],
                int(np.count_nonzero(mask)))

    sums = [0.0 for _ in s_list]
    n_cov = 0
    for part, cnt in _pair_grid(wmax, wmax, reduce, threads):
        for i, v in enumerate(part):
            sums[i] += v
        n_cov += cnt
    return sums, h_cov, n_cov


def _zeta_relations(problem, poly, s_list, term_budget, height_mode, threads):
    """Heights of the relation enumerator's points in a box of side
    term_budget^(1/width), point by point, summed in sorted order."""
    w = problem.width
    box = max(2, int(term_budget ** (1.0 / w)))
    if height_mode == "polynomial":
        d = float(poly.degree)
        h_cov = ellipticity_witness(poly) ** (1 / d) * (box + 1) * (1 - 1e-9)

        def height(p):
            return poly.eval_float(p) ** (1 / d)
    else:
        h_cov = float(box)

        def height(p):
            return float(max(p))

    def batch(prefix, coords, keep):
        cols = [np.broadcast_to(x, keep.shape)[keep].tolist() for x in coords]
        return [height(prefix + p) for p in zip(*cols)]

    heights = _enumerate_relations(problem.rows, w, box, None, threads, batch, list)
    kept = sorted(h for h in heights if h <= h_cov)
    sums = [sum(h ** (-s) for h in kept) for s in s_list]
    return sums, h_cov, len(kept)


@dataclass(frozen=True)
class AsymptoticRow:
    t: float
    count: int
    predicted: float
    ratio: float


@dataclass(frozen=True)
class AsymptoticReport:
    rows: tuple
    monotone_approach: bool
    final_deviation: float


def asymptotic_report(counts: Sequence[CountResult], leading_constant: float,
                      iota, rho: int) -> AsymptoticReport:
    """Measured over predicted density, with simple trend diagnostics."""
    if len(counts) < 3:
        raise ValueError("need at least three count samples")
    ordered = sorted(counts, key=lambda c: c.t)
    rows = []
    for c in ordered:
        t = float(c.t)
        pred = leading_constant * t ** float(iota) * math.log(t) ** (rho - 1)
        rows.append(AsymptoticRow(t=t, count=c.count, predicted=pred,
                                  ratio=c.count / pred if pred else math.inf))
    devs = [abs(r.ratio - 1) for r in rows]
    monotone = devs[-1] <= devs[0] + 1e-12
    return AsymptoticReport(rows=tuple(rows), monotone_approach=monotone,
                            final_deviation=devs[-1])

"""Ground truth and assembly: exact point counts, height zeta partial sums,
and the full predicted leading constant.

Three enumerators produce the positive primitive solutions of the monomial
relations:

- the relation enumerator (`_enumerate_relations`) walks coordinate
  prefixes; it serves any problem. When a relation uses the last
  coordinate, the level above it runs as arrays: x_(w-1) over its range,
  x_w solved from the relation by an exact integer root. Otherwise
  the last coordinate is the array;
- the coprime-pair grid (`_pair_grid`) scans coprime (w1, w2) under a
  monomial coordinate map; it serves the torus of P^1 and the two-variable
  hypersurfaces;
- prefix solving (`_count_prefix_solve`) walks x_1..x_(n-1) of a
  hypersurface and solves x_n through prime valuations; it serves counts
  on hypersurfaces with n >= 3.

Two reductions consume their points: an exact count, with heights compared
as scaled integers (`_height_mask`), and a zeta collector of float heights
summed per s. Array products run in int64 only when a bound (box to the
exponent sum of a relation side, or the height limit) shows they fit, and
otherwise on numpy object arrays of Python ints. Coprimality with a gcd g
is a mask that strikes out the multiples of each prime of g
(`_coprime_mask`), not Euclid per element. Fixed chunk partitions reduced
in order keep every result independent of the thread count.
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


def _count_batch(prefix, penult, last) -> int:
    return len(last)


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


def _coprime_mask(g: int, n: int):
    """Mask of the v in [1, n] coprime to g: the multiples of every prime of
    g struck out."""
    if g < 1:
        raise ValueError(f"coprimality needs g >= 1, got {g}")
    keep = np.ones(n, dtype=bool)
    for p in _factorize(g):
        keep[p - 1::p] = False
    return keep


def _enumerate_relations(rows, w, box, hdata, threads, batch, start):
    """Positive primitive solutions in [1, box]^w, prefix by prefix.

    When a relation uses the last column, x_w is solved from the first one
    with the second-to-last coordinate as an array over its range, the
    chunk's when w = 2 (`solve`); otherwise the last coordinate is the
    array (`unsolved`). Each
    batch of solutions goes to batch(first w - 2 coordinates, array of
    x_(w-1), array of x_w); the results are summed from start() per chunk of
    first coordinates, then in chunk order.
    """
    checks = {}  # relations by their last column, as (column, exponent) pairs
    for r in rows:
        pairs = tuple((j, a) for j, a in enumerate(r) if a)
        checks.setdefault(pairs[-1][0], []).append(pairs)
    solving = checks.get(w - 1, [])
    terms, limit = hdata if hdata else (None, None)
    vec = np.arange(1, box + 1, dtype=np.int64)

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

    def unsolved(values, g):
        keep = _coprime_mask(g, box)
        if hdata:
            keep &= _height_mask(terms, limit, values + (box,),
                                 lambda dtype: values + (vec.astype(dtype),))
        last = keep.nonzero()[0] + 1  # vec[keep], without a masked gather
        return batch(values[:-1], np.full(len(last), values[-1], dtype=np.int64), last)

    if solving:  # x_w^e times the monomial `head` of the other columns
        head, (_, e) = solving[0][:-1], solving[0][-1]
        k = abs(e)
        used = checks.get(w - 2, []) + solving
        side = max(sum(abs(a) for _, a in r if (a > 0) == sign)
                   for r in used for sign in (True, False))
        # every product below is at most box^side: int64 when that fits
        dtype = np.int64 if box ** side < 2 ** 63 else object

    def solve(values, g, xs):
        """x_(w-1) over the int64 array xs after the prefix values with
        running gcd g (0 for no prefix), x_w solved from `head`."""
        def sides(r, *cols):
            cols = tuple(c.astype(dtype) for c in cols)
            return _monomial_sides(r, values + cols, np.ones(len(cols[0]), dtype))

        for r in checks.get(w - 2, []):
            num, den = sides(r, xs)
            xs = xs[num == den]
        if hdata:
            xs = xs[_height_mask(terms, limit, values + (box, 1),
                                 lambda dt: values + (xs.astype(dt), 1))]
        num, den = sides(head, xs)
        if e < 0:
            num, den = den, num
        ok = den % num == 0
        xs, val = xs[ok], den[ok] // num[ok]
        if k == 1:
            ms = val
        elif dtype is object:
            ms = np.array([_iroot(v, k) for v in val.tolist()], dtype=object)
        else:  # a float estimate, confirmed exactly below
            ms = np.rint(val.astype(np.float64) ** (1.0 / k)).astype(np.int64)
        ok = (ms >= 1) & (ms <= box)
        xs, ms, val = xs[ok], ms[ok].astype(np.int64), val[ok]
        if k > 1:
            ok = ms.astype(dtype) ** k == val
            xs, ms = xs[ok], ms[ok]
        ok = np.gcd(np.gcd(xs, g), ms) == 1
        xs, ms = xs[ok], ms[ok]
        for r in solving[1:]:
            num, den = sides(r, xs, ms)
            ok = num == den
            xs, ms = xs[ok], ms[ok]
        if hdata:
            ok = _height_mask(terms, limit, values + (box, box),
                              lambda dt: values + (xs.astype(dt), ms.astype(dt)))
            xs, ms = xs[ok], ms[ok]
        return batch(values, xs, ms)

    def rec(depth, values, g, lo, hi):
        """Coordinate depth + 1 over [lo, hi) after the prefix values."""
        if solving and depth == w - 2:
            return solve(values, g, vec[lo - 1:hi - 1])
        total = start()
        for m in range(lo, hi):
            vals = values + (m,)
            if prefix_ok(depth + 1, vals):
                if depth + 1 == w - 1:
                    total += unsolved(vals, gcd(g, m))
                else:
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
        return reduce(v1, v2, np.stack([_coprime_mask(int(a), w2max) for a in v1]))

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


def _count_prefix_solve(a, box, hdata, budget) -> int:
    """General n: enumerate m_1..m_(n-1), solve valuations for m_n."""
    n = len(a)
    q = sum(a)
    g_last = gcd(a[-1], q)
    step = q // g_last
    inv = pow(a[-1] // g_last, -1, step) if step > 1 else 0
    terms, limit = hdata if hdata else (None, None)
    if box ** (n - 1) > budget:
        raise BoxTooLarge(f"prefix box {box}^{n - 1} exceeds budget")
    total = 0

    def rec(idx, values, g, rval, rfac):
        nonlocal total
        if idx == n - 1:
            base = 1
            for p, v in rfac.items():
                r = (-v) % q
                if r % g_last:
                    return
                base *= p ** ((r // g_last * inv) % step)
                if base > box:
                    return
            j = 1
            while True:
                mn = base * j ** step
                if mn > box:
                    break
                if gcd(g, mn) == 1:
                    y = _perfect_root(rval * mn ** a[-1], q)
                    if y is None:
                        raise InvariantError(
                            f"valuation solve gave {mn}, but the product is no {q}-th power")
                    point = values + (mn, y)
                    if hdata is None or _eval_terms_int(terms, point) <= limit:
                        total += 1
                j += 1
            return
        for m in range(1, box + 1):
            if hdata is not None:
                floor_pt = values + (m,) + (1,) * (n + 1 - idx - 1)
                if _eval_terms_int(terms, floor_pt) > limit:
                    break
            fac = _factorize(m)
            nf = dict(rfac)
            for p, v in fac.items():
                nf[p] = nf.get(p, 0) + a[idx] * v
            rec(idx + 1, values + (m,), gcd(g, m), rval * m ** a[idx], nf)

    rec(0, (), 0, 1, {})
    return total


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

    def batch(prefix, penult, last):
        return [height(prefix + (x, y)) for x, y in zip(penult.tolist(), last.tolist())]

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

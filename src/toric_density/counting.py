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
  hypersurfaces with n >= 3. Its blocks are x_(n-2) by x_(n-1), and per
  cell x_n runs over base * j^step, where base is the least value that
  makes every prime's valuation of the product a multiple of q; the rows
  of a block that share a prime and its valuation's residue mod q take
  one column-vector correction of the base.

The two integer engines share one prefix walk (`_walk_prefixes`: chunks of
CHUNK x_1 values, the prefix gcd, and every coordinate, the rows too, cut
at its height floor) and one integer-root estimate (`_int_roots`).

Every entry takes a `ToricProblem`; `count_points_hypersurface` alone
takes an exponent tuple. `count_points` chooses the engine from the shape
of the relations: one row (a_1, ..., a_n, -q) with every a_i > 0, or its
negative, is the hypersurface x_1^a1 ... x_n^an = x_(n+1)^q and goes to the
pair grid (n = 2) or the valuation solve, however it was spelled; every
other problem goes to the relation enumerator. The other entries follow the
presentation (`ToricProblem.exponents`) instead: `manin_constant` analyzes
the problem's own weight (`model.problem_weight`), and only the P^1 torus
and problems given as two-variable hypersurfaces take the pair grid for
zeta sums (`zeta_partial`), since the grid's side of budget^(1/2) covers
other points than the relation enumerator's box of budget^(1/width).

Two reductions consume their points: an exact count, with heights compared
as scaled integers (`_height_mask`), and a zeta collector (`_ZetaCollector`)
that takes no root: it works on P = h^d (the largest coordinate for the sup
norm), keeps the cells with P at most the covered height to the d, takes
log P once per kept cell and sums exp(-s/d log P) per s, all in three
buffers reused from block to block (P, a term temporary and a mask); the
one array it allocates per block is the flat index of the kept cells,
which gathers them unbuffered. It reduces each block of the relation
enumerator or the pair grid to one sum per s, and adds the block sums
exactly with math.fsum; the bits of a sum depend on the block cuts and on
the order of the factors of P, not on the number of workers. On the pair
grid both reductions pull the height back to (w1, w2) (`_pull_back`), so
that P is a sum (a max for the sup norm) of outer products of a row and a
column vector. The grid feeds the collector, per chunk, only the columns
that the covered ball reaches at the chunk's first row and, when the height
is swap-symmetric, only the cells with w2 > w1 (`_zeta_pair_grid`). Array
products run in int64 only when a bound (box to the exponent sum of a
relation side; for the exact height, the limit and the height at the
largest coordinate values) shows they fit, and otherwise on numpy object
arrays of Python ints. Coprimality of a block with a gcd g is one
kernel (`_coprime_block`): each prime p of g, or every prime when there is
no g, strikes out the columns divisible by p in the rows divisible by p;
an enumerator sieves those primes once. The relation enumerator builds a
mask per block; the pair grid builds one per group of four blocks
(`_group_mask`) and hands each block a view of it. The enumerators hand
their chunks to `_chunk_map`, which spreads a fixed partition over forked
worker processes; reduced in order or exactly, every result is
independent of the number of workers.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .euler import EulerReport, _odd_sieve, euler_constant, zeta_float
from .generators import generators_with_check
from .hull import check_dimension
from .model import (GeneralizedPolynomial, InvariantError, ToricProblem,
                    ellipticity_witness, hypersurface_problem, problem_weight,
                    restrict_to_hypersurface, sign_count)
from .polyhedron import build_polyhedron, diagonal_face, face_points
from .quadrature import ConstantValue
from .vectors import frac, iroot, rank
from .volumes import MixedTypeT, mixed_volume_constant


class BoxTooLarge(Exception):
    pass


class NonCompactFace(Exception):
    pass


DEFAULT_BUDGET = 10_000_000_000
ZETA_BUDGET = 100_000_000  # zeta_partial's default number of terms
# Fixed partitions keep reductions independent of the number of workers.
# GRID_ROWS, the pair-grid rows per chunk (a multiple of BLOCK_ROWS), sets
# the work of one chunk and how often the column bound is taken.
CHUNK = 2048
GRID_ROWS = 256
# rows per block of a pair-grid chunk: a block's float P over 10^4
# columns, 1.3 MB, stays in a core's L2 cache. The zeta float sums are exact
# sums of one float sum per block, so their bits depend on BLOCK_ROWS.
BLOCK_ROWS = 16
# cells per block of the relation enumerator, which bound its memory and set
# the bits of its zeta sums: a block of int64 products holds this many, one
# with neither a height mask nor a solved coordinate eight times as many, as
# does a block of the valuation solve
BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class CountResult:
    t: Fraction
    count: int
    box: tuple
    mode: str


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


def _height_data(poly: GeneralizedPolynomial, t: Fraction):
    """(integer terms, limit): height <= t iff the terms sum to at most limit."""
    if not poly.has_integer_exponents:
        raise ValueError("exact counting needs integer exponents in the height")
    scale, terms = poly.scaled_integer_terms()
    d = poly.degree
    if d.denominator != 1:
        raise ValueError("homogeneous integer degree required")
    return terms, math.floor(frac(t) ** int(d) * scale)


def _kappa_root(poly: GeneralizedPolynomial) -> float:
    """kappa^(1/d): from P(m) >= kappa max(m)^d, no coordinate of a point
    of height at most h exceeds h / kappa^(1/d)."""
    return ellipticity_witness(poly) ** (1.0 / float(poly.degree))


def _poly_box(poly: GeneralizedPolynomial, t: Fraction) -> int:
    """Per-coordinate enumeration bound of the height ball of radius t."""
    return int(math.floor(float(t) / _kappa_root(poly) * (1 + 1e-12)))


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


def _height_mask(terms, limit, coords):
    """Exact mask of P <= limit over broadcast coordinates, positive ints and
    int64 arrays. With peak the largest value of each coordinate, the
    arrays stay int64 when sum |c| prod peak^e, which bounds every partial
    sum, and limit fit in it, else they become object arrays of Python ints.
    """
    peaks = [int(x.max(initial=0)) if isinstance(x, np.ndarray) else x for x in coords]
    bound = sum(abs(c) * math.prod(p ** e for p, e in zip(peaks, exps))
                for c, exps in terms)
    if max(bound, limit, *peaks) >= 2 ** 63:
        coords = [x.astype(object) if isinstance(x, np.ndarray) else x for x in coords]
    return _eval_terms_int(terms, coords) <= limit


def _int_roots(x, k):
    """Integer k-th roots of the array x: x itself for k = 1, exact roots
    (`iroot`) of an object array, else the int64 rounding of the float
    root, which the caller confirms exactly."""
    if k == 1:
        return x
    if x.dtype == object:
        return np.array([iroot(v, k) for v in x.tolist()], dtype=object)
    return np.rint(x.astype(np.float64) ** (1.0 / k)).astype(np.int64)


def _pull_back(terms, powers):
    """Terms (c, exponents) of a height in coordinates x_i = w1^a_i w2^b_i,
    (a_i, b_i) = powers[i], as terms (c, (alpha, beta)) in (w1, w2):
    c prod x_i^e_i = c w1^alpha w2^beta, alpha = sum e_i a_i, beta = sum e_i b_i."""
    return [(c, (sum(e * a for e, (a, _) in zip(exps, powers)),
                 sum(e * b for e, (_, b) in zip(exps, powers))))
            for c, exps in terms]


def _product(factors, out):
    """The product of factors (floats or arrays that broadcast to out's
    shape), left to right. The last multiplication writes to out; a single
    factor is returned as it is."""
    if len(factors) == 1:
        return factors[0]
    return np.multiply(math.prod(factors[:-1]), factors[-1], out=out)


class _ZetaCollector:
    """The zeta reduction of both enumerators, on P = h^d, the height to the
    degree d (d = 1 for the sup norm, where P is the largest coordinate).

    A block comes as the terms of P, each a list of factors: P is their
    products, taken left to right, added (for the sup norm: maxed) in term
    order. The pair grid pulls the height back to (w1, w2), so a term is
    (c w1^alpha) times w2^beta (`_pull_back`); the relation enumerator
    gives c then x^e per coordinate, in coordinate order. The kept cells
    with P <= p_cov = h_cov^d are compacted in row order, L = log P is taken
    once per cell, and the block's sum per s is np.sum of exp((-s/d) L).
    So the bits depend on how an enumerator cuts its blocks and orders the
    factors, and on numpy's pow, log and exp; math.fsum adds the block sums
    exactly, so they depend neither on block order nor on the number of
    workers. P, the term temporary and the mask belong to the collector,
    reused from block to block and as large as the largest block; a
    forked worker of `_chunk_map` works on its own copy. Once the kept
    cells are gathered, by their flat index, the term temporary holds L
    and the P buffer each s's exponents and exponentials, so a block
    allocates only that index. The keep mask a block gets may be a view
    of a larger mask; it is only read."""

    def __init__(self, poly: Optional[GeneralizedPolynomial], s_list, h_cov: float):
        self.poly = poly  # None for the sup norm
        self.s_list = list(s_list)
        self.h_cov = h_cov
        d = 1.0 if poly is None else float(poly.degree)
        self.p_cov = h_cov ** d
        self.scales = [-s / d for s in self.s_list]
        self.combine = np.maximum if poly is None else np.add
        self._bufs = None

    def monomials(self, nvars):
        """The terms (c, exponents) of P in nvars coordinates: the
        polynomial's monomials, or each coordinate alone for the sup norm."""
        if self.poly is None:
            return [(1, tuple(int(i == j) for j in range(nvars))) for i in range(nvars)]
        return self.poly.monomials

    def terms_at(self, coords):
        """The factors of each term at broadcast coordinates, ints or
        arrays: the coefficient unless it is 1, then x^e per coordinate
        with e != 0."""
        coords = [np.asarray(x, dtype=np.float64) for x in coords]
        terms = []
        for c, exps in self.monomials(len(coords)):
            factors = [] if c == 1 else [float(c)]
            for x, e in zip(coords, exps):
                if e:
                    factors.append(x if e == 1 else x ** float(e))
            terms.append(factors)
        return terms

    def _buffers(self, shape):
        """The P, term and mask buffers, as views of the block's shape."""
        size = math.prod(shape)
        if self._bufs is None or len(self._bufs[0]) < size:
            self._bufs = (np.empty(size), np.empty(size), np.empty(size, dtype=bool))
        return tuple(b[:size].reshape(shape) for b in self._bufs)

    def _fill(self, terms, p, t):
        """P of the terms into p, with t as the term temporary."""
        total = None
        for factors in terms:
            term = _product(factors, p if total is None else t)
            total = term if total is None else self.combine(total, term, out=p)
        if total is not p:
            np.copyto(p, total)

    def covered(self, terms, shape):
        """The number of cells of a block of this shape with P <= p_cov."""
        p, t, m = self._buffers(shape)
        self._fill(terms, p, t)
        return int(np.count_nonzero(np.less_equal(p, self.p_cov, out=m)))

    def block(self, terms, keep):
        """([sum of h^-s per s], count) over the cells in keep with
        P <= p_cov."""
        p, t, m = self._buffers(keep.shape)
        self._fill(terms, p, t)
        np.less_equal(p, self.p_cov, out=m)
        m &= keep
        cells = np.flatnonzero(m)
        n = len(cells)
        if not n:
            return [0.0] * len(self.scales), 0
        logs = t.reshape(-1)[:n]  # the term temporary is free again
        # mode "clip" writes straight into out, where the default "raise"
        # writes through a temporary copy; the indices are in range
        np.take(p.reshape(-1), cells, mode="clip", out=logs)
        np.log(logs, out=logs)
        e = p.reshape(-1)[:n]  # and so is P, which takes the exponents
        sums = []
        for scale in self.scales:
            # a huge s overflows the exponent to -inf, whose exp is the
            # right 0
            with np.errstate(over="ignore"):
                np.multiply(logs, scale, out=e)
            sums.append(float(np.sum(np.exp(e, out=e))))
        return sums, n

    def total(self, blocks):
        """(sums, h_cov, count) of (weight, block result) pairs."""
        sums = [math.fsum(k * block[i] for k, (block, _) in blocks)
                for i in range(len(self.s_list))]
        return sums, self.h_cov, sum(k * cnt for k, (_, cnt) in blocks)


def _run_share(fn, starts):
    """(results, error): fn over starts in order, up to the first chunk
    that raises; error is None when none does."""
    results = []
    try:
        for lo in starts:
            results.append(fn(lo))
    except Exception as exc:
        return results, exc
    return results, None


def _worker(fn, starts, fd):
    """A forked worker: pickles _run_share's (results, error) into the
    pipe fd and exits, with status 0 once the pickle is written, without
    returning to the caller's stack. An error that does not survive
    pickling goes as a RuntimeError naming it."""
    status = 1
    try:
        results, error = _run_share(fn, starts)
        if error is not None:
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:
                error = RuntimeError(f"{type(error).__name__}: {error}")
        with os.fdopen(fd, "wb") as pipe:
            pickle.dump((results, error), pipe)
        status = 0
    finally:
        os._exit(status)


def _read_all(fd) -> bytes:
    parts = []
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)


def _chunk_map(fn, starts, threads):
    """[fn(lo) for lo in starts], over forked worker processes.

    With n = min(threads, len(starts), CPUs) >= 2 workers, worker k runs
    the chunks starts[k::n] in order, the calling process being worker 0,
    and the others send their results back through a pipe. The results
    come back in partition order, so reductions of them do not depend on
    n; when chunks raise, the first of them in partition order raises, as
    in the serial loop. Every forked worker is reaped before this returns
    or raises, and killed first if the caller fails on its own.

    Workers are forked, not spawned: they inherit fn, a closure over the
    enumerator's arrays, and the imported numpy, which a spawned worker
    would import again (about 0.1 s). Fork is safe only where no other
    thread can hold a lock, so with other threads running, off the main
    thread, without fork or with fewer than two workers the loop runs
    serially."""
    starts = list(starts)
    n = min(max(1, threads), len(starts), os.cpu_count() or 1)
    if (n < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or threading.current_thread() is not threading.main_thread()):
        return [fn(lo) for lo in starts]
    fds, live, statuses = [], [], []  # live: the forked workers not yet reaped
    try:
        for k in range(1, n):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, starts[k::n], w)
            finally:
                os.close(w)  # the worker never gets here
            live.append(pid)
        shares = [_run_share(fn, starts[::n])]
        data = [_read_all(r) for r in fds]
        while live:
            statuses.append(os.waitpid(live[0], 0)[1])
            live.pop(0)
    finally:
        for r in fds:
            os.close(r)
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for k, (raw, status) in enumerate(zip(data, statuses), 1):
        if status:
            raise ChildProcessError(f"counting worker {k} of {n} gave no result: "
                                    f"exit status {os.waitstatus_to_exitcode(status)}")
        shares.append(pickle.loads(raw))
    # the first chunk that raised, in partition order: in share k it is
    # the chunk after the share's results, number k + n len(results)
    failed = [(k + n * len(results), error)
              for k, (results, error) in enumerate(shares) if error is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [shares[i % n][0][i // n] for i in range(len(starts))]


def _count_setup(poly, t, w, height_mode):
    """(t, per-coordinate box, exact height data or None for the sup norm)."""
    t = frac(t)
    if t < 1:
        raise ValueError("t must be at least 1")
    if height_mode == "sup":
        return t, int(t), None
    if height_mode != "polynomial":
        raise ValueError(f"unknown height mode {height_mode!r}")
    _require_homogeneous(poly, w)
    return t, _poly_box(poly, t), _height_data(poly, t)


def _check_arity(problem: ToricProblem, poly):
    """A height polynomial must have one variable per homogeneous coordinate."""
    if poly is not None and poly.nvars != problem.width:
        if problem.exponents is not None:
            raise ValueError(f"polynomial must have {problem.width} variables")
        raise ValueError("height polynomial must use every homogeneous coordinate")


def _require_homogeneous(poly, w):
    if poly is None or poly.nvars != w or not poly.is_homogeneous:
        raise ValueError("polynomial mode needs a homogeneous height in all coordinates")


def count_points(problem: ToricProblem, poly: Optional[GeneralizedPolynomial],
                 t, height_mode: str = "polynomial", budget: int = DEFAULT_BUDGET,
                 threads: int = 1) -> CountResult:
    """Exact count of torus points of height at most t.

    The count is the sign factor times the number of positive primitive
    integer solutions of the monomial relations inside the height ball.
    The shape of the relations picks the engine: a hypersurface
    x_1^a1 ... x_n^an = x_(n+1)^q goes to the pair grid (n = 2) or to the
    valuation solve (n >= 3), any other problem to the relation
    enumerator. Each engine refuses with BoxTooLarge when its own estimate
    of the work exceeds budget.
    """
    w = problem.width
    t, box, hdata = _count_setup(poly, t, w, height_mode)
    a = _hypersurface_exponents(problem)
    if a is None:
        total = _count_relations(problem.rows, w, box, hdata, budget, threads)
    elif len(a) == 2:
        total = _count_two_var(a, box, hdata, budget, threads)
    else:
        total = _count_prefix_solve(a, box, hdata, budget, threads)
    return CountResult(t=t, count=sign_count(problem).value * total, box=(box,) * w,
                       mode=height_mode)


def _hypersurface_exponents(problem: ToricProblem):
    """(a_1, ..., a_n) when the relations are the one row (a_1, ..., a_n, -q)
    of x_1^a1 ... x_n^an = x_(n+1)^q with n >= 2 and every a_i > 0, or its
    negative (q = sum a_i, as every row sums to zero); else None."""
    if len(problem.rows) != 1:
        return None
    row = problem.rows[0]
    a = tuple(-x for x in row[:-1]) if row[-1] > 0 else row[:-1]
    return a if len(a) >= 2 and min(a) > 0 else None


def _count_relations(rows, w, box, hdata, budget, threads) -> int:
    """The relation enumerator's number of points, after its estimate of
    the work: box^(w-1) cells when x_w is solved, else box^w, and a factor
    box less for every relation that ends before x_w."""
    est = box ** (w - 1) if any(r[w - 1] for r in rows) else box ** w
    for r in rows:
        if not r[w - 1]:
            est = max(est // box, 1)
    if est > budget:
        raise BoxTooLarge(f"estimated {est:.3g} operations exceed budget {budget:.3g}")
    return _enumerate_relations(rows, w, box, hdata, threads,
                                lambda p, c, keep: int(np.count_nonzero(keep)), int)


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


@functools.lru_cache(maxsize=8)
def _primes_upto(n: int):
    """The primes <= n as a read-only int64 array (cached)."""
    primes = np.array(_odd_sieve(n), dtype=np.int64)
    primes.flags.writeable = False
    return primes


def _coprime_block(g: int, lo: int, nrows: int, ncols: int, col: int = 1,
                   primes=None):
    """Mask of the cells (lo + i, col + j), 0 <= i < nrows, 0 <= j < ncols,
    with gcd(g, lo + i, col + j) = 1; g = 0 means no third number.

    Every prime p of g (every prime <= col + ncols - 1 for g = 0) strikes
    out the columns divisible by p in the rows divisible by p; a prime that
    divides no row costs one vectorized remainder, not a strike. For g = 0,
    primes may hold the primes up to some larger bound, in order, sieved
    once by a caller for all its blocks; they are cut at the last column.
    The relation enumerator calls this per block, the pair grid once per
    group of four blocks (`_group_mask`), so that a prime dividing rows of
    several blocks strikes them in one slice.
    """
    if g < 0:
        raise ValueError(f"coprimality needs g >= 0, got {g}")
    keep = np.ones((nrows, ncols), dtype=bool)
    if g:
        primes = np.fromiter(_factorize(g), dtype=np.int64)
    else:
        last = col + ncols - 1
        if primes is None:
            primes = _primes_upto(last)
        primes = primes[:np.searchsorted(primes, last, side="right")]
    first = -lo % primes  # the first row divisible by each prime
    hit = first < nrows
    for p, i in zip(primes[hit].tolist(), first[hit].tolist()):
        keep[i::p, -col % p::p] = False
    return keep


def _walk_prefixes(depth, box, hdata, width, run, block, threads, admit=None, start=int):
    """block(prefix, g, lo, hi) summed from start() over every prefix of the
    first depth coordinates and every run [lo, hi) of at most run values of
    the next one; coordinates range over [1, box], g is the prefix's gcd (0
    for none), and Python loops only over the prefix.

    A prefix goes on when admit(prefix) holds, if admit is given, and its
    height floor passes: the height of hdata = (terms, limit), in width
    coordinates, at the prefix and every later coordinate 1 is at most
    limit. Heights never decrease in any coordinate, so the first value that
    fails ends its loop, and the values after a prefix are cut there too.
    The first coordinate goes in chunks of CHUNK values, a fixed partition
    over the forked workers of `_chunk_map`, summed in chunk order.
    """
    terms, limit = hdata if hdata else (None, None)

    def rec(values, g, lo, hi):
        total = start()
        if len(values) == depth:
            if hdata:  # the values whose height floor passes come first
                rv = np.arange(lo, hi, dtype=np.int64)
                floor = values + (rv,) + (1,) * (width - depth - 1)
                hi = lo + int(np.count_nonzero(_height_mask(terms, limit, floor)))
            for a in range(lo, hi, run):
                total += block(values, g, a, min(a + run, hi))
            return total
        for m in range(lo, hi):
            vals = values + (m,)
            if hdata and _eval_terms_int(terms, vals + (1,) * (width - len(vals))) > limit:
                break
            if admit is None or admit(vals):
                total += rec(vals, gcd(g, m), 1, box + 1)
        return total

    def chunk(lo):
        return rec((), 0, lo, min(lo + CHUNK, box + 1))

    return sum(_chunk_map(chunk, range(1, box + 1, CHUNK), threads), start())


def _enumerate_relations(rows, w, box, hdata, threads, batch, start):
    """Positive primitive solutions in [1, box]^w, in 2-D blocks.

    The block's columns are x_w, or x_(w-1) when a relation uses the last
    column: x_w is then solved per cell from the first such relation by an
    exact integer root. Its rows are the coordinate before the columns, in
    runs of about BLOCK_CELLS cells (none when w = 2 and x_2 is solved: the
    block is one row of x_1, a chunk of its values). The coordinates before
    the rows, the prefix, go through `_walk_prefixes`, which applies the
    height floor to them and to the rows. Relations that end at a prefix
    coordinate are checked per prefix, those that end at the row coordinate
    filter the rows, the rest run on the block. Each block's solutions go to
    batch(prefix, coords, keep): keep masks the cells and coords, one array
    per coordinate after the prefix, broadcast to its shape. The results are
    summed from start() per chunk of x_1 values, then in chunk order.
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
    # only unsolved blocks with no prefix (rows x_1, g = 0) need every prime
    primes = _primes_upto(box) if row == 0 and not solving else None
    # rows per run; with no row coordinate, a whole chunk of x_1 values
    run = box if row < 0 else max(1, BLOCK_CELLS * (1 if solving or hdata else 8) // box)
    arrayed = [r for c in range(max(row, 0), w) for r in checks.get(c, [])]
    side = max((sum(abs(a) for _, a in r if (a > 0) == sign)
                for r in arrayed for sign in (True, False)), default=0)
    # every relation product on arrays is at most box^side: int64 when that fits
    dtype = np.int64 if box ** side < 2 ** 63 else object

    def sides(r, prefix, arrays):
        """Both sides of relation r, each in the least shape its arrays
        broadcast to."""
        one = np.ones((1,) * arrays[0].ndim, dtype)
        return _monomial_sides(r, prefix + tuple(x.astype(dtype) for x in arrays), one)

    def holds(rels, prefix, arrays, ok):
        """ok, cut to the cells where every relation of rels holds."""
        for r in rels:
            num, den = sides(r, prefix, arrays)
            ok &= num == den
        return ok

    def admit(values):  # the relations that end at the last prefix coordinate
        return all(num == den for num, den in
                   (_monomial_sides(r, values) for r in checks.get(len(values) - 1, [])))

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
        ok = holds(checks.get(col, []), prefix, blk, np.broadcast_to(den, shape) % num == 0)
        if hdata:
            ok &= _height_mask(terms, limit, prefix + blk + (1,))
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
        ms = _int_roots(val, k)
        fit = (ms >= 1) & (ms <= box)
        if k > 1:  # k <= side, so a clipped root's k-th power fits the dtype
            fit &= np.where(fit, ms, 1).astype(dtype) ** k == val
        cells = [cv.take(ci[fit]), ms[fit].astype(np.int64)]
        if rv is not None:
            cells.insert(0, rv.take(ri[fit]))
        keep = holds(solving[1:], prefix, cells, functools.reduce(np.gcd, cells, g) == 1)
        if hdata:
            keep &= _height_mask(terms, limit, prefix + tuple(cells))
        return batch(prefix, tuple(cells), keep)

    def block(prefix, g, lo, hi):
        """The rows [lo, hi) after the prefix (with no row coordinate, the
        columns [lo, hi) of the one row)."""
        rv = vec[lo - 1:hi - 1]
        if row < 0:
            return solve(prefix, g, None, rv)
        ok = holds(checks.get(row, []), prefix, (rv,), np.ones(len(rv), dtype=bool))
        if solving:
            return solve(prefix, g, rv[ok], vec)
        keep = _coprime_block(g, lo, hi - lo, box, primes=primes)
        if not ok.all():
            keep, rv = keep[ok], rv[ok]
        blk = (rv[:, None], vec[None, :])
        if hdata:
            keep &= _height_mask(terms, limit, prefix + blk)
        return batch(prefix, blk, keep)

    return _walk_prefixes(max(row, 0), box, hdata, w, run, block, threads, admit, start)


def _two_var_powers(a):
    """The primitive solutions of x1^a1 x2^a2 = x3^q are (w1^q1, w2^q2,
    w1^e1 w2^e2) over coprime w1, w2: these exponents as (w1, w2) pairs."""
    q = sum(a)
    g1, g2 = gcd(a[0], q), gcd(a[1], q)
    return (q // g1, 0), (0, q // g2), (a[0] // g1, a[1] // g2)


def _group_mask(top, nrows, col, last, primes, upper):
    """The pair-grid mask of rows w1 = top .. top + nrows - 1 by columns
    w2 = col .. last: coprime (w1, w2), and with upper also w2 > w1.
    primes are the primes up to at least last, in order."""
    keep = _coprime_block(0, top, nrows, last - col + 1, col, primes)
    if upper:  # cell (i, j) has w2 - w1 = col + j - top - i
        near = min(last - col + 1, max(0, nrows + top - col))
        keep[:, :near] &= ~np.tri(nrows, near, top - col, dtype=bool)
    return keep


def _pair_grid(w1max, w2max, reduce, threads, width=None, upper=False):
    """[reduce(rows, cols, coprime mask) per block] over [1, w1max] x
    [1, w2max], in row order; rows and cols are slices of the block's w1 and
    w2 values in 0-based arrays of 1..w1max and 1..w2max.

    The rows go in fixed chunks of GRID_ROWS, one task each, and a chunk
    runs top to bottom in blocks of BLOCK_ROWS rows. width(lo), when given,
    is the number of leading columns that the chunk starting at row lo
    needs. With upper, a block holds only the cells with w2 > w1: its
    columns start right of its first row, and its mask drops the cells
    on or left of the diagonal. A chunk that needs no column has no blocks.
    The primes of the coprimality masks are sieved once, up to w2max.
    The masks are built for groups of four blocks at a time (`_group_mask`),
    so a prime that divides rows of several blocks strikes them once per
    group; a block's mask is a view into its group's. A group's mask, one
    bool per cell, takes half the memory of one block's float64 P buffer.
    A reduce may change the mask it gets: no other block sees those cells.
    """
    primes = _primes_upto(w2max)
    group = 4 * BLOCK_ROWS

    def chunk(lo):
        hi = min(lo + GRID_ROWS - 1, w1max)
        ncols = w2max if width is None else width(lo)
        parts = []
        for top in range(lo, hi + 1, BLOCK_ROWS):
            col = top + 1 if upper else 1
            if col > ncols:
                break
            if (top - lo) % group == 0:
                mask = _group_mask(top, min(group, hi - top + 1), col, ncols, primes, upper)
                i0, j0 = top, col
            nrows = min(BLOCK_ROWS, hi - top + 1)
            parts.append(reduce(slice(top - 1, top - 1 + nrows), slice(col - 1, ncols),
                                mask[top - i0:top - i0 + nrows, col - j0:]))
        return parts

    chunks = _chunk_map(chunk, range(1, w1max + 1, GRID_ROWS), threads)
    return [part for parts in chunks for part in parts]


def count_points_hypersurface(a, poly: Optional[GeneralizedPolynomial], t,
                              height_mode: str = "polynomial",
                              budget: int = DEFAULT_BUDGET,
                              threads: int = 1) -> CountResult:
    """count_points on x_1^a1 ... x_n^an = x_(n+1)^q, q = sum a_i."""
    return count_points(hypersurface_problem(a), poly, t, height_mode, budget, threads)


def _count_two_var(a, box, hdata, budget, threads) -> int:
    """Coprime (w1, w2) on the pair grid, with the height's integer terms
    pulled back to (w1, w2) for the exact mask."""
    powers = _two_var_powers(a)
    w1max, w2max = iroot(box, powers[0][0]), iroot(box, powers[1][1])
    if w1max * w2max > budget:
        raise BoxTooLarge(f"pair grid {w1max} x {w2max} exceeds budget {budget:.3g}")
    v1 = np.arange(1, w1max + 1, dtype=np.int64)
    v2 = np.arange(1, w2max + 1, dtype=np.int64)
    if hdata:
        terms, limit = _pull_back(hdata[0], powers), hdata[1]

    def reduce(rows, cols, cop):
        if hdata:
            cop &= _height_mask(terms, limit, (v1[rows, None], v2[None, cols]))
        return int(np.count_nonzero(cop))
    return sum(_pair_grid(w1max, w2max, reduce, threads))


def _count_prefix_solve(a, box, hdata, budget, threads) -> int:
    """x_1^a1 ... x_n^an = x_(n+1)^q for n >= 3, solved through valuations
    in 2-D blocks: m_(n-2) rows by m_(n-1) columns, m_n solved per cell.

    `_walk_prefixes` walks m_1..m_(n-3), then the blocks of rows. The
    product is a q-th power iff m_n = base * j^step for a j >= 1, where base
    is the least m_n that makes every prime's valuation a multiple of q.
    Each prime's factor of the base depends only on its valuation mod q, so
    one table per prime gives the base of every column value m alone
    (`own`). A row's valuations, with the prefix's, change it at the primes
    p whose valuation is no multiple of q: the rows of a block that share p
    and that valuation's residue r divide p out of m before `own` is read
    and then take one column vector of p's factors for r. Bases saturate at
    box + 1, which stands for no solution. Once per block follow the j per
    cell, the gcd mask, the exact q-th root check (a float root confirmed
    in int64 while (box + 1)^q fits, else an integer root of Python ints)
    and the height mask. A block holds about 8 BLOCK_CELLS cells.
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
    jpow = np.array([j ** step for j in range(1, iroot(box, step) + 1)], dtype=np.int64)

    def factor(p, s):
        """min(p^e, cap) for the least e >= 0 with s + a_n e = 0 mod q, and
        cap where there is none: p's factor of the base when the other
        coordinates give p the valuation s."""
        r = -s % q
        return cap if r % g_last else min(p ** (r // g_last * inv % step), cap)

    # per prime p: over the multiples p, 2p, ... <= box of p, p^v_p(m) and
    # a_(n-1) v_p(m) mod q; p's factor of the base per residue mod q
    tables = {}
    for p in _primes_upto(box).tolist():
        v = np.ones(box // p, dtype=np.int64)
        k = p
        while k * p <= box:  # m = p k' is divisible by p k iff k divides k'
            v[k - 1::k] += 1
            k *= p
        tables[p] = p ** v, a[-2] * v % q, np.array([factor(p, s) for s in range(q)])
    # own[m - 1]: the base of m_(n-1) = m alone
    own = np.ones(box, dtype=np.int64)
    for p, (_, res, fac) in tables.items():
        own[p - 1::p] = np.minimum(own[p - 1::p] * fac.take(res), cap)

    def block(values, g, lo, hi):
        """Solutions with m_(n-2) in [lo, hi) after the prefix values with
        gcd g."""
        # the prefix's product, and its valuations as (p, a_i v_p(m_i)) terms
        rval = math.prod(m ** e for m, e in zip(values, a))
        rfac = [(p, e * v) for m, e in zip(values, a) for p, v in _factorize(m).items()]
        rv = vec[lo - 1:hi - 1]
        ncols = box
        if hdata:  # no column past the first row's height floor passes
            ncols = int(np.count_nonzero(_height_mask(terms, limit, values + (lo, vec, 1, 1))))
        cv = vec[:ncols]
        groups = {}  # (p, residue) -> the rows of the block
        for i, m in enumerate(rv.tolist()):
            vals = {}  # p -> its valuation in the product of the prefix and row
            for p, v in rfac + [(p, a[-3] * v) for p, v in _factorize(m).items()]:
                vals[p] = vals.get(p, 0) + v
            for p, v in vals.items():
                if v % q:  # else `own` already has p's exponent
                    groups.setdefault((p, v % q), []).append(i)
        groups = {key: np.array(rows) for key, rows in groups.items()}
        rest = np.broadcast_to(cv, (len(rv), ncols)).copy()
        for (p, r), rows in groups.items():
            rest[rows, p - 1::p] //= tables[p][0][:ncols // p]
        rest -= 1
        base = own.take(rest)
        del rest
        # min(product, cap) in any order: every factor is at least 1
        for (p, r), rows in groups.items():
            _, res, fac = tables[p]
            fix = np.full(ncols, fac[r])  # off the multiples of p, v_p(m) = 0
            fix[p - 1::p] = fac.take((res[:ncols // p] + r) % q)
            base[rows] = np.minimum(base[rows] * fix, cap)
        if hdata:
            base[~_height_mask(terms, limit, values + (rv[:, None], cv[None, :], 1, 1))] = cap
        cell = np.flatnonzero(base <= box)
        base = base.ravel().take(cell)
        reps = np.searchsorted(jpow, box // base, side="right")  # the j per cell
        j = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        mn = np.repeat(base, reps) * jpow[j]
        cell = np.repeat(cell, reps)
        ri, ci = np.divmod(cell, ncols)
        mr, mc = rv.take(ri), cv.take(ci)
        ok = np.gcd(np.gcd(mr, g), np.gcd(mc, mn)) == 1
        mr, mc, mn = mr[ok], mc[ok], mn[ok]
        prod = (rval * mr.astype(dtype) ** a[-3] * mc.astype(dtype) ** a[-2]
                * mn.astype(dtype) ** a[-1])
        y = _int_roots(prod, q)
        bad = (y ** q != prod).nonzero()[0]
        if len(bad):
            raise InvariantError(f"valuation solve gave {mn[bad[0]]}, but the "
                                 f"product is no {q}-th power")
        if hdata is None:
            return len(mn)
        return int(np.count_nonzero(_height_mask(
            terms, limit, values + (mr, mc, mn, y.astype(np.int64)))))

    return _walk_prefixes(n - 3, box, hdata, n + 1, max(1, BLOCK_CELLS * 8 // box), block,
                          threads)


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
        """(s - iota)^rho times the estimated zeta value; 0.0 for a zero
        value, where the power alone can overflow."""
        return (self.s - iota) ** rho * self.value if self.value else 0.0


def manin_constant(problem: ToricProblem, poly: GeneralizedPolynomial,
                   cutoff: int = 100_000, quad_tol: float = 1e-9,
                   precision: int = 160, seed: int = 0) -> ManinReport:
    """Assemble the predicted leading constant for the height density.

    sign * d^rho * A0 * Euler / (iota * (rho-1)!), with A0 the mixed volume
    constant of the face type against the height polynomial on the weight's
    coordinates and Euler the regularized product at the normalized polar
    vector. A hypersurface problem's height is restricted to x_1..x_n.
    """
    spec, csign = problem_weight(problem), sign_count(problem).value
    _check_arity(problem, poly)
    weight_poly = poly
    if poly is not None and problem.exponents is not None:
        weight_poly = restrict_to_hypersurface(poly, problem.exponents)
    if weight_poly is None or not weight_poly.is_homogeneous:
        raise ValueError("a homogeneous height polynomial is required")
    check_dimension(spec.arity)
    gens = generators_with_check(spec)
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
    euler = euler_constant(spec, df.c, k_reg, cutoff=cutoff, precision=precision,
                           generators=gens)
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
                       stabilized=gens.stabilized)


def sup_norm_prediction(problem: ToricProblem):
    """(C, iota, rho) for the max-coordinate height, where a closed form exists.

    Covers the full torus of projective space (Schanuel-style box count) and
    problems given as two-variable hypersurfaces, via the coprime power
    parametrization. The constant includes the sign factor, i.e. it predicts
    the full point count.
    """
    a = problem.exponents
    if a is None:
        if problem.l != 0:
            raise ValueError("sup-norm prediction implemented for the full torus only")
        n = problem.n
        return 2 ** n / zeta_float(n + 1), Fraction(n + 1), 1
    if len(a) != 2:
        raise ValueError("sup-norm prediction implemented for two-variable hypersurfaces")
    (q1, _), (_, q2), _ = _two_var_powers(a)
    iota = Fraction(1, q1) + Fraction(1, q2)
    return sign_count(problem).value / zeta_float(2), iota, 1


def zeta_partial(problem: ToricProblem, poly: GeneralizedPolynomial, s_values,
                 iota: Fraction, rho: int = 1, term_budget: int = ZETA_BUDGET,
                 height_mode: str = "polynomial",
                 threads: int = 1):
    """Partial sums of the height zeta function at real s > iota.

    One enumeration pass covers every requested s. Points are truncated at
    the largest height whose ball is provably inside the scanned box; the
    tail is extrapolated from the measured count at the boundary (reported
    separately, an estimate rather than a certified bound). Problems given
    as two-variable hypersurfaces and the torus of P^1 are summed on the
    pair grid, every other problem on the relation enumerator.
    """
    single = isinstance(s_values, (int, float))
    s_list = [float(s_values)] if single else [float(s) for s in s_values]
    iota_f = float(iota)
    for s in s_list:
        if not math.isfinite(s):
            raise ValueError(f"s = {s} is not a finite number")
        if s <= iota_f:
            raise ValueError(f"s = {s} is not beyond the abscissa {iota_f}")
    _check_arity(problem, poly)
    if height_mode == "polynomial":
        _require_homogeneous(poly, problem.width)
    csign = sign_count(problem).value
    powers = None
    if problem.exponents is not None and len(problem.exponents) == 2:
        powers = _two_var_powers(problem.exponents)
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
            delta = n_b / (h_cov ** iota_f * math.log(h_cov) ** (rho - 1))
            tail = delta * s * _log_power_tail(s - iota_f, rho, h_cov) \
                - n_b * h_cov ** (-s)
        out.append(ZetaSample(s=s, partial=csign * partial, tail_estimate=tail,
                              covered_height=h_cov, covered_count=n_b))
    return out[0] if single else out


def _log_power_tail(lam: float, rho: int, h: float) -> float:
    """The integral of u^(-lam-1) (log u)^(rho-1) over u >= h, for lam > 0
    and h > 1, in closed form: Gamma(rho, x) / lam^rho with x = lam log h,
    where Gamma(rho, x) = (rho-1)! e^(-x) sum_(k<rho) x^k / k! for integer
    rho."""
    x = lam * math.log(h)
    if math.exp(-x) == 0.0:     # past here x^k or lam^rho can overflow
        return 0.0
    series = math.fsum(x ** k / math.factorial(k) for k in range(rho))
    return math.factorial(rho - 1) * math.exp(-x) * series / lam ** rho


def _swap_symmetric(powers, poly, height_mode) -> bool:
    """Whether the height of (w1, w2) on the pair grid equals that of
    (w2, w1), exactly: some permutation pi of the coordinates takes each
    power (a, b) to the swapped (b, a) at powers[pi(i)] and, for a
    polynomial height, maps the polynomial's monomials onto themselves."""
    n = len(powers)
    for pi in itertools.permutations(range(n)):
        if any(powers[pi[i]] != (b, a) for i, (a, b) in enumerate(powers)):
            continue
        if height_mode != "polynomial":
            return True
        moved = set()
        for c, e in poly.monomials:
            image = [None] * n
            for i in range(n):
                image[pi[i]] = e[i]
            moved.add((c, tuple(image)))
        if moved == set(poly.monomials):
            return True
    return False


def _zeta_pair_grid(powers, poly, s_list, term_budget, height_mode, threads):
    """The zeta sums over the coprime grid w1, w2 <= sqrt(term_budget), on
    the covered ball only, in blocks of BLOCK_ROWS rows; P = h^d is pulled
    back to (w1, w2) (`_pull_back`), one row and one column vector per term.

    The ball of height h lies in the grid while every coordinate w_i^(q_i)
    <= h / kappa^(1/d) (sup norm: kappa = 1) keeps w_i <= wmax.

    The column bound is exact. The coefficients are positive and the
    exponents of the coordinates w1^a w2^b are >= 0, so the height never
    decreases along a row or a column; neighbouring cells differ by far
    more than float rounding, so the float P does not decrease either. A
    chunk therefore needs only the columns whose P at its first row is at
    most h_cov^d: right of them no cell of any of its rows passes.

    When the height is swap-symmetric (`_swap_symmetric`), only the cells
    with w2 > w1 are scanned; they count twice, and (1, 1), the one coprime
    cell on the diagonal, once.
    """
    wmax = int(math.sqrt(term_budget))
    edge = min((wmax + 1) ** powers[0][0], (wmax + 1) ** powers[1][1])
    polynomial = height_mode == "polynomial"
    zc = _ZetaCollector(poly if polynomial else None, s_list,
                        (_kappa_root(poly) if polynomial else 1.0) * edge * (1 - 1e-9))
    symmetric = _swap_symmetric(powers, poly, height_mode)
    w = np.arange(1, wmax + 1, dtype=np.float64)
    # per term c w1^alpha w2^beta, over all of 1..wmax: (True, c w1^alpha)
    # for the rows and (False, w2^beta) for the columns, c w2^beta when
    # alpha = 0; a factor with a zero exponent is left out
    vectors = []
    for c, (alpha, beta) in _pull_back(zc.monomials(len(powers)), powers):
        parts = [(True, float(c) * w ** float(alpha))] if alpha else []
        if beta:
            parts.append((False, w ** float(beta) if alpha else float(c) * w ** float(beta)))
        vectors.append(parts)

    def terms(rows, cols):
        return [[v[rows, None] if on_rows else v[None, cols] for on_rows, v in parts]
                for parts in vectors]

    def width(lo):
        return zc.covered(terms(slice(lo - 1, lo), slice(0, wmax)), (1, wmax))

    def reduce(rows, cols, cop):
        return zc.block(terms(rows, cols), cop)

    weight = 2 if symmetric else 1
    blocks = [(weight, part) for part in
              _pair_grid(wmax, wmax, reduce, threads, width, upper=symmetric)]
    if symmetric:
        blocks.append((1, reduce(slice(0, 1), slice(0, 1), np.ones((1, 1), dtype=bool))))
    return zc.total(blocks)


def _zeta_relations(problem, poly, s_list, term_budget, height_mode, threads):
    """The zeta sums over the relation enumerator's points in a box of side
    term_budget^(1/width), on the covered ball only. Each block goes
    straight to the zeta collector, so the sums' bits depend on how
    BLOCK_CELLS cuts the rows into blocks. The covered height is (box + 1)
    (1 - 1e-9) times kappa^(1/d), kappa = 1 for the sup norm, as on the
    pair grid."""
    w = problem.width
    box = max(2, int(term_budget ** (1.0 / w)))
    polynomial = height_mode == "polynomial"
    zc = _ZetaCollector(poly if polynomial else None, s_list,
                        (_kappa_root(poly) if polynomial else 1.0) * (box + 1) * (1 - 1e-9))

    def batch(prefix, coords, keep):
        return [(1, zc.block(zc.terms_at(prefix + coords), keep))]

    return zc.total(_enumerate_relations(problem.rows, w, box, None, threads,
                                         batch, list))


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

"""Input objects: toric relation matrices, positive generalized polynomials,
and the uniform multiplicative weights they induce.

All types are immutable after construction and safe to share across threads.
Exponents are kept as exact rationals throughout; irrational exponents are a
documented limitation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional

import numpy as np

from .vectors import frac, fracvec, rank


class NonZeroRowSum(ValueError):
    pass


class DependentRows(ValueError):
    pass


class NotElliptic(ValueError):
    pass


class NonPositivePolar(Exception):
    pass


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


@dataclass(frozen=True)
class ToricProblem:
    """Monomial relations prod_j x_j^(a_ij) = 1 cutting a toric variety out of P^n.

    exponents is (a_1, ..., a_n) when the variety is presented as the
    hypersurface x_1^a1 ... x_n^an = x_(n+1)^q (`hypersurface_problem`), and
    None for a relation matrix. The presentation picks the weight
    (`problem_weight`) and so every analysis of the problem; it takes part
    in equality, since the two presentations of one variety are analyzed in
    different coordinates.
    """

    rows: tuple
    n: int
    l: int
    exponents: Optional[tuple] = None

    @property
    def width(self) -> int:
        return self.n + 1

    @property
    def variety_dim(self) -> int:
        return self.n - self.l


@dataclass(frozen=True)
class SignCount:
    """Half the number of sign vectors compatible with the relations."""

    value: int


@dataclass(frozen=True)
class GeneralizedPolynomial:
    """Finite positive-coefficient sum of monomials with rational exponents >= 0."""

    monomials: tuple  # ((coeff: Fraction, exponents: tuple[Fraction, ...]), ...)
    nvars: int

    @staticmethod
    def from_terms(terms, nvars=None) -> "GeneralizedPolynomial":
        """Build from (coefficient, exponent-vector) pairs, merging collisions."""
        merged: dict = {}
        width = nvars
        for coeff, exps in terms:
            e = fracvec(exps)
            if width is None:
                width = len(e)
            if len(e) != width:
                raise ValueError("inconsistent exponent vector lengths")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
            c = frac(coeff)
            if c <= 0:
                raise ValueError("coefficients must be positive")
            merged[e] = merged.get(e, Fraction(0)) + c
        if not merged:
            raise ValueError("empty polynomial")
        mono = tuple(sorted(((c, e) for e, c in merged.items()), key=lambda t: t[1]))
        return GeneralizedPolynomial(monomials=mono, nvars=width)

    @functools.cached_property
    def degree(self) -> Fraction:
        return max(sum(e) for _, e in self.monomials)

    @functools.cached_property
    def is_homogeneous(self) -> bool:
        degs = {sum(e) for _, e in self.monomials}
        return len(degs) == 1

    @property
    def support(self) -> tuple:
        return tuple(e for _, e in self.monomials)

    @property
    def coefficients(self) -> tuple:
        return tuple(c for c, _ in self.monomials)

    @property
    def has_integer_exponents(self) -> bool:
        return all(x.denominator == 1 for _, e in self.monomials for x in e)

    def top_part(self) -> "GeneralizedPolynomial":
        d = self.degree
        return GeneralizedPolynomial.from_terms(
            [(c, e) for c, e in self.monomials if sum(e) == d], self.nvars)

    def depends_on_all_variables(self) -> bool:
        for i in range(self.nvars):
            if all(e[i] == 0 for _, e in self.monomials):
                return False
        return True

    @functools.cached_property
    def _float_terms(self) -> tuple:
        """(float coefficient, ((index, float exponent) for nonzero exponents))."""
        return tuple((float(c), tuple((i, float(x)) for i, x in enumerate(e) if x != 0))
                     for c, e in self.monomials)

    def eval_float(self, x) -> float:
        total = 0.0
        for c, powers in self._float_terms:
            term = c
            for i, ei in powers:
                term *= float(x[i]) ** ei
            total += term
        return total

    def scaled_integer_terms(self):
        """(scale, [(int coeff, int exponent vector)]) with scale * P integral."""
        if not self.has_integer_exponents:
            raise ValueError("integer exponents required")
        scale = 1
        for c, _ in self.monomials:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        terms = [(int(c * scale), tuple(int(x) for x in e)) for c, e in self.monomials]
        return scale, terms


@dataclass(frozen=True)
class UniformMultiplicativeSpec:
    """Weight on prime exponent vectors: f(p^v1, ..., p^vn) = g(v), any p.

    g is {0,1,...}-valued with polynomial growth g(v) <= C (1+|v|)^M. The
    structured `kind`/`payload` lets downstream code pick fast paths without
    touching the generic evaluator. `last_coordinates(prefix, top)`, when
    given, yields in increasing order the k in 0..top for which
    prefix + (k,) can be supported; every other k must have g = 0. The
    support walk tries only those, and g still decides each of them.
    `default_cap` is the generator cap of custom weights; the structured
    kinds have a proven one (`generators.proven_cap`).
    """

    arity: int
    g: Callable[[tuple], int] = field(compare=False)
    growth_c: float = 1.0
    growth_m: float = 0.0
    kind: str = "custom"
    payload: tuple = ()
    default_cap: int = 16
    last_coordinates: Optional[Callable[[tuple, int], Iterable[int]]] = \
        field(default=None, compare=False)

    def weight(self, nu) -> int:
        nu = tuple(int(x) for x in nu)
        if len(nu) != self.arity or any(x < 0 for x in nu):
            raise ValueError(f"expected a vector in N_0^{self.arity}")
        return self.g(nu)

    def support(self, c, max_level: Optional[int] = None,
                max_expo: Optional[int] = None):
        """The supported v as (v, g(v), |v|, D<c,v>), D = polar_scale(c).

        The walk covers |v| <= max_level and D<c,v> <= max_expo (at least
        one bound is needed), in lexicographic order and in integers. It is
        the one enumeration of the support: the minimal generators, the
        Euler profile, the diagonal face, the epsilon gap and the Euler
        numerator all read it. The last
        coordinate takes only the values `last_coordinates` offers, so the
        toric and hypersurface kinds solve it from the prefix instead of
        trying every value.
        """
        if max_level is None and max_expo is None:
            raise ValueError("the support walk needs max_level or max_expo")
        scale = polar_scale(c)
        steps = [int(x * scale) for x in fracvec(c)]
        if len(steps) != self.arity:
            raise ValueError(f"polar vector needs {self.arity} coordinates")
        # each bound implies one for the other, since every step is >= 1
        if max_level is None:
            max_level = max_expo // min(steps)
        if max_expo is None:
            max_expo = max_level * max(steps)
        g, last = self.g, self.arity - 1
        finals = self.last_coordinates or (lambda prefix, top: range(top + 1))

        def walk(i, prefix, level, expo):
            step = steps[i]
            top = min(max_level - level, (max_expo - expo) // step)
            if i == last:
                for k in finals(prefix, top):
                    v = prefix + (k,)
                    w = g(v)
                    if w:
                        yield v, w, level + k, expo + k * step
            else:
                for k in range(top + 1):
                    yield from walk(i + 1, prefix + (k,), level + k, expo + k * step)

        return walk(0, (), 0, 0)


def polar_scale(c) -> int:
    """D = lcm of the denominators of c, which must be strictly positive."""
    c = fracvec(c)
    if any(x <= 0 for x in c):
        raise NonPositivePolar("polar vector must be strictly positive")
    return lcm(*(x.denominator for x in c))


def validate_toric_matrix(rows, width: Optional[int] = None) -> ToricProblem:
    """Check zero row sums and Q-independence; empty matrices need `width`,
    and a `width` given with rows must be their length."""
    rows = [tuple(int(x) for x in r) for r in rows]
    if rows:
        if width is not None and width != len(rows[0]):
            raise ValueError(f"'width' is {width}, but the matrix rows have "
                             f"{len(rows[0])} entries")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows of unequal length")
    elif width is None:
        raise ValueError("empty matrix needs an explicit number of columns")
    if width < 2:
        raise ValueError("need at least two homogeneous coordinates")
    for r in rows:
        if sum(r) != 0:
            raise NonZeroRowSum(f"row {r} sums to {sum(r)}")
    if rows and rank(rows) < len(rows):
        raise DependentRows("relation rows are linearly dependent over Q")
    return ToricProblem(rows=tuple(rows), n=width - 1, l=len(rows))


def _exponents(a) -> tuple:
    """The hypersurface exponents a_1, ..., a_n as ints: n >= 2, each >= 1."""
    a = tuple(int(x) for x in a)
    if len(a) < 2 or any(x < 1 for x in a):
        raise ValueError("need n >= 2 positive exponents")
    return a


def hypersurface_problem(a) -> ToricProblem:
    """The rank-one problem of x_1^a1 ... x_n^an = x_(n+1)^q with q = |a|,
    presented as that hypersurface."""
    a = _exponents(a)
    return replace(validate_toric_matrix([a + (-sum(a),)]), exponents=a)


def sign_count(problem: ToricProblem) -> SignCount:
    """Count sign vectors killing all relations, halved.

    Only parities of the entries matter: the sign vectors form the kernel of
    A mod 2, so half their number is 2^(n - rank of A over GF(2)).
    """
    return SignCount(2 ** (problem.n - _gf2_rank(problem.rows)))


def _gf2_rank(rows) -> int:
    vecs = []
    for row in rows:
        v = 0
        for j, x in enumerate(row):
            if x % 2:
                v |= 1 << j
        if v:
            vecs.append(v)
    r = 0
    for col in range(max((v.bit_length() for v in vecs), default=0)):
        piv = next((i for i in range(r, len(vecs)) if vecs[i] >> col & 1), None)
        if piv is None:
            continue
        vecs[r], vecs[piv] = vecs[piv], vecs[r]
        for i in range(len(vecs)):
            if i != r and vecs[i] >> col & 1:
                vecs[i] ^= vecs[r]
        r += 1
    return r


def restrict_to_hypersurface(p: GeneralizedPolynomial, a) -> GeneralizedPolynomial:
    """Substitute X_(n+1) := prod_j X_j^(a_j/q), q = |a|, merging collisions.

    Preserves the degree and ellipticity on the positive orthant.
    """
    a = _exponents(a)
    n = len(a)
    if p.nvars != n + 1:
        raise ValueError(f"polynomial must have {n + 1} variables")
    q = sum(a)
    terms = []
    for c, e in p.monomials:
        last = e[n]
        new = tuple(e[j] + last * Fraction(a[j], q) for j in range(n))
        terms.append((c, new))
    return GeneralizedPolynomial.from_terms(terms, n)


ELLIPTICITY_MESH = 64  # simplex grid 1/64, then one bisection refinement


@functools.lru_cache(maxsize=128)
def ellipticity_witness(p: GeneralizedPolynomial) -> float:
    """Certified positive lower bound for min of the top part on the unit simplex.

    Uses monotonicity in each variable: on any grid cell the value at the
    lower corner bounds the cell from below, so the reported kappa is a true
    lower bound (not the minimum itself). P(m) >= kappa * |m|_1^d follows for
    homogeneous P. The mesh runs on integer indices k, evaluated at k/64 and
    k/128, which are exact doubles. Each power x^e is read from a table of
    the Python floats (k/denom) ** e, k = 0..denom, and the products and sums
    run in numpy in eval_float's order, so every mesh value has the bits of
    eval_float at that point. The polynomial is frozen, so each one is
    meshed once per process.
    """
    top = p.top_part()
    n = p.nvars
    # a missing pure power makes the top part vanish on that axis: min is 0
    for i in range(n):
        axis = tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        if top.eval_float(axis) == 0.0:
            raise NotElliptic(f"top part vanishes at coordinate axis {i + 1}")

    steps = ELLIPTICITY_MESH
    corners = _slab_corners(n, steps)
    vals = _mesh_values(top, corners, steps)
    kappa1 = vals.min()
    cutoff = kappa1 * 1.5 + 1e-12
    coarse = vals[vals > cutoff]
    best = coarse.min() if len(coarse) else float("inf")
    # the corners within the cutoff refine into their 2^n children at 1/128
    # that stay inside the simplex
    fine = 2 * steps
    low = 2 * corners[vals <= cutoff]
    offsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int32)
    inside = low.sum(axis=1)[:, None] + offsets.sum(axis=1)[None, :] <= fine
    children = (low[:, None, :] + offsets[None, :, :])[inside]
    if len(children):
        best = min(best, _mesh_values(top, children, fine).min())
    kappa = float(best) * (1 - 1e-12)
    if kappa <= 0:
        raise NotElliptic("certified minimum not positive")
    return kappa


def _slab_corners(n: int, steps: int):
    """Index vectors of the lower cell corners meeting the simplex slab, one
    int32 row each: the first n - 1 indices sum to at most steps, and the
    last brings the sum into [steps - n, steps]."""
    corners = np.zeros((1, 0), dtype=np.int32)
    total = np.zeros(1, dtype=np.int32)
    for i in range(n):
        lo = np.maximum(0, steps - n - total) if i == n - 1 else 0 * total
        counts = steps - total - lo + 1
        parent = np.repeat(np.arange(len(total)), counts)
        # k runs from lo to steps - total under each parent
        k = (np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
             + lo[parent]).astype(np.int32)
        corners = np.column_stack([corners[parent], k])
        total = total[parent] + k
    return corners


def _mesh_values(top: GeneralizedPolynomial, index, denom: int):
    """top.eval_float at each row of index / denom, with eval_float's bits."""
    table = {}
    total = np.zeros(len(index))
    for c, powers in top._float_terms:
        term = c
        for i, ei in powers:
            if ei not in table:
                table[ei] = np.array([(k / denom) ** ei for k in range(denom + 1)])
            term = term * table[ei][index[:, i]]
        total += term
    return total


def toric_weight(problem: ToricProblem) -> UniformMultiplicativeSpec:
    """Characteristic weight of exponent vectors in ker A with a zero entry.

    This is exactly the prime-by-prime description of primitive lattice
    points on the torus.
    """
    rows = problem.rows
    w = problem.width

    def g(nu):
        if all(x > 0 for x in nu):
            return 0
        for row in rows:
            if sum(r * x for r, x in zip(row, nu)) != 0:
                return 0
        return 1

    # a row with a nonzero last entry fixes the last coordinate
    pivot = next((row for row in rows if row[-1]), None)

    def last_coordinates(prefix, top):
        if all(prefix):
            return range(1)
        if pivot is None:
            # no row sees the last coordinate, so the prefix decides alone
            free = all(sum(r * x for r, x in zip(row, prefix)) == 0 for row in rows)
            return range(top + 1) if free else ()
        k, rem = divmod(-sum(r * x for r, x in zip(pivot, prefix)), pivot[-1])
        return range(k, k + 1) if rem == 0 and 0 <= k <= top else ()

    return UniformMultiplicativeSpec(
        arity=w, g=g, growth_c=1.0, growth_m=0.0,
        kind="toric", payload=tuple(rows), last_coordinates=last_coordinates)


def hypersurface_weight(a) -> UniformMultiplicativeSpec:
    """Characteristic weight of {q | <a, v>, v_1 ... v_n = 0}."""
    a = _exponents(a)
    q = sum(a)

    def g(nu):
        if all(x > 0 for x in nu):
            return 0
        return 1 if sum(ai * x for ai, x in zip(a, nu)) % q == 0 else 0

    # a_n k = -<a, prefix> mod q has solutions iff d | <a, prefix>, and
    # then they form one class mod q/d
    d = gcd(a[-1], q)
    period = q // d
    inverse = pow(a[-1] // d, -1, period)

    def last_coordinates(prefix, top):
        if all(prefix):
            return range(1)
        s = sum(ai * x for ai, x in zip(a, prefix))
        if s % d:
            return ()
        return range(-(s // d) * inverse % period, top + 1, period)

    return UniformMultiplicativeSpec(
        arity=len(a), g=g, growth_c=1.0, growth_m=0.0,
        kind="hypersurface", payload=a, last_coordinates=last_coordinates)


def problem_weight(problem: ToricProblem) -> UniformMultiplicativeSpec:
    """The weight of the problem's presentation: `hypersurface_weight` on
    x_1..x_n for a hypersurface, else `toric_weight` on every coordinate."""
    if problem.exponents is not None:
        return hypersurface_weight(problem.exponents)
    return toric_weight(problem)


def free_weight(arity: int) -> UniformMultiplicativeSpec:
    """g identically 1: the weight of the full lattice N_0^n."""
    return UniformMultiplicativeSpec(
        arity=arity, g=lambda nu: 1, growth_c=1.0, growth_m=0.0,
        kind="free", payload=())

"""The archimedean constants: Sargos, volume, and mixed volume.

The Sargos constant of a positive generalized polynomial P is

    A0(P) = n! Vol(Lambda) * I,

where Lambda is the convex hull of 0, the normalized polar vectors of the
facets (at infinity) meeting the diagonal, and the unit vectors outside the
transverse block, and I integrates P restricted to the diagonal face, raised
to the power -sigma0, ones in the transverse slots, over the positive
orthant in the face directions and over [1, oo) in the recession directions.
The unit vectors complement the polar vectors' span, so n! Vol(Lambda) is
rho0! times the volume of conv(0, polar vectors) in the transverse block.

A compact face of any dimension first tries `exact_face_integral`, which
needs no quadrature. On a simplex face with monomials c_i x^(e_i),
i = 0..k, solve sum alpha_i e_i = (1, ..., 1) and sum alpha_i = sigma0
exactly in fractions. Then

    I = prod Gamma(alpha_i) c_i^(-alpha_i) / (Gamma(sigma0) |det(e_i - e_0)|),

finite exactly when every alpha_i > 0. A simplex plus one monomial
c* x^(e*), with e* = sum beta_i e_i, sum beta_i = 1 and every beta_i >= 0,
takes the alternating Euler-Mellin series of Nilsson and Passare (J. Funct.
Anal. 264, 2013):

    I = sum_n (-1)^n c*^n / n! prod Gamma(alpha_i(n)) c_i^(-alpha_i(n))
        / (Gamma(sigma0) |det(e_i - e_0)|),   alpha(n) = alpha + n beta,

whose terms shrink by the ratio c* prod (beta_i / c_i)^beta_i in the
limit; it is used while that ratio is at most SERIES_MAX_RATIO. A face
whose polynomial is a product of polynomials in disjoint variables is the
product of their integrals. Every other compact face of dimension one or
two takes the log-coordinate trapezoid rule of
`quadrature.integrate_log_orthant`: its convergence is decided exactly,
from the facets of the face exponents, and its error bar certifies the
cut-off mass and estimates the step error. Larger faces and faces with
recession directions go to `quadrature.integrate_cube`.

The volume constant A0(I; u; b) is the Sargos constant of an auxiliary
polynomial built by repeating each point of I according to its multiplicity
and transposing the resulting exponent matrix; the mixed volume constant
A0(T; P) first pushes the type T through the exponent matrix of P.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .hull import polytope_facets, polytope_volume, upward_hull
from .model import GeneralizedPolynomial, InvariantError
from .polyhedron import diagonal_block
from .quadrature import (ConstantValue, DivergentIntegral, check_tail_convergence,
                         integrate_cube, integrate_log_orthant)
from .vectors import dot, frac, fracvec, pivot_columns, rank


class MissingVariable(Exception):
    pass


@dataclass(frozen=True)
class MixedTypeT:
    """A finite point family with positive integer multiplicities."""

    points: tuple
    multiplicities: tuple

    @staticmethod
    def of(points, multiplicities=None) -> "MixedTypeT":
        pts = tuple(fracvec(p) for p in points)
        if multiplicities is None:
            mult = tuple(1 for _ in pts)
        else:
            mult = tuple(int(u) for u in multiplicities)
        if len(mult) != len(pts) or any(u < 1 for u in mult):
            raise ValueError("multiplicities must be positive, one per point")
        return MixedTypeT(points=pts, multiplicities=mult)


@dataclass(frozen=True)
class SargosData:
    """Exact geometry of the polyhedron at infinity around the diagonal."""

    n: int
    sigma0: Fraction
    rho0: int
    m: int                     # recession directions occupy slots m+1..n
    permutation: tuple         # permutation[i] = original coordinate in slot i
    face_support: tuple        # monomials (coeff, exponents) on the diagonal face
    lambdas: tuple             # normalized polar vectors of facets meeting the diagonal
    lambda_volume: Fraction    # exact Vol(Lambda)
    compact_face: bool


@functools.lru_cache(maxsize=128)
def newton_at_infinity(p: GeneralizedPolynomial) -> SargosData:
    """Locate the diagonal face of the polyhedron at infinity of P.

    Everything is exact: the hull of the support minus the positive orthant
    is the mirror image of an upward-closed hull, so the same machinery
    applies after negation. Cached per polynomial: the hull is the costly
    part, and `constants --sargos-only` asks for it twice.
    """
    if not p.depends_on_all_variables():
        raise MissingVariable("polynomial must depend on every variable")
    n = p.nvars
    mirrored = [tuple(-x for x in e) for e in p.support]
    facets, _ = upward_hull(mirrored, n)
    # the largest t with t * 1 inside conv(support) - R_+^n is -u0
    u0, active, face_pts, recession, span = diagonal_block(facets, mirrored)
    if u0 >= 0:
        raise InvariantError("positive support must meet the diagonal at positive height")
    sigma0 = -1 / u0
    face_exps = {tuple(-x for x in v) for v in face_pts}
    face_support = tuple((c, e) for c, e in p.monomials if e in face_exps)
    # normalized polar vectors of the facets through the diagonal point;
    # -m is the max of <w, .> over the un-mirrored hull. They span the
    # face's normal space and vanish on the recession coordinates.
    lambdas = tuple(tuple(Fraction(x, -m) for x in w) for w, m in active)
    # x -> (<lambda, x>) embeds R^n / span(face), so the first axes that
    # complement the face directions are the pivot columns of the lambdas
    transverse = pivot_columns(lambdas)
    rho0 = len(transverse)
    if rho0 + rank(span) != n:
        raise InvariantError("axes must complement the face directions")
    middle = [i for i in range(n) if i not in transverse and i not in recession]
    permutation = tuple(transverse + middle + recession)
    # Lambda is the free sum of conv(0, lambdas) in the normal space and the
    # unit simplex on the other axes, which complement it
    vol = polytope_volume([(0,) * rho0] + [tuple(lam[i] for i in transverse)
                                           for lam in lambdas])
    vol = vol * math.factorial(rho0) / math.factorial(n)

    return SargosData(n=n, sigma0=sigma0, rho0=rho0, m=n - len(recession),
                      permutation=permutation, face_support=face_support,
                      lambdas=lambdas, lambda_volume=vol,
                      compact_face=not recession)


def log_decay_rate(exps, sigma0: Fraction) -> float:
    """Decay rate of the log-coordinate integrand of (sum_e c_e x^e)^(-sigma0).

    That is sigma0 times the distance from (1, ..., 1) / sigma0 to the
    nearest facet of conv(exps), found exactly. The integral over the
    orthant converges only if that point is strictly inside.
    """
    k = len(exps[0])
    point = tuple(1 / sigma0 for _ in range(k))
    if k == 1:
        facets = [((1,), min(e[0] for e in exps)), ((-1,), -max(e[0] for e in exps))]
    else:
        facets = polytope_facets(exps, k)
    gaps = [(dot(w, point) - m, w) for w, m in facets]
    if any(gap <= 0 for gap, _ in gaps):
        raise DivergentIntegral(
            f"(1,...,1)/sigma0 = {point} is not inside the face polytope")
    return float(sigma0) * min(float(gap) / math.hypot(*w) for gap, w in gaps)


EPS = 2.0 ** -52
# A series whose terms shrink by a ratio above this needs more than about
# 370 terms to reach the rounding level; it is left to quadrature.
SERIES_MAX_RATIO = 0.9


def exact_face_integral(coeffs, exps, sigma0) -> ConstantValue | None:
    """The integral of (sum_e c_e x^e)^(-sigma0) over (0, oo)^k, without quadrature.

    Covers a simplex, a vertex included ("gamma-simplex"), a simplex plus
    one monomial inside it ("mellin-barnes"), and a product of such faces in
    disjoint variables ("gamma-product", or "mellin-barnes-product" when a
    factor takes the series). Returns None for any other face, for a series
    whose ratio exceeds SERIES_MAX_RATIO, and where the integral diverges.
    Exponents and coefficients are exact; the error bar is the series
    truncation plus an estimate of the lgamma and exp rounding.
    """
    k = len(exps[0])
    if len(exps) == k + 1:
        return _simplex_series(coeffs, exps, sigma0)
    if len(exps) == k + 2:
        for j in range(k + 2):
            rest = [i for i in range(k + 2) if i != j]
            result = _simplex_series([coeffs[i] for i in rest], [exps[i] for i in rest],
                                     sigma0, extra=(coeffs[j], exps[j]))
            if result is not None:
                return result
    return _product_face(coeffs, exps, sigma0)


def _solve(columns, rhs):
    """x with sum_i x_i columns[i] = rhs, and |det|, exactly; None if singular."""
    size = len(rhs)
    rows = [[frac(col[r]) for col in columns] + [frac(rhs[r])] for r in range(size)]
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        det *= rows[c][c]
        for r in range(size):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[r][size] / rows[r][r] for r in range(size)], abs(det)


def _simplex_series(coeffs, exps, sigma0, extra=None) -> ConstantValue | None:
    """The Gamma product on a simplex, or with extra = (c*, e*) the series."""
    k = len(exps[0])
    columns = [(1,) + tuple(e) for e in exps]
    solved = _solve(columns, (sigma0,) + (1,) * k)
    if solved is None:
        return None
    alpha, det = solved
    if any(a <= 0 for a in alpha):
        return None     # (1, ..., 1) / sigma0 is not inside: the integral diverges
    logc = [math.log(c) for c in coeffs]
    norm = math.lgamma(float(sigma0)) + math.log(det)

    def term(n, beta, log_star):
        # |n-th term|, and a rounding estimate: a few ulps of each logarithm
        # summed into its exponent, and of each Gamma argument
        log_value = n * log_star - math.lgamma(n + 1) - norm
        size = abs(n * log_star) + math.lgamma(n + 1) + abs(norm)
        for a, b, lc in zip(alpha, beta, logc):
            x = float(a + n * b)
            g, w = math.lgamma(x), x * lc
            log_value += g - w
            size += abs(g) + abs(w) + x * (1 + abs(math.log(x)))
        value = math.exp(log_value)
        return value, value * 8 * EPS * (1 + size)

    if extra is None:
        value, rounding = term(0, [0] * (k + 1), 0.0)
        return ConstantValue(value=value, abs_error=rounding + EPS * value,
                             method="gamma-simplex")
    beta = _solve(columns, (1,) + tuple(extra[1]))[0]
    if any(b < 0 for b in beta):
        return None
    log_star = math.log(extra[0])
    log_ratio = log_star + sum(float(b) * (math.log(b) - lc)
                               for b, lc in zip(beta, logc) if b)
    ratio = math.exp(log_ratio)
    if ratio > SERIES_MAX_RATIO:
        return None
    # Wendel's inequality Gamma(x + b) <= x^b Gamma(x) for 0 <= b <= 1 and
    # the weighted AM-GM inequality bound the ratio of consecutive terms by
    # ratio (n + sigma0) / (n + 1): from `steady` on the terms shrink, so
    # the first omitted one bounds the alternating tail
    steady = max(0, math.floor((ratio * float(sigma0) - 1) / (1 - ratio)) + 1)
    terms, partial, rounding = [], 0.0, 0.0
    for n in itertools.count():
        value, err = term(n, beta, log_star)
        if n >= steady and value <= EPS / 16 * abs(partial):
            total = math.fsum(terms)
            return ConstantValue(value=total,
                                 abs_error=value + rounding + EPS * abs(total),
                                 method="mellin-barnes")
        terms.append(-value if n % 2 else value)
        partial += terms[-1]
        rounding += err


def _product_face(coeffs, exps, sigma0) -> ConstantValue | None:
    """A face polynomial f(x_S) g(x_T) in disjoint variable sets, integrated per factor."""
    k = len(exps[0])
    table = dict(zip(map(tuple, exps), coeffs))
    for size in range(k - 1):
        for more in itertools.combinations(range(1, k), size):
            left = (0,) + more
            right = tuple(i for i in range(k) if i not in left)
            split = {(tuple(e[i] for i in left), tuple(e[i] for i in right)): c
                     for e, c in table.items()}
            a_part = sorted({a for a, _ in split})
            b_part = sorted({b for _, b in split})
            if len(a_part) * len(b_part) != len(split):
                continue
            a0, b0 = next(iter(split))
            c00 = split[a0, b0]
            if any(c * c00 != split[a, b0] * split[a0, b] for (a, b), c in split.items()):
                continue
            f = exact_face_integral([split[a, b0] for a in a_part], a_part, sigma0)
            g = exact_face_integral([split[a0, b] / c00 for b in b_part], b_part, sigma0)
            if f is None or g is None:
                return None
            value = f.value * g.value
            error = (abs(f.value) * g.abs_error + abs(g.value) * f.abs_error
                     + f.abs_error * g.abs_error + EPS * abs(value))
            gamma = {"gamma-simplex", "gamma-product"}
            method = ("gamma-product" if {f.method, g.method} <= gamma
                      else "mellin-barnes-product")
            return ConstantValue(value=value, abs_error=error, method=method)
    return None


def sargos_constant(p: GeneralizedPolynomial, tol: float = 1e-9,
                    seed: int = 0) -> ConstantValue:
    """n! Vol(Lambda) times the diagonal-face integral."""
    data = newton_at_infinity(p)
    scale = float(math.factorial(data.n) * data.lambda_volume)
    inner = data.m - data.rho0        # positive-orthant axes
    result = None
    if data.compact_face:
        perm = data.permutation
        coeffs = [c for c, _ in data.face_support]
        exps = [tuple(e[perm[data.rho0 + j]] for j in range(inner))
                for _, e in data.face_support]
        result = exact_face_integral(coeffs, exps, data.sigma0)
        if result is None and inner <= 2:
            result = integrate_log_orthant(coeffs, exps, data.sigma0,
                                           log_decay_rate(exps, data.sigma0), tol=tol)
    if result is None:
        result = _cube_face_integral(data, tol, seed)
    return ConstantValue(value=scale * result.value,
                         abs_error=scale * result.abs_error,
                         method=result.method)


def _cube_face_integral(data: SargosData, tol: float, seed: int) -> ConstantValue:
    """The face integral mapped onto the unit cube: u/(1-u) on face axes, 1/u on recession axes."""
    n = data.n
    sigma0 = float(data.sigma0)
    inner = data.m - data.rho0        # positive-orthant axes
    outer = n - data.m                # [1, oo) axes
    dim = inner + outer
    perm = data.permutation
    face = GeneralizedPolynomial.from_terms(data.face_support, n)

    def integrand(u):
        v = [1.0] * n
        for j in range(inner):
            if u[j] >= 1.0:
                return 0.0
            v[perm[data.rho0 + j]] = u[j] / (1.0 - u[j])
        for j in range(outer):
            if u[inner + j] <= 0.0:
                return 0.0
            v[perm[data.m + j]] = 1.0 / u[inner + j]
        val = face.eval_float(v)  # v in original coordinate order
        if val <= 0.0 or not math.isfinite(val):
            return 0.0
        w = val ** (-sigma0)
        for j in range(inner):
            w /= (1.0 - u[j]) ** 2
        for j in range(outer):
            w /= u[inner + j] ** 2
        return w if math.isfinite(w) else 0.0

    result = integrate_cube(integrand, dim, tol=tol, seed=seed)
    if result.abs_error > max(100 * tol, 1e-3 * abs(result.value)):
        tails = {j: 1.0 for j in range(inner)}
        tails.update({inner + j: 0.0 for j in range(outer)})
        check_tail_convergence(integrand, dim, tails)
    return result


def build_repetition_polynomial(points, multiplicities, coefficients) -> GeneralizedPolynomial:
    """The auxiliary polynomial behind the volume constant.

    Repeat each point of I according to its multiplicity to form rows
    alpha^1..alpha^q, then transpose: monomial k gets exponent vector
    (alpha^1_k, ..., alpha^q_k) and coefficient b_k.
    """
    pts = [fracvec(x) for x in points]
    mult = [int(u) for u in multiplicities]
    if not pts:
        raise ValueError("empty point family")
    r = len(pts[0])
    coeffs = [frac(b) for b in coefficients]
    if len(coeffs) != r:
        raise ValueError("need one coefficient per ambient coordinate")
    alphas = []
    for beta, u in zip(pts, mult):
        alphas.extend([beta] * u)
    q = len(alphas)
    terms = []
    for k in range(r):
        gamma = tuple(alphas[i][k] for i in range(q))
        terms.append((coeffs[k], gamma))
    return GeneralizedPolynomial.from_terms(terms, q)


def volume_constant(points, multiplicities, coefficients, tol: float = 1e-9,
                    seed: int = 0) -> ConstantValue:
    """A0(I; u; b): the Sargos constant of the repetition polynomial."""
    aux = build_repetition_polynomial(points, multiplicities, coefficients)
    return sargos_constant(aux, tol=tol, seed=seed)


def mixed_type_pushforward(t: MixedTypeT, p: GeneralizedPolynomial):
    """Push the type through the exponent matrix of P, merging collisions."""
    n = p.nvars
    gammas = p.support
    r = len(gammas)
    alphas = [tuple(gammas[j][i] for j in range(r)) for i in range(n)]
    merged: dict = {}
    for beta, u in zip(t.points, t.multiplicities):
        if len(beta) != n:
            raise ValueError("type arity must match the variable count")
        mu = tuple(sum((beta[i] * alphas[i][j] for i in range(n)), Fraction(0))
                   for j in range(r))
        merged[mu] = merged.get(mu, 0) + u
    pts = sorted(merged)
    return pts, [merged[x] for x in pts]


def mixed_volume_constant(t: MixedTypeT, p: GeneralizedPolynomial,
                          tol: float = 1e-9, seed: int = 0) -> ConstantValue:
    """A0(T; P) = A0(I_{T,P}; u_{T,P}; b)."""
    pts, mult = mixed_type_pushforward(t, p)
    return volume_constant(pts, mult, p.coefficients, tol=tol, seed=seed)


def mahler_constant(p: GeneralizedPolynomial, tol: float = 1e-9,
                    seed: int = 0) -> ConstantValue:
    """Classical density: (1/k) integral of P_d^(-k/d) over the positive unit sphere.

    k is the number of variables; spherical coordinates on the positive
    octant keep the quadrature dimension at k - 1.
    """
    k = p.nvars
    if k > 6:
        from .quadrature import DimensionTooHigh
        raise DimensionTooHigh("sphere quadrature capped at six variables")
    top = p.top_part()
    power = -float(k) / float(p.degree)
    half_pi = math.pi / 2

    def integrand(u):
        ang = [x * half_pi for x in u]
        v = []
        s = 1.0
        for i in range(k - 1):
            v.append(s * math.cos(ang[i]))
            s *= math.sin(ang[i])
        v.append(s)
        # no coordinate is negative on the octant, so a zero one makes its
        # terms vanish
        total = top.eval_float(v)
        if total <= 0.0:
            return 0.0
        w = total ** power
        # surface measure: prod sin^(k-1-i)(theta_i), one half_pi per axis
        for i in range(k - 2):
            w *= math.sin(ang[i]) ** (k - 2 - i)
        return w * half_pi ** (k - 1)

    if k == 1:
        value = sum(float(c) for c in top.coefficients) ** power
        return ConstantValue(value=value, abs_error=EPS * value, method="closed-form")
    result = integrate_cube(integrand, k - 1, tol=tol, seed=seed)
    return ConstantValue(value=result.value / k, abs_error=result.abs_error / k,
                         method="sphere-" + result.method)

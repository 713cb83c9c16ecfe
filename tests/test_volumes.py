import math
import random
from fractions import Fraction

import pytest
import scipy.integrate as si
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toric_density import quadrature, volumes
from toric_density.hull import polytope_facets, polytope_volume, upward_hull
from toric_density.model import GeneralizedPolynomial
from toric_density.polyhedron import diagonal_block
from toric_density.quadrature import (ConstantValue, DivergentIntegral,
                                      check_tail_convergence, integrate_cube,
                                      integrate_log_orthant)
from toric_density.volumes import (MissingVariable, MixedTypeT,
                                   build_repetition_polynomial, exact_face_integral,
                                   log_decay_rate, mahler_constant,
                                   mixed_type_pushforward, mixed_volume_constant,
                                   newton_at_infinity, sargos_constant,
                                   volume_constant)
from toric_density.vectors import rank


def poly(terms):
    return GeneralizedPolynomial.from_terms(terms)


def sphere_oracle(p, npts=0):
    """(1/d) * integral of P^(-n/d) over the positive unit sphere, by quadrature."""
    n = p.nvars
    d = float(p.degree)
    if n == 2:
        val, _ = si.quad(lambda th: p.eval_float((math.cos(th), math.sin(th)))
                         ** (-2.0 / d), 0, math.pi / 2)
        return val / d
    if n == 3:
        val, _ = si.dblquad(
            lambda t2, t1: p.eval_float((math.cos(t1),
                                         math.sin(t1) * math.cos(t2),
                                         math.sin(t1) * math.sin(t2)))
            ** (-3.0 / d) * math.sin(t1),
            0, math.pi / 2, 0, math.pi / 2)
        return val / d
    raise NotImplementedError


class TestNewtonAtInfinity:
    def test_sum_of_squares(self):
        data = newton_at_infinity(poly([(1, (2, 0)), (1, (0, 2))]))
        assert data.sigma0 == 1 and data.rho0 == 1 and data.m == 2
        assert data.lambda_volume == Fraction(1, 4)
        assert data.lambdas == ((Fraction(1, 2), Fraction(1, 2)),)
        assert data.compact_face

    def test_linear(self):
        data = newton_at_infinity(poly([(1, (1, 0)), (1, (0, 1))]))
        assert data.sigma0 == 2
        assert data.lambdas == ((1, 1),)
        assert data.lambda_volume == Fraction(1, 2)

    def test_quartic_with_middle(self):
        d = 2
        data = newton_at_infinity(poly([(1, (2 * d, 0)), (1, (0, 2 * d)),
                                        (1, (d, d))]))
        assert data.sigma0 == Fraction(1, d)
        assert math.factorial(2) * data.lambda_volume == Fraction(1, 2 * d)

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            newton_at_infinity(poly([(1, (2, 0))]))

    def test_noncompact_face(self):
        data = newton_at_infinity(poly([(1, (1, 5))]))
        assert not data.compact_face
        assert data.m == 1 and data.rho0 == 1

    def test_hull_runs_once_per_polynomial(self, monkeypatch):
        calls = []
        real = volumes.upward_hull

        def counted(points, n):
            calls.append(n)
            return real(points, n)

        monkeypatch.setattr(volumes, "upward_hull", counted)
        newton_at_infinity.cache_clear()
        p = poly([(2, (3, 0, 0)), (1, (0, 3, 0)), (4, (0, 0, 3)), (2, (1, 1, 1))])
        first = newton_at_infinity(p)
        assert newton_at_infinity(p) is first
        sargos_constant(p)
        assert calls == [3]

    @settings(max_examples=100, deadline=None)
    @given(terms=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.tuples(st.integers(1, 5), st.tuples(*[st.sampled_from(
            [0, 0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2)])] * n)),
        min_size=1, max_size=n + 3)))
    @example(terms=[(1, (1, 0)), (1, (1, 2))])                     # recession face
    @example(terms=[(1, (2, 0)), (1, (1, 1))])                     # vertex face
    @example(terms=[(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
    @example(terms=[(1, (2, 0)), (1, (3, 0))])                     # missing variable
    def test_matches_the_greedy_block_and_the_full_polytope(self, terms):
        p = poly(terms)
        try:
            expected = reference_sargos_data(p)
        except MissingVariable:
            with pytest.raises(MissingVariable):
                newton_at_infinity(p)
            return
        assert newton_at_infinity(p) == expected


def reference_sargos_data(p):
    """SargosData by the direct route: the transverse block grown greedily
    over `rank`, and Vol(Lambda) of the n-dimensional polytope spanned by 0,
    the permuted polar vectors and the unit corners after the block."""
    if not p.depends_on_all_variables():
        raise MissingVariable
    n = p.nvars
    mirrored = [tuple(-x for x in e) for e in p.support]
    facets, _ = upward_hull(mirrored, n)
    u0, active, face_pts, recession, span = diagonal_block(facets, mirrored)
    rho0 = n - rank(span)

    def unit(i):
        return tuple(Fraction(int(j == i)) for j in range(n))

    transverse, current = [], list(span)
    for i in range(n):
        if i not in recession and rank(current + [unit(i)]) > rank(current):
            current.append(unit(i))
            transverse.append(i)
    assert len(transverse) == rho0
    middle = [i for i in range(n) if i not in transverse and i not in recession]
    permutation = tuple(transverse + middle + recession)
    lambdas = tuple(tuple(Fraction(x) / -Fraction(m) for x in w) for w, m in active)
    corners = [(Fraction(0),) * n] + [tuple(lam[i] for i in permutation)
                                      for lam in lambdas]
    corners += [unit(i) for i in range(rho0, n)]
    face_exps = {tuple(-x for x in v) for v in face_pts}
    return volumes.SargosData(
        n=n, sigma0=-1 / u0, rho0=rho0, m=n - len(recession), permutation=permutation,
        face_support=tuple((c, e) for c, e in p.monomials if e in face_exps),
        lambdas=lambdas, lambda_volume=polytope_volume(corners),
        compact_face=not recession)


class TestSargosConstant:
    def test_circle(self):
        cv = sargos_constant(poly([(1, (2, 0)), (1, (0, 2))]))
        assert abs(cv.value - math.pi / 4) <= cv.abs_error + 1e-12

    def test_linear(self):
        cv = sargos_constant(poly([(1, (1, 0)), (1, (0, 1))]))
        assert abs(cv.value - 1.0) <= cv.abs_error + 1e-12

    def test_quartic(self):
        cv = sargos_constant(poly([(1, (4, 0)), (1, (0, 4)), (1, (2, 2))]))
        oracle, _ = si.quad(lambda x: (1 + x ** 2 + x ** 4) ** -0.5, 0, math.inf)
        assert abs(cv.value - oracle / 4) < 1e-8

    def test_vertex_face_error_bar_scales_with_the_value(self):
        # the diagonal meets the polyhedron at infinity in the vertex (1, 1)
        cv = sargos_constant(poly([(1, (2, 0)), (Fraction(1, 10 ** 6), (1, 1))]))
        assert cv.method == "gamma-simplex"
        assert cv.abs_error >= math.ulp(cv.value)
        assert abs(cv.value - 500000) <= cv.abs_error

    def test_single_monomial_recession(self):
        cv = sargos_constant(poly([(1, (1, 5))]))
        assert abs(cv.value - 0.25) < 1e-10

    def test_permutation_invariance(self):
        rng = random.Random(12)
        base = [(2, (3, 0, 0)), (1, (0, 3, 0)), (4, (0, 0, 3)), (2, (1, 1, 1))]
        ref = sargos_constant(poly(base)).value
        for _ in range(3):
            perm = list(range(3))
            rng.shuffle(perm)
            shuffled = [(c, tuple(e[perm[i]] for i in range(3))) for c, e in base]
            got = sargos_constant(poly(shuffled)).value
            assert abs(got - ref) < 1e-7

    def test_coefficient_scaling(self):
        # replacing b by s*b multiplies the constant by s^(-sigma0)
        base = [(1, (2, 0)), (1, (0, 2))]
        scaled = [(3, (2, 0)), (3, (0, 2))]
        a0 = sargos_constant(poly(base)).value
        a1 = sargos_constant(poly(scaled)).value
        assert abs(a1 - a0 / 3.0) < 1e-9


# 2-d faces: the nested Gauss-Kronrod value and error bar of the rule the
# log-coordinate trapezoid replaced, per polynomial
GAUSS_KRONROD_2D = [
    ([(2, (3, 0, 0)), (1, (0, 3, 0)), (4, (0, 0, 3)), (2, (1, 1, 1))],
     0.317564333072374, 1.4745525316839662e-10),
    ([("3/2", (2, 0, 0)), ("43/10", (0, 2, 0)), ("15/2", (0, 0, 2)), ("24/5", (1, 1, 0))],
     0.0732361903327606, 2.406035707319473e-10),
    ([("42/5", (2, 0, 0)), ("37/10", (0, 2, 0)), ("37/5", (0, 0, 2)), ("27/10", (1, 1, 0))],
     0.0450658808322271, 2.01347171687837e-10),
    ([("3/2", (2, 0, 0)), ("43/10", (0, 2, 0)), ("15/2", (0, 0, 2)), ("36/5", (1, 1, 0))],
     0.0633025012168244, 2.0109000311517214e-10),
    ([("71/10", (2, 0, 0)), ("11/2", (0, 2, 0)), ("42/5", (0, 0, 2)), ("37/10", (1, 1, 0))],
     0.0367134332633629, 2.388247454623427e-10),
    ([(10, (3, 0, 0)), ("87/10", (0, 3, 0)), ("14/5", (0, 0, 3)), ("49/10", (2, 1, 0))],
     0.104549933103693, 1.4956014629053307e-10),
]


def face_terms(p):
    """Coefficients and inner-slot exponents of the diagonal face, as sargos_constant takes them."""
    data = newton_at_infinity(p)
    inner = [data.permutation[i] for i in range(data.rho0, data.m)]
    return ([c for c, _ in data.face_support],
            [tuple(e[i] for i in inner) for _, e in data.face_support], data.sigma0)


def log_rule(p, tol=1e-9):
    """The Sargos constant of p with its face integral by the log-coordinate
    trapezoid rule, which sargos_constant runs only where no closed form fits."""
    data = newton_at_infinity(p)
    scale = float(math.factorial(data.n) * data.lambda_volume)
    coeffs, exps, sigma0 = face_terms(p)
    cv = integrate_log_orthant(coeffs, exps, sigma0, log_decay_rate(exps, sigma0), tol=tol)
    return ConstantValue(value=scale * cv.value, abs_error=scale * cv.abs_error,
                         method=cv.method)


def agree(a, b):
    """Two ConstantValues within the sum of their error bars."""
    return abs(a.value - b.value) <= a.abs_error + b.abs_error


def diagonal_window(exps):
    """The open interval of t > 0 with (t, ..., t) inside conv(exps), or None."""
    if len(exps[0]) == 1:
        lo, hi = min(e[0] for e in exps), max(e[0] for e in exps)
    else:
        lo, hi = Fraction(0), None
        for w, m in polytope_facets(exps, 2):
            slope = sum(w)
            if slope > 0:
                lo = max(lo, m / slope)
            elif slope < 0:
                hi = m / slope if hi is None else min(hi, m / slope)
            elif m >= 0:
                return None
    return (lo, hi) if hi is not None and lo < hi else None


@st.composite
def face_terms_cases(draw):
    """(k, exponents, coefficients) of a random face polynomial in k = 1 or 2 variables."""
    k = draw(st.sampled_from((1, 2)))
    size = draw(st.integers(2, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * k),
                         min_size=size, max_size=size, unique=True))
    coeffs = draw(st.lists(st.fractions(Fraction(1, 10), 5, max_denominator=10),
                           min_size=size, max_size=size))
    return k, exps, coeffs


def window_reference(coeffs, exps, sigma0, rate):
    """The log-coordinate integral by QUADPACK on a finite box, plus the tail.

    The integrand is at most min(c)^(-sigma0) exp(-rate |s|), so the mass
    outside [-R, R]^k is below that of the ball of radius R; R is the first
    integer that puts it below 1e-14. On the box QUADPACK needs no infinite
    range transform, which misses the far tails of slow faces.
    """
    k = len(exps[0])
    s0 = float(sigma0)
    bound = float(min(coeffs)) ** -s0

    def tail(r):
        if k == 1:
            return 2 * bound * math.exp(-rate * r) / rate
        return 2 * math.pi * bound * math.exp(-rate * r) * (r / rate + 1 / rate ** 2)

    radius = 1
    while tail(radius) > 1e-14:
        radius += 1
    terms = [(math.log(c), e) for c, e in zip(coeffs, exps)]

    def f(*s):
        lin = [lc + sum(x * y for x, y in zip(e, s)) for lc, e in terms]
        top = max(lin)
        return math.exp(sum(s) - s0 * (top + math.log(sum(math.exp(v - top) for v in lin))))

    opts = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}
    value, err = si.nquad(f, [(-radius, radius)] * k, opts=[opts] * k)
    return value, err + tail(radius)


class TestLogTrapezoid:
    @pytest.mark.parametrize("terms, oracle", [
        ([(1, (2, 0)), (1, (0, 2))], math.pi / 4),
        ([(1, (1, 0)), (1, (0, 1))], 1.0),
    ])
    def test_closed_forms(self, terms, oracle):
        cv = log_rule(poly(terms))
        assert cv.method == "log-trapezoid-1d"
        assert abs(cv.value - oracle) <= cv.abs_error
        exact = sargos_constant(poly(terms))
        assert exact.method == "gamma-simplex"
        assert abs(exact.value - oracle) <= exact.abs_error
        assert agree(exact, cv)

    def test_lifted_kernel_oracle(self):
        # half the integral of 1/(1 + x + x^2), which is 2 pi / (3 sqrt 3)
        oracle = math.pi / (3 * math.sqrt(3))
        cv = log_rule(build_repetition_polynomial([(2, 0, 1), (0, 2, 1)], (1, 1), (1, 1, 1)))
        assert cv.method == "log-trapezoid-1d"
        assert abs(cv.value - oracle) <= cv.abs_error
        exact = volume_constant([(2, 0, 1), (0, 2, 1)], (1, 1), (1, 1, 1))
        assert exact.method == "mellin-barnes"
        assert abs(exact.value - oracle) <= exact.abs_error
        assert agree(exact, cv)

    @pytest.mark.parametrize("terms, parent, parent_err", GAUSS_KRONROD_2D)
    def test_two_dimensional_faces_match_gauss_kronrod(self, terms, parent, parent_err):
        cv = log_rule(poly(terms))
        assert cv.method == "log-trapezoid-2d"
        assert abs(cv.value - parent) <= parent_err + cv.abs_error
        exact = sargos_constant(poly(terms))
        assert abs(exact.value - parent) <= parent_err + exact.abs_error
        assert agree(exact, cv)

    def test_error_bar_shrinks_with_tol(self):
        p = poly(GAUSS_KRONROD_2D[0][0])
        loose = log_rule(p, tol=1e-4)
        tight = log_rule(p, tol=1e-9)
        assert tight.abs_error < loose.abs_error
        assert agree(loose, tight)
        # the series ignores tol, and lies inside both bars
        exact = sargos_constant(p, tol=1e-4)
        assert exact.method == "mellin-barnes" and exact == sargos_constant(p, tol=1e-9)
        assert agree(exact, loose) and agree(exact, tight)

    @pytest.mark.parametrize("exps, sigma0", [
        ([(0,), (2,)], Fraction(1, 2)),                  # 2 is an endpoint
        ([(1,), (3,)], Fraction(2)),                     # 1/2 lies outside
        ([(0, 0), (2, 0), (0, 2)], Fraction(1)),         # (1, 1) on x + y = 2
        ([(0, 0), (4, 0), (0, 4), (1, 1)], Fraction(1, 2)),  # (2, 2) on x + y = 4
    ])
    def test_divergent_on_a_facet(self, exps, sigma0):
        with pytest.raises(DivergentIntegral):
            log_decay_rate(exps, sigma0)

    def test_decay_rate_is_the_facet_distance(self):
        # (1, 1) in the triangle (0,0), (4,0), (0,4): nearest facets are the axes
        assert log_decay_rate([(0, 0), (4, 0), (0, 4)], Fraction(1)) == 1.0
        # (1, 1) in the triangle (0,0), (3,0), (0,3): x + y = 3 is nearest
        assert log_decay_rate([(0, 0), (3, 0), (0, 3)], Fraction(1)) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert log_decay_rate([(0,), (2,)], Fraction(2)) == 1.0

    @pytest.mark.parametrize("coeffs", [(1, 0), (1, -2)])
    def test_non_positive_coefficient(self, coeffs):
        with pytest.raises(ValueError, match="coefficients must be positive"):
            integrate_log_orthant(coeffs, [(0,), (2,)], Fraction(1), 1.0)

    @pytest.mark.parametrize("terms", [GAUSS_KRONROD_2D[0][0],
                                       [(3, (2, 0)), (1, (0, 2)), (2, (1, 1))]])
    def test_block_size_does_not_change_bytes(self, terms, monkeypatch):
        coeffs, exps, sigma0 = face_terms(poly(terms))
        rate = log_decay_rate(exps, sigma0)
        runs = []
        for size in (8192, 97):
            monkeypatch.setattr(quadrature, "LOG_BLOCK", size)
            runs.append(integrate_log_orthant(coeffs, exps, sigma0, rate, tol=1e-7))
        assert runs[0] == runs[1]

    @settings(max_examples=10, deadline=None)
    @given(case=face_terms_cases())
    # QUADPACK over the infinite plane put this face 1.46e-10 low and claimed
    # +- 9.6e-12; a tail-free trapezoid sum agrees with the log rule
    @example(case=(2, [(0, 4), (0, 0), (0, 2), (4, 2)],
                   [Fraction(11, 6), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)]))
    def test_against_nquad(self, case):
        k, exps, coeffs = case
        assume(k == 1 or len({(a[0] - exps[0][0]) * (b[1] - exps[0][1])
                              - (a[1] - exps[0][1]) * (b[0] - exps[0][0])
                              for a in exps for b in exps}) > 1)
        window = diagonal_window(exps)
        assume(window is not None)
        sigma0 = 2 / (window[0] + window[1])
        rate = log_decay_rate(exps, sigma0)
        # the window needed for a 1e-14 tail grows like 1/rate
        assume(rate >= 0.4)
        got = integrate_log_orthant(coeffs, exps, sigma0, rate, tol=1e-10)
        want, want_err = window_reference(coeffs, exps, sigma0, rate)
        assert abs(got.value - want) <= got.abs_error + want_err + 1e-12 * want


@st.composite
def simplex_faces(draw):
    """(coefficients, exponents) of a random 1-d or 2-d simplex face, half
    of them with one more monomial inside or on the simplex.

    The extra point is the weighted mean of the vertices with integer
    weights summing to w; the vertices are scaled by w to keep every
    exponent an integer, which leaves the log-coordinate decay rate alone.
    """
    k = draw(st.sampled_from((1, 2)))
    vertices = draw(st.lists(st.tuples(*[st.integers(0, 4)] * k),
                             min_size=k + 1, max_size=k + 1, unique=True))
    coeffs = draw(st.lists(st.fractions(Fraction(1, 10), 5, max_denominator=10),
                           min_size=k + 1, max_size=k + 1))
    if not draw(st.booleans()):
        return coeffs, vertices
    weights = draw(st.lists(st.integers(0, 3), min_size=k + 1, max_size=k + 1)
                   .filter(lambda w: sum(w) > 1 and max(w) < sum(w)))
    w = sum(weights)
    extra = tuple(sum(u * v[j] for u, v in zip(weights, vertices)) for j in range(k))
    star = draw(st.fractions(Fraction(1, 10), 2, max_denominator=10))
    return coeffs + [star], [tuple(w * x for x in v) for v in vertices] + [extra]


def is_simplex(exps):
    """The first k + 1 points span R^k."""
    k = len(exps[0])
    if k == 1:
        return exps[0] != exps[1]
    (a, b), (c, d), (e, f) = exps[:3]
    return (c - a) * (f - b) != (d - b) * (e - a)


class TestExactFaceIntegral:
    @settings(max_examples=10, deadline=None)
    @given(case=simplex_faces())
    def test_agrees_with_log_rule(self, case):
        coeffs, exps = case
        assume(is_simplex(exps) and len(set(exps)) == len(exps))
        window = diagonal_window(exps)
        assume(window is not None)
        sigma0 = 2 / (window[0] + window[1])
        rate = log_decay_rate(exps, sigma0)
        assume(rate >= 0.4)
        exact = exact_face_integral(coeffs, exps, sigma0)
        if len(exps) == len(exps[0]) + 1:
            assert exact.method == "gamma-simplex"
        else:
            # a series whose terms shrink too slowly is left to quadrature
            assume(exact is not None)
            assert exact.method == "mellin-barnes"
        got = integrate_log_orthant(coeffs, exps, sigma0, rate, tol=1e-10)
        assert agree(exact, got)

    # the log rule's (value, abs_error, method) on faces no closed form
    # covers, as recorded before the closed forms were added
    @pytest.mark.parametrize("terms, pinned", [
        # a simplex plus one point whose series ratio is about 0.95
        (GAUSS_KRONROD_2D[1][0],
         (0.07323619033276055, 1.0314585015747944e-10, "log-trapezoid-2d")),
        # the same face with a series ratio of about 1.4, which diverges
        (GAUSS_KRONROD_2D[3][0],
         (0.06330250121682443, 1.0314585015747944e-10, "log-trapezoid-2d")),
        # the square {0, 2}^2: each point has a beta_i < 0 against the
        # other three, and the coefficients 1, 2, 1, 1 do not factor
        ([(1, (2, 0, 2, 0)), (2, (0, 2, 2, 0)), (1, (2, 0, 0, 2)), (1, (0, 2, 0, 2))],
         (0.5148397968649887, 3.1551521346822713e-11, "log-trapezoid-2d")),
        # four monomials on a segment
        ([(1, (4, 0)), (1, (0, 4)), (1, (3, 1)), (2, (1, 3))],
         (0.355579559567026, 5.42313941370204e-11, "log-trapezoid-1d")),
    ])
    def test_fallback_faces_keep_the_log_rule(self, terms, pinned):
        p = poly(terms)
        assert exact_face_integral(*face_terms(p)) is None
        cv = sargos_constant(p)
        assert (cv.value, cv.abs_error, cv.method) == pinned

    # (1,1,1) and P^2 cubic faces, a 3-d simplex that went to the cube
    # rule, the quadric square, and a square times a 1-d series face
    EXACT_FACES = [
        ([(1, (2, 0)), (1, (0, 2))], "gamma-simplex"),
        ([(1, (4, 0)), (1, (2, 2)), (1, (0, 4))], "mellin-barnes"),
        (GAUSS_KRONROD_2D[0][0], "mellin-barnes"),
        ([(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3)), (1, (1, 1, 1))], "mellin-barnes"),
        ([(1, tuple(2 * (j == i) for j in range(4))) for i in range(4)], "gamma-simplex"),
        ([(1, (2, 0, 2, 0)), (1, (0, 2, 2, 0)), (1, (2, 0, 0, 2)), (1, (0, 2, 0, 2))],
         "gamma-product"),
        ([(1, (2, 0, 2, 0)), (1, (2, 0, 1, 1)), (1, (2, 0, 0, 2)),
          (1, (0, 2, 2, 0)), (1, (0, 2, 1, 1)), (1, (0, 2, 0, 2))], "mellin-barnes-product"),
    ]

    def test_exact_paths_skip_quadrature(self, monkeypatch):
        polys = [poly(terms) for terms, _ in self.EXACT_FACES]
        # the log rule's values, where the face is small enough for it
        refs = [log_rule(p) if len(face_terms(p)[1][0]) <= 2 else None for p in polys]

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called on a face with a closed form")

        monkeypatch.setattr(volumes, "integrate_log_orthant", refuse)
        monkeypatch.setattr(volumes, "integrate_cube", refuse)
        for p, (_, method), ref in zip(polys, self.EXACT_FACES, refs):
            cv = sargos_constant(p)
            assert cv.method == method
            assert ref is None or agree(cv, ref)
        assert sargos_constant(polys[4]).value == pytest.approx(math.pi ** 2 / 16, abs=1e-14)


class TestVolumeConstant:
    def test_identity_linear(self):
        cv = volume_constant([(1, 0), (0, 1)], (1, 1), (1, 1))
        assert abs(cv.value - 1.0) < 1e-9

    def test_identity_squares(self):
        cv = volume_constant([(2, 0), (0, 2)], (1, 1), (1, 1))
        assert abs(cv.value - math.pi / 4) < 1e-9

    def test_lifted_kernel(self):
        cv = volume_constant([(2, 0, 1), (0, 2, 1)], (1, 1), (1, 1, 1))
        oracle, _ = si.quad(lambda x: 1.0 / (1 + x + x ** 2), 0, math.inf)
        assert abs(cv.value - oracle / 2) < 1e-9

    def test_repetition_order_invariance(self):
        a = volume_constant([(2, 0, 1), (0, 2, 1)], (2, 1), (1, 1, 1)).value
        b = volume_constant([(0, 2, 1), (2, 0, 1)], (1, 2), (1, 1, 1)).value
        assert abs(a - b) < 1e-9

    def test_construction_shape(self):
        aux = build_repetition_polynomial([(1,)], (3,), (1,))
        assert aux.nvars == 3 and aux.support == ((1, 1, 1),)


class TestMixedVolume:
    def test_pushforward(self):
        p = poly([(1, (2, 0)), (1, (0, 2))])
        t = MixedTypeT.of([(1, 0), (0, 1)])
        pts, mult = mixed_type_pushforward(t, p)
        assert pts == [(0, 2), (2, 0)] and mult == [1, 1]

    def test_collision_merges(self):
        p = poly([(1, (1, 1))])
        t = MixedTypeT.of([(1, 0), (0, 1)])
        pts, mult = mixed_type_pushforward(t, p)
        assert pts == [(1,)] and mult == [2]

    def test_identity_with_sargos(self):
        p = poly([(2, (3, 0)), (1, (0, 3)), (1, (1, 2))])
        t = MixedTypeT.of([(1, 0), (0, 1)])
        assert abs(mixed_volume_constant(t, p).value - sargos_constant(p).value) < 1e-9

    def test_remark_family(self):
        d = 2
        p = poly([(1, (d, 0, 0)), (1, (0, d, 0)), (1, (0, 0, d))])
        from toric_density.model import restrict_to_hypersurface
        tilde = restrict_to_hypersurface(p, (1, 1))
        t = MixedTypeT.of([(2, 0), (0, 2)])
        cv = mixed_volume_constant(t, tilde)
        oracle, _ = si.quad(
            lambda th: (math.cos(th) ** (2 * d) + math.sin(th) ** (2 * d)
                        + math.cos(th) ** d * math.sin(th) ** d) ** (-1.0 / d),
            0, math.pi / 2)
        assert abs(cv.value - oracle / (2 * d)) < 1e-8

    def test_multiplicity_triple(self):
        t = MixedTypeT.of([(1,)], [3])
        p = poly([(1, (1,))])
        assert abs(mixed_volume_constant(t, p).value - 1.0) < 1e-12


class TestMahler:
    def test_circle(self):
        cv = mahler_constant(poly([(1, (2, 0)), (1, (0, 2))]))
        assert abs(cv.value - math.pi / 4) <= cv.abs_error + 1e-12

    def test_linear(self):
        cv = mahler_constant(poly([(1, (1, 0)), (1, (0, 1))]))
        assert abs(cv.value - 0.5) < 1e-9

    def test_octant(self):
        cv = mahler_constant(poly([(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]))
        assert abs(cv.value - math.pi / 6) < 1e-8

    def test_matches_volume_identity(self):
        # A0(P) = (n/d) * Mahler constant for the same P
        p = poly([(1, (3, 0)), (2, (0, 3)), (1, (2, 1))])
        a0 = sargos_constant(p).value
        mc = mahler_constant(p).value
        assert abs(a0 - mc * 2 / 3) < 1e-8

    def test_one_variable_error_bar_scales_with_the_value(self):
        # 10^-12 X1^2 gives 10^6, whose ulp is about 1.2e-10
        cv = mahler_constant(poly([(Fraction(1, 10 ** 12), (2,))]))
        assert cv.method == "closed-form"
        assert abs(cv.value - 1e6) <= cv.abs_error
        assert cv.abs_error >= math.ulp(cv.value)


class TestQuadratureGuards:
    def test_divergent_detector(self):
        # integral of 1/y over [1, inf): with y = 1/u the integrand becomes 1/u
        def f(u):
            if u[0] <= 0:
                return 0.0
            return 1.0 / u[0]

        with pytest.raises(DivergentIntegral):
            check_tail_convergence(f, 1, {0: 0.0})

    def test_convergent_passes(self):
        def f(u):
            if u[0] >= 1:
                return 0.0
            x = u[0] / (1 - u[0])
            return 1.0 / (1 + x ** 2) / (1 - u[0]) ** 2

        check_tail_convergence(f, 1, {0: 1.0})
        got = integrate_cube(f, 1)
        assert abs(got.value - math.pi / 2) < 1e-9

    def test_mahler_dimension_cap(self):
        from toric_density.quadrature import DimensionTooHigh
        terms = [(1, tuple(2 if j == i else 0 for j in range(7))) for i in range(7)]
        with pytest.raises(DimensionTooHigh):
            mahler_constant(poly(terms))

    def test_sobol_dimension(self):
        def f(u):
            return math.prod(1.0 / (1 + x) for x in u)

        got = integrate_cube(f, 5, seed=0)
        assert abs(got.value - math.log(2) ** 5) < 5 * max(got.abs_error, 1e-4)


class TestCrossChecks:
    def test_mahler_consistency_random(self):
        rng = random.Random(0)
        for _ in range(4):
            n = rng.choice((2, 3))
            d = rng.choice((1, 2, 3))
            terms = [(Fraction(rng.randint(10, 100), 10),
                      tuple(d if j == i else 0 for j in range(n)))
                     for i in range(n)]
            if d >= 2 and rng.random() < 0.7:
                e = [0] * n
                e[0] = d - 1
                e[1] = 1
                terms.append((Fraction(rng.randint(10, 100), 10), tuple(e)))
            p = poly(terms)
            t = MixedTypeT.of([tuple(1 if j == i else 0 for j in range(n))
                               for i in range(n)])
            a0 = mixed_volume_constant(t, p)
            oracle = sphere_oracle(p)
            assert abs(a0.value - oracle) < 1e-4


class TestPinnedBits:
    """Values of the float evaluators of volumes.py, bit for bit as recorded
    when each kept its own copy of the polynomial loop."""

    def test_cube_face_integral(self):
        # a face with one inner and one recession axis, two monomials on it
        cv = sargos_constant(poly([(1, (2, 3, 0)), (2, (2, 0, 3)), (1, (2, 1, 1))]))
        assert cv.method == "gauss-kronrod-2d"
        assert (cv.value, cv.abs_error) == (1.4021821053254584, 1.6519242843462047e-10)

    def test_mahler_constant(self):
        cv = mahler_constant(poly([(1, (2, 0, 0)), (3, (0, 2, 0)), (1, (0, 0, 2)),
                                   (1, (1, 1, 0))]))
        assert cv.method == "sphere-gauss-kronrod-2d"
        assert (cv.value, cv.abs_error) == (0.25687832979731967, 1.326254164181432e-10)

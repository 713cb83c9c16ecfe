import itertools
import math
from fractions import Fraction
from math import gcd

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toric_density import counting
from toric_density.counting import (BoxTooLarge, InvariantError, NonCompactFace,
                                    asymptotic_report, count_points,
                                    count_points_hypersurface, manin_constant,
                                    predicted_density, sup_norm_prediction,
                                    zeta_partial)
from toric_density.model import (GeneralizedPolynomial, hypersurface_problem,
                                 sign_count, validate_toric_matrix)


def poly(terms):
    return GeneralizedPolynomial.from_terms(terms)


SQUARES = poly([(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])


def brute_count(rows, width, t, height, sign):
    """Oracle counter: plain nested loops, Fraction arithmetic."""
    import itertools
    box = int(t)
    total = 0
    for m in itertools.product(range(1, box + 1), repeat=width):
        ok = True
        for r in rows:
            num = den = 1
            for x, a in zip(m, r):
                if a > 0:
                    num *= x ** a
                elif a < 0:
                    den *= x ** (-a)
            if num != den:
                ok = False
                break
        if not ok:
            continue
        g = 0
        for x in m:
            g = gcd(g, x)
        if g != 1:
            continue
        if height(m):
            total += 1
    return sign * total


class TestCountExamples:
    def test_p1_torus_sup(self):
        prob = validate_toric_matrix([], width=2)
        r = count_points(prob, None, 5, "sup")
        assert r.count == 38  # 2 * (2 * sum phi(1..5) - 1)

    def test_p1_against_totients(self):
        prob = validate_toric_matrix([], width=2)
        for t in (10, 25, 60):
            r = count_points(prob, None, t, "sup")
            phisum = sum(sum(1 for k in range(1, b + 1) if gcd(b, k) == 1)
                         for b in range(1, t + 1))
            assert r.count == 2 * (2 * phisum - 1)

    def test_a11_sup_small(self):
        r = count_points_hypersurface((1, 1), None, 10, "sup")
        oracle = brute_count([(1, 1, -2)], 3, 10, lambda m: max(m) <= 10, 2)
        assert r.count == oracle == 14

    def test_a11_polynomial(self):
        r = count_points_hypersurface((1, 1), SQUARES, 10, "polynomial")
        oracle = brute_count([(1, 1, -2)], 3, 35, lambda m: sum(x * x for x in m) <= 100, 2)
        assert r.count == oracle == 10

    def test_generic_matches_brute(self):
        prob = validate_toric_matrix([(1, 2, -3)])
        got = count_points(prob, None, 20, "sup")
        oracle = brute_count([(1, 2, -3)], 3, 20, lambda m: max(m) <= 20, 2)
        assert got.count == oracle


class TestDifferential:
    CASES = [((1, 1), 40, "sup"), ((1, 1), 25, "polynomial"),
             ((1, 2), 40, "sup"), ((2, 1), 40, "sup"), ((2, 2), 30, "polynomial"),
             ((1, 3), 50, "sup"), ((3, 1), 50, "sup"), ((2, 3), 60, "sup"),
             ((3, 2), 60, "sup"), ((1, 4), 40, "sup"), ((4, 1), 40, "sup"),
             ((3, 3), 40, "polynomial"), ((2, 4), 50, "sup"), ((1, 1, 1), 15, "sup"),
             ((1, 1, 2), 15, "sup"), ((1, 2, 1), 15, "sup"), ((2, 1, 1), 15, "sup"),
             ((1, 2, 2), 12, "sup"), ((2, 2, 2), 12, "sup"), ((1, 1, 3), 12, "sup"),
             ((1, 1, 1), 15, "polynomial"), ((1, 1, 2), 15, "polynomial"),
             ((2, 2, 2), 12, "polynomial")]

    @pytest.mark.parametrize("a,t,mode", CASES)
    def test_fast_equals_generic(self, a, t, mode):
        n = len(a)
        height = None
        if mode == "polynomial":
            height = poly([(1, tuple(2 if j == i else 0 for j in range(n + 1)))
                           for i in range(n + 1)])
        fast = count_points_hypersurface(a, height, t, mode)
        slow = count_points(hypersurface_problem(a), height, t, mode)
        assert fast.count == slow.count

    @settings(max_examples=30, deadline=None)
    @given(a=st.tuples(*[st.integers(1, 4)] * 3), t=st.integers(1, 20),
           mode=st.sampled_from(["sup", "squares"]))
    @example(a=(1, 1, 2), t=20, mode="sup")
    @example(a=(2, 1, 3), t=20, mode="squares")
    @example(a=(2, 2, 4), t=19, mode="sup")
    def test_valuation_solve_equals_generic(self, a, t, mode):
        # exponents such as (1, 1, 2), (2, 1, 3) or (1, 3, 4) have
        # gcd(a_n, q) > 1: the solved valuations then need a residue check
        height = squares(4) if mode == "squares" else None
        mode = "polynomial" if height else "sup"
        fast = count_points_hypersurface(a, height, t, mode)
        slow = count_points(hypersurface_problem(a), height, t, mode)
        assert fast.count == slow.count

    @pytest.mark.parametrize("a", [(1, 1, 20), (1, 1, 23)])
    def test_valuation_solve_beyond_int64(self, a):
        # (box + 1)^q passes 2^63, so the roots are checked on Python ints;
        # for (1, 1, 23) the primitive point (4, 9, 6, 6) has 6^25 > 2^63
        t = 12
        got = count_points_hypersurface(a, None, t, "sup").count
        sign = sign_count(hypersurface_problem(a)).value
        assert got == brute_count(hypersurface_problem(a).rows, 4, t,
                                  lambda m: max(m) <= t, sign)


class TestInvariants:
    def test_integer_root(self):
        import random
        from toric_density.counting import _iroot, _perfect_root
        rng = random.Random(13)
        for _ in range(300):
            k = rng.randint(1, 7)
            x = rng.randint(0, 10 ** rng.randint(1, 30))
            r = _iroot(x, k)
            assert r ** k <= x < (r + 1) ** k
        assert _perfect_root(7 ** 12, 12) == 7
        assert _perfect_root(7 ** 12 + 1, 12) is None

    def test_monotone_in_t(self):
        prev = -1
        for t in (5, 10, 15, 20):
            c = count_points_hypersurface((1, 1), None, t, "sup").count
            assert c >= prev
            prev = c

    def test_sign_factor_scaling(self):
        # squaring all entries doubles the sign group, same positive solutions
        base = count_points(validate_toric_matrix([(1, 1, -2)]), None, 30, "sup")
        doubled = count_points(validate_toric_matrix([(2, 2, -4)]), None, 30, "sup")
        assert doubled.count == 2 * base.count

    def test_sup_poly_sandwich(self):
        t = 40
        p = SQUARES
        npts = count_points_hypersurface((1, 1), p, t, "polynomial").count
        kappa = 1.0 / 3  # certified witness is slightly below; exact bound suffices here
        csum = 3.0
        lo = count_points_hypersurface((1, 1), None, t / math.sqrt(csum), "sup").count
        hi = count_points_hypersurface((1, 1), None, t / math.sqrt(kappa), "sup").count
        assert lo <= npts <= hi

    @pytest.mark.parametrize("t,sup,squares", [(2 ** 64, 86, 86), (2 ** 70, 126, 122)])
    def test_heights_beyond_int64(self, t, sup, squares):
        # x1 x2^20 = x3^21: coordinates w^21 pass 2^63, so the exact height
        # comparison runs on Python ints
        wmax = 1
        while (wmax + 1) ** 21 <= t:
            wmax += 1
        points = [(w1 ** 21, w2 ** 21, w1 * w2 ** 20)
                  for w1, w2 in itertools.product(range(1, wmax + 1), repeat=2)
                  if gcd(w1, w2) == 1]
        oracle_sup = 2 * sum(1 for p in points if max(p) <= t)
        oracle_squares = 2 * sum(1 for p in points if sum(x * x for x in p) <= t * t)
        assert count_points_hypersurface((1, 20), None, t, "sup").count == oracle_sup == sup
        got = count_points_hypersurface((1, 20), SQUARES, t, "polynomial").count
        assert got == oracle_squares == squares

    def test_valuation_solve_invariant_raises(self, monkeypatch):
        # without the prefix's primes the solved x_3 misses the cube
        monkeypatch.setattr(counting, "_factorize", lambda m: {})
        with pytest.raises(InvariantError, match="no 3-th power"):
            count_points_hypersurface((1, 1, 1), None, 10, "sup")

    def test_face_point_invariant_raises(self, monkeypatch):
        real = counting.face_points
        monkeypatch.setattr(counting, "face_points", lambda spec, c: real(spec, c)[1:])
        with pytest.raises(InvariantError):
            manin_constant((1, 1), SQUARES)

    def test_budget_guard(self):
        with pytest.raises(BoxTooLarge):
            count_points(validate_toric_matrix([], width=4), None, 10 ** 4,
                         "sup", budget=10 ** 6)


class TestManinAssembly:
    def test_a11_remark_constant(self):
        rep = manin_constant((1, 1), SQUARES)
        import scipy.integrate as si
        oracle = 6 / math.pi ** 2 * si.quad(
            lambda th: (math.cos(th) ** 4 + math.sin(th) ** 4
                        + math.cos(th) ** 2 * math.sin(th) ** 2) ** -0.5,
            0, math.pi / 2)[0]
        assert abs(rep.leading_constant - oracle) < 1e-6
        assert rep.iota == 1 and rep.rho == 1 and rep.sign_factor == 2
        assert rep.zeta_constant == pytest.approx(rep.leading_constant)
        assert rep.compact and rep.dimension_ok and rep.stabilized

    def test_p2_torus_cubes(self):
        prob = validate_toric_matrix([], width=3)
        cubes = poly([(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))])
        rep = manin_constant(prob, cubes)
        assert rep.iota == 3 and rep.rho == 1 and rep.sign_factor == 4
        # C = 4 * 3 * A0 / 3 / zeta(3)
        expected = 4 * rep.volume.value * float(1 / mp.zeta(3))
        assert rep.leading_constant == pytest.approx(expected, rel=1e-9)
        # count convergence: N(t)/(C t^3) -> 1
        n = count_points(prob, cubes, 150, "polynomial")
        ratio = n.count / predicted_density(rep, 150.0)
        assert abs(ratio - 1) < 0.02

    def test_toric_112_matches_hypersurface(self):
        prob = validate_toric_matrix([(1, 1, -2)])
        rep_t = manin_constant(prob, SQUARES)
        rep_h = manin_constant((1, 1), SQUARES)
        assert rep_t.iota == rep_h.iota and rep_t.rho == rep_h.rho
        assert rep_t.sign_factor == rep_h.sign_factor
        assert abs(rep_t.leading_constant - rep_h.leading_constant) < 1e-8

    def test_multiplicity_weighted_divisor_analogue(self):
        # weight g(v) = 3 for v >= 1 in one variable: the induced lattice sum
        # counts 3^omega(m), with triple pole and leading constant C_ari/2!
        # (d = 1, A0 = 1). A log-polynomial fit recovers the constant.
        import numpy as np
        from toric_density.model import UniformMultiplicativeSpec
        from toric_density.generators import generators_with_check
        from toric_density.polyhedron import build_polyhedron, diagonal_face
        from toric_density.euler import euler_constant
        spec = UniformMultiplicativeSpec(
            arity=1, g=lambda nu: 3 if nu[0] >= 1 else 1, growth_c=3.0,
            kind="custom", default_cap=8)
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        assert df.iota == 1 and df.rho == 3  # weight 3 on the face, dim 0
        rep = euler_constant(spec, df.c, 3, cutoff=50_000)
        sieve_n = 1_000_000
        omega = np.zeros(sieve_n + 1, dtype=np.int64)
        for p in range(2, sieve_n + 1):
            if omega[p] == 0:
                omega[p::p] += 1
        cum = np.cumsum(3 ** omega[1:])
        rows, rhs = [], []
        for x in (sieve_n >> k for k in range(7)):
            logx = math.log(x)
            rows.append([logx ** 2 / 2, logx, 1.0])
            rhs.append(cum[x - 1] / x)
        coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        assert abs(coef[0] / float(rep.value) - 1) < 0.03

    def test_noncompact_rejected(self):
        # a weight supported entirely inside an upward cylinder: the diagonal face
        # picks up a recession direction and no constant is predicted
        from toric_density.model import UniformMultiplicativeSpec
        spec = UniformMultiplicativeSpec(
            arity=3, g=lambda nu: 1 if nu[0] >= 1 and nu[1] >= 1 else 0,
            kind="custom", default_cap=8)
        p3 = poly([(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))])
        with pytest.raises(NonCompactFace):
            manin_constant(spec, p3)


class TestSupNorm:
    def test_full_torus(self):
        prob = validate_toric_matrix([], width=2)
        c, iota, rho = sup_norm_prediction(prob)
        assert iota == 2 and rho == 1
        assert c == pytest.approx(2 / float(mp.zeta(2)))

    def test_a11(self):
        c, iota, rho = sup_norm_prediction((1, 1))
        assert iota == 1 and c == pytest.approx(12 / math.pi ** 2)

    def test_a35(self):
        c, iota, rho = sup_norm_prediction((3, 5))
        assert iota == Fraction(1, 4)


class TestZeta:
    def test_p1_direct_sum(self):
        prob = validate_toric_matrix([], width=2)
        p2 = poly([(1, (2, 0)), (1, (0, 2))])
        sample = zeta_partial(prob, p2, 3.0, Fraction(2), term_budget=500 ** 2)
        direct = 0.0
        for m1 in range(1, 501):
            for m2 in range(1, 501):
                if gcd(m1, m2) == 1 and math.hypot(m1, m2) <= sample.covered_height:
                    direct += (m1 * m1 + m2 * m2) ** -1.5
        assert sample.partial == pytest.approx(2 * direct, rel=1e-6)

    def test_stieltjes_consistency(self):
        # sup-mode heights are integers: partial sum equals the count deltas
        prob = validate_toric_matrix([], width=2)
        p2 = poly([(1, (2, 0)), (1, (0, 2))])
        s = 2.5
        sample = zeta_partial(prob, p2, s, Fraction(2), term_budget=30 ** 2,
                              height_mode="sup")
        b = int(sample.covered_height)
        counts = [count_points(prob, None, t, "sup").count for t in range(1, b + 1)]
        stieltjes = counts[0] * 1.0 ** -s + sum(
            (counts[t] - counts[t - 1]) * (t + 1.0) ** -s for t in range(1, b))
        assert sample.partial == pytest.approx(stieltjes, rel=1e-9)

    @pytest.mark.parametrize("rows,width,budget", [
        ([(1, 1, -2)], 3, 30 ** 3), ([(1, 2, -3)], 3, 30 ** 3), ([], 3, 12 ** 3)])
    def test_relations_equal_brute_force(self, rows, width, budget):
        prob = validate_toric_matrix(rows, width=width)
        s_list = [3.5, 4.2]
        samples = zeta_partial(prob, SQUARES, s_list, Fraction(3), term_budget=budget)
        box = max(2, int(budget ** (1.0 / width)))
        heights = []
        for m in itertools.product(range(1, box + 1), repeat=width):
            if math.gcd(*m) != 1:
                continue
            if all(math.prod(x ** a for x, a in zip(m, r) if a > 0)
                   == math.prod(x ** -a for x, a in zip(m, r) if a < 0) for r in rows):
                heights.append(SQUARES.eval_float(m) ** (1 / 2.0))
        kept = sorted(h for h in heights if h <= samples[0].covered_height)
        sign = sign_count(prob).value
        for s, sample in zip(s_list, samples):
            assert sample.partial == sign * sum(h ** (-s) for h in kept)
            assert sample.covered_count == sign * len(kept)

    def test_requires_s_beyond_abscissa(self):
        with pytest.raises(ValueError):
            zeta_partial((1, 1), SQUARES, 0.9, Fraction(1))

    def test_probe_trend_toward_constant(self):
        rep = manin_constant((1, 1), SQUARES)
        samples = zeta_partial((1, 1), SQUARES, [1.5, 1.2], rep.iota, rep.rho,
                               term_budget=2000 ** 2)
        for s in samples:
            assert abs(s.probe(1.0, 1) / rep.zeta_constant - 1) < 0.1


class TestAsymptoticReport:
    def test_table(self):
        prob = validate_toric_matrix([], width=2)
        counts = [count_points(prob, None, t, "sup") for t in (100, 400, 1600)]
        c, iota, rho = sup_norm_prediction(prob)
        rep = asymptotic_report(counts, c, iota, rho)
        assert len(rep.rows) == 3
        assert rep.final_deviation < 0.01
        assert rep.monotone_approach

    def test_needs_three(self):
        prob = validate_toric_matrix([], width=2)
        with pytest.raises(ValueError):
            asymptotic_report([count_points(prob, None, 10, "sup")], 1.0, 2, 1)


def squares(width):
    return poly([(1, tuple(2 if j == i else 0 for j in range(width)))
                 for i in range(width)])


def zeta_brute(rows, width, height, box):
    """Heights of the positive primitive solutions in [1, box]^width."""
    out = []
    for m in itertools.product(range(1, box + 1), repeat=width):
        if math.gcd(*m) == 1 and all(
                math.prod(x ** a for x, a in zip(m, r) if a > 0)
                == math.prod(x ** -a for x, a in zip(m, r) if a < 0) for r in rows):
            out.append(height(m))
    return out


@st.composite
def small_matrices(draw):
    """1-2 relation rows of width 2-4, entries in -3..3, zero row sums."""
    width = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        head = draw(st.lists(st.integers(-3, 3), min_size=width - 1, max_size=width - 1))
        assume(abs(sum(head)) <= 3)
        rows.append(tuple(head) + (-sum(head),))
    try:
        return validate_toric_matrix(rows)
    except ValueError:
        assume(False)


class TestKernels:
    """The array kernels of the relation enumerator against plain loops."""

    def test_coprime_mask_equals_euclid(self):
        # row 0 is divisible by every prime: its mask is coprimality to g
        from toric_density.counting import _coprime_block
        for n in (1, 7, 210):
            vec = np.arange(1, n + 1)
            for g in range(1, 5001):
                assert np.array_equal(_coprime_block(g, 0, 1, n)[0], np.gcd(vec, g) == 1), (g, n)

    @pytest.mark.parametrize("g", [-1, -6])
    def test_coprime_block_rejects_negative_g(self, g):
        from toric_density.counting import _coprime_block
        with pytest.raises(ValueError):
            _coprime_block(g, 1, 2, 10)

    @pytest.mark.parametrize("lo,nrows,ncols", [
        (1, 1, 1), (1, 40, 40), (1, 3, 97), (37, 25, 60), (1000, 7, 300),
        (999, 64, 13), (0, 5, 30)])
    def test_coprime_block_equals_gcd(self, lo, nrows, ncols):
        from toric_density.counting import _coprime_block
        rows = np.arange(lo, lo + nrows)[:, None]
        cols = np.arange(1, ncols + 1)[None, :]
        for g in range(0, 2001):
            got = _coprime_block(g, lo, nrows, ncols)
            assert np.array_equal(got, np.gcd(np.gcd(rows, cols), g) == 1), (g, lo)

    @settings(max_examples=40, deadline=None)
    @given(prob=small_matrices(), t=st.integers(1, 12), mode=st.sampled_from(["sup", "squares"]))
    def test_counts_equal_brute_force(self, prob, t, mode):
        w, sign = prob.width, sign_count(prob).value
        if mode == "sup":
            got = count_points(prob, None, t, "sup").count
            oracle = brute_count(prob.rows, w, t, lambda m: max(m) <= t, sign)
        else:
            got = count_points(prob, squares(w), t, "polynomial").count
            oracle = brute_count(prob.rows, w, t, lambda m: sum(x * x for x in m) <= t * t,
                                 sign)
        assert got == oracle

    @settings(max_examples=25, deadline=None)
    @given(prob=small_matrices(), side=st.integers(2, 7),
           mode=st.sampled_from(["sup", "squares"]))
    def test_relation_zeta_equals_brute_force(self, prob, side, mode):
        w, sign, sq = prob.width, sign_count(prob).value, squares(prob.width)
        s_list = [3.5, 4.2]
        samples = zeta_partial(prob, sq, s_list, Fraction(1), term_budget=side ** w,
                               height_mode="sup" if mode == "sup" else "polynomial")
        box = max(2, int((side ** w) ** (1.0 / w)))
        height = ((lambda m: float(max(m))) if mode == "sup"
                  else (lambda m: sq.eval_float(m) ** 0.5))
        kept = sorted(h for h in zeta_brute(prob.rows, w, height, box)
                      if h <= samples[0].covered_height)
        for s, sample in zip(s_list, samples):
            assert sample.partial == sign * sum(h ** (-s) for h in kept)
            assert sample.covered_count == sign * len(kept)

    @pytest.mark.parametrize("rows", [[(1, -1)], [(1, -1, 0, 0), (0, 0, 1, -1)]])
    @pytest.mark.parametrize("t", [1, 5, 11])
    def test_explicit_relations(self, rows, t):
        prob = validate_toric_matrix(rows)
        w, sign = prob.width, sign_count(prob).value
        assert count_points(prob, None, t, "sup").count == brute_count(
            rows, w, t, lambda m: max(m) <= t, sign)
        got = count_points(prob, squares(w), t, "polynomial").count
        assert got == brute_count(rows, w, t, lambda m: sum(x * x for x in m) <= t * t, sign)
        sample = zeta_partial(prob, None, 2.5, Fraction(1), term_budget=(t + 1) ** w,
                              height_mode="sup")
        box = max(2, int(((t + 1) ** w) ** (1.0 / w)))
        kept = sorted(zeta_brute(rows, w, lambda m: float(max(m)), box))
        assert sample.partial == sign * sum(h ** -2.5 for h in kept)
        assert sample.covered_count == sign * len(kept)

    @pytest.mark.parametrize("row", [(21, -21, 1, -1), (1, -1, 21, -21)])
    def test_solved_products_beyond_int64(self, row):
        # the solutions (u, u, v, v) make the head side u^21 pass 2^63 once
        # u >= 9, so the solve runs on Python ints; (1, -1, 21, -21) also
        # takes the 21st root of the solved coordinate
        prob = validate_toric_matrix([row])
        got = count_points(prob, None, 12, "sup").count
        sign = sign_count(prob).value
        assert got == brute_count([row], 4, 12, lambda m: max(m) <= 12, sign) == 364

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_density.hull import dual_rays, polytope_volume, upward_hull
from toric_density.lp import Infeasible, Unbounded, solve_lp
from toric_density.model import GeneralizedPolynomial
from toric_density.vectors import dot, pivot_columns, primitive, rank
from toric_density.volumes import newton_at_infinity


def leibniz_det(rows):
    """Determinant as a sum over permutations: slow, but shares no code."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


def rays_oracle(gens, dim):
    """Extreme rays of {z : <g, z> >= 0}, one (dim - 1)-subset of gens at a time.

    A subset of rank dim - 1 has a 1-d kernel, spanned by its generalized
    cross product (signed maximal minors, zero exactly when the rank is
    lower). Either sign of it that satisfies every inequality is a ray.
    """
    gens = sorted({g for g in gens if any(g)})
    rays = set()
    for sub in itertools.combinations(gens, dim - 1):
        z = tuple((-1) ** i * leibniz_det([r[:i] + r[i + 1:] for r in sub])
                  for i in range(dim))
        if not any(z):
            continue
        for sign in (1, -1):
            cand = tuple(sign * x for x in z)
            if all(dot(g, cand) >= 0 for g in gens):
                rays.add(primitive(cand))
    return rays


@st.composite
def cone_inputs(draw):
    """(gens, dim): a bare integer cone, an upward hull or a bounded polytope."""
    dim = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("cone", "upward", "polytope")))
    if kind == "cone":
        gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=7))
        return gens, dim
    pts = draw(st.lists(st.tuples(*[st.integers(0, 5)] * (dim - 1)), min_size=1, max_size=6))
    gens = [p + (1,) for p in pts]
    if kind == "upward":
        gens += [tuple(int(i == j) for j in range(dim)) for i in range(dim - 1)]
    return gens, dim


class TestUpwardHull:
    def test_unit_vectors(self):
        facets, vertices = upward_hull([(1, 0), (0, 1)], 2)
        assert set(vertices) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
        normals = {tuple(map(int, w)) for w, _ in facets}
        assert normals == {(1, 0), (0, 1), (1, 1)}

    def test_three_dim(self):
        pts = [(2, 0, 1), (0, 2, 1)]
        facets, vertices = upward_hull(pts, 3)
        got = {(tuple(map(int, w)), int(m)) for w, m in facets}
        assert got == {((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 1),
                       ((1, 1, 0), 2)}
        # (1,1,2) >= 4 is valid on the hull but not a facet
        for p in pts:
            assert dot((1, 1, 2), p) >= 4
        assert len(vertices) == 2

    def test_every_generator_inside(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(2, 4)
            pts = [tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(rng.randint(1, 7))]
            pts = [p for p in pts if any(p)]
            if not pts:
                continue
            facets, vertices = upward_hull(pts, n)
            for p in pts:
                for w, m in facets:
                    assert dot(w, p) >= m
            for v in vertices:
                tight = [w for w, m in facets if dot(w, v) == m]
                from toric_density.vectors import rank
                assert rank(tight) == n

    def test_facet_normals_nonnegative(self):
        facets, _ = upward_hull([(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0)], 3)
        for w, _ in facets:
            assert all(x >= 0 for x in w)

    def test_facets_are_integers(self):
        # offsets on half-integral points are integral after the normal's scaling
        facets, _ = upward_hull([(Fraction(1, 2), 0), (0, Fraction(3, 2))], 2)
        assert facets == [((0, 1), 0), ((1, 0), 0), ((6, 2), 3)]
        assert all(type(x) is int for w, m in facets for x in w + (m,))


class TestPivotColumns:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]),
                 min_size=width, max_size=width), max_size=6)))
    @example(rows=[])
    @example(rows=[[0, 0, 0]])
    @example(rows=[[0, 1, 2], [0, 2, 4], [0, 0, 0], [0, 1, 3]])
    def test_against_sympy_rref(self, rows):
        pivots = sympy.Matrix(rows).rref()[1]     # sympy takes Fractions exactly
        assert pivot_columns(rows) == list(pivots)
        assert rank(rows) == len(pivots)


class TestDualRays:
    @settings(max_examples=150, deadline=None)
    @given(case=cone_inputs())
    def test_against_the_subset_oracle(self, case):
        gens, dim = case
        if rank([g for g in gens if any(g)]) < dim:
            with pytest.raises(ValueError):
                dual_rays(gens, dim)
            return
        rays = dual_rays(gens, dim)
        assert len(set(rays)) == len(rays)
        assert set(rays) == rays_oracle(gens, dim)

    def test_a_line_raises(self):
        with pytest.raises(ValueError):
            dual_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)
        with pytest.raises(ValueError):
            dual_rays([(1, 2), (-1, -2)], 2)

    def test_the_111_auxiliary_support(self):
        # the 9-variable repetition polynomial of the (1,1,1) volume constant:
        # a 10-dimensional double description of 4 points and 9 unit rays
        cols = [(0, 0, 0, 0, 2, 2, 4, 4, 6), (0, 2, 4, 6, 0, 4, 0, 2, 0), (2,) * 9,
                (6, 4, 2, 0, 4, 0, 2, 0, 0)]
        data = newton_at_infinity(GeneralizedPolynomial.from_terms([(1, e) for e in cols]))
        assert data.rho0 == 7
        assert len(data.lambdas) == 21
        assert data.lambda_volume == Fraction(1, 1672151040)


class TestVolume:
    def test_simplices(self):
        assert polytope_volume([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 2)
        assert polytope_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == Fraction(1, 6)

    def test_half_diag_triangle(self):
        pts = [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (0, 1)]
        assert polytope_volume(pts) == Fraction(1, 4)

    def test_unit_square(self):
        assert polytope_volume([(0, 0), (1, 0), (0, 1), (1, 1)]) == 1

    def test_degenerate(self):
        assert polytope_volume([(0, 0), (1, 1), (2, 2)]) == 0

    def test_cube_with_interior_points(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        pts.append((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
        assert polytope_volume(pts) == 1

    def test_random_translation_invariance(self):
        rng = random.Random(9)
        for _ in range(10):
            pts = [tuple(Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(3))
                   for _ in range(6)]
            shift = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            moved = [tuple(a + b for a, b in zip(p, shift)) for p in pts]
            assert polytope_volume(pts) == polytope_volume(moved)


class TestSimplex:
    def test_basic_min(self):
        # min x + y subject to x + y >= 1
        val, x = solve_lp([1, 1], a_ge=[[1, 1]], b_ge=[1])
        assert val == 1 and sum(x) == 1

    def test_two_constraints(self):
        val, x = solve_lp([1, 1, 1], a_ge=[[2, 0, 1], [0, 2, 1]], b_ge=[1, 1])
        assert val == Fraction(1)

    def test_equality(self):
        val, x = solve_lp([0, -1], a_eq=[[1, 1]], b_eq=[2], a_ge=[[1, -1]], b_ge=[0])
        # max y with x + y = 2, x >= y
        assert val == -1 and x == (Fraction(1), Fraction(1))

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp([1], a_eq=[[1]], b_eq=[-2])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([-1], a_ge=[[1]], b_ge=[0])

    def test_maximize(self):
        val, x = solve_lp([1, 2], a_ge=[[-1, 0], [0, -1], [-1, -1]],
                          b_ge=[-1, -1, Fraction(-3, 2)], maximize=True)
        assert val == Fraction(5, 2)

    def test_random_against_scipy(self):
        scipy = pytest.importorskip("scipy.optimize")
        rng = random.Random(17)
        for _ in range(20):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            c = [rng.randint(1, 5) for _ in range(n)]
            a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
            a = [row for row in a if any(row)]
            b = [rng.randint(1, 6) for _ in range(len(a))]
            val, x = solve_lp(c, a_ge=a, b_ge=b)
            res = scipy.linprog(c, A_ub=[[-v for v in row] for row in a],
                                b_ub=[-v for v in b], bounds=[(0, None)] * n,
                                method="highs")
            assert res.success
            assert abs(float(val) - res.fun) < 1e-7

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_density import lp
from toric_density.hull import _integer_facets, dual_rays, polytope_volume, upward_hull
from toric_density.lp import Infeasible, Unbounded, solve_lp
from toric_density.model import GeneralizedPolynomial
from toric_density.polyhedron import (_interior_polar, _polar_system,
                                      build_polyhedron, diagonal_block)
from toric_density.vectors import det, dot, fracvec, pivot_columns, primitive, rank, solve
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


# The Fraction tableau that solve_lp replaced: its pivot sequence is the
# one the integer tableau must follow, so both return the same vertex.
def reference_pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    prow = tab[row]
    for i, line in enumerate(tab):
        if i != row and line[col] != 0:
            f = line[col]
            tab[i] = [a - f * b for a, b in zip(line, prow)]
    basis[row] = col


def reference_run_simplex(tab, basis, cost, width, banned=frozenset()):
    m = len(tab)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(width):
            if j in basis or j in banned:
                continue
            r = cost[j] - sum(cb[i] * tab[i][j] for i in range(m))
            if r < 0:
                entering = j
                break
        if entering < 0:
            return sum(cb[i] * tab[i][-1] for i in range(m))
        ratio = None
        leave = -1
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                t = tab[i][-1] / a
                if ratio is None or t < ratio or (t == ratio and basis[i] < basis[leave]):
                    ratio, leave = t, i
        if leave < 0:
            raise Unbounded()
        reference_pivot(tab, basis, leave, entering)


def reference_solve_lp(objective, a_eq=(), b_eq=(), a_ge=(), b_ge=(), maximize=False):
    obj = [Fraction(c) for c in objective]
    n = len(obj)
    if maximize:
        obj = [-c for c in obj]
    rows = [([Fraction(x) for x in a], Fraction(b), 0) for a, b in zip(a_eq, b_eq)]
    rows += [([Fraction(x) for x in a], Fraction(b), -1) for a, b in zip(a_ge, b_ge)]
    m = len(rows)
    nslack = sum(1 for r in rows if r[2] != 0)
    width = n + nslack + m
    tab = []
    sidx = 0
    for a, b, s in rows:
        line = list(a) + [Fraction(0)] * (nslack + m) + [b]
        if s:
            line[n + sidx] = Fraction(s)
            sidx += 1
        tab.append(line)
    for i in range(m):
        if tab[i][-1] < 0:
            tab[i] = [-x for x in tab[i]]
        tab[i][n + nslack + i] = Fraction(1)
    basis = [n + nslack + i for i in range(m)]
    phase1 = [Fraction(0)] * (n + nslack) + [Fraction(1)] * m
    if reference_run_simplex(tab, basis, phase1, width) != 0:
        raise Infeasible()
    for i in range(m - 1, -1, -1):
        if basis[i] >= n + nslack:
            col = next((j for j in range(n + nslack) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del basis[i]
            else:
                reference_pivot(tab, basis, i, col)
    phase2 = list(obj) + [Fraction(0)] * (nslack + m)
    val = reference_run_simplex(tab, basis, phase2, width, frozenset(range(n + nslack, width)))
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    return (-val if maximize else val), tuple(x)


def outcome(solver, *args, **kwargs):
    """(value, x) of a solve, or the exception class it raised."""
    try:
        return solver(*args, **kwargs)
    except (Infeasible, Unbounded, ValueError) as err:
        return type(err)


# The recursive triangulation that polytope_volume replaced: apex over the
# facets missing it, each facet re-hulled one coordinate down.
def reference_triangulate(proj, idx, n):
    pts = {i: proj[i] for i in idx}
    if n == 1:
        return [(min(idx, key=lambda i: pts[i]), max(idx, key=lambda i: pts[i]))]
    if len(idx) == n + 1:
        return [tuple(idx)]
    local = [pts[i] for i in idx]
    facets = _integer_facets([p + (1,) for p in local], n)
    apex_local = min(range(len(idx)), key=lambda k: local[k])
    out = []
    for w, m in facets:
        if dot(w, local[apex_local]) == m:
            continue
        face_idx = [idx[k] for k in range(len(idx)) if dot(w, local[k]) == m]
        drop = next(j for j in range(n) if w[j] != 0)
        sub = reference_triangulate({i: tuple(x for j, x in enumerate(pts[i]) if j != drop)
                                     for i in face_idx}, face_idx, n - 1)
        out += [(idx[apex_local],) + t for t in sub]
    return out


def reference_volume(points) -> Fraction:
    pts = list(dict.fromkeys(fracvec(p) for p in points))
    n = len(pts[0])
    den = math.lcm(*(x.denominator for p in pts for x in p))
    ipts = [tuple(int(x * den) for x in p) for p in pts]
    if rank([tuple(a - b for a, b in zip(p, ipts[0])) for p in ipts[1:]]) < n:
        return Fraction(0)
    total = sum(abs(det([tuple(a - b for a, b in zip(ipts[i], ipts[s[0]])) for i in s[1:]]))
                for s in reference_triangulate(dict(enumerate(ipts)), list(range(len(ipts))), n))
    return Fraction(total, math.factorial(n) * den ** n)


# The Fraction Gauss-Jordan that vectors.solve replaced (volumes._solve).
def reference_solve(columns, rhs):
    """x with sum_i x_i columns[i] = rhs, and |det|, exactly; None if singular."""
    size = len(rhs)
    rows = [[Fraction(col[r]) for col in columns] + [Fraction(rhs[r])] for r in range(size)]
    total = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        total *= rows[c][c]
        for r in range(size):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[r][size] / rows[r][r] for r in range(size)], abs(total)


ENTRIES = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(3, 4)]


@st.composite
def square_matrices(draw, entries=ENTRIES, factors=(1, -2, Fraction(1, 3))):
    """Square matrices of size 1-5, mostly zeros (row swaps, singular
    cases); sometimes one row is a multiple of another (rank deficient)."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.sampled_from(entries), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, k = draw(st.permutations(range(n)))[:2]
        f = draw(st.sampled_from(factors))
        rows[k] = [f * x for x in rows[i]]
    return rows


@st.composite
def low_rank_rows(draw):
    """rows = B C with B of size m x r and C of size r x w: rank <= r, with
    pivot columns skipped wherever C's echelon form skips them."""
    m, r, w = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=r, max_size=r))
    return [[sum(x * c[j][col] for j, x in enumerate(row)) for col in range(w)] for row in b]


@st.composite
def lp_inputs(draw):
    """(objective, a_eq, b_eq, a_ge, b_ge, maximize) with Fraction entries.

    The right-hand sides are random and lean to 0, or they make a drawn
    point x0 >= 0 feasible, mostly tight at it (degenerate ties). Some
    equality rows are repeated as a combination of two others, to be
    dropped as redundant.
    """
    n = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)
    x0 = draw(st.none() | st.lists(st.sampled_from([0, 0, 1, 2, Fraction(1, 2)]),
                                   min_size=n, max_size=n))

    def rhs(a, slack=0):
        if x0 is None:
            return draw(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]))
        return dot(a, x0) - slack

    a_eq = draw(st.lists(row, max_size=3))
    b_eq = [rhs(a) for a in a_eq]
    for _ in range(draw(st.integers(0, 2)) if a_eq else 0):
        i, j = draw(st.integers(0, len(a_eq) - 1)), draw(st.integers(0, len(a_eq) - 1))
        f = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
        a_eq.append([x + f * y for x, y in zip(a_eq[i], a_eq[j])])
        b_eq.append(b_eq[i] + f * b_eq[j])
    a_ge = draw(st.lists(row, max_size=4))
    b_ge = [rhs(a, draw(st.sampled_from([0, 0, 1]))) for a in a_ge]
    objective = draw(row)
    return objective, a_eq, b_eq, a_ge, b_ge, draw(st.booleans())


@st.composite
def volume_inputs(draw):
    """Points in 1-6 dimensions: random ones, edge midpoints, an interior
    centroid, repeats, and sometimes all on one hyperplane."""
    n = draw(st.integers(1, 6))
    coord = st.sampled_from([0, 1, 2, 3, -1, Fraction(1, 2), Fraction(5, 3)])
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=n + 3))
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        extra.append(tuple((Fraction(x) + y) / 2 for x, y in zip(a, b)))
    if draw(st.booleans()):
        extra.append(tuple(sum(map(Fraction, xs)) / len(pts) for xs in zip(*pts)))
    pts += extra + draw(st.lists(st.sampled_from(pts), max_size=2))
    if n > 1 and draw(st.booleans()):
        # flatten onto the hyperplane x_n = x_1 - x_2 (x_2 = x_1 when n = 2)
        pts = [p[:-1] + (Fraction(p[0]) - p[1] if n > 2 else p[0],) for p in pts]
    return draw(st.permutations(pts))


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


class TestElimination:
    """vectors' one fraction-free elimination, behind pivot_columns, rank,
    det and solve, against kernels that share no code with it."""

    @settings(max_examples=300, deadline=None)
    @given(rows=square_matrices())
    @example(rows=[[0, 1], [1, 0]])
    @example(rows=[[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    @example(rows=[[0, 2, 1], [3, 1, 1], [0, 4, 2]])
    def test_det_against_leibniz(self, rows):
        assert det(rows) == leibniz_det(rows)

    @settings(max_examples=150, deadline=None)
    @given(rows=square_matrices(entries=[0, 0, 1, -1, 2, -3, 7], factors=(1, -2)))
    def test_det_of_int_rows_is_an_int(self, rows):
        d = det(rows)
        assert type(d) is int and d == leibniz_det(rows)

    @settings(max_examples=300, deadline=None)
    @given(columns=square_matrices(), data=st.data())
    @example(columns=[[0, 1], [1, 0]], data=None)
    @example(columns=[[1, 2], [2, 4]], data=None)
    @example(columns=[[Fraction(1, 2), 0, 1], [0, 0, 2], [1, Fraction(-5, 3), 0]], data=None)
    def test_solve_against_the_gauss_jordan(self, columns, data):
        n = len(columns)
        rhs = data.draw(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)) \
            if data else [1, Fraction(2, 3), -1][:n]
        solved = solve(columns, rhs)
        assert solved == reference_solve(columns, rhs)
        # the columns are the matrix's columns, so |det| is the transpose's
        assert (solved is None) == (leibniz_det(columns) == 0)
        if solved is not None:
            x, size = solved
            assert size == abs(leibniz_det(columns))
            assert [sum(xi * col[r] for xi, col in zip(x, columns)) for r in range(n)] == rhs

    @settings(max_examples=200, deadline=None)
    @given(rows=low_rank_rows())
    @example(rows=[[1, 2, 3], [2, 4, 7]])
    @example(rows=[[0, 0, 2, 1], [0, 0, 4, 2], [0, 3, 0, 1]])
    def test_skipped_pivot_columns_against_sympy_rref(self, rows):
        pivots = sympy.Matrix(rows).rref()[1]
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
    @settings(max_examples=200, deadline=None)
    @given(points=volume_inputs())
    @example(points=[(0,), (2,), (1,), (Fraction(1, 2),), (2,)])
    @example(points=[(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (Fraction(1, 2), Fraction(1, 2))])
    @example(points=[(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 0, 1), (0, 0, 0)])
    def test_against_the_recursive_triangulation(self, points):
        want = reference_volume(points)
        assert polytope_volume(points) == want
        if rank([tuple(Fraction(a) - b for a, b in zip(p, points[0])) for p in points]) \
                < len(points[0]):
            assert want == 0

    def test_the_111_lambda(self):
        # conv(0, lambdas) of the (1,1,1) auxiliary polynomial: 22 points in
        # 7 dimensions; lambda_volume is this times 7!/9!
        cols = [(0, 0, 0, 0, 2, 2, 4, 4, 6), (0, 2, 4, 6, 0, 4, 0, 2, 0), (2,) * 9,
                (6, 4, 2, 0, 4, 0, 2, 0, 0)]
        data = newton_at_infinity(GeneralizedPolynomial.from_terms([(1, e) for e in cols]))
        transverse = pivot_columns(data.lambdas)
        corners = [(0,) * data.rho0] + [tuple(lam[i] for i in transverse)
                                        for lam in data.lambdas]
        assert len(corners) == 22 and data.rho0 == 7
        assert polytope_volume(corners) == Fraction(1, 23224320)
        assert reference_volume(corners) == Fraction(1, 23224320)

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
    @settings(max_examples=400, deadline=None)
    @given(case=lp_inputs())
    # the artificial of the second row stays basic at 0 after phase 1 and
    # is driven out on the entry -1
    @example(case=([1, 1, 1], [[0, 0, 1], [0, -1, 1]], [0, 0], [], [], False))
    # a repeated row is deleted, a combination of two others too
    @example(case=([1, 2], [[1, 1], [1, 1]], [1, 1], [], [], True))
    @example(case=([0, -1, 1], [[1, 0, 1], [0, 1, 1], [1, 1, 2]], [1, 1, 2],
                   [[1, -1, 0]], [0], False))
    # ratio ties where the leaving row decides which optimal vertex is
    # returned: the smallest basis index must leave
    @example(case=([0, 2], [], [], [[2, 1], [-1, -1], [1, -1]], [5, -3, 1], False))
    @example(case=([-1, 1, -1], [[1, 1, 1]], [2], [[2, 1, 1]], [2], False))
    def test_against_the_fraction_tableau(self, case):
        objective, a_eq, b_eq, a_ge, b_ge, maximize = case
        want = outcome(reference_solve_lp, objective, a_eq, b_eq, a_ge, b_ge, maximize)
        got = outcome(solve_lp, objective, a_eq, b_eq, a_ge, b_ge, maximize)
        assert got == want
        if isinstance(got, tuple):
            assert all(type(v) is Fraction for v in got[1])

    @settings(max_examples=60, deadline=None)
    @given(points=st.integers(2, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=6)))
    def test_polar_rows_of_upward_hulls(self, points):
        e = build_polyhedron([p for p in points if any(p)] or [(1,) * len(points[0])])
        _, _, gens, rec, _ = diagonal_block(e.facets, e.points)
        gens, rec = tuple(gens), frozenset(rec)
        want = outcome(mock.patch.object(lp, "solve_lp", reference_solve_lp)(_interior_polar),
                       e, gens, rec)
        assert outcome(_interior_polar, e, gens, rec) == want
        system = _polar_system(e, gens, rec)
        for coord in range(e.n):
            objective = [int(j == coord) for j in range(e.n)]
            for sense in (False, True):
                assert outcome(solve_lp, objective, *system, maximize=sense) == \
                    outcome(reference_solve_lp, objective, *system, maximize=sense)

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

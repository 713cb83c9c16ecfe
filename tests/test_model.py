import ast
import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toric_density
from toric_density.counting import count_points
from toric_density.model import (DependentRows, GeneralizedPolynomial,
                                 NonZeroRowSum, NotElliptic,
                                 ellipticity_witness, free_weight,
                                 hypersurface_problem, hypersurface_weight,
                                 restrict_to_hypersurface, sign_count,
                                 toric_weight, validate_toric_matrix)
from toric_density.polyparse import parse_polynomial


def brute_sign_count(rows, width):
    """Independent oracle: scan all sign vectors; (-1)^(-a) = (-1)^a."""
    total = 0
    for eps in itertools.product((1, -1), repeat=width):
        if all(_sign_prod(eps, row) == 1 for row in rows):
            total += 1
    return total // 2


def _sign_prod(eps, row):
    s = 1
    for e, a in zip(eps, row):
        if e == -1 and a % 2:
            s = -s
    return s


class TestValidateMatrix:
    def test_empty_matrix(self):
        prob = validate_toric_matrix([], width=3)
        assert prob.n == 2 and prob.l == 0

    def test_hypersurface_row(self):
        prob = validate_toric_matrix([(1, 1, -2)])
        assert prob.n == 2 and prob.l == 1 and prob.variety_dim == 1

    def test_width_must_match_rows(self):
        assert validate_toric_matrix([(1, 1, -2)], width=3).n == 2
        with pytest.raises(ValueError, match="'width' is 5"):
            validate_toric_matrix([(1, 1, -2)], width=5)

    def test_dependent_rows(self):
        with pytest.raises(DependentRows):
            validate_toric_matrix([(1, 0, -1), (2, 0, -2)])

    def test_nonzero_row_sum(self):
        with pytest.raises(NonZeroRowSum):
            validate_toric_matrix([(1, 1, -1)])


class TestSignCount:
    def test_empty(self):
        prob = validate_toric_matrix([], width=3)
        assert sign_count(prob).value == 4

    @pytest.mark.parametrize("row,expected", [((1, 1, -2), 2), ((1, 2, -3), 2)])
    def test_single_rows(self, row, expected):
        prob = validate_toric_matrix([row])
        assert sign_count(prob).value == expected
        assert sign_count(prob).value == brute_sign_count([row], 3)

    def test_even_columns_full(self):
        # every entry even: all sign vectors pass
        prob = validate_toric_matrix([(2, 2, -4)])
        assert sign_count(prob).value == 4

    def test_random_against_oracle(self):
        import random
        rng = random.Random(7)
        for _ in range(25):
            w = rng.randint(2, 4)
            row = [rng.randint(-3, 3) for _ in range(w - 1)]
            row.append(-sum(row))
            try:
                prob = validate_toric_matrix([row])
            except Exception:
                continue
            assert sign_count(prob).value == brute_sign_count([tuple(row)], w)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gf2_rank_against_oracle(self, data):
        width = data.draw(st.integers(2, 8))
        rows = []
        for _ in range(data.draw(st.integers(1, 3))):
            head = data.draw(st.lists(st.integers(-4, 4), min_size=width - 1,
                                      max_size=width - 1))
            rows.append(tuple(head) + (-sum(head),))
        try:
            prob = validate_toric_matrix(rows)
        except DependentRows:
            assume(False)
        assert sign_count(prob).value == brute_sign_count(rows, width)

    def test_divides_power_of_two(self):
        prob = validate_toric_matrix([(1, 1, -2), (1, -1, 0)])
        v = sign_count(prob).value
        assert 2 ** prob.n % v == 0 and v & (v - 1) == 0


class TestRestrict:
    def test_cubes(self):
        p = GeneralizedPolynomial.from_terms([(1, (4, 0, 0)), (1, (0, 4, 0)),
                                              (1, (0, 0, 4))])
        r = restrict_to_hypersurface(p, (1, 1))
        assert set(r.support) == {(4, 0), (0, 4), (2, 2)}
        assert r.degree == 4 and r.is_homogeneous

    def test_degenerate_rejected(self):
        p = GeneralizedPolynomial.from_terms([(1, (1, 0)), (1, (0, 1))])
        with pytest.raises(ValueError):
            restrict_to_hypersurface(p, (2,))

    def test_quadric_a22(self):
        p = GeneralizedPolynomial.from_terms([(1, (2, 0, 0)), (1, (0, 2, 0)),
                                              (1, (0, 0, 2))])
        r = restrict_to_hypersurface(p, (2, 2))
        assert set(r.support) == {(2, 0), (0, 2), (1, 1)}

    def test_degree_preserved_on_random_supports(self):
        import random
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 3)
            d = rng.randint(1, 5)
            terms = [(1, tuple(d if j == i else 0 for j in range(n + 1)))
                     for i in range(n + 1)]
            p = GeneralizedPolynomial.from_terms(terms)
            a = tuple(rng.randint(1, 3) for _ in range(n))
            r = restrict_to_hypersurface(p, a)
            assert all(sum(e) == d for e in r.support)


class TestEllipticityWitness:
    def test_sum_of_squares(self):
        p = GeneralizedPolynomial.from_terms([(1, (2, 0)), (1, (0, 2))])
        kappa = ellipticity_witness(p)
        # true minimum is 1/2 at the simplex midpoint; kappa certifies below it
        assert 0.44 <= kappa <= 0.5

    def test_product_not_elliptic(self):
        p = GeneralizedPolynomial.from_terms([(1, (1, 1))])
        with pytest.raises(NotElliptic):
            ellipticity_witness(p)

    def test_linear(self):
        p = GeneralizedPolynomial.from_terms([(1, (1, 0)), (1, (0, 1))])
        kappa = ellipticity_witness(p)
        assert 0.95 <= kappa <= 1.0

    def test_lower_bound_on_dense_samples(self):
        import random
        rng = random.Random(11)
        p = GeneralizedPolynomial.from_terms(
            [(2, (3, 0, 0)), (1, (0, 3, 0)), (3, (0, 0, 3)), (1, (1, 1, 1))])
        kappa = ellipticity_witness(p)
        for _ in range(500):
            cuts = sorted(rng.random() for _ in range(2))
            x = (cuts[0], cuts[1] - cuts[0], 1 - cuts[1])
            assert p.eval_float(x) >= kappa - 1e-12


    # kappa must not move by one bit: counting boxes and zeta coverage use it
    @pytest.mark.parametrize("text,kappa", [
        ("X1^2+X2^2", "0.46923828124953076"),
        ("X1+X2", "0.9687499999990312"),
        ("2*X1^3+X2^3+3*X3^3+X1*X2*X3", "0.19539260864238273"),
        ("X1^2+X2^2+X3^2", "0.302978515624697"),
        ("X1^2+2*X2^2+X3^2+X1*X3", "0.4956054687495044"),
        ("X1^4+X2^4+X3^4+X1^2*X2^2", "0.03987413644786662"),
        ("X1^2+X2^2+X3^2+X4^2", "0.2197265624997803"),
    ])
    def test_pinned_values(self, text, kappa):
        assert repr(ellipticity_witness(parse_polynomial(text))) == kappa

    def test_pinned_fractional_exponents(self):
        p = restrict_to_hypersurface(parse_polynomial("X1^2+X2^2+X3^2"), (1, 2))
        assert repr(ellipticity_witness(p)) == "0.684136577962676"

    def test_meshed_once_per_polynomial(self, monkeypatch):
        meshes = []
        real = GeneralizedPolynomial.top_part
        monkeypatch.setattr(GeneralizedPolynomial, "top_part",
                            lambda self: meshes.append(self) or real(self))
        ellipticity_witness.cache_clear()
        problem = validate_toric_matrix([(1, 1, -2)])
        # equal polynomials parsed apart share the one mesh
        counts = [count_points(problem, parse_polynomial("X1^2+X2^2+X3^2"), t,
                               "polynomial").count for t in (20, 40, 80)]
        assert len(meshes) == 1
        assert counts == sorted(counts) and counts[0] > 0


def scalar_witness(p):
    """The witness mesh with one eval_float call per point: the oracle of
    ellipticity_witness's bits."""
    top = p.top_part()
    n = p.nvars
    for i in range(n):
        axis = tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        if top.eval_float(axis) == 0.0:
            raise NotElliptic(f"top part vanishes at coordinate axis {i + 1}")

    steps = 64
    corners = []

    def rec(prefix, total):
        if len(prefix) == n - 1:
            for k in range(max(0, steps - n - total), steps - total + 1):
                corners.append(prefix + (k,))
            return
        for k in range(steps - total + 1):
            rec(prefix + (k,), total + k)

    rec((), 0)
    vals = [(top.eval_float([k / steps for k in v]), v) for v in corners]
    kappa1 = min(v for v, _ in vals)
    cutoff = kappa1 * 1.5 + 1e-12
    best = min((v for v, _ in vals if v > cutoff), default=float("inf"))
    fine = 2 * steps
    for val, corner in vals:
        if val > cutoff:
            continue
        for offs in itertools.product((0, 1), repeat=n):
            v = [2 * a + b for a, b in zip(corner, offs)]
            if sum(v) > fine:
                continue
            best = min(best, top.eval_float([k / fine for k in v]))
    kappa = best * (1 - 1e-12)
    if kappa <= 0:
        raise NotElliptic("certified minimum not positive")
    return kappa


@st.composite
def mesh_polynomials(draw, nvars):
    """Pure powers of one degree d <= 6 in every variable (one may be
    missing), plus mixed monomials of degree <= d; coefficients p/q."""
    n = draw(nvars)
    d = draw(st.integers(1, 6))
    coeff = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    missing = draw(st.sampled_from([None] * 3 + list(range(n))))
    terms = [(draw(coeff), tuple(d if j == i else 0 for j in range(n)))
             for i in range(n) if i != missing]
    for _ in range(draw(st.integers(0, 3))):
        left, exps = d, []
        for _ in range(n):
            exps.append(draw(st.integers(0, left)))
            left -= exps[-1]
        if any(exps):
            terms.append((draw(coeff), tuple(exps)))
    return GeneralizedPolynomial.from_terms(terms, n)


def witness_or_error(witness, p):
    try:
        return repr(witness(p))
    except NotElliptic:
        return "NotElliptic"


class TestWitnessBits:
    """The table-driven mesh against the scalar one, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(p=mesh_polynomials(st.integers(2, 3)))
    def test_integer_exponents(self, p):
        assert witness_or_error(ellipticity_witness, p) == witness_or_error(scalar_witness, p)

    @settings(max_examples=25, deadline=None)
    @given(p=mesh_polynomials(st.integers(3, 4)),
           a=st.lists(st.integers(1, 3), min_size=3, max_size=3))
    def test_rational_exponents(self, p, a):
        r = restrict_to_hypersurface(p, a[:p.nvars - 1])
        assert witness_or_error(ellipticity_witness, r) == witness_or_error(scalar_witness, r)

    def test_four_variables(self):
        # one example: the scalar mesh takes about 5 s on four variables
        p = GeneralizedPolynomial.from_terms([
            (Fraction(3, 2), (3, 0, 0, 0)), (1, (0, 3, 0, 0)), (Fraction(5, 7), (0, 0, 3, 0)),
            (2, (0, 0, 0, 3)), (Fraction(1, 4), (1, 1, 0, 1)), (Fraction(1, 3), (0, 2, 0, 0))])
        assert repr(ellipticity_witness(p)) == repr(scalar_witness(p))


class TestWeights:
    def test_toric_weight_values(self):
        spec = toric_weight(validate_toric_matrix([(1, 1, -2)]))
        assert spec.weight((2, 0, 1)) == 1
        assert spec.weight((1, 1, 1)) == 0
        assert spec.weight((0, 0, 0)) == 1

    def test_empty_matrix_weight(self):
        spec = toric_weight(validate_toric_matrix([], width=2))
        assert spec.weight((0, 3)) == 1
        assert spec.weight((1, 3)) == 0

    def test_hypersurface_weight_values(self):
        spec = hypersurface_weight((1, 1))
        assert spec.weight((2, 0)) == 1
        assert spec.weight((1, 0)) == 0
        spec3 = hypersurface_weight((1, 1, 1))
        assert spec3.weight((3, 0, 0)) == 1
        assert spec3.weight((2, 1, 0)) == 1
        assert spec3.weight((1, 1, 1)) == 0

    def test_characteristic(self):
        for spec in (hypersurface_weight((2, 3)),
                     toric_weight(validate_toric_matrix([(1, 2, -3)])),
                     free_weight(3)):
            zero = tuple(0 for _ in range(spec.arity))
            assert spec.weight(zero) == 1
            import itertools as it
            for nu in it.product(range(4), repeat=spec.arity):
                assert spec.weight(nu) in (0, 1)

    def test_hypersurface_problem_matches_weight(self):
        prob = hypersurface_problem((1, 1))
        assert prob.rows == ((1, 1, -2),)
        assert sign_count(prob).value == 2


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant of the package
    # must raise (InvariantError or a ValueError) instead
    package = pathlib.Path(toric_density.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_of_the_package_imports_mpmath():
    # mpmath is a test dependency only: zeta comes from euler._zeta_fixed
    package = pathlib.Path(toric_density.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

import functools
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toric_density import euler
from toric_density.euler import (NonPositivePolar, WeightProfile, epsilon_gap,
                                 euler_constant, local_factor, primes_up_to,
                                 rational_weight, required_level)
from toric_density.generators import generators_with_check
from toric_density.model import (InvariantError, free_weight, hypersurface_weight,
                                 toric_weight, validate_toric_matrix)
from toric_density.polyhedron import build_polyhedron, diagonal_face, polar_vectors

HALF = Fraction(1, 2)


def mpf(x):
    """An exact Fraction or Decimal value as an mpf at the working precision."""
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


class TestPrimes:
    def test_small(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_1e5(self):
        assert len(primes_up_to(100_000)) == 9592

    def test_against_trial_division(self):
        for n in range(-1, 400):
            assert primes_up_to(n) == [p for p in range(2, n + 1)
                                       if all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestLocalFactor:
    def test_free_weight_geometric(self):
        spec = free_weight(2)
        for p in (2, 3, 7):
            lf = local_factor(spec, (1, 1), p)
            with mp.workprec(200):
                expect = (1 - 1 / mp.mpf(p)) ** -2
                assert abs(mpf(lf.value) - expect) < 1e-20

    def test_hypersurface_11_at_2(self):
        lf = local_factor(hypersurface_weight((1, 1)), (HALF, HALF), 2)
        assert abs(lf.value - 3) < 1e-20

    def test_nonpositive_polar_rejected(self):
        with pytest.raises(NonPositivePolar):
            local_factor(free_weight(2), (1, 0), 2)


class TestEpsilonGap:
    def test_free_weight(self):
        gens = generators_with_check(free_weight(2))
        assert epsilon_gap(gens, (1, 1)) == 1

    def test_hypersurface_11(self):
        gens = generators_with_check(hypersurface_weight((1, 1)))
        assert epsilon_gap(gens, (HALF, HALF)) == 1

    def test_near_face_point(self):
        spec = hypersurface_weight((1, 1, 1))
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        gap = epsilon_gap(gens, df.c)
        # off-face points with |v| = 6 sit at <c, v> = 2; gap capped at 1
        assert gap == 1

    def test_fractional_gap(self):
        spec = hypersurface_weight((3, 5))
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        gap = epsilon_gap(gens, df.c)
        assert 0 < gap <= 1
        # the gap must bound every support point's excess below 2
        import itertools
        for nu in itertools.product(range(17), repeat=2):
            if any(nu) and spec.g(nu):
                ex = sum(ci * x for ci, x in zip(df.c, nu)) - 1
                if 0 < ex < 1:
                    assert gap <= ex


class TestEulerConstant:
    def test_full_torus_closed_forms(self):
        for n in (1, 2, 3):
            prob = validate_toric_matrix([], width=n + 1)
            spec = toric_weight(prob)
            c = tuple(Fraction(1) for _ in range(n + 1))
            rep = euler_constant(spec, c, n + 1, cutoff=100_000)
            target = 1 / mp.zeta(n + 1)
            assert abs(mpf(rep.value) - target) < 1e-8
            assert abs(mpf(rep.value) - target) < rep.error_bound + 1e-12

    def test_hypersurface_11(self):
        spec = hypersurface_weight((1, 1))
        rep = euler_constant(spec, (HALF, HALF), 2, cutoff=100_000)
        assert abs(mpf(rep.value) - 6 / mp.pi ** 2) < 1e-8

    def test_free_weight_unit_factors(self):
        spec = free_weight(2)
        rep = euler_constant(spec, (1, 1), 2, cutoff=10_000, keep_factors=True)
        assert abs(rep.value - 1) < 1e-9
        for f in rep.factors[:50]:
            assert abs(f.value - 1) < 1e-12

    def test_positivity(self):
        for spec, c, k in ((hypersurface_weight((1, 2)), (Fraction(1, 3),) * 2, 2),
                           (hypersurface_weight((2, 2)), (Fraction(1, 2),) * 2, 2)):
            gens = generators_with_check(spec)
            e = build_polyhedron(gens.points)
            df = diagonal_face(e, spec)
            rep = euler_constant(spec, df.c, df.face_point_count, cutoff=5000)
            assert float(rep.value) > 0

    def test_monotone_error(self):
        spec = hypersurface_weight((1, 1))
        errs = [euler_constant(spec, (HALF, HALF), 2, cutoff=q).error_bound
                for q in (5_000, 10_000, 20_000)]
        assert errs[0] >= errs[1] >= errs[2]

    def test_choice_independence(self):
        spec = toric_weight(validate_toric_matrix([(1, 1, -2)]))
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        choices = polar_vectors(e, df.face)
        assert len(choices) >= 2
        values = [euler_constant(spec, c, df.face_point_count, cutoff=20_000)
                  for c in choices]
        for rep in values[1:]:
            assert abs(rep.value - values[0].value) <= \
                rep.error_bound + values[0].error_bound + 1e-12

    def test_inconsistent_k_rejected(self):
        spec = free_weight(2)
        with pytest.raises(ValueError):
            euler_constant(spec, (1, 1), 5, cutoff=1000)


def truncated_log_expansion(weights: dict, k_reg: int, depth: Fraction) -> dict:
    """log[(1 - x)^K (1 + sum w_e x^e)] over Fraction exponents e <= depth,
    from the truncated powers of log(1 + u) = sum_k (-1)^(k+1) u^k / k."""
    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                if ea + eb <= depth:
                    out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
        return out

    u = {e: Fraction(w) for e, w in weights.items()}
    series: dict = {}
    power, sign, k = dict(u), 1, 1
    while power and k <= depth:
        for e, coef in power.items():
            series[e] = series.get(e, Fraction(0)) + sign * coef / k
        power, sign, k = mul(power, u), -sign, k + 1
    for j in range(1, int(depth) + 1):
        series[Fraction(j)] = series.get(Fraction(j), Fraction(0)) - Fraction(k_reg, j)
    series = {e: c for e, c in series.items() if c != 0}
    bad = [e for e in series if e <= 1]
    if bad:
        raise ValueError(
            f"face weight inconsistent with K={k_reg}: surviving exponents {bad}")
    return series


@st.composite
def local_series(draw):
    """(coefficients a_0..a_6D of W in x^(1/D), K, D) with a_0 = 1 and
    a_j = 0 for 0 < j < D, as at a normalized polar vector."""
    scale = draw(st.integers(1, 4))
    k_reg = draw(st.integers(0, 3))
    coeffs = [1] + [0] * (scale - 1) + draw(st.lists(
        st.integers(-3, 3), min_size=5 * scale + 1, max_size=5 * scale + 1))
    if draw(st.booleans()):
        coeffs[scale] = k_reg
    return coeffs, k_reg, scale


class TestLogFactorExpansion:
    @settings(max_examples=300, deadline=None)
    @given(local_series())
    def test_matches_the_truncated_powers(self, case):
        coeffs, k_reg, scale = case
        weights = {Fraction(j, scale): a for j, a in enumerate(coeffs) if j and a}
        try:
            want = truncated_log_expansion(weights, k_reg, Fraction(euler.EXPANSION_DEPTH))
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                list(euler._log_terms(coeffs, k_reg, scale))
            assert str(got.value) == str(err)
            return
        got = {j: Fraction(x, j) for j, x in euler._log_terms(coeffs, k_reg, scale) if x}
        assert {Fraction(j, scale): b for j, b in got.items()} == want
        assert all(type(j) is int for j in got)


class TestAssembly:
    def test_zeta_float_is_mpmath_rounded_once(self):
        assert [euler.zeta_float(k) for k in range(2, 81)] == \
            [float(mp.zeta(k)) for k in range(2, 81)]

    def test_zeta_float_needs_k_above_one(self):
        with pytest.raises(ValueError):
            euler.zeta_float(1)

    def test_value_is_a_decimal_good_far_below_the_printed_digits(self):
        spec, gens, df = diagonal("hypersurface", (1, 1, 1))
        default, wide = (euler_constant(spec, df.c, df.face_point_count, cutoff=1000,
                                        generators=gens, precision=bits)
                         for bits in (euler.DEFAULT_PRECISION, 400))
        assert isinstance(default.value, Decimal)
        assert abs(default.value / wide.value - 1) < Decimal("1e-45")


class TestPrimePass:
    @pytest.mark.parametrize("kind, entries, cutoff", [
        ("hypersurface", (1, 1), 100_000), ("hypersurface", (1, 1, 1), 5000)])
    def test_keep_factors_leaves_the_value(self, kind, entries, cutoff):
        spec, gens, df = diagonal(kind, entries)
        kept, plain = (euler_constant(spec, df.c, df.face_point_count, cutoff=cutoff,
                                      generators=gens, keep_factors=keep)
                       for keep in (True, False))
        assert kept.value == plain.value and kept.error_bound == plain.error_bound
        assert [f.p for f in kept.factors] == primes_up_to(cutoff)
        assert plain.factors is None
        k = df.face_point_count
        for f in kept.factors[:5]:
            lf = local_factor(spec, df.c, f.p, generators=gens)
            assert abs(f.value - (1 - Fraction(1, f.p)) ** k * lf.value) < 1e-40

@functools.cache
def diagonal(kind, entries):
    """(spec, generators, diagonal face) of a matrix row or hypersurface."""
    spec = (toric_weight(validate_toric_matrix([entries])) if kind == "matrix"
            else hypersurface_weight(entries))
    gens = generators_with_check(spec)
    return spec, gens, diagonal_face(build_polyhedron(gens.points), spec)


def poly_power(base: dict, k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        nxt: dict = {}
        for e, a in out.items():
            for f, b in base.items():
                nxt[e + f] = nxt.get(e + f, 0) + a * b
        out = {e: a for e, a in nxt.items() if a}
    return out


def walked_factors(spec, c, primes, tol):
    """The box walk of WeightProfile at each p: [(value, tail bound)]."""
    profile = WeightProfile(spec, c, required_level(spec, c, tol))
    out = []
    for p in primes:
        level = profile.level_for(p, tol)
        with mp.workprec(200):
            value = sum(w * mp.power(p, -mp.mpf(e) / profile.scale)
                        for (lvl, e), w in profile.entries if lvl <= level)
        out.append((value, profile.tail_bound(p, level)))
    return out


class TestClosedForm:
    @pytest.mark.parametrize("kind, entries, numerator", [
        ("matrix", (1, 1, -2), {0: 1, 6: -1}),
        ("matrix", (1, 2, -3), {0: 1, 30: -1}),
        ("matrix", (1, 1, -1, -1), poly_power({0: 1, 4: -1}, 2)),
        ("hypersurface", (1, 1, 1), {0: 1, 6: -27, 9: 105, 12: -189, 15: 189,
                                     18: -105, 21: 27, 27: -1}),
        ("matrix", (1, 1, -2, 0), poly_power({0: 1, 6: -1}, 2)),
    ])
    def test_numerators(self, kind, entries, numerator):
        spec, gens, df = diagonal(kind, entries)
        form = rational_weight(spec, df.c, gens)
        assert dict(form.numerator) == numerator

    def test_111_is_the_anchor_factor(self):
        # N/Q = (1 - x^3)^-2 (1 + 7 x^3 + x^6): (1 - 1/p)^7 (1 + 7/p + 1/p^2)
        spec, gens, df = diagonal("hypersurface", (1, 1, 1))
        for p in (2, 3, 5):
            lf = local_factor(spec, df.c, p, generators=gens)
            with mp.workprec(200):
                want = (1 + mp.mpf(7) / p + mp.mpf(1) / p ** 2) / (1 - mp.mpf(1) / p) ** 2
                assert abs(mpf(lf.value) - want) < 1e-40

    @pytest.mark.parametrize("kind, entries", [("matrix", (1, 1, -2)),
                                               ("hypersurface", (1, 1, 1)),
                                               ("matrix", (1, 2, -3))])
    def test_against_the_box_walk(self, kind, entries):
        spec, gens, df = diagonal(kind, entries)
        primes = (2, 3, 5)
        for p, (walked, tail) in zip(primes, walked_factors(spec, df.c, primes, 1e-8)):
            exact = local_factor(spec, df.c, p, generators=gens)
            with mp.workprec(200):
                assert walked <= mpf(exact.value) <= walked + tail + 1e-40

    @settings(max_examples=15, deadline=None)
    @given(a=st.lists(st.integers(1, 4), min_size=2, max_size=3),
           quarters=st.lists(st.integers(2, 5), min_size=3, max_size=3),
           p=st.sampled_from((2, 3, 5)))
    def test_hypersurfaces_against_the_box_walk(self, a, quarters, p):
        spec = hypersurface_weight(a)
        c = [Fraction(q, 4) for q in quarters[:len(a)]]
        [(walked, tail)] = walked_factors(spec, c, (p,), 1e-8)
        exact = local_factor(spec, c, p)
        with mp.workprec(200):
            assert walked <= mpf(exact.value) <= walked + tail + 1e-40

    def test_dropped_generator_raises(self):
        # (3,0) and (0,3) at c = (1/2, 1/3) have degrees 9 and 6 in x = p^(-1/6):
        # W = 1 + x^9/(1 - x^9) + x^6/(1 - x^6) needs both factors
        spec = hypersurface_weight((1, 2))
        gens = generators_with_check(spec)
        c = (Fraction(1, 2), Fraction(1, 3))
        assert sorted(gens.points) == [(0, 3), (3, 0)]
        rational_weight(spec, c, gens)
        for h in gens.points:
            short = replace(gens, points=tuple(x for x in gens.points if x != h))
            with pytest.raises(InvariantError):
                rational_weight(spec, c, short)

    def test_redundant_generator_leaves_the_form_exact(self):
        # at the diagonal c both generators of (1,1,-2) have degree 3, and
        # W = (1 - x^6)/(1 - x^3)^2 = (1 + x^3)/(1 - x^3) needs one factor
        spec, gens, df = diagonal("matrix", (1, 1, -2))
        short = replace(gens, points=gens.points[:1])
        assert dict(rational_weight(spec, df.c, short).numerator) == {0: 1, 3: 1}
        full = local_factor(spec, df.c, 7, generators=gens)
        assert abs(local_factor(spec, df.c, 7, generators=short).value - full.value) < 1e-40

    def test_arity_four_product(self):
        spec, gens, df = diagonal("matrix", (1, 1, -2, 0))
        rep = euler_constant(spec, df.c, df.face_point_count, cutoff=100,
                             generators=gens)
        with mp.workprec(200):
            assert abs(mpf(rep.value) - 1 / mp.zeta(2) ** 2) <= rep.error_bound


def anchor(name):
    """(spec, generators, c, K) of a named anchor weight at its polar vector."""
    if name.startswith("P^"):
        n = int(name[2:])
        spec = toric_weight(validate_toric_matrix([], width=n + 1))
        return spec, generators_with_check(spec), (Fraction(1),) * (n + 1), n + 1
    kind, entries = name.split(" ")
    spec, gens, df = diagonal(kind, tuple(int(x) for x in entries.split(",")))
    return spec, gens, df.c, df.face_point_count


# the anchors with finitely many Witt exponents: {s: c_j} at s = j/D,
# E = prod zeta(s)^-c_j
ZETA_ANCHORS = {
    "P^1": {2: 1}, "P^2": {3: 1}, "P^3": {4: 1},
    "hypersurface 1,1": {2: 1}, "hypersurface 1,2": {2: 1},
    "matrix 1,1,-2": {2: 1}, "matrix 1,2,-3": {2: 1},
    "matrix 1,1,-1,-1": {2: 2},
    # zeta(3/2)^2 / (zeta(2) zeta(3)): an exponent at a non-integer j/D
    "matrix 1,-1,2,-2": {Fraction(3, 2): -2, 2: 1, 3: 1},
    "matrix 1,2,-1,-2": {Fraction(3, 2): -2, 2: 1, 3: 1},
}


def prime_pass_only():
    """Within this context every weight takes the prime pass."""
    return mock.patch.object(euler, "_zeta_exponents", return_value=None)


class TestZetaProduct:
    @pytest.mark.parametrize("bits", [160, 700])
    def test_zeta_fixed_within_three_units(self, bits):
        with mp.workprec(bits + 100):
            for k in range(2, 13):
                got = mp.mpf(euler._zeta_fixed(k, bits))
                assert abs(got - mp.ldexp(mp.zeta(k), bits)) <= 3

    @pytest.mark.parametrize("bits", [160, 700])
    def test_zeta_fixed_at_rational_s_within_its_units(self, bits):
        with mp.workprec(bits + 100):
            for s in map(Fraction, ("3/2", "4/3", "5/3", "5/4", "7/4", "9/4")):
                got = mp.mpf(euler._zeta_fixed(s, bits))
                assert abs(got - mp.ldexp(mp.zeta(mpf(s)), bits)) <= euler._zeta_units(s)

    def test_zeta_fixed_at_integers_is_pinned(self):
        # the integer series, unchanged since zeta_float first read it
        assert [euler._zeta_fixed(k, 64) for k in range(2, 7)] == [
            30343677749275472432, 22174036054620902275, 19965339697299096427,
            19127940922055908218, 18766667099591166199]
        assert all(euler._zeta_fixed(Fraction(k), 200) == euler._zeta_fixed(k, 200)
                   for k in range(2, 7))

    def test_zeta_units_grow_towards_one(self):
        assert {euler._zeta_units(s) for s in (2, 3, 12, Fraction(9, 4), Fraction(5, 2))} == {3}
        assert [euler._zeta_units(Fraction(s)) for s in ("7/4", "3/2", "4/3", "5/4")] == \
            [4, 5, 6, 8]
        # 1 / (1 - 2^(1-s)) lies within 1/2 above 1 / ((s - 1) ln 2)
        for b in (10, 100, 1000):
            units = euler._zeta_units(1 + Fraction(1, b))
            assert 1 + b / math.log(2) <= units <= 3 + b / math.log(2)

    def test_product_bound_counts_the_units_of_each_s(self):
        for zetas in ({2: 1}, {Fraction(11, 10): -1}, {Fraction(3, 2): -2, 2: 1, 3: 1}):
            value, bound = euler._zeta_product(zetas, 160)
            with mp.workprec(300):
                want = mp.fprod(mp.zeta(mpf(s)) ** -x for s, x in zetas.items())
                assert abs(mpf(value) - want) <= bound
            units = sum(euler._zeta_units(s) * abs(x) for s, x in zetas.items())
            assert bound >= float(value) * math.ldexp(2 * units, -160 - euler.GUARD_BITS)

    @pytest.mark.parametrize("name", sorted(ZETA_ANCHORS))
    def test_anchor_exponents_and_values(self, name):
        spec, gens, c, k_reg = anchor(name)
        form = rational_weight(spec, c, gens)
        assert euler._zeta_exponents(form, k_reg) == ZETA_ANCHORS[name]
        for bits in (euler.DEFAULT_PRECISION, 700):
            rep = euler_constant(spec, c, k_reg, cutoff=100, precision=bits,
                                 generators=gens)
            assert rep.method == "zeta-product" and rep.factors is None
            with mp.workprec(bits + 100):
                want = mp.fprod(mp.zeta(mpf(s)) ** -x for s, x in ZETA_ANCHORS[name].items())
                err = abs(mpf(rep.value) - want)
            assert err <= rep.error_bound <= want * mp.ldexp(1, -bits)

    def test_bound_stays_positive_past_the_float_range(self):
        spec, gens, c, k_reg = anchor("hypersurface 1,1")
        rep = euler_constant(spec, c, k_reg, cutoff=100, precision=4000, generators=gens)
        assert rep.error_bound == math.ulp(0.0)
        with mp.workprec(4100):
            assert abs(mpf(rep.value) - 1 / mp.zeta(2)) < mp.ldexp(1, -3990)

    def test_infinite_exponents_give_up_in_the_window(self):
        # (1,1,1): (1 - x)^7 (1 + 7x + x^2) has c_2, c_3, ... = 27, -105, ...
        spec, gens, c, k_reg = anchor("hypersurface 1,1,1")
        form = rational_weight(spec, c, gens)
        assert euler._witt_candidates(form, k_reg) is None
        rep = euler_constant(spec, c, k_reg, cutoff=100, generators=gens)
        assert rep.method == "prime-pass"

    @pytest.mark.parametrize("name", sorted(ZETA_ANCHORS))
    def test_a_dropped_factor_fails_the_identity(self, name, monkeypatch):
        spec, gens, c, k_reg = anchor(name)
        form = rational_weight(spec, c, gens)
        exponents = euler._witt_candidates(form, k_reg)
        assert euler._witt_identity(form, k_reg, exponents)
        for j, x in exponents.items():
            dropped = {**exponents, j: x - (1 if x > 0 else -1)}
            dropped = {i: y for i, y in dropped.items() if y}
            assert not euler._witt_identity(form, k_reg, dropped)
            monkeypatch.setattr(euler, "_witt_candidates", lambda *_, d=dropped: d)
            rep = euler_constant(spec, c, k_reg, cutoff=200, generators=gens)
            monkeypatch.undo()
            assert rep.method == "prime-pass"
            with prime_pass_only():
                plain = euler_constant(spec, c, k_reg, cutoff=200, generators=gens)
            assert (rep.value, rep.error_bound) == (plain.value, plain.error_bound)

    def test_keep_factors_lists_the_pass(self):
        spec, gens, c, k_reg = anchor("matrix 1,2,-3")
        rep = euler_constant(spec, c, k_reg, cutoff=200, generators=gens,
                             keep_factors=True)
        with prime_pass_only():
            plain = euler_constant(spec, c, k_reg, cutoff=200, generators=gens,
                                   keep_factors=True)
        assert rep.method == "zeta-product" and plain.method == "prime-pass"
        assert rep.factors == plain.factors
        assert [f.p for f in rep.factors] == primes_up_to(200)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(
        st.tuples(st.just("hypersurface"), st.lists(st.integers(1, 4), min_size=2, max_size=3)),
        st.tuples(st.just("matrix"), st.lists(st.integers(-3, 3), min_size=2, max_size=3))))
    def test_inside_the_prime_pass_bound(self, case):
        kind, entries = case
        if kind == "matrix":
            entries = entries + [-sum(entries)]
            assume(all(entries) and abs(entries[-1]) <= 4)
        try:
            spec, gens, df = diagonal(kind, tuple(entries))
        except ValueError:
            assume(False)
        rep = euler_constant(spec, df.c, df.face_point_count, cutoff=5000,
                             generators=gens)
        assume(rep.method == "zeta-product")
        with prime_pass_only():
            plain = euler_constant(spec, df.c, df.face_point_count, cutoff=5000,
                                   generators=gens)
        assert abs(rep.value - plain.value) <= plain.error_bound
        # every Witt exponent is within the expansion depth, so the pass's
        # zeta_P correction is complete: only its rounding envelope is left
        form = rational_weight(spec, df.c, gens)
        assert max(euler._witt_candidates(form, df.face_point_count)) <= \
            euler.EXPANSION_DEPTH * form.scale
        ops = euler._layout(form, plain.precision)[3]
        envelope = len(primes_up_to(5000)) * ops * math.ldexp(1.0, 4 - plain.precision)
        assert abs(rep.value - plain.value) <= float(plain.value) * envelope + rep.error_bound


# the reference Euler products of TestTailCorrection: the Witt form
# prod_(p <= P) f(p) prod_(j/D <= J) zeta_P(j/D)^(-c_j) at P and J far
# past any cutoff tried, in mpmath at ORACLE_BITS
ORACLE_BITS, ORACLE_CUTOFF, ORACLE_DEPTH = 400, 20_000, 40


@functools.cache
def witt_oracle(entries):
    """The Euler product of the hypersurface weight `entries` at its
    diagonal polar vector, as an mpf at ORACLE_BITS."""
    spec, gens, df = diagonal("hypersurface", entries)
    form = rational_weight(spec, df.c, gens)
    k_reg, scale = df.face_point_count, form.scale
    top = ORACLE_DEPTH * scale
    a = form.series(top)
    jb = [0] * (top + 1)            # j b_j of log W, in integers
    for j in range(1, top + 1):
        jb[j] = j * a[j] - sum(jb[i] * a[j - i] for i in range(1, j))
    # log (1 - x)^K adds -K D to j b_j at j = m D; then j b_j = -sum_(d|j) d c_d
    witt: dict = {}
    for j in range(1, top + 1):
        jc = -jb[j] + (k_reg * scale if j % scale == 0 else 0)
        jc -= sum(d * c for d, c in witt.items() if j % d == 0)
        if jc:
            witt[j] = Fraction(jc, j)
    assert all(c.denominator == 1 for c in witt.values())
    step = math.gcd(scale, *witt, *(e for e, _ in form.numerator), *form.denominator)
    with mp.workprec(ORACLE_BITS):
        value = mp.mpf(1)
        prods = {j: mp.mpf(1) for j in witt}
        for p in primes_up_to(ORACLE_CUTOFF):
            y = mp.power(p, -mp.mpf(step) / scale)
            powers = [mp.mpf(1)]
            for _ in range(top // step):
                powers.append(powers[-1] * y)
            num = mp.fsum(coef * powers[e // step] for e, coef in form.numerator)
            den = mp.fprod(1 - powers[d // step] for d in form.denominator)
            value *= (1 - mp.mpf(1) / p) ** k_reg * num / den
            for j in witt:
                prods[j] *= 1 - powers[j // step]
        for j, c in witt.items():
            value *= (mp.zeta(mp.mpf(j) / scale) * prods[j]) ** -int(c)
        return value


# the true errors of the log-series correction through the prime zeta
# function that the zeta_P correction replaced, at cutoffs 100, 1000, 5000
LOG_SERIES_ERRORS = {
    (1, 1, 1): (5.378e-12, 3.171e-18, 1.623e-22),
    (1, 1, 2): (6.192e-12, 3.626e-18, 1.855e-22),
    (1, 2, 3): (2.923e-12, 1.688e-18, 8.623e-23),
    (1, 1, 3): (1.064e-8, 1.236e-14, 1.226e-18),
}


class TestTailCorrection:
    def test_oracle_is_the_anchor(self):
        with mp.workprec(ORACLE_BITS):
            assert abs(witt_oracle((1, 1, 1)) - mp.mpf("0.00131764115485317810981735")) < 1e-26

    @pytest.mark.parametrize("entries", sorted(LOG_SERIES_ERRORS))
    def test_within_the_bound_and_the_log_series_error(self, entries):
        spec, gens, df = diagonal("hypersurface", entries)
        for cutoff, before in zip((100, 1000, 5000), LOG_SERIES_ERRORS[entries]):
            rep = euler_constant(spec, df.c, df.face_point_count, cutoff=cutoff,
                                 generators=gens)
            assert rep.method == "prime-pass"
            with mp.workprec(ORACLE_BITS):
                err = abs(mpf(rep.value) - witt_oracle(entries))
            assert err <= rep.error_bound
            assert err <= 1.1 * before

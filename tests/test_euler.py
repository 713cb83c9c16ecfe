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
from toric_density.euler import (NonPositivePolar, RationalWeight, WeightProfile,
                                 epsilon_gap, euler_constant, local_factor,
                                 primes_up_to, rational_weight, required_level)
from toric_density.generators import generators_with_check
from toric_density.model import (InvariantError, UniformMultiplicativeSpec,
                                 free_weight, hypersurface_weight, toric_weight,
                                 validate_toric_matrix)
from toric_density.polyhedron import build_polyhedron, diagonal_face, polar_vectors

HALF = Fraction(1, 2)


def mpf(x):
    """An exact Fraction or Decimal value as an mpf at the working precision."""
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def dyadic(x) -> Fraction:
    """An mpf as the exact Fraction it stands for."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


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
            lf = local_factor(spec, (1, 1), p, tol=1e-25)
            with mp.workprec(200):
                expect = (1 - 1 / mp.mpf(p)) ** -2
                assert abs(mpf(lf.value) - expect) < 1e-20

    def test_hypersurface_11_at_2(self):
        lf = local_factor(hypersurface_weight((1, 1)), (HALF, HALF), 2, tol=1e-25)
        assert abs(lf.value - 3) < 1e-20

    def test_unrestricted_cyclic_sum(self):
        # weight: n divides |v|, no vanishing-coordinate condition; the local
        # factor is sum binom((k+1)n - 1, n - 1) p^(-k) at c = 1/n * ones
        n = 3
        spec = UniformMultiplicativeSpec(
            arity=n, g=lambda nu: 1 if sum(nu) % n == 0 else 0,
            kind="custom", default_cap=4 * n)
        c = tuple(Fraction(1, n) for _ in range(n))
        for p in (2, 5):
            lf = local_factor(spec, c, p, tol=1e-22)
            oracle = sum(math.comb((k + 1) * n - 1, n - 1) * mp.mpf(p) ** -k
                         for k in range(200))
            assert abs(mpf(lf.value) - oracle) < 1e-15

    def test_nonpositive_polar_rejected(self):
        with pytest.raises(NonPositivePolar):
            local_factor(free_weight(2), (1, 0), 2)

    def test_tail_bound_honest(self):
        spec = hypersurface_weight((1, 2))
        lf_loose = local_factor(spec, (Fraction(1, 3), Fraction(1, 3)), 2, tol=1e-6)
        lf_tight = local_factor(spec, (Fraction(1, 3), Fraction(1, 3)), 2, tol=1e-20)
        assert abs(lf_loose.value - lf_tight.value) <= lf_loose.tail_bound


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

    def test_custom_weight_walks_to_the_anchor(self):
        # n | |v| with no vanishing condition: W = (1 + 7x + x^2)/(1 - x)^3 in
        # x = 1/p, so K = 10 regularizes it to (1 - 1/p)^7 (1 + 7/p + 1/p^2),
        # the (1,1,1) factor; a custom weight takes the truncated box walk
        n = 3
        spec = UniformMultiplicativeSpec(
            arity=n, g=lambda nu: 1 if sum(nu) % n == 0 else 0,
            kind="custom", default_cap=4 * n)
        rep = euler_constant(spec, (Fraction(1, n),) * n, 10, cutoff=500, tol=1e-8)
        anchor = mp.mpf("0.00131764115485317810981735")
        assert abs(mpf(rep.value) - anchor) <= rep.error_bound

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
                euler._log_factor_expansion(coeffs, k_reg, scale)
            assert str(got.value) == str(err)
            return
        got = euler._log_factor_expansion(coeffs, k_reg, scale)
        assert {Fraction(j, scale): b for j, b in got.items()} == want
        assert all(type(j) is int for j in got)


class TestPrimeZeta:
    def test_stored_values(self):
        assert sorted(euler.PRIME_ZETA) == list(range(2, int(euler.EXPANSION_DEPTH) + 1))
        with mp.workprec(700):
            for n, digits in euler.PRIME_ZETA.items():
                want = mp.primezeta(n)
                bound = want * mp.ldexp(1, -euler.PRIME_ZETA_BITS)
                assert abs(mp.mpf(digits) - want) <= bound

    def test_stored_values_round_like_primezeta(self):
        for bits in (53, 160, euler.PRIME_ZETA_BITS):
            with mp.workprec(bits):
                for n in euler.PRIME_ZETA:
                    assert euler._prime_zeta(Fraction(n), bits) == dyadic(mp.primezeta(n))

    def test_other_exponents_and_precisions_call_primezeta(self, monkeypatch):
        calls = []
        real = mp.primezeta

        def spy(x):
            calls.append((x, mp.mp.prec))
            return real(x)
        monkeypatch.setattr(mp, "primezeta", spy)
        euler._prime_zeta(Fraction(3), 160)
        assert calls == []
        with mp.workprec(160):
            want = dyadic(real(mp.mpf(5) / 2))
        assert euler._prime_zeta(Fraction(5, 2), 160) == want
        euler._prime_zeta(Fraction(3), euler.PRIME_ZETA_BITS + 1)
        assert calls == [(2.5, 160), (3, euler.PRIME_ZETA_BITS + 1)]

    def test_products_unchanged_without_the_table(self, monkeypatch):
        spec, gens, df = diagonal("hypersurface", (1, 1, 1))
        stored = euler_constant(spec, df.c, df.face_point_count, cutoff=1000,
                                generators=gens)
        monkeypatch.setattr(euler, "PRIME_ZETA", {})
        computed = euler_constant(spec, df.c, df.face_point_count, cutoff=1000,
                                  generators=gens)
        assert stored.value == computed.value
        assert stored.error_bound == computed.error_bound


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

    def test_round_bits_ties_to_even(self):
        assert euler._round_bits(Fraction(9, 8), 2) == 1
        assert euler._round_bits(Fraction(11, 8), 2) == Fraction(3, 2)
        assert euler._round_bits(Fraction(5, 4), 2) == 1
        assert euler._round_bits(Fraction(7, 4), 2) == 2
        # mpmath parses p/q with one correct rounding
        with mp.workprec(20):
            for x in (Fraction(1, 3), Fraction(10 ** 9 + 7, 3 ** 25), Fraction(2 ** 40 - 1)):
                assert euler._round_bits(x, 20) == dyadic(mp.mpf(f"{x.numerator}/{x.denominator}"))


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

    def test_exact_kinds_read_their_terms_once(self, monkeypatch):
        seen = []
        real = RationalWeight.truncation

        def spy(self, p):
            seen.append(p)
            return real(self, p)
        monkeypatch.setattr(RationalWeight, "truncation", spy)
        # (1,1) is a zeta product now; (1,1,1) still takes the pass
        spec, gens, df = diagonal("hypersurface", (1, 1, 1))
        rep = euler_constant(spec, df.c, df.face_point_count, cutoff=1000, generators=gens)
        assert rep.method == "prime-pass"
        assert seen and set(seen) == {2}

    def test_custom_weight_truncates_per_prime(self, monkeypatch):
        seen = []
        real = WeightProfile.truncation

        def spy(self, p, tol):
            seen.append(p)
            return real(self, p, tol)
        monkeypatch.setattr(WeightProfile, "truncation", spy)
        n = 3
        spec = UniformMultiplicativeSpec(
            arity=n, g=lambda nu: 1 if sum(nu) % n == 0 else 0,
            kind="custom", default_cap=4 * n)
        c = (Fraction(1, n),) * n
        rep = euler_constant(spec, c, 10, cutoff=100, tol=1e-8, keep_factors=True)
        primes = primes_up_to(100)
        assert set(primes) <= set(seen)
        tol_pp = 1e-8 / (4 * len(primes))
        profile = WeightProfile(spec, c, required_level(spec, c, tol_pp))
        levels = [profile.level_for(p, tol_pp) for p in primes]
        assert len(set(levels)) > 1
        assert [f.tail_bound for f in rep.factors] == \
            [profile.tail_bound(p, level) for p, level in zip(primes, levels)]


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
            assert lf.tail_bound == 0.0

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


# the anchors with finitely many Witt exponents: {k: c_kD}, E = prod zeta(k)^-c
ZETA_ANCHORS = {
    "P^1": {2: 1}, "P^2": {3: 1}, "P^3": {4: 1},
    "hypersurface 1,1": {2: 1}, "hypersurface 1,2": {2: 1},
    "matrix 1,1,-2": {2: 1}, "matrix 1,2,-3": {2: 1},
    "matrix 1,1,-1,-1": {2: 2},
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
                want = mp.fprod(mp.zeta(k) ** -x for k, x in ZETA_ANCHORS[name].items())
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

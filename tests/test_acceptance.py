"""Acceptance gate: every headline criterion at its stated tolerance.

Run with -s to see one PASS/FAIL line per criterion. Each test prints its
verdict before asserting so a red run still shows the measured numbers.
"""

import json
import math
import random
import time
import warnings
from fractions import Fraction

import mpmath as mp
import scipy.integrate as si

from toric_density import cli, counting
from toric_density.counting import (count_points, count_points_hypersurface,
                                    manin_constant, zeta_partial)
from toric_density.euler import euler_constant
from toric_density.generators import generators_with_check
from toric_density.model import (GeneralizedPolynomial, free_weight,
                                 hypersurface_problem, hypersurface_weight,
                                 sign_count, toric_weight, validate_toric_matrix)
from toric_density.polyhedron import (build_polyhedron, diagonal_face, face_points,
                                      iota_lp)
from toric_density.volumes import (MixedTypeT, exact_face_integral, mixed_volume_constant,
                                   sargos_constant)

HALF = Fraction(1, 2)


def poly(terms):
    return GeneralizedPolynomial.from_terms(terms)


def report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


class TestCriterion1Sargos:
    def test_closed_forms(self):
        t0 = time.monotonic()
        circle = sargos_constant(poly([(1, (2, 0)), (1, (0, 2))]))
        t_circle = time.monotonic() - t0
        t0 = time.monotonic()
        linear = sargos_constant(poly([(1, (1, 0)), (1, (0, 1))]))
        t_linear = time.monotonic() - t0
        err_c = abs(circle.value - math.pi / 4)
        err_l = abs(linear.value - 1.0)
        ok = (err_c < 1e-6 and circle.abs_error < 1e-6 and t_circle < 1.0
              and err_l < 1e-6 and linear.abs_error < 1e-6 and t_linear < 1.0)
        report("criterion-1", ok,
               f"A0(X1^2+X2^2)={circle.value:.12f} (err {err_c:.2e}, {t_circle:.2f}s), "
               f"A0(X1+X2)={linear.value:.12f} (err {err_l:.2e}, {t_linear:.2f}s)")


class TestCriterion2Mahler:
    def test_cross_check(self):
        rng = random.Random(0)
        t0 = time.monotonic()
        worst = 0.0
        cases = []
        while len(cases) < 5:
            n = rng.choice((2, 3))
            d = rng.choice((1, 2, 3))
            terms = [(Fraction(rng.randint(10, 100), 10),
                      tuple(d if j == i else 0 for j in range(n)))
                     for i in range(n)]
            if d >= 2:
                extra = [0] * n
                extra[0] = d - 1
                extra[1] = 1
                terms.append((Fraction(rng.randint(10, 100), 10), tuple(extra)))
            cases.append(GeneralizedPolynomial.from_terms(terms))
        for p in cases:
            t = MixedTypeT.of([tuple(1 if j == i else 0 for j in range(p.nvars))
                               for i in range(p.nvars)])
            a0 = mixed_volume_constant(t, p)
            oracle = _sphere_oracle(p)
            worst = max(worst, abs(a0.value - oracle))
        elapsed = time.monotonic() - t0
        ok = worst < 1e-4 and elapsed < 30
        report("criterion-2", ok,
               f"5 random elliptic polynomials, worst |A0 - sphere| = {worst:.2e}, "
               f"{elapsed:.1f}s")


def _sphere_oracle(p):
    n, d = p.nvars, float(p.degree)
    if n == 2:
        val, _ = si.quad(lambda th: p.eval_float((math.cos(th), math.sin(th)))
                         ** (-2.0 / d), 0, math.pi / 2)
    else:
        val, _ = si.dblquad(
            lambda t2, t1: p.eval_float(
                (math.cos(t1), math.sin(t1) * math.cos(t2),
                 math.sin(t1) * math.sin(t2))) ** (-3.0 / d) * math.sin(t1),
            0, math.pi / 2, 0, math.pi / 2)
    return val / d


class TestCriterion3Euler:
    def test_closed_forms(self):
        details = []
        ok = True
        for n in (1, 2, 3):
            prob = validate_toric_matrix([], width=n + 1)
            rep = euler_constant(toric_weight(prob), (Fraction(1),) * (n + 1),
                                 n + 1, cutoff=100_000, precision=160)
            err = abs(float(mp.mpf(str(rep.value)) - 1 / mp.zeta(n + 1)))
            ok = ok and err < 1e-8
            details.append(f"1/zeta({n + 1}) err {err:.1e}")
        rep = euler_constant(hypersurface_weight((1, 1)), (HALF, HALF), 2,
                             cutoff=100_000, precision=160)
        err = abs(float(mp.mpf(str(rep.value)) - 6 / mp.pi ** 2))
        ok = ok and err < 1e-8
        details.append(f"6/pi^2 err {err:.1e}")
        unit = euler_constant(free_weight(2), (Fraction(1),) * 2, 2,
                              cutoff=100_000, precision=160, keep_factors=True)
        worst = max(abs(float(f.value) - 1.0) for f in unit.factors)
        ok = ok and worst < 1e-12 and abs(float(unit.value) - 1) < 1e-9
        details.append(f"unit factors dev {worst:.1e}")
        report("criterion-3", ok, "; ".join(details))


class TestCriterion4Invariants:
    def test_table(self):
        rows = []
        ok = True
        for n in (1, 2, 3):
            spec = toric_weight(validate_toric_matrix([], width=n + 1))
            df = diagonal_face(build_polyhedron(
                generators_with_check(spec).points), spec)
            good = (df.iota == n + 1 and df.rho == 1
                    and df.c == (Fraction(1),) * (n + 1))
            ok = ok and good
            rows.append(f"P^{n}: iota={df.iota} rho={df.rho}")
        spec = hypersurface_weight((1, 1))
        df = diagonal_face(build_polyhedron(generators_with_check(spec).points), spec)
        ok = ok and df.iota == 1 and df.rho == 1 and df.c == (HALF, HALF)
        rows.append(f"a=(1,1): iota={df.iota} rho={df.rho} c={df.c}")
        spec = hypersurface_weight((1, 1, 1))
        df = diagonal_face(build_polyhedron(generators_with_check(spec).points), spec)
        ok = ok and df.iota == 1 and df.rho == 7
        rows.append(f"a=(1,1,1): iota={df.iota} rho={df.rho}")
        spec = toric_weight(validate_toric_matrix([(1, 1, -2)]))
        df = diagonal_face(build_polyhedron(generators_with_check(spec).points), spec)
        ok = ok and df.iota == 1 and df.rho == 1
        rows.append(f"A=[(1,1,-2)]: iota={df.iota} rho={df.rho}")
        report("criterion-4", ok, "; ".join(rows))


class TestCriterion5SupNorm:
    def test_hypersurface_density(self):
        t0 = time.monotonic()
        r = count_points_hypersurface((1, 1), None, 10_000, "sup")
        elapsed = time.monotonic() - t0
        ratio = r.count / 10_000 / (12 / math.pi ** 2)
        ok = abs(ratio - 1) < 0.05 and elapsed < 120
        report("criterion-5a", ok,
               f"N_sup(U2(1,1); 1e4)/t = {r.count / 10_000:.5f}, "
               f"ratio to 12/pi^2 = {ratio:.5f}, {elapsed:.1f}s")

    def test_projective_line_density(self):
        # the t^2/zeta(2) target applies to the per-sign-class primitive
        # count N/c ( = #{m in N^2 : gcd = 1, max <= t} ); the full count
        # carries the sign factor 2 on top (see the decisions ledger)
        t0 = time.monotonic()
        prob = validate_toric_matrix([], width=2)
        r = count_points(prob, None, 10_000, "sup")
        elapsed = time.monotonic() - t0
        per_class = r.count / 2
        ratio = per_class / (10_000 ** 2 / float(mp.zeta(2)))
        ok = abs(ratio - 1) < 0.01 and elapsed < 120
        report("criterion-5b", ok,
               f"P^1 torus per-sign-class N/2 = {per_class:.0f}, "
               f"ratio to t^2/zeta(2) = {ratio:.6f}, {elapsed:.1f}s")


SQUARES = GeneralizedPolynomial.from_terms(
    [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])


class TestCriterion6PolynomialHeight:
    def test_constant_and_density(self):
        t0 = time.monotonic()
        rep = manin_constant(hypersurface_problem((1, 1)), SQUARES)
        oracle, quad_err = si.quad(
            lambda th: (math.cos(th) ** 4 + math.sin(th) ** 4
                        + math.cos(th) ** 2 * math.sin(th) ** 2) ** -0.5,
            0, math.pi / 2)
        oracle *= 6 / math.pi ** 2
        err = abs(rep.leading_constant - oracle)
        budget = rep.leading_constant * rep.rel_error + quad_err + 1e-9
        count = count_points_hypersurface((1, 1), SQUARES, 10_000, "polynomial")
        ratio = count.count / (rep.leading_constant * 10_000)
        elapsed = time.monotonic() - t0
        ok = err <= max(budget, 1e-5) and err < 1e-5 \
            and 0.95 <= ratio <= 1.05 and elapsed < 300
        report("criterion-6", ok,
               f"C = {rep.leading_constant:.10f} vs oracle {oracle:.10f} "
               f"(err {err:.2e}), N/(C t) = {ratio:.4f}, {elapsed:.1f}s")


class TestCriterion7Lemma1:
    def test_random_suite(self):
        from toric_density.polyhedron import lemma1_check, support_face
        rng = random.Random(42)
        instances = 0
        failures = 0
        while instances < 200:
            n = rng.randint(2, 4)
            pts = [tuple(rng.randint(0, 9) for _ in range(n))
                   for _ in range(rng.randint(1, 6))]
            pts = [p for p in pts if any(p)]
            if not pts:
                continue
            e = build_polyhedron(pts)
            df = diagonal_face(e)
            if df.iota * df.t0 != 1:
                failures += 1
            if not lemma1_check(e, df.face, df.c):
                failures += 1
            iota_val, _ = iota_lp(e)
            if iota_val != df.iota:
                failures += 1
            for _ in range(3):
                a = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                          for _ in range(n))
                m, face = support_face(e, a)
                if not lemma1_check(e, face, tuple(x / m for x in a)):
                    failures += 1
            instances += 1
        ok = failures == 0
        report("criterion-7", ok,
               f"{instances} random polyhedra, {instances * 3} extra faces, "
               f"{failures} failures")


class TestCriterion8ZetaProbe:
    def test_trend(self):
        rep = manin_constant(hypersurface_problem((1, 1)), SQUARES)
        c0 = rep.zeta_constant
        samples = zeta_partial(hypersurface_problem((1, 1)), SQUARES, [1.5, 1.3, 1.2, 1.1],
                               rep.iota, rep.rho, term_budget=100_000_000)
        probes = [s.probe(1.0, 1) for s in samples]
        devs = [abs(p / c0 - 1) for p in probes]
        lands = devs[-1] < 0.10
        # monotone approach within the tail-estimate noise floor
        noise = max(abs(s.tail_estimate) * 0.1 / abs(s.value) for s in samples)
        trend = devs[-1] <= devs[0] + max(noise, 0.01)
        ok = lands and trend
        report("criterion-8", ok,
               "probes " + ", ".join(f"s={s.s}: {p / c0:.4f}"
                                     for s, p in zip(samples, probes))
               + f"; final dev {devs[-1]:.3f}")


def enumerator_count(problem, height, t, mode):
    """count_points on the relation enumerator, whatever the shape of the
    relations (count_points itself takes a hypersurface to its own engines)."""
    w = problem.width
    _, box, hdata = counting._count_setup(height, t, w, mode)
    total = counting._count_relations(problem.rows, w, box, hdata,
                                      counting.DEFAULT_BUDGET, 1)
    return sign_count(problem).value * total


class TestCriterion9Differential:
    CASES = [((1, 1), 40, "sup"), ((1, 1), 25, "poly"), ((1, 2), 40, "sup"),
             ((2, 1), 40, "sup"), ((2, 2), 30, "poly"), ((1, 3), 50, "sup"),
             ((3, 1), 50, "sup"), ((2, 3), 60, "sup"), ((3, 2), 60, "sup"),
             ((1, 4), 40, "sup"), ((4, 1), 40, "sup"), ((3, 3), 40, "poly"),
             ((2, 4), 50, "sup"), ((1, 1, 1), 15, "sup"), ((1, 1, 2), 15, "sup"),
             ((1, 2, 1), 15, "sup"), ((2, 1, 1), 15, "sup"), ((1, 2, 2), 12, "sup"),
             ((2, 2, 2), 12, "sup"), ((1, 1, 3), 12, "sup")]

    def test_counters_agree(self):
        mismatches = 0
        for a, t, mode in self.CASES:
            n = len(a)
            height = None
            hmode = "sup"
            if mode == "poly":
                height = GeneralizedPolynomial.from_terms(
                    [(1, tuple(2 if j == i else 0 for j in range(n + 1)))
                     for i in range(n + 1)])
                hmode = "polynomial"
            fast = count_points_hypersurface(a, height, t, hmode)
            slow = enumerator_count(hypersurface_problem(a), height, t, hmode)
            if fast.count != slow:
                mismatches += 1
        ok = mismatches == 0
        report("criterion-9a", ok,
               f"{len(self.CASES)} instances, {mismatches} mismatches")

    def test_thread_determinism(self, tmp_path):
        outputs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"verify-{threads}.json"
            code = cli.main(["verify", "--hypersurface", "1,1", "--polynomial",
                             "X1^2+X2^2+X3^2", "--t", "400",
                             "--prime-cutoff", "20000", "--threads", threads,
                             "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        ok = outputs[0] == outputs[1] == outputs[2]
        report("criterion-9b", ok,
               f"verify reports byte-identical across 1/4/8 threads "
               f"({len(outputs[0])} bytes)")


class TestAim3VolumeErrorBar:
    # (1,1,1) mixed volume constant of X1^2+..+X4^2, to 30 digits: the
    # Mellin-Barnes series of TestExactFaceAnchors.test_volume_111_series
    VOLUME_111 = "0.0017090897521681587668698566866"

    def test_error_bar_at_default_tolerance(self, capsys):
        args = ["constants", "--hypersurface", "1,1,1", "--polynomial",
                "X1^2+X2^2+X3^2+X4^2", "--prime-cutoff", "100", "--euler-tol", "1e-3"]
        t0 = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(args)
        elapsed = time.monotonic() - t0
        vol = json.loads(capsys.readouterr().out)["volume_constant"]
        err = float(abs(Fraction(vol["value"]) - Fraction(self.VOLUME_111)))
        rel = vol["abs_error"] / vol["value"]
        ok = code == 0 and err <= vol["abs_error"] and rel < 1e-6 and elapsed < 10
        report("aim-3", ok,
               f"A0 = {vol['value']!r} +- {vol['abs_error']:.1e} ({vol['method']}), "
               f"off {self.VOLUME_111} by {err:.1e}, rel bar {rel:.1e}, {elapsed:.2f}s")


class TestExactFaceAnchors:
    """Face integrals with a closed form, against values computed here."""

    def test_projective_torus_3_squares(self, capsys):
        # the Sargos constant of X1^2+..+X4^2 on P^3 is pi^2/16; its 3-d
        # simplex face took a 60 s gauss-kronrod-3d with an 8% bar
        args = ["constants", "--sargos-only", "--projective-torus", "3",
                "--polynomial", "X1^2+X2^2+X3^2+X4^2"]
        t0 = time.monotonic()
        code = cli.main(args)
        elapsed = time.monotonic() - t0
        out = json.loads(capsys.readouterr().out)["sargos"]
        with mp.workprec(200):
            err = float(abs(out["value"] - mp.pi ** 2 / 16))
        ok = (code == 0 and out["method"] == "gamma-simplex"
              and err <= out["abs_error"] and elapsed < 1)
        report("exact P^3", ok,
               f"A0 = {out['value']!r} +- {out['abs_error']:.1e} ({out['method']}), "
               f"off pi^2/16 by {err:.1e}, {elapsed:.2f}s")

    def test_quadric_face(self):
        # (1 + x^2)(1 + y^2) over the quadrant: (pi/2)^2
        exps = [(0, 0), (0, 2), (2, 0), (2, 2)]
        cv = exact_face_integral([1, 1, 1, 1], exps, Fraction(1))
        with mp.workprec(200):
            err = float(abs(cv.value - (mp.pi / 2) ** 2))
        ok = cv.method == "gamma-product" and err <= cv.abs_error
        report("exact quadric face", ok,
               f"I = {cv.value!r} +- {cv.abs_error:.1e} ({cv.method}), "
               f"off (pi/2)^2 by {err:.1e}")

    def test_segre_face(self):
        # the Segre cube's face type against X1^2+..+X8^2: the face is
        # {0, 2}^3, (1 + x^2)(1 + y^2)(1 + z^2), and the constant (pi/4)^3
        rows = [[int(x) for x in r.split(",")]
                for r in TestSegreCubeGenerators.ROWS.split(";")]
        spec = toric_weight(validate_toric_matrix(rows))
        df = diagonal_face(build_polyhedron(generators_with_check(spec).points), spec)
        pts = face_points(spec, df.c)
        squares = poly([(1, tuple(2 * (j == i) for j in range(8))) for i in range(8)])
        t0 = time.monotonic()
        cv = mixed_volume_constant(MixedTypeT.of(pts, [spec.g(b) for b in pts]), squares)
        elapsed = time.monotonic() - t0
        with mp.workprec(200):
            err = float(abs(cv.value - mp.pi ** 3 / 64))
        ok = cv.method == "gamma-product" and err <= cv.abs_error and elapsed < 1
        report("exact segre face", ok,
               f"A0 = {cv.value!r} +- {cv.abs_error:.1e} ({cv.method}), "
               f"off pi^3/64 by {err:.1e}, {elapsed:.2f}s")

    def test_volume_111_series(self):
        # The (1,1,1) face is 1 + x^2 + x^2 y^2 + x^4 y^6 at sigma0 = 1/2:
        # the simplex (0,0), (2,0), (4,6), |det| = 12, with (2,2) at its
        # centroid, so alpha_i = 1/6 and beta_i = 1/3, and 9! Vol(Lambda) is
        # 1/4608. Term n of the series is (-1)^n Gamma(1/6 + n/3)^3 / n!.
        with mp.workdps(50):
            third, sixth = mp.mpf(1) / 3, mp.mpf(1) / 6
            series = mp.nsum(lambda n: (-1) ** n * mp.gamma(sixth + n * third) ** 3
                             / mp.factorial(n), [0, mp.inf])
            value = series / (mp.gamma(mp.mpf(1) / 2) * 12 * 4608)
            digits = mp.nstr(value, 30)
        squares = poly([(1, tuple(2 * (j == i) for j in range(4))) for i in range(4)])
        cv = manin_constant(hypersurface_problem((1, 1, 1)), squares, cutoff=100,
                            euler_tol=1e-3).volume
        err = float(abs(Fraction(cv.value) - Fraction(digits)))
        ok = (digits == TestAim3VolumeErrorBar.VOLUME_111
              and cv.method == "mellin-barnes" and err <= cv.abs_error)
        report("exact (1,1,1) series", ok,
               f"{digits} by mpmath; A0 = {cv.value!r} +- {cv.abs_error:.1e} "
               f"({cv.method}), off by {err:.1e}")


class TestAim3Rho2Anchor:
    """The Segre quadric x1 x2 = x3 x4 under X1^2+..+X4^2: iota 2, rho 2.

    x = (ac, bd, ad, bc) turns the height into (a^2+b^2)(c^2+d^2), a product
    of two P^1 heights, and summing the P^1 count pi T^2/(2 zeta(2)) over
    the other factor gives N(t) ~ 18/pi^2 t^2 log t. The volume constant is
    pi^2/16 and the Euler factor is prod_p (1 - 1/p^2)^2 = 1/zeta(2)^2.
    """

    def test_closed_forms(self, capsys):
        args = ["constants", "--matrix", "1,1,-1,-1", "--polynomial",
                "X1^2+X2^2+X3^2+X4^2", "--prime-cutoff", "2000"]
        t0 = time.monotonic()
        code = cli.main(args)
        elapsed = time.monotonic() - t0
        out = json.loads(capsys.readouterr().out)
        with mp.workprec(200):
            lead_err = abs(out["leading_constant"] - 18 / mp.pi ** 2)
            euler_err = abs(mp.mpf(out["euler"]["value_str"]) - 1 / mp.zeta(2) ** 2)
            vol_err = abs(out["volume_constant"]["value"] - mp.pi ** 2 / 16)
        ok = (code == 0 and out["rho"] == 2 and out["iota"] == 2
              and lead_err <= out["leading_constant"] * out["rel_error"]
              and euler_err <= out["euler"]["error_bound"]
              and vol_err <= out["volume_constant"]["abs_error"]
              and elapsed < 10)
        report("aim-3 rho=2", ok,
               f"C = {out['leading_constant']!r} off 18/pi^2 by {float(lead_err):.1e} "
               f"(rel bar {out['rel_error']:.1e}), Euler off 1/zeta(2)^2 by "
               f"{float(euler_err):.1e} (bound {out['euler']['error_bound']:.1e}), "
               f"A0 off pi^2/16 by {float(vol_err):.1e}, {elapsed:.2f}s")


class TestSegreCubeGenerators:
    """P^1 x P^1 x P^1 in P^7, coordinates x_ijk in binary order (ROADMAP
    item 9). Its kernel monoid is generated by the six 0/1 vectors of the
    cube's facets, each of weight 4, and the diagonal face is the compact
    3-face they span at c = (1/4, ..., 1/4); rho = 3."""

    ROWS = "1,0,-1,0,-1,0,1,0;0,1,0,-1,0,-1,0,1;1,-1,0,0,-1,1,0,0;1,-1,-1,1,0,0,0,0"

    def test_analyze(self, capsys):
        t0 = time.monotonic()
        gen_code = cli.main(["generators", "--matrix", self.ROWS])
        gens = json.loads(capsys.readouterr().out)
        code = cli.main(["analyze", "--matrix", self.ROWS])
        elapsed = time.monotonic() - t0
        out = json.loads(capsys.readouterr().out)
        points = sorted(map(tuple, gens["points"]))
        facets = sorted(tuple(int(i >> b & 1) if s else 1 - int(i >> b & 1)
                              for i in range(8))
                        for b in (2, 1, 0) for s in (0, 1))
        ok = (gen_code == 0 and code == 0 and gens["stabilized"]
              and points == facets
              and out["c"] == ["1/4"] * 8 and out["dim_face"] == 3
              and out["compact"] and out["rho"] == 3 and out["iota"] == 2
              and out["stabilized"] and elapsed < 10)
        report("aim-3 segre cube", ok,
               f"{len(points)} generators at proven cap {gens['cap']}, "
               f"c = {out['c'][0]}, face dim {out['dim_face']}, "
               f"rho {out['rho']}, iota {out['iota']}, {elapsed:.2f}s")

import functools
import itertools
import math
import os
import threading
import time
from fractions import Fraction
from math import gcd

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toric_density import counting, euler
from toric_density.counting import (BoxTooLarge, InvariantError, NonCompactFace,
                                    asymptotic_report, count_points,
                                    count_points_hypersurface, manin_constant,
                                    sup_norm_prediction, zeta_partial)
from toric_density.model import (GeneralizedPolynomial, ellipticity_witness,
                                 hypersurface_problem, sign_count, validate_toric_matrix)
from toric_density.polyparse import parse_polynomial
from toric_density.vectors import iroot


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


def enumerator_count(problem, height, t, mode, threads=1):
    """count_points on the relation enumerator, whatever the shape of the
    relations: the engine that count_points takes for problems that are no
    hypersurface."""
    w = problem.width
    _, box, hdata = counting._count_setup(height, t, w, mode)
    total = counting._count_relations(problem.rows, w, box, hdata,
                                      counting.DEFAULT_BUDGET, threads)
    return sign_count(problem).value * total


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
        slow = enumerator_count(hypersurface_problem(a), height, t, mode)
        assert fast.count == slow

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
        slow = enumerator_count(hypersurface_problem(a), height, t, mode)
        assert fast.count == slow

    @pytest.mark.parametrize("mode", ["sup", "squares"])
    @pytest.mark.parametrize("row", [(1, 1, -2), (-1, -1, 2), (2, 3, -5),
                                     (1, 1, 1, -3), (1, 2, 1, -4)])
    def test_matrix_spellings(self, row, mode):
        # a --matrix row of hypersurface shape runs on the hypersurface engines
        prob = validate_toric_matrix([row])
        assert counting._hypersurface_exponents(prob) is not None
        w, sign = prob.width, sign_count(prob).value
        t = 30 if w == 3 else 12
        if mode == "sup":
            got = count_points(prob, None, t, "sup").count
            oracle = brute_count(prob.rows, w, t, lambda m: max(m) <= t, sign)
        else:
            got = count_points(prob, squares(w), t, "polynomial").count
            oracle = brute_count(prob.rows, w, t,
                                 lambda m: sum(x * x for x in m) <= t * t, sign)
        assert got == oracle

    @pytest.mark.parametrize("a", [(1, 1, 20), (1, 1, 23)])
    def test_valuation_solve_beyond_int64(self, a):
        # (box + 1)^q passes 2^63, so the roots are checked on Python ints;
        # for (1, 1, 23) the primitive point (4, 9, 6, 6) has 6^25 > 2^63
        t = 12
        got = count_points_hypersurface(a, None, t, "sup").count
        sign = sign_count(hypersurface_problem(a)).value
        assert got == brute_count(hypersurface_problem(a).rows, 4, t,
                                  lambda m: max(m) <= t, sign)


class TestValuationBlocks:
    """The valuation solve's 2-D blocks: m_(n-2) rows by m_(n-1) columns,
    8 BLOCK_CELLS // box rows each, within chunks of CHUNK m_1 values."""

    CASES = [((1, 1, 1), 13), ((1, 2, 3), 13), ((2, 2, 2), 11), ((1, 1, 4), 15),
             ((1, 1, 1, 1), 7), ((2, 1, 1, 1), 7)]

    @pytest.mark.parametrize("a,t", CASES)
    @pytest.mark.parametrize("mode", ["sup", "squares"])
    def test_tiny_blocks(self, a, t, mode, monkeypatch):
        # 40 cells make blocks of 40 // box rows (1 to 5 here): the rows of
        # one (p, residue) group, such as 2, 6 and 10 for (2, 1) under
        # q = 3, fall in different blocks, and under the sup norm the last
        # block of a box of 11, 13 or 15 holds fewer rows than the others
        height = squares(len(a) + 1) if mode == "squares" else None
        mode = "polynomial" if height else "sup"
        prob = hypersurface_problem(a)
        slow = enumerator_count(prob, height, t, mode)
        monkeypatch.setattr(counting, "BLOCK_CELLS", 5)
        assert count_points(prob, height, t, mode).count == slow

    @pytest.mark.parametrize("a,t", CASES)
    def test_threads(self, a, t, monkeypatch):
        # chunks of 4 m_1 values: several chunks for the two workers
        prob = hypersurface_problem(a)
        slow = enumerator_count(prob, None, t, "sup")
        monkeypatch.setattr(counting, "CHUNK", 4)
        monkeypatch.setattr(counting, "BLOCK_CELLS", 5)
        counts = [count_points(prob, None, t, "sup", threads=k).count for k in (1, 2)]
        assert counts == [slow, slow]


class TestRelationBlocks:
    """The relation enumerator's prefix walk: chunks of CHUNK x_1 values,
    the rows after a prefix cut at the height floor, and runs of
    BLOCK_CELLS // box rows (8 times as many with neither a height mask nor
    a solved coordinate)."""

    # a solved x_4 after a prefix; a solved x_3 with rows x_1; no relation;
    # a relation that ends at the rows; one that ends in the prefix
    CASES = [([(1, 1, -1, -1)], 4, 11), ([(1, 2, -3)], 3, 15), ([], 3, 13),
             ([(1, -1, 0, 0), (0, 0, 1, -1)], 4, 11),
             ([(1, -1, 0, 0, 0), (0, 0, 1, 1, -2)], 5, 7)]

    @pytest.mark.parametrize("rows,w,t", CASES)
    @pytest.mark.parametrize("mode", ["sup", "squares"])
    def test_tiny_chunks_and_runs(self, rows, w, t, mode, monkeypatch):
        # chunks of 3 values give the two workers several chunks each, and
        # 5 cells make runs of one row (3 in the P^2 torus's sup blocks,
        # which hold 8 times as many cells)
        prob = validate_toric_matrix(rows, width=w)
        sign = sign_count(prob).value
        if mode == "sup":
            height, oracle = None, brute_count(prob.rows, w, t, lambda m: max(m) <= t, sign)
        else:
            height, mode = squares(w), "polynomial"
            oracle = brute_count(prob.rows, w, t, lambda m: sum(x * x for x in m) <= t * t,
                                 sign)
        monkeypatch.setattr(counting, "CHUNK", 3)
        monkeypatch.setattr(counting, "BLOCK_CELLS", 5)
        counts = [enumerator_count(prob, height, t, mode, threads=k) for k in (1, 2)]
        assert counts == [oracle, oracle]


class TestInvariants:
    def test_integer_root(self):
        import random
        from toric_density.vectors import iroot
        rng = random.Random(13)
        for _ in range(300):
            k = rng.randint(1, 7)
            x = rng.randint(0, 10 ** rng.randint(1, 30))
            r = iroot(x, k)
            assert r ** k <= x < (r + 1) ** k

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
            manin_constant(hypersurface_problem((1, 1)), SQUARES)

    @pytest.mark.parametrize("problem,t", [
        (validate_toric_matrix([(1, 1, -2)]), 10 ** 7),  # a 3162 x 3162 pair grid
        (hypersurface_problem((1, 1, 1)), 1001)])        # a 1001^2 valuation solve
    def test_budget_of_each_engine(self, problem, t):
        with pytest.raises(BoxTooLarge):
            count_points(problem, None, t, "sup", budget=10 ** 6)

    def test_budget_guard(self):
        # a relation-free problem visits box^w cells: 40^4 > 10^5 >= 40^3
        for t, budget in ((10 ** 4, 10 ** 6), (40, 10 ** 5)):
            with pytest.raises(BoxTooLarge):
                count_points(validate_toric_matrix([], width=4), None, t, "sup",
                             budget=budget)


# The two integer roots that vectors.iroot replaced, kept as references.
def reference_iroot(x: int, k: int) -> int:
    """counting._iroot: Newton from a power of two, then a downward fix-up."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0 or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def reference_x_fixed(p: int, scale: int, bits: int) -> int:
    """euler._x_fixed: Newton from a float head raised by 2^-30."""
    if scale == 1:
        return (1 << bits) // p
    target = (1 << (bits * scale)) // p
    head = int(math.ldexp(p ** (-1.0 / scale), 60))
    x = (head + (head >> 30) + 1) << max(bits - 60, 0) >> max(60 - bits, 0)
    while True:
        y = ((scale - 1) * x + target // x ** (scale - 1)) // scale
        if y >= x:
            return x
        x = y


class TestIntegerRoot:
    @settings(max_examples=500, deadline=None)
    @given(x=st.integers(0, 2 ** 3000) | st.integers(0, 2 ** 70), k=st.integers(1, 14))
    def test_against_the_reference(self, x, k):
        r = iroot(x, k)
        assert r == reference_iroot(x, k)
        assert r ** k <= x < (r + 1) ** k

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), k=st.integers(2, 14), step=st.sampled_from([-1, 0, 1]))
    @example(data=None, k=2, step=0)
    @example(data=None, k=3, step=0)
    def test_perfect_powers_and_their_neighbours(self, data, k, step):
        # r^k - 1, r^k and r^k + 1, radicands up to 3000 bits: a head start
        # below the root would return it at once, one too small, and the
        # float root of each pinned r^k is below r
        pinned = {2: 2252084920306007, 3: 276829180691261}
        r = data.draw(st.integers(1, 2 ** (3000 // k)) | st.integers(1, 10 ** 4)) \
            if data else pinned[k]
        assert iroot(r ** k + step, k) == (r - 1 if step < 0 else r)

    def test_every_small_power(self):
        for k in range(2, 15):
            for r in range(1, 300):
                assert [iroot(r ** k + step, k) for step in (-1, 0, 1)] == [r - 1, r, r]

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(2, 10 ** 12), scale=st.integers(1, 12), bits=st.integers(1, 800))
    @example(p=7919, scale=3, bits=218)     # the prime pass of (1,1,3)
    @example(p=99991, scale=4, bits=220)    # and of (2,3,4)
    def test_x_fixed_against_the_float_head_reference(self, p, scale, bits):
        x = euler._x_fixed(p, scale, bits)
        assert x ** scale * p <= 1 << bits * scale < (x + 1) ** scale * p
        if bits >= 60:      # the reference shifts a 60-bit head, so it needs these
            assert x == reference_x_fixed(p, scale, bits)

    def test_negative_radicand(self):
        with pytest.raises(ValueError):
            iroot(-1, 3)


def no_child_left():
    """Whether this process has no child, running or exited: waitpid then
    finds none to wait for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class Stop(BaseException):
    pass


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")
class TestWorkers:
    """_chunk_map's forked workers: results and errors come back as the
    serial loop gives them, and no worker outlives the call."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        # at least two workers for threads >= 2, whatever the machine
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def test_results_in_partition_order(self):
        starts = list(range(1, 40, 3))
        for threads in (1, 2, 3, 4):
            assert counting._chunk_map(lambda lo: [lo, lo * lo], starts, threads) == \
                [[lo, lo * lo] for lo in starts]
        assert no_child_left()

    def test_at_most_one_worker_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pids = counting._chunk_map(lambda lo: os.getpid(), range(10), 7)
        assert len(set(pids)) == 2 and pids[0] == os.getpid()
        assert no_child_left()

    def test_serial_while_another_thread_runs(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            pids = counting._chunk_map(lambda lo: os.getpid(), range(4), 2)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 4

    def test_more_threads_than_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(counting, "CHUNK", 4)
        # eight chunks of the valuation solve and of the relation enumerator
        for prob in (hypersurface_problem((1, 1, 1)),
                     validate_toric_matrix([(1, 1, -1, -1)])):
            counts = [count_points(prob, None, 30, "sup", threads=k).count
                      for k in (1, 9)]
            assert counts[0] == counts[1] > 0
        assert no_child_left()

    def test_valuation_solve_invariant_raises(self, monkeypatch):
        # the case of TestInvariants in three chunks over two workers
        monkeypatch.setattr(counting, "_factorize", lambda m: {})
        monkeypatch.setattr(counting, "CHUNK", 4)
        messages = []
        for threads in (1, 2):
            with pytest.raises(InvariantError, match="no 3-th power") as info:
                count_points_hypersurface((1, 1, 1), None, 10, "sup", threads=threads)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert no_child_left()

    @pytest.mark.parametrize("error", [BoxTooLarge, InvariantError])
    def test_error_in_a_worker(self, error):
        parent = os.getpid()

        def fn(lo):
            if os.getpid() != parent:
                raise error(f"chunk {lo}")
            return lo
        # with two workers the forked one runs the odd chunks
        with pytest.raises(error, match="^chunk 1$"):
            counting._chunk_map(fn, range(4), 2)
        assert no_child_left()

    def test_first_error_in_partition_order(self):
        def fn(lo):
            if lo in (1, 2, 5):
                raise InvariantError(f"chunk {lo}")
            return lo
        for threads in (1, 2, 3):
            with pytest.raises(InvariantError, match="^chunk 1$"):
                counting._chunk_map(fn, range(6), threads)
        assert no_child_left()

    def test_unpicklable_error(self):
        def fn(lo):
            if lo == 1:
                raise Unpicklable("x", "y")
            return lo
        with pytest.raises(RuntimeError, match="Unpicklable: x and y"):
            counting._chunk_map(fn, range(2), 2)
        assert no_child_left()

    def test_worker_dies(self):
        parent = os.getpid()

        def fn(lo):
            if os.getpid() != parent:
                os._exit(3)
            return lo
        with pytest.raises(ChildProcessError, match="exit status 3"):
            counting._chunk_map(fn, range(2), 2)
        assert no_child_left()

    def test_caller_fails_first(self):
        # the calling process stops; the sleeping worker is killed and reaped
        parent = os.getpid()

        def fn(lo):
            if os.getpid() == parent:
                raise Stop()
            time.sleep(60)
        started = time.perf_counter()
        with pytest.raises(Stop):
            counting._chunk_map(fn, range(2), 2)
        assert time.perf_counter() - started < 30
        assert no_child_left()


class TestManinAssembly:
    def test_a11_remark_constant(self):
        rep = manin_constant(hypersurface_problem((1, 1)), SQUARES)
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
        counts = [count_points(prob, cubes, t, "polynomial") for t in (50, 100, 150)]
        density = asymptotic_report(counts, rep.leading_constant, rep.iota, rep.rho)
        assert density.final_deviation < 0.02

    def test_toric_112_matches_hypersurface(self):
        prob = validate_toric_matrix([(1, 1, -2)])
        rep_t = manin_constant(prob, SQUARES)
        rep_h = manin_constant(hypersurface_problem((1, 1)), SQUARES)
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
        c, iota, rho = sup_norm_prediction(hypersurface_problem((1, 1)))
        assert iota == 1 and c == pytest.approx(12 / math.pi ** 2)

    def test_a35(self):
        c, iota, rho = sup_norm_prediction(hypersurface_problem((3, 5)))
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
    def test_relations_equal_brute_force(self, rows, width, budget, monkeypatch):
        prob = validate_toric_matrix(rows, width=width)
        box = max(2, int(budget ** (1.0 / width)))
        # 64 cells cut the solved rows into runs of two: several blocks
        for cells in (counting.BLOCK_CELLS, 64):
            monkeypatch.setattr(counting, "BLOCK_CELLS", cells)
            samples = zeta_partial(prob, SQUARES, [3.5, 4.2], Fraction(3),
                                   term_budget=budget)
            check_relation_zeta(prob, SQUARES, samples, box)

    @pytest.mark.parametrize("rho", [2, 7])
    @pytest.mark.parametrize("lam,h", [(0.1, 3.1e4), (0.3, 57.0), (1.5, 2.0)])
    def test_log_power_tail_equals_gammainc(self, rho, lam, h):
        # the integral of u^(-lam-1) (log u)^(rho-1) over u >= h
        want = mp.gammainc(rho, lam * mp.log(h)) / mp.mpf(lam) ** rho
        assert counting._log_power_tail(lam, rho, h) == pytest.approx(float(want), rel=1e-13)

    def test_tail_beyond_rho_one(self):
        # (1,1,1) has rho 7; the tail is delta s Gamma(7, x) / (s - 1)^7 - N H^-s
        squares4 = parse_polynomial("X1^2+X2^2+X3^2+X4^2")
        for sample in zeta_partial(hypersurface_problem((1, 1, 1)), squares4, [1.3, 1.1],
                                   Fraction(1), 7, term_budget=10 ** 4):
            h, n_b, lam = sample.covered_height, sample.covered_count, sample.s - 1
            delta = n_b / (h * mp.log(h) ** 6)
            want = (delta * sample.s * mp.gammainc(7, lam * mp.log(h)) / mp.mpf(lam) ** 7
                    - n_b * mp.mpf(h) ** -sample.s)
            assert sample.tail_estimate == pytest.approx(float(want), rel=1e-12)

    def test_requires_s_beyond_abscissa(self):
        with pytest.raises(ValueError):
            zeta_partial(hypersurface_problem((1, 1)), SQUARES, 0.9, Fraction(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("problem", [
        hypersurface_problem((1, 1)), validate_toric_matrix([(1, 1, -2)])])
    def test_requires_finite_s(self, problem, bad):
        # NaN compares False with the abscissa, and s = inf sums to NaN probes
        for s_values in (bad, [1.5, bad]):
            with pytest.raises(ValueError, match="not a finite number"):
                zeta_partial(problem, SQUARES, s_values, Fraction(1), term_budget=10 ** 4)

    def test_probe_trend_toward_constant(self):
        rep = manin_constant(hypersurface_problem((1, 1)), SQUARES)
        samples = zeta_partial(hypersurface_problem((1, 1)), SQUARES, [1.5, 1.2],
                               rep.iota, rep.rho,
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


def relation_points(rows, width, box):
    """The positive primitive solutions in [1, box]^width, in lexicographic
    order."""
    return [m for m in itertools.product(range(1, box + 1), repeat=width)
            if math.gcd(*m) == 1 and all(
                math.prod(x ** a for x, a in zip(m, r) if a > 0)
                == math.prod(x ** -a for x, a in zip(m, r) if a < 0) for r in rows)]


def relation_blocks(rows, width, box):
    """relation_points grouped into the relation enumerator's blocks. A
    block's columns are x_w, or x_(w-1) when a relation ends at x_w; its rows
    are the coordinate before, in runs of BLOCK_CELLS // box values (eight
    times as many without a solved x_w) from 1 after a prefix, or from each
    CHUNK start when the rows are x_1; with no row coordinate, a block is a
    CHUNK of x_1."""
    solving = any(r[width - 1] for r in rows)
    row = width - 3 if solving else width - 2
    run = max(1, counting.BLOCK_CELLS * (1 if solving else 8) // box)
    blocks = {}
    for m in relation_points(rows, width, box):
        chunk, offset = divmod(m[0] - 1, counting.CHUNK)
        if row < 0:
            key = (chunk,)
        elif row == 0:
            key = (chunk, offset // run)
        else:
            key = m[:row] + ((m[row] - 1) // run,)
        blocks.setdefault(key, []).append(m)
    return list(blocks.values())


def check_relation_zeta(prob, poly, samples, box):
    """Relation-path zeta samples (poly None: the sup norm) against two
    oracles over the brute-force points in [1, box]^width: bit for bit, the
    fsum over the enumerator's blocks of np.sum(exp(-s/d log P)), with
    P = h^d evaluated per point in coordinate order and the cells with
    P <= h_cov^d kept in order; within 1e-13, the fsum of h ** -s over
    Python float heights, with the same covered count."""
    w, sign = prob.width, sign_count(prob).value
    s_list, h_cov = [x.s for x in samples], samples[0].covered_height
    d = 1.0 if poly is None else float(poly.degree)
    p_cov = h_cov ** d
    parts = []  # log P of each block's kept cells
    for pts in relation_blocks(prob.rows, w, box):
        coords = [np.array(x, dtype=np.float64) for x in zip(*pts)]
        pval = (np.maximum.reduce(coords) if poly is None
                else height_powers(poly, coords))
        parts.append(np.log(pval[pval <= p_cov]))
    height = ((lambda m: float(max(m))) if poly is None
              else (lambda m: poly.eval_float(m) ** (1 / float(poly.degree))))
    kept = [h for h in map(height, relation_points(prob.rows, w, box)) if h <= h_cov]
    for sample in samples:
        blockwise = math.fsum(float(np.sum(np.exp(-sample.s / d * logs)))
                              for logs in parts)
        assert sample.partial == sign * blockwise
        exact = math.fsum(h ** (-sample.s) for h in kept)
        assert abs(sample.partial - sign * exact) <= 1e-13 * exact
        assert sample.covered_count == sign * sum(len(h) for h in parts) == sign * len(kept)


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

    @pytest.mark.parametrize("lo,nrows,col,ncols", [
        (1, 16, 2, 40), (17, 16, 18, 300), (37, 5, 38, 1), (999, 13, 1000, 61)])
    def test_coprime_block_column_offset(self, lo, nrows, col, ncols):
        from toric_density.counting import _coprime_block
        rows = np.arange(lo, lo + nrows)[:, None]
        cols = np.arange(col, col + ncols)[None, :]
        for g in range(0, 300):
            got = _coprime_block(g, lo, nrows, ncols, col)
            assert np.array_equal(got, np.gcd(np.gcd(rows, cols), g) == 1), (g, lo)

    @settings(max_examples=150, deadline=None)
    @given(top=st.integers(1, 10 ** 5), nrows=st.integers(1, counting.GRID_ROWS + 40),
           offset=st.integers(-300, 300), ncols=st.integers(1, 400), upper=st.booleans(),
           bound=st.integers(0, 2000))
    @example(top=1, nrows=counting.GRID_ROWS, offset=1, ncols=300, upper=True, bound=0)
    @example(top=99_991, nrows=counting.GRID_ROWS + 1, offset=1, ncols=1, upper=True, bound=0)
    @example(top=30_030, nrows=64, offset=-29_999, ncols=400, upper=False, bound=0)
    def test_group_mask_equals_gcd(self, top, nrows, offset, ncols, upper, bound):
        # columns col .. col + ncols - 1 with col = top + offset, or a low
        # col when that is not positive; upper keeps w2 > w1 only. The
        # primes may run past the last column, as the grid's sieve does.
        col = top + offset if top + offset >= 1 else -offset % 50 + 1
        last = col + ncols - 1
        primes = counting._primes_upto(last + bound)
        got = counting._group_mask(top, nrows, col, last, primes, upper)
        rows = np.arange(top, top + nrows)[:, None]
        cols = np.arange(col, last + 1)[None, :]
        want = np.gcd(rows, cols) == 1
        if upper:
            want &= cols > rows
        assert got.shape == (nrows, ncols) and np.array_equal(got, want)

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
        w, sq = prob.width, squares(prob.width)
        s_list = [3.5, 4.2]
        samples = zeta_partial(prob, sq, s_list, Fraction(1), term_budget=side ** w,
                               height_mode="sup" if mode == "sup" else "polynomial")
        box = max(2, int((side ** w) ** (1.0 / w)))
        check_relation_zeta(prob, None if mode == "sup" else sq, samples, box)

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
        check_relation_zeta(prob, None, [sample], box)

    @pytest.mark.parametrize("row", [(21, -21, 1, -1), (1, -1, 21, -21)])
    def test_solved_products_beyond_int64(self, row):
        # the solutions (u, u, v, v) make the head side u^21 pass 2^63 once
        # u >= 9, so the solve runs on Python ints; (1, -1, 21, -21) also
        # takes the 21st root of the solved coordinate
        prob = validate_toric_matrix([row])
        got = count_points(prob, None, 12, "sup").count
        sign = sign_count(prob).value
        assert got == brute_count([row], 4, 12, lambda m: max(m) <= 12, sign) == 364


def height_powers(poly, coords):
    """P = h^d at float coordinates: each term is the coefficient times
    x ** e per coordinate, left to right, and the terms add up in order."""
    total = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in coords)))
    for c, e in poly.monomials:
        term = float(c)
        for x, ek in zip(coords, e):
            if ek:
                term = term * x ** float(ek)
        total += term
    return total


def pair_coords(v1, v2, powers):
    """The coordinates w1^a w2^b, one (a, b) per coordinate, over v1 x v2."""
    w1 = v1.astype(np.float64)[:, None]
    w2 = v2.astype(np.float64)[None, :]
    return [w1 ** a * w2 ** b for a, b in powers]


def grid_setup(powers, poly, term_budget, height_mode):
    """(wmax, h_cov, heights(v1, v2)) of the pair grid, as _zeta_pair_grid
    defines them."""
    wmax = int(math.sqrt(term_budget))
    edge = min((wmax + 1) ** powers[0][0], (wmax + 1) ** powers[1][1])
    kappa, d = ((ellipticity_witness(poly), float(poly.degree))
                if height_mode == "polynomial" else (1.0, 1.0))
    h_cov = kappa ** (1 / d) * edge * (1 - 1e-9)

    def heights(v1, v2):
        coords = pair_coords(v1, v2, powers)
        if height_mode == "polynomial":
            return height_powers(poly, coords) ** (1.0 / d)
        return functools.reduce(np.maximum, coords)
    return wmax, h_cov, heights


def pulled_back_powers(powers, poly, height_mode):
    """(d, P(v1, v2)): P = h^d on the pair grid as the zeta collector pulls
    it back to (w1, w2). A term c x^e, with x_i = w1^a_i w2^b_i, becomes
    c w1^alpha w2^beta with alpha = sum e_i a_i and beta = sum e_i b_i,
    evaluated as (c * w1 ** alpha) * w2 ** beta with a zero exponent's power
    left out; the terms add up in order. The sup norm (d = 1) takes the max
    of the coordinates, each a term with coefficient 1."""
    n = len(powers)
    if height_mode == "polynomial":
        d, terms, combine = float(poly.degree), poly.monomials, np.add
    else:
        d, combine = 1.0, np.maximum
        terms = [(1, tuple(int(i == j) for j in range(n))) for i in range(n)]

    def pval(v1, v2):
        w1 = v1.astype(np.float64)[:, None]
        w2 = v2.astype(np.float64)[None, :]
        total = None
        for c, e in terms:
            alpha = sum(x * a for x, (a, _) in zip(e, powers))
            beta = sum(x * b for x, (_, b) in zip(e, powers))
            term = float(c)
            if alpha:
                term = term * w1 ** float(alpha)
            if beta:
                term = term * w2 ** float(beta)
            total = term if total is None else combine(total, term)
        return np.broadcast_to(total, (len(v1), len(v2)))
    return d, pval


def full_width_zeta(powers, poly, s_list, term_budget, height_mode, symmetric):
    """The pair-grid zeta sums with every cell of every BLOCK_ROWS block
    evaluated at full width and masked: the oracle of _zeta_pair_grid's
    bits. A block's sum is np.sum(exp(-s/d log P)) over its coprime cells
    with P <= h_cov^d, in row order; coprimality comes from np.gcd, not
    from the grid's own mask kernel. On a swap-symmetric height the block
    sums over w2 > w1 count twice and the (1, 1) cell once; the sums are
    the fsum of all of them."""
    wmax, h_cov, _ = grid_setup(powers, poly, term_budget, height_mode)
    d, pval = pulled_back_powers(powers, poly, height_mode)
    p_cov = h_cov ** d
    v2 = np.arange(1, wmax + 1, dtype=np.int64)
    parts = []  # (weight, mask, P) per block
    for top in range(1, wmax + 1, counting.BLOCK_ROWS):
        v1 = np.arange(top, min(top + counting.BLOCK_ROWS - 1, wmax) + 1, dtype=np.int64)
        p = pval(v1, v2)
        mask = (np.gcd(v1[:, None], v2[None, :]) == 1) & (p <= p_cov)
        if not symmetric:
            parts.append((1, mask, p))
            continue
        parts.append((2, mask & (v1[:, None] < v2[None, :]), p))
        if top == 1:
            diag = np.zeros_like(mask)
            diag[0, 0] = mask[0, 0]
            parts.append((1, diag, p))
    sums = [math.fsum(k * float(np.sum(np.exp(-s / d * np.log(p[mask]))))
                      for k, mask, p in parts)
            for s in s_list]
    return sums, h_cov, sum(k * int(np.count_nonzero(mask)) for k, mask, _ in parts)


def full_grid_fsum(powers, poly, s_list, term_budget, height_mode):
    """math.fsum of h^-s over every coprime cell of the whole grid in the
    covered ball, no symmetry used, and the number of those cells."""
    wmax, h_cov, heights = grid_setup(powers, poly, term_budget, height_mode)
    v = np.arange(1, wmax + 1, dtype=np.int64)
    hval = np.broadcast_to(heights(v, v), (wmax, wmax))
    hsel = hval[(np.gcd(v[:, None], v[None, :]) == 1) & (hval <= h_cov)]
    return [math.fsum((hsel ** (-s)).tolist()) for s in s_list], len(hsel)


# (powers, height, mode, whether the height is swap-symmetric); the
# coefficient 2 breaks the swap, and so do the powers of (1, 2) and (2, 3)
GRID_CASES = [pytest.param(((1, 0), (0, 1)), "X1^2+X2^2", mode, True, id=f"P1-{mode}")
              for mode in ("polynomial", "sup")]
GRID_CASES += [pytest.param(counting._two_var_powers(a), text, mode,
                            a == (1, 1) and "2*" not in text, id=f"{a}-{text}-{mode}")
               for a in [(1, 1), (1, 2), (2, 3)]
               for text, mode in [("X1^2+X2^2+X3^2", "polynomial"),
                                  ("X1^2+2*X2^2+X3^2+X1*X3", "polynomial"),
                                  ("X1^2+X2^2+X3^2", "sup"),
                                  ("X1^2+2*X2^2+X3^2", "polynomial")]]


class TestZetaGridBits:
    """_zeta_pair_grid against the full-width grid, bit for bit, and against
    a plain fsum over the whole grid."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("powers,text,mode,symmetric", GRID_CASES)
    def test_equals_full_width(self, powers, text, mode, symmetric, threads):
        p = parse_polynomial(text)
        s_list = [2.5, 1.7, 1.2]
        # side 1337 is a multiple neither of GRID_ROWS nor of BLOCK_ROWS
        for budget in (1337 ** 2, 37 ** 2):
            assert counting._zeta_pair_grid(powers, p, s_list, budget, mode, threads) == \
                full_width_zeta(powers, p, s_list, budget, mode, symmetric)

    @pytest.mark.parametrize("powers,text,mode,symmetric", GRID_CASES)
    def test_half_grid_taken(self, powers, text, mode, symmetric):
        assert counting._swap_symmetric(powers, parse_polynomial(text), mode) is symmetric

    @pytest.mark.parametrize("powers,text,mode,symmetric", GRID_CASES)
    def test_equals_whole_grid_fsum(self, powers, text, mode, symmetric):
        p = parse_polynomial(text)
        s_list = [2.5, 1.7, 1.2]
        for budget in (1337 ** 2, 37 ** 2):
            sums, _, n_cov = counting._zeta_pair_grid(powers, p, s_list, budget, mode, 2)
            exact, n_exact = full_grid_fsum(powers, p, s_list, budget, mode)
            assert n_cov == n_exact
            for got, want in zip(sums, exact):
                assert abs(got - want) <= 1e-13 * want


class TestZetaCollectorBuffers:
    """Each collector reduces its blocks in buffers of its own that it
    reuses from block to block: reducing the blocks of several collectors
    in turn gives each block the result it had alone."""

    RUNS = {
        "P1-squares": lambda: counting._zeta_pair_grid(
            ((1, 0), (0, 1)), parse_polynomial("X1^2+X2^2"), [2.5, 2.2], 300 ** 2,
            "polynomial", 1),
        "(1,2)-mixed": lambda: counting._zeta_pair_grid(
            counting._two_var_powers((1, 2)), parse_polynomial("X1^2+2*X2^2+X3^2+X1*X3"),
            [1.5, 1.2], 300 ** 2, "polynomial", 1),
        # the torus of P^2: one block of 40 x 40 cells per x_1
        "relations": lambda: counting._zeta_relations(
            validate_toric_matrix([], width=3), SQUARES, [3.5, 3.2], 40 ** 3,
            "polynomial", 1),
    }

    def test_interleaved_equals_alone(self, monkeypatch):
        block = counting._ZetaCollector.block
        calls = {}  # run -> [(collector, terms, keep, result alone)]
        for name, run in self.RUNS.items():
            log = calls[name] = []

            def recording(zc, terms, keep, log=log):
                result = block(zc, terms, keep)
                log.append((zc, terms, keep.copy(), result))
                return result
            monkeypatch.setattr(counting._ZetaCollector, "block", recording)
            run()
        monkeypatch.undo()
        assert all(len(log) > 3 for log in calls.values())
        # fresh collectors, so that their buffers grow while they interleave
        fresh = {name: counting._ZetaCollector(log[0][0].poly, log[0][0].s_list,
                                               log[0][0].h_cov)
                 for name, log in calls.items()}
        for step in itertools.zip_longest(*calls.values()):
            for name, call in zip(calls, step):
                if call is not None:
                    _, terms, keep, alone = call
                    assert block(fresh[name], terms, keep) == alone, name

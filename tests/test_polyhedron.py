import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_density.generators import generators_with_check
from toric_density.model import (hypersurface_weight, toric_weight,
                                 validate_toric_matrix)
from toric_density.polyhedron import (build_polyhedron, diagonal_face, diagonal_hit,
                                      face_points, iota_lp, lemma1_check,
                                      polar_vectors, support_face)
from toric_density.vectors import dot


class TestSupportFace:
    def test_segment(self):
        e = build_polyhedron([(1, 0), (0, 1)])
        m, face = support_face(e, (1, 1))
        assert m == 1
        assert set(face.generators) == {(Fraction(1), Fraction(0)),
                                        (Fraction(0), Fraction(1))}

    def test_vertex_face(self):
        e = build_polyhedron([(2, 0), (0, 2)])
        m, face = support_face(e, (1, 3))
        assert m == 2
        assert face.generators == ((Fraction(2), Fraction(0)),)

    def test_diag_segment_3d(self):
        e = build_polyhedron([(2, 0, 1), (0, 2, 1)])
        m, face = support_face(e, (1, 1, 1))
        assert m == 3 and len(face.generators) == 2


class TestDiagonalHit:
    @settings(max_examples=200, deadline=None)
    @given(facets=st.lists(st.tuples(
        st.tuples(*[st.integers(0, 4)] * 3),
        st.integers(-5, 9) | st.fractions(-5, 9, max_denominator=6))))
    def test_against_the_fraction_maximum(self, facets):
        # the cross-multiplied maximum, against one Fraction per facet
        hits = [Fraction(m) / sum(w) for w, m in facets if sum(w) > 0]
        if hits:
            assert diagonal_hit(facets) == max(hits)
        else:
            with pytest.raises(ValueError):
                diagonal_hit(facets)


class TestDiagonalFace:
    def test_simplex(self):
        e = build_polyhedron([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        df = diagonal_face(e)
        assert df.t0 == Fraction(1, 3)
        assert df.c == (1, 1, 1)
        assert df.iota == 3 and df.rho == 1 and df.compact

    def test_even_axes(self):
        e = build_polyhedron([(2, 0), (0, 2)])
        df = diagonal_face(e)
        assert df.t0 == 1 and df.c == (Fraction(1, 2), Fraction(1, 2))
        assert df.iota == 1 and df.rho == 1

    def test_a111_face_count(self):
        spec = hypersurface_weight((1, 1, 1))
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        assert df.iota == 1
        assert df.face_point_count == 9 and df.face.dim == 2
        assert df.rho == 7
        assert len(face_points(spec, df.c)) == 9

    def test_toric_112(self):
        spec = toric_weight(validate_toric_matrix([(1, 1, -2)]))
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        assert df.iota == 1 and df.rho == 1 and df.compact
        assert all(x > 0 for x in df.c)

    def test_iota_t0_identity(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 4)
            pts = [tuple(rng.randint(0, 9) for _ in range(n))
                   for _ in range(rng.randint(1, 6))]
            pts = [p for p in pts if any(p)]
            if not pts:
                continue
            e = build_polyhedron(pts)
            df = diagonal_face(e)
            assert df.iota * df.t0 == 1
            assert df.rho >= 1
            if df.compact:
                assert all(x > 0 for x in df.c)

    def test_dimension_cap(self):
        import pytest as _pytest
        from toric_density.hull import DimensionOverflow
        pts = [tuple(1 if j == i else 0 for j in range(12)) for i in range(12)]
        with _pytest.raises(DimensionOverflow):
            build_polyhedron(pts)


class TestIotaLP:
    def test_simplex(self):
        e = build_polyhedron([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        iota, c = iota_lp(e)
        assert iota == 3 and c == (1, 1, 1)

    def test_kernel_points(self):
        e = build_polyhedron([(2, 0, 1), (0, 2, 1)])
        iota, c = iota_lp(e)
        assert iota == 1
        assert dot(c, (2, 0, 1)) >= 1 and dot(c, (0, 2, 1)) >= 1

    def test_even_axes(self):
        e = build_polyhedron([(2, 0), (0, 2)])
        iota, c = iota_lp(e)
        assert iota == 1 and c == (Fraction(1, 2), Fraction(1, 2))

    def test_dual_feasibility_on_generators(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(2, 4)
            pts = [tuple(rng.randint(0, 6) for _ in range(n))
                   for _ in range(rng.randint(1, 6))]
            pts = [p for p in pts if any(p)]
            if not pts:
                continue
            e = build_polyhedron(pts)
            _, c = iota_lp(e)
            for p in pts:
                assert dot(c, p) >= 1


class TestLemma1:
    def test_simplex_diag_face(self):
        e = build_polyhedron([(1, 0), (0, 1)])
        _, face = support_face(e, (1, 1))
        assert lemma1_check(e, face, (1, 1))

    def test_vertex_misses_diagonal(self):
        e = build_polyhedron([(2, 0), (0, 2)])
        m, face = support_face(e, (1, 3))  # vertex (2,0), normalized (1/2, 3/2)
        assert lemma1_check(e, face, (Fraction(1, 2), Fraction(3, 2)))

    def test_randomized(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(2, 4)
            pts = [tuple(rng.randint(0, 9) for _ in range(n))
                   for _ in range(rng.randint(1, 6))]
            pts = [p for p in pts if any(p)]
            if not pts:
                continue
            e = build_polyhedron(pts)
            df = diagonal_face(e)
            assert lemma1_check(e, df.face, df.c)
            for _ in range(3):
                a = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                          for _ in range(n))
                m, face = support_face(e, a)
                assert m > 0
                c = tuple(x / m for x in a)
                assert lemma1_check(e, face, c)


class TestPolarVectors:
    def test_multiple_choices_exist(self):
        spec = toric_weight(validate_toric_matrix([(1, 1, -2)]))
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        choices = polar_vectors(e, df.face)
        assert len(choices) >= 2
        for c in choices:
            assert sum(c) == df.iota
            m, face = support_face(e, c)
            assert m == 1 and set(face.generators) == set(df.face.generators)

    def test_unique_polar(self):
        e = build_polyhedron([(2, 0), (0, 2)])
        df = diagonal_face(e)
        choices = polar_vectors(e, df.face)
        assert choices[0] == (Fraction(1, 2), Fraction(1, 2))

    def test_face_lattice_consistency(self):
        spec = hypersurface_weight((1, 1, 1))
        gens = generators_with_check(spec)
        e = build_polyhedron(gens.points)
        df = diagonal_face(e, spec)
        m, face = support_face(e, df.c)
        assert m == 1
        assert set(face.generators) == set(df.face.generators)

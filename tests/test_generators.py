import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_density.generators import (CapTooSmall, generators_with_check,
                                      membership, minimal_generators,
                                      stabilization_check)
from toric_density.model import (free_weight, hypersurface_weight, toric_weight,
                                 validate_toric_matrix)


def brute_minimal(spec, cap):
    """Oracle: enumerate everything, filter minimal by pairwise comparison."""
    pts = [nu for nu in itertools.product(range(cap + 1), repeat=spec.arity)
           if 0 < sum(nu) <= cap and spec.g(nu)]
    out = []
    for p in pts:
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts):
            out.append(p)
    return sorted(out)


class TestMinimalGenerators:
    def test_free_weight_units(self):
        gens = minimal_generators(free_weight(3), cap=3)
        assert sorted(gens.points) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_hypersurface_11(self):
        gens = minimal_generators(hypersurface_weight((1, 1)), cap=6)
        assert sorted(gens.points) == [(0, 2), (2, 0)]
        assert sorted(gens.points) == brute_minimal(hypersurface_weight((1, 1)), 6)

    def test_toric_112(self):
        spec = toric_weight(validate_toric_matrix([(1, 1, -2)]))
        gens = minimal_generators(spec, cap=8)
        assert sorted(gens.points) == [(0, 2, 1), (2, 0, 1)]

    def test_a35_generators(self):
        # 3r1 + 5r2 = 0 mod 8 with a vanishing coordinate: axis points only
        spec = hypersurface_weight((3, 5))
        gens = minimal_generators(spec, cap=8)
        assert sorted(gens.points) == [(0, 8), (8, 0)]
        assert sorted(gens.points) == brute_minimal(spec, 8)

    def test_matches_oracle_random(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 3)
            a = tuple(rng.randint(1, 4) for _ in range(n))
            spec = hypersurface_weight(a)
            cap = 2 * sum(a)
            assert sorted(minimal_generators(spec, cap).points) == \
                brute_minimal(spec, cap)

    def test_cap_too_small(self):
        with pytest.raises(CapTooSmall):
            minimal_generators(hypersurface_weight((3, 5)), cap=4)


class TestPrunedScan:
    """The scan skips dead subtrees; the oracle looks at every point."""

    @pytest.mark.parametrize("row", [(1, 1, -1, -1), (1, 1, -2, 0)])
    @pytest.mark.parametrize("cap", [3, 6, 10])
    def test_arity_four_matrices(self, row, cap):
        spec = toric_weight(validate_toric_matrix([row]))
        assert list(minimal_generators(spec, cap).points) == brute_minimal(spec, cap)

    @settings(max_examples=25, deadline=None)
    @given(a=st.lists(st.integers(1, 4), min_size=3, max_size=3),
           cap=st.integers(1, 14))
    def test_three_variable_hypersurfaces(self, a, cap):
        spec = hypersurface_weight(a)
        want = brute_minimal(spec, cap)
        try:
            got = list(minimal_generators(spec, cap).points)
        except CapTooSmall:
            got = []
        assert got == want


class TestInvariants:
    def test_antichain(self):
        for spec in (hypersurface_weight((2, 3)), free_weight(3),
                     toric_weight(validate_toric_matrix([(1, 2, -3)]))):
            pts = minimal_generators(spec, cap=12).points
            for p, q in itertools.combinations(pts, 2):
                assert not all(a <= b for a, b in zip(p, q))
                assert not all(a >= b for a, b in zip(p, q))

    def test_monotone_closure(self):
        spec = hypersurface_weight((1, 2))
        cap = 12
        gens = minimal_generators(spec, cap).points
        for nu in itertools.product(range(cap + 1), repeat=2):
            if 0 < sum(nu) <= cap and spec.g(nu):
                assert any(all(g <= x for g, x in zip(gen, nu)) for gen in gens)

    def test_idempotence(self):
        spec = hypersurface_weight((3, 5))
        small = set(minimal_generators(spec, 8).points)
        large = set(minimal_generators(spec, 16).points)
        assert small <= large


class TestStabilization:
    def test_free_weight_stable(self):
        spec = free_weight(2)
        gens = stabilization_check(spec, minimal_generators(spec, 2))
        assert gens.stabilized
        assert sorted(gens.points) == [(0, 1), (1, 0)]

    def test_hypersurface_11_stable(self):
        spec = hypersurface_weight((1, 1))
        gens = stabilization_check(spec, minimal_generators(spec, 4))
        assert gens.stabilized

    def test_a35_vertices_compared(self):
        spec = hypersurface_weight((3, 5))
        gens = stabilization_check(spec, minimal_generators(spec, 8))
        assert gens.stabilized  # hull vertices agree between caps 8 and 16
        assert gens.cap == 16

    def test_pipeline(self):
        gens = generators_with_check(hypersurface_weight((1, 1, 1)))
        assert gens.stabilized
        assert len(gens.points) == 9  # permutations of (3,0,0) and (2,1,0)


class TestMembership:
    def test_values(self):
        spec = hypersurface_weight((1, 1, 1))
        assert membership(spec, (1, 1, 1)) == 0
        assert membership(spec, (2, 1, 0)) == 1

    def test_arity_mismatch(self):
        spec = toric_weight(validate_toric_matrix([], width=3))
        with pytest.raises(ValueError):
            membership(spec, (0, 0, 0, 0))

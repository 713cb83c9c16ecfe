import itertools
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toric_density.generators import (CapTooSmall, generators_with_check,
                                      minimal_generators, proven_cap,
                                      stabilization_check)
from toric_density.model import (free_weight, hypersurface_weight, toric_weight,
                                 validate_toric_matrix)
from toric_density.vectors import rank


def brute_minimal(spec, cap):
    """Oracle: enumerate everything, filter minimal by pairwise comparison."""
    pts = [nu for nu in itertools.product(range(cap + 1), repeat=spec.arity)
           if 0 < sum(nu) <= cap and spec.g(nu)]
    out = []
    for p in pts:
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts):
            out.append(p)
    return sorted(out)


@st.composite
def relation_matrices(draw):
    """1-2 independent zero-sum rows of width <= 4 with entries in [-3, 3]."""
    width = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width - 1,
                                  max_size=width - 1), min_size=1, max_size=2))
    rows = [tuple(r) + (-sum(r),) for r in rows]
    assume(all(abs(r[-1]) <= 3 for r in rows) and rank(rows) == len(rows))
    return rows


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
    """The support walk solves the last coordinate and keeps the points that
    dominate no smaller one; the oracle looks at every point."""

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

    @pytest.mark.parametrize("cap", [4, 8])
    def test_width_five_two_rows(self, cap):
        spec = toric_weight(validate_toric_matrix([(1, 1, -2, 0, 0), (0, 1, 1, -1, -1)]))
        assert list(minimal_generators(spec, cap).points) == brute_minimal(spec, cap)

    @settings(max_examples=25, deadline=None)
    @given(a=st.lists(st.integers(1, 4), min_size=2, max_size=3),
           rows=st.none() | relation_matrices(), cap=st.integers(1, 10))
    def test_custom_weights_walk_the_whole_box(self, a, rows, cap):
        """A custom weight has no last_coordinates, so its walk tries every
        value of the last coordinate up to the cap."""
        spec = hypersurface_weight(a) if rows is None else \
            toric_weight(validate_toric_matrix(rows))
        custom = replace(spec, kind="custom", last_coordinates=None)
        want = brute_minimal(spec, cap)
        try:
            got = list(minimal_generators(custom, cap).points)
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


def face_box_minimal(spec, cap):
    """Oracle: the minimal support points with |v| <= cap, over whole boxes.

    A supported point has a zero coordinate i, and every point below it
    shares that zero, so each coordinate face is searched on its own: the
    support indicator on the face's box [0, cap]^(n-1), read from the
    defining congruence or relations, then the points that dominate a
    support point, by running ORs along every axis. A support point is
    minimal when stepping down any one positive coordinate leaves that
    dominated set. g confirms each point found.
    """
    n = spec.arity
    found = set()
    for i in range(n):
        axes = [j for j in range(n) if j != i]
        grid = np.indices((cap + 1,) * (n - 1), dtype=np.int64)
        if spec.kind == "hypersurface":
            a, q = spec.payload, sum(spec.payload)
            supported = sum(a[j] * x for j, x in zip(axes, grid)) % q == 0
        else:
            supported = np.ones(grid.shape[1:], dtype=bool)
            for row in spec.payload:
                supported &= sum(row[j] * x for j, x in zip(axes, grid)) == 0
        supported &= grid.sum(axis=0) > 0
        above = supported.copy()
        for k in range(n - 1):
            np.logical_or.accumulate(above, axis=k, out=above)
        minimal = supported & (grid.sum(axis=0) <= cap)
        for k in range(n - 1):
            below = np.zeros_like(above)
            sl = [slice(None)] * (n - 1)
            sl[k] = slice(1, None)
            shifted = [slice(None)] * (n - 1)
            shifted[k] = slice(None, -1)
            below[tuple(sl)] = above[tuple(shifted)]
            minimal &= ~below
        for idx in zip(*np.nonzero(minimal)):
            v = [0] * n
            for j, x in zip(axes, idx):
                v[j] = int(x)
            found.add(tuple(v))
    assert all(spec.g(v) for v in found)
    return sorted(found)


def old_doubled_cap(spec):
    """The cap of the heuristic the proven cap replaced: twice its default."""
    if spec.kind == "hypersurface":
        return 8 * (spec.arity + 1) * sum(spec.payload)
    norm = max((max(abs(x) for x in row) for row in spec.payload), default=1)
    return 8 * spec.arity * max(1, norm)


def check_proven_cap(spec):
    cap = proven_cap(spec)
    want = face_box_minimal(spec, old_doubled_cap(spec))
    if cap == 0:
        assert want == []
        with pytest.raises(ValueError):
            generators_with_check(spec)
        return
    gens = generators_with_check(spec)
    assert list(gens.points) == want
    assert gens.stabilized and gens.cap == cap
    assert max(sum(v) for v in gens.points) <= cap
    rerun = stabilization_check(spec, minimal_generators(spec, cap))
    assert rerun.points == gens.points and rerun.stabilized


class TestProvenCap:
    """One enumeration at the proven cap is complete: the minimal points of
    the support up to the old doubled cap are the same, and the doubled
    rerun finds the same points and the same compact-face members."""

    @pytest.mark.parametrize("spec,cap", [
        (hypersurface_weight((1, 1, 1)), 6),
        (toric_weight(validate_toric_matrix([(1, 1, -2)])), 3),
        (toric_weight(validate_toric_matrix([(1, 1, -1, -1)])), 4),
        (toric_weight(validate_toric_matrix([], width=3)), 2),
        (free_weight(3), 1),
    ])
    def test_values(self, spec, cap):
        assert proven_cap(spec) == cap
        assert generators_with_check(spec).cap == cap

    @settings(max_examples=30, deadline=None)
    @given(a=st.lists(st.integers(1, 5), min_size=2, max_size=3))
    def test_hypersurfaces(self, a):
        check_proven_cap(hypersurface_weight(a))

    @settings(max_examples=30, deadline=None)
    @given(rows=relation_matrices())
    def test_matrices(self, rows):
        check_proven_cap(toric_weight(validate_toric_matrix(rows)))

    def test_empty_support(self):
        # x1 = x2 has no supported point but 0
        spec = toric_weight(validate_toric_matrix([(1, -1)]))
        assert proven_cap(spec) == 0
        with pytest.raises(ValueError, match="no nonzero point"):
            generators_with_check(spec)

    def test_custom_weights_keep_the_heuristic(self):
        spec = hypersurface_weight((1, 1))
        custom = type(spec)(arity=2, g=spec.g, kind="custom", default_cap=4)
        assert proven_cap(custom) is None
        gens = generators_with_check(custom)
        assert gens.cap == 8 and gens.stabilized
        with pytest.raises(ValueError, match="proven cap"):
            generators_with_check(spec, 4)


class TestMembership:
    def test_values(self):
        spec = hypersurface_weight((1, 1, 1))
        assert spec.weight((1, 1, 1)) == 0
        assert spec.weight((2, 1, 0)) == 1

    def test_arity_mismatch(self):
        spec = toric_weight(validate_toric_matrix([], width=3))
        with pytest.raises(ValueError):
            spec.weight((0, 0, 0, 0))

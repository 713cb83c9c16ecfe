"""The support walk and its readers against a brute force over the box.

Every reader of the weight's support (the Euler profile, the diagonal face
points and count, the epsilon gap) is compared with itertools.product over
a box that contains what it reads, in Fraction arithmetic.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_density.euler import NonPositivePolar, WeightProfile, epsilon_gap
from toric_density.generators import LatticePointSet, minimal_generators
from toric_density.model import (UniformMultiplicativeSpec, hypersurface_weight,
                                 toric_weight, validate_toric_matrix)
from toric_density.polyhedron import build_polyhedron, diagonal_face, face_points


def custom_weight():
    """Weights 0..3: zero when |v| = 1 mod 3, else 1 + v_1 mod 3. No problem
    induces it; the walk's readers take its multiplicities as they are."""
    def g(nu):
        return 0 if sum(nu) % 3 == 1 else 1 + nu[0] % 3
    return UniformMultiplicativeSpec(arity=3, g=g, kind="test")


SPECS = {
    "toric 1,1,-2": lambda: toric_weight(validate_toric_matrix([(1, 1, -2)])),
    "toric 1,2,-3": lambda: toric_weight(validate_toric_matrix([(1, 2, -3)])),
    "P^2": lambda: toric_weight(validate_toric_matrix([], width=3)),
    "hypersurface 1,1,1": lambda: hypersurface_weight((1, 1, 1)),
    "hypersurface 1,2": lambda: hypersurface_weight((1, 2)),
    "custom": custom_weight,
}


def pairing(c, v):
    return sum((ci * x for ci, x in zip(c, v)), Fraction(0))


def brute_box(spec, c, below):
    """(v, g(v), <c,v>) for supported v with <c,v> <= below, by product."""
    sides = [range(int(below / ci) + 1) for ci in c]
    out = []
    for v in itertools.product(*sides):
        w = spec.g(v)
        if w and pairing(c, v) <= below:
            out.append((v, w, pairing(c, v)))
    return out


def brute_entries(spec, c, max_level):
    entries: dict = {}
    for v in itertools.product(range(max_level + 1), repeat=spec.arity):
        w = spec.g(v)
        if w and sum(v) <= max_level:
            key = (sum(v), pairing(c, v))
            entries[key] = entries.get(key, 0) + w
    return sorted(entries.items())


def brute_gap(spec, c):
    excesses = [e - 1 for _, _, e in brute_box(spec, c, Fraction(2)) if 1 < e < 2]
    return min(excesses + [Fraction(1)])


def profile_entries(profile):
    return [((lvl, Fraction(e, profile.scale)), w) for (lvl, e), w in profile.entries]


def check_readers(spec, c, max_level):
    c = tuple(Fraction(x) for x in c)
    profile = WeightProfile(spec, c, max_level)
    assert profile_entries(profile) == brute_entries(spec, c, max_level)
    on_face = sorted(v for v, _, e in brute_box(spec, c, Fraction(1)) if e == 1)
    assert face_points(spec, c) == on_face
    holder = LatticePointSet(points=(), cap=0, stabilized=True, spec=spec)
    assert epsilon_gap(holder, c) == brute_gap(spec, c)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_readers_at_the_diagonal_face(name):
    spec = SPECS[name]()
    # within |v| <= 12, past every proven cap here
    gens = minimal_generators(spec, 12)
    df = diagonal_face(build_polyhedron(gens.points), spec)
    check_readers(spec, df.c, 8)
    assert df.face_point_count == sum(w for _, w, e in brute_box(spec, df.c, Fraction(1))
                                      if e == 1)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_readers_off_the_diagonal_face(name):
    spec = SPECS[name]()
    c = [Fraction(k + 2, 5) for k in range(spec.arity)]
    check_readers(spec, c, 6)


def test_walk_takes_both_bounds():
    spec = custom_weight()
    c = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    got = sorted(spec.support(c, max_level=5, max_expo=9))
    want = sorted((v, w, sum(v), int(6 * e)) for v, w, e in brute_box(spec, c, Fraction(3, 2))
                  if sum(v) <= 5)
    assert got == want


def test_walk_needs_a_bound_and_a_positive_polar():
    spec = hypersurface_weight((1, 1))
    with pytest.raises(ValueError):
        spec.support((1, 1))
    with pytest.raises(NonPositivePolar):
        spec.support((1, 0), max_level=3)
    with pytest.raises(NonPositivePolar):
        face_points(spec, (Fraction(1, 2), 0))


@settings(max_examples=40, deadline=None)
@given(a=st.lists(st.integers(1, 4), min_size=2, max_size=3),
       fracs=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                      min_size=3, max_size=3),
       max_level=st.integers(0, 8))
def test_walk_matches_brute_force(a, fracs, max_level):
    spec = hypersurface_weight(a)
    c = [Fraction(num, den) for num, den in fracs[:len(a)]]
    check_readers(spec, c, max_level)


def check_same_walk(spec, c, **bounds):
    """The walk equals the unsolved one, which tries every last coordinate."""
    unsolved = replace(spec, last_coordinates=None)
    assert list(spec.support(c, **bounds)) == list(unsolved.support(c, **bounds))


WALK_SPECS = {
    "matrix 1,1,-2": ([(1, 1, -2)], None),
    "matrix 2,-3,1": ([(2, -3, 1)], None),
    "matrix 1,1,-1,-1": ([(1, 1, -1, -1)], None),
    "two rows, last entries 0 and -2": ([(1, -1, 0), (1, 1, -2)], None),
    "two rows, both last entries 0": ([(1, -1, 0, 0), (1, 1, -2, 0)], None),
    "two rows, one last entry 0": ([(1, 1, -2, 0), (0, 1, 1, -2)], None),
    "two rows, first last entry -2": ([(1, 0, 1, -2), (1, -1, 0, 0)], None),
    "three rows": ([(1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (1, 1, 1, -3, 0)], None),
    "empty matrix, width 3": ([], 3),
    "empty matrix, width 4": ([], 4),
}


@pytest.mark.parametrize("name", sorted(WALK_SPECS))
@pytest.mark.parametrize("bounds", [{"max_level": 0}, {"max_level": 7},
                                    {"max_expo": 19}, {"max_level": 6, "max_expo": 11}])
def test_solved_last_coordinate_matrices(name, bounds):
    rows, width = WALK_SPECS[name]
    spec = toric_weight(validate_toric_matrix(rows, width))
    c = [Fraction(k + 2, 5) for k in range(spec.arity)]
    check_same_walk(spec, c, **bounds)
    check_same_walk(spec, [Fraction(1, 2)] * spec.arity, **bounds)


@settings(max_examples=40, deadline=None)
@given(a=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       fracs=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                      min_size=4, max_size=4),
       max_level=st.integers(0, 9), max_expo=st.integers(0, 40))
def test_solved_last_coordinate_hypersurfaces(a, fracs, max_level, max_expo):
    spec = hypersurface_weight(a)
    c = [Fraction(num, den) for num, den in fracs[:len(a)]]
    check_same_walk(spec, c, max_level=max_level)
    check_same_walk(spec, c, max_expo=max_expo)
    check_same_walk(spec, c, max_level=max_level, max_expo=max_expo)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                     min_size=1, max_size=2),
       max_level=st.integers(0, 9))
def test_solved_last_coordinate_random_matrices(rows, max_level):
    rows = [tuple(r) + (-sum(r),) for r in rows]
    try:
        spec = toric_weight(validate_toric_matrix(rows))
    except ValueError:
        return
    check_same_walk(spec, [Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(1)],
                    max_level=max_level)

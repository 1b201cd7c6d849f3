from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch.chars import (
    Character,
    SubgroupSpec,
    ambient_independent,
    box_points,
    subset_weight,
)
from cuspwatch.errors import DependentInput, PreconditionError

F = Fraction


def test_character_equality_mod_constants():
    # on trace-zero directions, shifting all coefficients changes nothing
    a = Character((2, 0, -1))
    b = Character((3, 1, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a.eval((1, 0, -1)) == b.eval((1, 0, -1)) == 3


def test_character_arithmetic():
    a = Character((1, -1, 0))
    b = Character((0, 1, -1))
    assert (a + b).eval((2, 0, -2)) == 4
    assert (-a).eval((1, 0, -1)) == -1
    assert a.scaled(3).eval((1, -1, 0)) == 6


def test_character_coefficients_are_integers():
    assert Character((F(3), 2, "-1")).coeffs == (3, 2, -1)
    assert type(Character((F(4), 0)).coeffs[0]) is int
    with pytest.raises(PreconditionError):
        Character((F(1, 2), 0))
    with pytest.raises(PreconditionError):
        Character(("3/2", 1))


def test_subset_weight():
    w = subset_weight((1, 3), 4)
    assert w.eval((1, 0, 0, -1)) == 1
    assert w.eval((1, 1, -1, -1)) == 0


def test_ambient_independent():
    assert ambient_independent([Character((1, -1, 0)), Character((0, 1, -1))])
    # e1 - e2 and its double are dependent
    assert not ambient_independent([Character((1, -1, 0)), Character((2, -2, 0))])
    # constants-only characters are trivial and dependent with anything
    assert not ambient_independent([Character((1, 1, 1)), Character((1, -1, 0))])


def test_subgroup_spec_validation():
    with pytest.raises(PreconditionError):
        SubgroupSpec(3, ((1, 0, 0),))      # not trace zero
    with pytest.raises(DependentInput):
        SubgroupSpec(3, ((1, -1, 0), (2, -2, 0)))


def test_full_torus_and_restrict():
    A = SubgroupSpec.full_torus(3)
    assert A.dim == 2
    ch = Character((1, -1, 0))
    assert A.restrict(ch) == (2, -1)
    assert A.direction((1, 0)) == (1, -1, 0)


def test_one_parameter_restrict():
    alpha = (F(-3), F(-1), F(1), F(3))
    A = SubgroupSpec(4, (alpha,))
    assert A.dim == 1
    # weight of e1^e2 is L1 + L2 -> alpha1 + alpha2 = -4
    ch = subset_weight((1, 2), 4)
    assert A.restrict(ch) == (-4,)


def test_grid_box():
    pts = list(box_points(2, 1, F(1, 2)))
    assert len(pts) == 25
    assert (F(-1), F(-1)) in pts and (F(1), F(1)) in pts
    for radius, step in ((1, 0), (-1, 1)):
        with pytest.raises(PreconditionError, match="grid axis needs step > 0 and hi >= lo"):
            box_points(2, radius, step)


ints = st.integers(min_value=-5, max_value=5)


@settings(max_examples=50)
@given(st.lists(ints, min_size=3, max_size=3), st.integers(min_value=-4, max_value=4))
def test_shift_invariance(coeffs, shift):
    a = Character(tuple(coeffs))
    b = Character(tuple(c + shift for c in coeffs))
    assert a == b
    d = (1, 2, -3)
    assert a.eval(d) == b.eval(d)

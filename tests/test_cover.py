from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspwatch.bordered import BorderedSet, Gauge
from cuspwatch.chars import Character, SubgroupSpec
from cuspwatch.cover import (
    build_cover,
    enumerate_local,
    good_restrictions,
    verify_subcover,
)
from cuspwatch.errors import PreconditionError
from cuspwatch.loglin import LogLin
from cuspwatch.lp import lp_feasible
from cuspwatch.matrix import Mat
from cuspwatch.radicals import enumerate_witnesses, radical_from_subspace

F = Fraction

A2 = SubgroupSpec.full_torus(2)
I2 = Mat.identity(2)
UP = radical_from_subspace([[1, 0]], 2)
LO = radical_from_subspace([[0, 1]], 2)
MIX = radical_from_subspace([[1, 1]], 2)


def test_build_cover_sl2_shapes():
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    up, lo, mix = build_cover(g, A2, [UP, LO, MIX])
    # default gauge slope: half the separation constant of {(-2,), (2,)}
    assert up.gauge == Gauge.linear(F(1, 2))
    assert [p.canonical() for p in up.psi] == [(-1, 1)]
    assert up.norms == (F(4),) and up.restr == ((F(-2),),)
    assert (up.restricted.constants[0] - LogLin.log(4)).is_zero()
    assert lo.norms == (F(1, 4),) and lo.restr == ((F(2),),)
    # a slanted line meets three weight lines; the constant one becomes
    # a ball condition instead of a bordered constraint
    assert mix.norms == (F(1, 4), F(1), F(4))
    assert [(p.canonical(), nu) for p, nu in mix.zero_psi] == [((0, 0), F(1))]
    assert mix.restricted is not None and len(mix.restricted.phi) == 2


def test_contains_matches_is_active():
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    for e in build_cover(g, A2, [UP, LO, MIX]):
        for k in range(-8, 9):
            s = (F(k, 2),)
            assert e.contains(s) == e.is_active(s)
            assert e.contains(s, closed=True) == e.is_active(s, strict=False)


def test_wrong_length_points_are_rejected():
    for e in build_cover(I2, A2, [UP, MIX]):
        for s in ((), (F(1), F(0))):
            with pytest.raises(PreconditionError, match="coordinate length"):
                e.is_active(s)
            with pytest.raises(PreconditionError, match="coordinate length"):
                e.contains(s)


def test_upper_line_region_boundary():
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    e = build_cover(g, A2, [UP])[0]
    assert e.contains((F(-2),)) and e.contains((F(-1),))
    assert not e.contains((F(0),)) and not e.contains((F(1),))


def test_zero_gauge_element():
    e = build_cover(I2, A2, [MIX], C0=0)[0].zero_gauge()
    assert e.gauge == Gauge.zero()
    # at the origin every margin is exactly zero: closed-only membership
    assert not e.contains((F(0),))
    assert e.contains((F(0),), closed=True)
    assert not e.contains((F(1),), closed=True)


def test_build_cover_rejects_empty():
    with pytest.raises(PreconditionError):
        build_cover(I2, A2, [])


def test_enumerate_local_frozen():
    loc = enumerate_local(I2, A2, 1, 0, 3)
    assert [w.rows for w in loc] == [
        ((1, 0),), ((-1, 1),), ((1, 1),), ((0, 1),),
    ]
    # at the origin the same four closed regions are the ones present
    assert [w.rows for w in enumerate_local(I2, A2, 0, 0, 3)] == [
        ((1, 0),), ((-1, 1),), ((1, 1),), ((0, 1),),
    ]
    # relaxing the cut admits every line of height <= 3
    assert len(enumerate_local(I2, A2, 1, -2, 3)) == 16
    with pytest.raises(PreconditionError):
        enumerate_local(I2, A2, -1, 0, 3)


def test_enumerate_local_rejects_negative_height():
    with pytest.raises(PreconditionError, match="height must be nonnegative"):
        enumerate_local(I2, A2, 1, 0, -1)


def test_enumerate_local_counts_stabilize():
    # once the box bound passes the witness heights, growing H adds nothing
    base = [w.rows for w in enumerate_local(I2, A2, 1, 0, 3)]
    for H in (4, 5):
        assert [w.rows for w in enumerate_local(I2, A2, 1, 0, H)] == base


def test_enumerate_local_keeps_the_closed_boundary():
    # the coordinate lines' regions are s <= -1 and s >= 1, which meet the
    # closed unit box only at s = -1 and s = 1; a hair more cut misses it
    assert [w.rows for w in enumerate_local(I2, A2, 1, 2, 1)] == [((1, 0),), ((0, 1),)]
    assert enumerate_local(I2, A2, 1, F(21, 10), 1) == []


def _reference_local(g, A, R, C0, H):
    """enumerate_local by closed feasibility of the restricted rows and the
    box rows |s_k| <= R, one lp_feasible per witness."""
    R, C0, l = F(R), F(C0), A.dim
    box = [[F(sgn if i == k else 0) for i in range(l)] for k in range(l) for sgn in (1, -1)]
    out = []
    for w in enumerate_witnesses(g.nrows, H):
        rows, rhs, ok = [], [], True
        for ch, nu in w.components_at(g):
            coeffs, cut = A.restrict(-ch), LogLin(C0, ((nu, 1),))
            if any(coeffs):
                rows.append([-c for c in coeffs])
                rhs.append(-cut)
            elif cut.sign() > 0:
                ok = False
        if ok and lp_feasible(A_ub=rows + box, b_ub=rhs + [R] * len(box))[0]:
            out.append(w)
    return out


@st.composite
def local_problems(draw):
    """A random SL2 or SL3 g (a word of rational shears), a subgroup, a box
    radius, a cut C0 and a height."""
    n = draw(st.sampled_from([2, 3]))
    g = Mat.identity(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        E = [[F(int(a == b)) for b in range(n)] for a in range(n)]
        E[i][j] = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        g = g * Mat(E)
    A = draw(st.sampled_from(
        [A2] if n == 2 else [SubgroupSpec.full_torus(3), SubgroupSpec(3, ((1, 0, -1),))]))
    R = F(draw(st.integers(0, 6)), 2)
    C0 = F(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
    return g, A, R, C0, draw(st.integers(1, 3 if n == 2 else 1))


@settings(max_examples=30, deadline=None)
@given(local_problems())
def test_enumerate_local_matches_the_box_lp(problem):
    assert enumerate_local(*problem) == _reference_local(*problem)


def test_good_restrictions():
    plane = SubgroupSpec(4, ((1, 0, 0, -1), (0, 1, -1, 0)))
    bad = [Character((1, -1, 0, 0)), Character((0, 0, 1, -1))]
    ok, violating = good_restrictions(plane, bad, 2)
    assert not ok and set(violating) == set(bad)
    roots = [
        Character(tuple(1 if k == i else (-1 if k == j else 0) for k in range(3)))
        for i in range(3) for j in range(3) if i != j
    ]
    assert good_restrictions(SubgroupSpec.full_torus(3), roots, 2) == (True, None)
    assert good_restrictions(plane, bad, 0) == (True, None)


def test_verify_subcover():
    cov = build_cover(I2, A2, [UP, LO], C0=-1, gauge=Gauge.zero())
    far_core = BorderedSet(1, (((1,), 10),), Gauge.zero())
    rep = verify_subcover(cov, 2, F(1, 2), far_core)
    assert rep.covered and rep.checked == 9 and rep.gaps == ()
    # dropping the lower line leaves the forward half of the box exposed
    rep1 = verify_subcover(cov[:1], 2, F(1, 2), far_core)
    assert not rep1.covered
    assert rep1.gaps == ((F(1),), (F(3, 2),), (F(2),))
    # a core absorbing the exposed part restores the cover
    core = BorderedSet(1, (((1,), F(1, 2)),), Gauge.zero())
    rep2 = verify_subcover(cov[:1], 2, F(1, 2), core)
    assert rep2.covered and rep2.checked == 5
    with pytest.raises(PreconditionError):
        verify_subcover(cov, 2, 0, far_core)


def test_copied_element_derives_its_region():
    # the region is built from the stored fields, so a copy with another
    # gauge or C0 cannot keep the original's stale region
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    e = build_cover(g, A2, [MIX])[0]
    assert e.restricted.gauge == Gauge.linear(F(1, 2))
    s = F(1, 8)
    assert replace(e, gauge=Gauge.linear(s)).restricted.gauge == Gauge.linear(s)
    c = F(-3, 2)
    copy = replace(e, C0=c)
    want = [LogLin(c, ((nu, 1),)) for nu in (F(1, 4), F(4))]
    assert len(copy.restricted.constants) == len(want)
    assert all((d - w).is_zero() for d, w in zip(copy.restricted.constants, want))
    assert copy.zero_psi == e.zero_psi == ((Character((0, 0)), F(1)),)
    assert e.zero_gauge().restricted.gauge.is_zero


@settings(max_examples=20, deadline=None)
@given(st.integers(-4, 4), st.integers(1, 4))
def test_region_scales_with_norm(k, denom):
    # conjugating by a deeper diagonal inflates the upper-line norm and
    # shifts its activity region backward; membership stays consistent
    t = F(k, denom)
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    e = build_cover(g, A2, [UP], gauge=Gauge.zero())[0]
    # region is exactly {-2s >= log 4}
    expected = -2 * t - LogLin.log(4)
    assert e.contains((t,)) == (expected.sign() > 0)


# ------------------------------------- component signs vs the reference
#
# The reference builds each component value through LogLin's checking
# constructor, one LogLin(lin, ((nu, 1),)) per component and point, and
# decides bordered membership by the generic margin arithmetic.

def _ref_cut(e, s):
    return e.gauge(max(abs(v) for v in s))


def _ref_is_active(e, s, strict):
    cut = _ref_cut(e, s)
    for coeffs, nu in zip(e.restr, e.norms):
        lin = e.C0 + cut - sum(c * v for c, v in zip(coeffs, s))
        sign = LogLin(lin, ((nu, 1),)).sign()
        if sign > 0 or (sign == 0 and strict):
            return False
    return True


def _ref_contains(e, s, closed):
    # a ball condition wants C0 + cut + log(nu) below zero, a margin above it
    cut = _ref_cut(e, s)
    signs = [-LogLin(e.C0 + cut, ((nu, 1),)).sign() for _, nu in e.zero_psi]
    if e.restricted is not None:
        signs += [(sum(a * v for a, v in zip(f, s)) - c - cut).sign() for f, c in e.restricted.phi]
    return all(v > 0 or (v == 0 and closed) for v in signs)


_G3 = Mat.rationalize([[2, 0, 0], [0, 1, "1/2"], [0, 0, "1/2"]])
_ELEMENTS = tuple(
    build_cover(Mat.rationalize([[2, 0], [0, "1/2"]]), A2, [UP, LO, MIX])
    + build_cover(_G3, SubgroupSpec.full_torus(3), enumerate_witnesses(3, 1), C0=-2)
)
_NORMS = [F(1, 4), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(4)]


@st.composite
def _elements_with_points(draw):
    """An element with drawn C0, gauge and norms (some below 1), and a point,
    sometimes on the boundary of one component: norm 1 and zero shortfall."""
    e = draw(st.sampled_from(_ELEMENTS))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    s = draw(st.tuples(*[coord] * e.subgroup.dim))
    norms = draw(st.lists(st.sampled_from(_NORMS), min_size=len(e.norms),
                          max_size=len(e.norms)))
    gauge = draw(st.sampled_from([e.gauge, Gauge.zero()]))
    C0 = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    if draw(st.booleans()):
        zero = [k for k, c in enumerate(e.restr) if not any(c)]
        if zero and draw(st.booleans()):
            i = draw(st.sampled_from(zero))   # a ball condition
        else:
            i = draw(st.integers(0, len(norms) - 1))
        norms[i] = F(1)
        cut = gauge(max(abs(v) for v in s))
        C0 = sum(c * v for c, v in zip(e.restr[i], s)) - cut
    return replace(e, C0=C0, gauge=gauge, norms=tuple(norms)), s


# a ball condition exactly at zero while every margin is positive, so the
# open and closed readings of the ball condition alone decide membership
_BALL_EDGE = (replace(build_cover(I2, A2, [MIX], gauge=Gauge.zero())[0],
                      norms=(F(1, 4), F(1), F(1, 4))), (F(0),))


@settings(max_examples=80, deadline=None)
@given(_elements_with_points())
@example(_BALL_EDGE)
def test_component_signs_match_the_checked_construction(case):
    e, s = case
    for flag in (True, False):
        assert e.is_active(s, strict=flag) == _ref_is_active(e, s, flag)
        assert e.contains(s, closed=flag) == _ref_contains(e, s, flag)

import ast
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch import bordered
from cuspwatch.bordered import (
    BorderedSet,
    ConvexSpec,
    Gauge,
    conjunction,
    contract_step,
    epsilon_bound,
    intersect_nonempty,
    invdim,
    is_bounded,
    is_k_trivial,
    positively_nontrivial,
)
from cuspwatch.errors import GaugeTooSteep, PreconditionError
from cuspwatch.loglin import LogLin
from cuspwatch.lp import lp_feasible, solve_lp
from cuspwatch.matrix import Mat
from cuspwatch.scalars import sign

F = Fraction


# ---------------------------------------------------------------- gauges

def test_gauge_values():
    assert Gauge.zero()(F(7)) == 0
    assert Gauge.linear(F(1, 2))(F(3)) == F(3, 2)
    with pytest.raises(PreconditionError):
        Gauge.linear(F(-1, 3))
    with pytest.raises(PreconditionError):
        Gauge.zero()(F(-1))


def test_gauge_is_its_slope():
    assert Gauge.linear(0) == Gauge.zero()
    assert hash(Gauge.linear(0)) == hash(Gauge.zero())
    assert Gauge.linear("0").is_zero and not Gauge.linear(F(1, 8)).is_zero
    assert Gauge.linear(F(1, 2)) != Gauge.linear(F(1, 3))
    assert Gauge.zero().to_json() == {"kind": "linear", "slope": "0"}
    assert Gauge.linear(F(1, 8)).to_json() == {"kind": "linear", "slope": "1/8"}
    # a slope-0 linear gauge is the zero gauge wherever one is required
    strip = BorderedSet(2, (((1, 0), 0), ((-1, 0), -1)), Gauge.linear(0))
    assert invdim(strip) == 1
    a = BorderedSet(2, (((1, 0), 0),), Gauge.zero())
    b = BorderedSet(2, (((0, 1), 1),), Gauge.linear(0))
    both = conjunction([a, b])
    assert len(both.phi) == 2 and both.gauge.is_zero


def test_bordered_set_validation():
    with pytest.raises(PreconditionError):
        BorderedSet(2, (((0, 0), 0),), Gauge.zero())
    with pytest.raises(PreconditionError):
        BorderedSet(2, (((1, 0, 0), 0),), Gauge.zero())
    with pytest.raises(PreconditionError):
        BorderedSet(2, (), Gauge.zero())


def test_membership_and_margins():
    U = BorderedSet(2, (((1, 0), 0), ((0, 1), 0)), Gauge.linear(F(1, 4)))
    assert U.contains((F(2), F(3)))          # margins 2-3/4, 3-3/4
    assert not U.contains((F(1, 4), F(3)))   # first margin hits -1/2
    assert not U.contains((F(0), F(1)))
    assert U.zero_gauge().contains((F(0), F(1)), closed=True)
    assert U.margins((F(2), F(3))) == [F(5, 4), F(9, 4)]
    assert U.rho((F(2), F(3))) == F(5, 4)


def test_loglin_constants_are_first_class():
    U = BorderedSet(1, (((1,), LogLin.log(2)),), Gauge.zero())
    assert U.contains((F(1),))
    assert not U.contains((F(1, 2),))
    m = U.margins((F(1),))[0]
    assert isinstance(m, LogLin) and m.sign() == 1


def test_conjunction_pools_constraints():
    a = BorderedSet(2, (((1, 0), 0),), Gauge.linear(F(1, 8)))
    b = BorderedSet(2, (((0, 1), 1),), Gauge.linear(F(1, 8)))
    c = conjunction([a, b])
    assert len(c.phi) == 2 and c.gauge == a.gauge
    assert c.contains((F(3), F(3)))
    with pytest.raises(PreconditionError):
        conjunction([a, b.zero_gauge()])
    with pytest.raises(PreconditionError):
        conjunction([a, BorderedSet(1, (((1,), 0),), Gauge.linear(F(1, 8)))])


# --------------------------------------------- positive alternative

def test_positive_alternative_branches():
    ok, v = positively_nontrivial([(1, 0), (0, 1)])
    assert ok and v == (F(1), F(1))
    ok, v = positively_nontrivial([(2, 1), (1, 2)])
    assert ok and v == (F(1), F(1))
    ok, lam = positively_nontrivial([(1, -1), (-1, 1)])
    assert not ok and lam == (F(1), F(1))
    ok, lam = positively_nontrivial([(1, 1), (-1, 0), (0, -1)])
    assert not ok and lam == (F(1), F(1), F(1))


@pytest.mark.parametrize("system", [[], [()], [(0, 0)], [(1, 0), (1,)]])
def test_malformed_functional_rows_are_rejected(system):
    # no rows, an empty row, a zero row, rows of mixed length
    with pytest.raises(PreconditionError):
        positively_nontrivial(system)
    with pytest.raises(PreconditionError):
        epsilon_bound(system)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda t: any(t)),
    min_size=1, max_size=4,
))
def test_positive_alternative_certificates(system):
    ok, cert = positively_nontrivial(system)
    if ok:
        assert all(sum(a * v for a, v in zip(f, cert)) > 0 for f in system)
    else:
        assert all(c >= 0 for c in cert) and any(c > 0 for c in cert)
        for d in range(2):
            assert sum(c * f[d] for c, f in zip(cert, system)) == 0


# ------------------------------------------------- separation constant

def test_epsilon_bound_frozen():
    assert epsilon_bound([(1, 0), (0, 1)]) == F(1, 2)
    assert epsilon_bound([(1, 0)]) == F(1, 2)
    assert epsilon_bound([(1, 1), (1, -1)]) == F(1, 2)
    assert epsilon_bound([(1, 2)]) == F(5, 4)
    assert epsilon_bound([(1, 0), (0, 1), (-1, -1)]) == F(1, 4)
    assert epsilon_bound([(2, 0), (0, 1)]) == F(1, 2)


def test_epsilon_bound_scaling_down():
    # shrinking a functional shrinks how far the dead cone sits from zero
    assert epsilon_bound([(F(1, 3), 0), (0, 1)]) == F(1, 6)


def test_is_bounded():
    tri = BorderedSet(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)),
                      Gauge.linear(F(1, 8)))
    assert is_bounded(tri)
    quad = BorderedSet(2, (((1, 0), 0), ((0, 1), 0)), Gauge.zero())
    assert not is_bounded(quad)
    with pytest.raises(GaugeTooSteep):
        is_bounded(BorderedSet(2, tri.phi, Gauge.linear(F(1, 4))))
    # at slope 0, a polyhedron: bounded iff it is empty or its functionals
    # positively span
    assert is_bounded(tri.zero_gauge())
    strip = BorderedSet(2, (((1, 0), 0), ((-1, 0), -1)), Gauge.zero())
    assert not is_bounded(strip)
    half = BorderedSet(2, strip.phi + (((0, 1), 0),), Gauge.zero())
    assert not is_bounded(half)
    empty = BorderedSet(2, (((1, 0), 0), ((-1, 0), 0)), Gauge.zero())
    assert is_bounded(empty)
    with pytest.raises(PreconditionError):
        contract_step(strip, (F(1, 2), F(7)), F(1, 2))


# ------------------------------------------------ invariance dimension

def test_invdim_bordered():
    strip = BorderedSet(2, (((1, 0), 0), ((-1, 0), -1)), Gauge.zero())
    assert invdim(strip) == 1
    empty = BorderedSet(1, (((1,), 1), ((-1,), 1)), Gauge.zero())
    assert invdim(empty) == -math.inf
    # the open region {x1 > 0, -x1 > 0} is empty though its closure is a line
    touching = BorderedSet(2, (((1, 0), 0), ((-1, 0), 0)), Gauge.zero())
    assert invdim(touching) == -math.inf
    with pytest.raises(PreconditionError):
        invdim(BorderedSet(1, (((1,), 0),), Gauge.linear(F(1, 4))))


STRIP = ConvexSpec(points=((0, 0),), rays=((0, 1), (0, -1)))
HALF = ConvexSpec(points=((0, 0),), rays=((0, 1), (0, -1), (1, 0)))
BOX = ConvexSpec(points=((0, 0), (1, 0), (0, 1), (1, 1)))
CYL = ConvexSpec(points=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
                 rays=((0, 0, 1), (0, 0, -1)))


def test_invdim_convex():
    assert invdim(STRIP) == 1
    assert invdim(HALF) == 1    # the forward ray is not reversible
    assert invdim(BOX) == 0
    assert invdim(CYL) == 1
    assert invdim(ConvexSpec()) == -math.inf


def test_k_triviality_fixtures():
    assert is_k_trivial(STRIP, 1) is False
    assert is_k_trivial(STRIP, 2) is True
    assert is_k_trivial(HALF, 1) is True
    assert is_k_trivial(BOX, 1) is True
    assert is_k_trivial(CYL, 1) is False
    assert is_k_trivial(CYL, 2) is True
    assert is_k_trivial(ConvexSpec(), 1) is True
    with pytest.raises(PreconditionError):
        is_k_trivial(STRIP, 3)
    with pytest.raises(PreconditionError):
        is_k_trivial(BorderedSet(1, (((1,), 0),), Gauge.zero()), 1)


# ------------------------------------------------------- contraction

def test_contract_step_trajectory():
    U = BorderedSet(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)),
                    Gauge.linear(F(1, 8)))
    x = (F(-1), F(3))
    assert contract_step(U, x, 0) == x
    assert contract_step(U, x, F(1, 2)) == (F(2, 3), F(2, 3))
    assert contract_step(U, x, 1) == (F(2, 3), F(2, 3))
    depths = [U.rho(contract_step(U, x, F(k, 16))) for k in range(17)]
    for a, b in zip(depths, depths[1:]):
        assert b >= a
    assert U.contains(contract_step(U, x, 1))


def test_contract_step_rejects():
    U = BorderedSet(2, (((1, 0), 0), ((0, 1), 0)), Gauge.zero())
    with pytest.raises(PreconditionError):
        contract_step(U, (F(0), F(0)), F(1, 2))   # unbounded region
    tri = BorderedSet(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)),
                      Gauge.zero())
    with pytest.raises(PreconditionError):
        contract_step(tri, (F(0), F(0)), F(3, 2))


# ----------------------------------------- contraction plan vs reference
#
# The reference solves every LP and elimination afresh for each point and
# keeps nothing between calls.

def _ref_depth_polytope(U):
    l = U.l
    rows = [list(f) for f in U.functionals]
    consts = list(U.constants)
    A_ub = [[F(1)] + [-v for v in r] for r in rows]
    res = solve_lp([F(1)] + [F(0)] * l, A_ub=A_ub, b_ub=[-c for c in consts])
    assert res.status == "optimal"
    return rows, [c + res.value for c in consts]


def _ref_lex_inf_min(rows, rhs, l):
    A_ub = [[F(0)] + [-v for v in r] for r in rows]
    b_ub = [-b for b in rhs]
    for d in range(l):
        for s in (1, -1):
            A_ub.append([F(-1)] + [F(s) if e == d else F(0) for e in range(l)])
            b_ub.append(F(0))
    res = solve_lp([F(-1)] + [F(0)] * l, A_ub=A_ub, b_ub=b_ub)
    assert res.status == "optimal"
    rstar = -res.value
    A_ub = [[-v for v in r] for r in rows]
    b_ub = [-b for b in rhs]
    for d in range(l):
        for s in (1, -1):
            A_ub.append([F(s) if e == d else F(0) for e in range(l)])
            b_ub.append(rstar)
    A_eq, b_eq, x = [], [], []
    for d in range(l):
        obj = [F(-1) if e == d else F(0) for e in range(l)]
        res = solve_lp(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        assert res.status == "optimal"
        A_eq.append([F(1) if e == d else F(0) for e in range(l)])
        b_eq.append(-res.value)
        x.append(-res.value)
    return tuple(x)


def _ref_projection(p, rows, rhs):
    l = len(p)

    def feasible(x):
        return all(sign(sum(r[d] * x[d] for d in range(l)) - b) >= 0
                   for r, b in zip(rows, rhs))

    if feasible(p):
        return tuple(p)
    for size in range(1, len(rows) + 1):
        for combo in combinations(range(len(rows)), size):
            B = [rows[i] for i in combo]
            if Mat.rationalize(B).rank() < size:
                continue
            gram = Mat.rationalize([[sum(a * b for a, b in zip(B[i], B[j]))
                                     for j in range(size)] for i in range(size)])
            mu = gram.solve([rhs[combo[i]] - sum(B[i][d] * p[d] for d in range(l))
                             for i in range(size)])
            if any(sign(v) < 0 for v in mu):
                continue
            x = [p[d] + sum(mu[i] * B[i][d] for i in range(size)) for d in range(l)]
            if feasible(x):
                return tuple(x)
    pytest.fail("no projection found")


def _ref_contract_path(U, x):
    """contract_step(U, x, t) for every t, from one fresh solve."""
    rows, rhs = _ref_depth_polytope(U)
    a = _ref_projection(x, rows, rhs)
    u = _ref_lex_inf_min(rows, rhs, U.l)

    def at(t):
        if t <= F(1, 2):
            return tuple(xv + 2 * t * (av - xv) for xv, av in zip(x, a))
        return tuple(av + (2 * t - 1) * (uv - av) for av, uv in zip(a, u))
    return at


TIMES = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))

_constant = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(lambda q, nu, e: LogLin(q, ((nu, e),)),
              st.fractions(min_value=-2, max_value=2, max_denominator=3),
              st.sampled_from([F(2), F(3), F(3, 2)]),
              st.sampled_from([F(-1), F(1, 2), F(1)])),
)


# Separation constants cost about a hundred LPs per new system in R^3, so
# systems there come from a pool (in random order); in R^2 they are cheap.
_SYSTEMS_3 = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1), (-1, -1, -1)),
    ((1, 0, 0), (0, 1, 0), (-1, -2, 0), (0, 0, 1), (0, 0, -1)),
)


@st.composite
def _bounded_sets(draw):
    """A set whose functionals have a positive combination summing to zero;
    in R^2, free vectors v_i and a closing vector -sum lam_i v_i. At slope 0
    that bounds the set only where the functionals positively span R^l or
    the set is empty."""
    l = draw(st.sampled_from([2, 3]))
    if l == 3:
        vecs = list(draw(st.sampled_from(_SYSTEMS_3).flatmap(st.permutations)))
    else:
        vecs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * l).filter(any),
                             min_size=2, max_size=3, unique=True))
        lams = draw(st.lists(st.integers(1, 2), min_size=len(vecs), max_size=len(vecs)))
        closing = tuple(-sum(lam * v[d] for lam, v in zip(lams, vecs)) for d in range(l))
        if any(closing) and closing not in vecs:
            vecs.append(closing)
        if bordered.positively_nontrivial(vecs)[0]:
            vecs.append(tuple(-c for c in vecs[0]))
    consts = draw(st.lists(_constant, min_size=len(vecs), max_size=len(vecs)))
    slope = draw(st.sampled_from([F(0), F(1, 2)])) * epsilon_bound(vecs)
    return BorderedSet(l, tuple(zip(vecs, consts)), Gauge.linear(slope))


def _points(l):
    coord = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=2),
        st.builds(lambda q, e: LogLin(q, ((F(2), e),)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=2),
                  st.sampled_from([F(-1), F(1)])),
    )
    return st.tuples(*[coord] * l)


def _positively_span(vecs, l):
    """Whether every signed unit vector is a nonnegative combination of vecs."""
    m = len(vecs)
    return all(
        lp_feasible(A_ub=[[-F(i == k) for i in range(m)] for k in range(m)],
                    b_ub=[F(0)] * m,
                    A_eq=[[v[d] for v in vecs] for d in range(l)],
                    b_eq=[F(s * (d == e)) for d in range(l)])[0]
        for e in range(l) for s in (1, -1)
    )


def _ref_nonempty(U):
    A_ub = [[F(1)] + [-v for v in f] for f in U.functionals]
    A_ub.append([F(1)] + [F(0)] * U.l)
    b_ub = [-c for c in U.constants] + [F(1)]
    return sign(solve_lp([F(1)] + [F(0)] * U.l, A_ub=A_ub, b_ub=b_ub).value) > 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_contract_step_matches_reference(data):
    U = data.draw(_bounded_sets())
    if (U.gauge.is_zero and _ref_nonempty(U)
            and not _positively_span(U.functionals, U.l)):
        # a nonempty polyhedron with a recession direction
        assert not is_bounded(U)
        with pytest.raises(PreconditionError):
            contract_step(U, data.draw(_points(U.l)), F(1, 2))
        return
    assert is_bounded(U)
    for _ in range(2):
        x = data.draw(_points(U.l))
        ref = _ref_contract_path(U, x)
        for t in TIMES:
            got, want = contract_step(U, x, t), ref(t)
            assert got == want and U.rho(got) == U.rho(want)


@st.composite
def _sets_with_points(draw):
    """A bordered set and a point, sometimes exactly on one of its margins."""
    l = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vecs = draw(st.lists(st.tuples(*[coeff] * l).filter(any), min_size=m, max_size=m))
    consts = draw(st.lists(_constant, min_size=m, max_size=m))
    gauge = Gauge.linear(draw(st.sampled_from([F(0), F(1, 4), F(3, 2)])))
    x = draw(_points(l))
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        consts[i] = sum(a * v for a, v in zip(vecs[i], x)) - gauge(max(abs(v) for v in x))
    return BorderedSet(l, tuple(zip(vecs, consts)), gauge), x


@settings(max_examples=80, deadline=None)
@given(_sets_with_points())
def test_membership_reads_margin_signs(case):
    U, x = case
    cut = U.gauge(max(abs(v) for v in x))
    want = [sum(a * v for a, v in zip(f, x)) - c - cut for f, c in U.phi]
    assert [(type(m), repr(m)) for m in U.margins(x)] == [(type(m), repr(m)) for m in want]
    s = sign(U.rho(x))
    assert U.contains(x) == (s > 0)
    assert U.contains(x, closed=True) == (s >= 0)


def _lp_counter(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(bordered, "solve_lp", counted)
    return calls


def test_bordered_reaches_the_lp_only_through_solve_lp():
    # the LP-counting tests patch bordered.solve_lp; a second entry point
    # would let them undercount without failing
    imported = []
    for node in ast.walk(ast.parse(Path(bordered.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("lp", "cuspwatch.lp"):
                imported += [alias.name for alias in node.names]
            elif node.module in (None, "cuspwatch"):
                assert "lp" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert "cuspwatch.lp" not in [alias.name for alias in node.names]
    assert imported == ["solve_lp"]


def test_contraction_plan_lp_count(monkeypatch):
    phis = [(1, 0), (0, 1), (-1, -2), (-2, -1)]
    consts = (F(0), F(1, 2), F(-4), F(-7, 2))
    gauge = Gauge.linear(epsilon_bound(phis) / 2)
    calls = _lp_counter(monkeypatch)
    l = 2

    first = BorderedSet(l, tuple(zip(phis, consts)), gauge)
    contract_step(first, (F(5), F(-3)), F(1, 4))
    assert len(calls) == 2 + 1       # verdict and peak polytope, no lex-min yet

    U = BorderedSet(l, tuple(zip(phis, consts)), gauge)
    del calls[:]
    for t in TIMES:
        contract_step(U, (F(-3), F(4)), t)
    assert len(calls) <= 2 + 1 + (l + 1)
    del calls[:]
    for x in [(F(7), F(7)), (F(-5), F(-5)), (F(1, 3), F(-9, 2)), (F(1), F(1))]:
        for t in TIMES:
            contract_step(U, x, t)
        assert is_bounded(U)
    assert calls == []


def _diagonal_box():
    # 0 < x - y < 2, 0 < x + y < 6: the depth peaks on the segment from
    # (1, 0) to (3, 2), so points with different x + y project apart
    phis = ((1, -1), (-1, 1), (1, 1), (-1, -1))
    return BorderedSet(2, tuple(zip(phis, (0, -2, 0, -6))), Gauge.zero())


def test_times_at_one_point_share_one_projection(monkeypatch):
    calls = []
    project = bordered._ContractionPlan._project

    def counted(plan, p):
        calls.append(p)
        return project(plan, p)

    monkeypatch.setattr(bordered._ContractionPlan, "_project", counted)
    U = _diagonal_box()
    for t in (F(1, 4), F(1, 2), F(3, 4), F(1)):
        contract_step(U, (F(5), F(-3)), t)
    assert len(calls) == 1
    contract_step(U, (5, -3), F(1, 8))           # the same point, as ints
    assert len(calls) == 1
    contract_step(U, (F(-3), F(4)), F(1, 4))
    assert len(calls) == 2


def test_projection_memo_never_serves_a_stale_point():
    U = _diagonal_box()
    # consecutive points share a coordinate but not their projection, so a
    # memo keyed on part of the point would show
    points = [(F(0), F(3)), (F(0), F(4)), (F(-1), F(4)),
              (LogLin(1, ((F(2), F(1)),)), F(-4))]
    for _ in range(2):
        for x in points:
            for t in TIMES:
                fresh = BorderedSet(U.l, U.phi, U.gauge)
                assert contract_step(U, x, t) == contract_step(fresh, x, t)


def test_contraction_plans_are_per_set():
    phis = ((1, 0), (0, 1), (-1, -1))
    tri = BorderedSet(2, tuple((p, 0) for p in phis[:2]) + ((phis[2], -2),),
                      Gauge.linear(F(1, 8)))
    shifted = BorderedSet(2, tuple((p, 0) for p in phis[:2]) + ((phis[2], -5),),
                          Gauge.linear(F(1, 8)))
    x = (F(-1), F(3))
    assert contract_step(tri, x, 1) == (F(2, 3), F(2, 3))
    assert contract_step(shifted, x, 1) == (F(5, 3), F(5, 3))
    assert tri._plan is not shifted._plan
    steep = BorderedSet(2, tri.phi, Gauge.linear(F(1, 4)))
    with pytest.raises(GaugeTooSteep):
        is_bounded(steep)
    flat = steep.zero_gauge()
    assert flat._plan is not steep._plan
    assert is_bounded(flat)
    assert contract_step(flat, x, 1) == contract_step(tri, x, 1)


def test_contraction_errors_recur_and_are_not_kept():
    tri = BorderedSet(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)),
                      Gauge.linear(F(1, 4)))
    for _ in range(2):
        with pytest.raises(GaugeTooSteep):
            contract_step(tri, (F(0), F(0)), F(1, 2))
        with pytest.raises(GaugeTooSteep):
            is_bounded(tri)
    assert "bounded" not in vars(tri._plan)
    quad = BorderedSet(2, (((1, 0), 0), ((0, 1), 0)), Gauge.zero())
    for _ in range(2):
        with pytest.raises(PreconditionError):
            contract_step(quad, (F(1), F(1)), F(3, 4))


def test_contraction_plan_faces_are_the_independent_subsets():
    # (1, 0), (2, 0) and (-1, 0) are parallel, so pairs among them are dependent
    phis = [(1, 0), (0, 1), (2, 0), (-1, 0), (0, -1)]
    consts = (F(0), F(0), F(1), F(-3), F(-3))
    U = BorderedSet(2, tuple(zip(phis, consts)), Gauge.zero())
    rows = [list(f) for f in U.functionals]
    want = {c for size in (1, 2) for c in combinations(range(len(rows)), size)
            if Mat.rationalize([rows[i] for i in c]).rank() == size}
    faces = U._plan.faces
    assert len(faces) == len(want) == 5 + 6
    assert {combo for combo, _, _ in faces} == want
    for combo, B, gram_inv in faces:
        assert B == [rows[i] for i in combo]
        gram = Mat.rationalize([[sum(a * b for a, b in zip(r, s)) for s in B] for r in B])
        assert gram_inv * gram == Mat.identity(len(combo))


def test_k_triviality_solves_each_reversibility_lp_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(bordered, "solve_lp", counted)
    assert is_k_trivial(STRIP, 1) is False
    assert len(calls) == 2   # one cone-membership LP per ray


# ------------------------------------------- separation LP vs reference
#
# The reference is the separation LP with x kept as l free variables and
# tied to the weights by l equality rows.

def _ref_face_lp(vectors, fix_coord, side, l):
    k = len(vectors)
    nv = 1 + k + l  # t, gamma, x
    obj = [F(1)] + [F(0)] * (nv - 1)
    A_eq, b_eq = [], []
    for d in range(l):
        row = [F(0)] * nv
        for i, v in enumerate(vectors):
            row[1 + i] = v[d]
        row[1 + k + d] = F(1)
        A_eq.append(row)
        b_eq.append(F(0))
    A_eq.append([F(j == 1 + k + fix_coord) for j in range(nv)])
    b_eq.append(F(side))
    A_ub, b_ub = [], []
    for v in vectors:
        A_ub.append([F(1)] + [F(0)] * k + [-c for c in v])
        b_ub.append(F(0))
    for i in range(k):
        A_ub.append([-F(j == 1 + i) for j in range(nv)])
        b_ub.append(F(0))
    for d in range(l):
        for s in (1, -1):
            A_ub.append([F(s) * (j == 1 + k + d) for j in range(nv)])
            b_ub.append(F(1))
    res = solve_lp(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    return res.value if res.status == "optimal" else None


@lru_cache(maxsize=None)
def _ref_epsilon_bound(vecs):
    l = len(vecs[0])
    best = None
    for size in range(1, min(l, len(vecs)) + 1):
        for rows in combinations(vecs, size):
            if Mat.rationalize([list(r) for r in rows]).rank() < size:
                continue
            M = max(v for d in range(l) for s in (1, -1)
                    if (v := _ref_face_lp(rows, d, s, l)) is not None)
            assert M < 0
            best = -M if best is None else min(best, -M)
    return best / 2


_rational_systems_2 = st.lists(
    st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=3)] * 2)
    .filter(any),
    min_size=1, max_size=4,
)


@settings(max_examples=15, deadline=None)
@given(st.one_of(_rational_systems_2, st.sampled_from(_SYSTEMS_3)))
def test_epsilon_bound_matches_reference(vecs):
    distinct = tuple(sorted({tuple(F(c) for c in v) for v in vecs}))
    assert epsilon_bound(vecs) == _ref_epsilon_bound(distinct)


def test_separation_lps_run_over_the_combination_weights(monkeypatch):
    vecs = [(2, 0, 0), (0, 3, 0), (0, 0, 5), (-1, -1, -1), (1, 1, 0)]
    l = 3
    independent = sum(
        1 for size in range(1, l + 1) for c in combinations(vecs, size)
        if Mat.rationalize([list(v) for v in c]).rank() == size
    )
    sizes, shapes = [], []
    face_lp = bordered._face_lp

    def face(vectors, *args):
        sizes.append(len(vectors))
        return face_lp(vectors, *args)

    def solve(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
        shapes.append((sizes[-1], len(c), len(A_eq)))
        return solve_lp(c, A_ub, b_ub, A_eq, b_eq)

    monkeypatch.setattr(bordered, "_face_lp", face)
    monkeypatch.setattr(bordered, "solve_lp", solve)
    epsilon_bound(vecs)
    assert len(shapes) == 2 * l * independent
    for k, width, equalities in shapes:
        assert width == 1 + k     # t and the weights gamma, no x
        assert equalities == 1    # the fixed coordinate of the face
    del shapes[:]
    epsilon_bound(list(reversed(vecs)))
    assert shapes == []           # memoized on the set of vectors


# ------------------------------------------------------- intersection

def test_intersect_nonempty():
    a = BorderedSet(1, (((1,), 0),), Gauge.zero())
    b = BorderedSet(1, (((-1,), -1),), Gauge.zero())
    ok, pt = intersect_nonempty([a, b])
    assert ok and a.contains(pt) and b.contains(pt)
    c = BorderedSet(1, (((1,), 1),), Gauge.zero())
    d = BorderedSet(1, (((-1,), 0),), Gauge.zero())
    assert intersect_nonempty([c, d]) == (False, None)
    # touching along a face only: the open conjunction is empty
    e = BorderedSet(1, (((1,), 0),), Gauge.zero())
    f = BorderedSet(1, (((-1,), 0),), Gauge.zero())
    assert intersect_nonempty([e, f]) == (False, None)

from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from cuspwatch import lp as lp_module
from cuspwatch.loglin import LogLin
from cuspwatch.lp import LPResult, lp_feasible, solve_lp
from cuspwatch.matrix import _pivot
from cuspwatch.scalars import sign

F = Fraction


def test_bounded_optimum():
    # max x + y st x <= 2, y <= 3, x + y <= 4
    res = solve_lp(
        [F(1), F(1)],
        A_ub=[[1, 0], [0, 1], [1, 1]],
        b_ub=[F(2), F(3), F(4)],
    )
    assert res.status == "optimal"
    assert res.value == 4
    x, y = res.x
    assert x + y == 4 and x <= 2 and y <= 3


def test_unbounded():
    res = solve_lp([F(1)], A_ub=[[-1]], b_ub=[F(0)])
    assert res.status == "unbounded"


def test_infeasible():
    res = solve_lp([F(0), F(0)], A_eq=[[1, 1], [1, 1]], b_eq=[F(1), F(2)])
    assert res.status == "infeasible"


def test_free_variables_both_signs():
    # max -x st x >= -5  (i.e. -x <= 5): optimum at x = -5
    res = solve_lp([F(-1)], A_ub=[[-1]], b_ub=[F(5)])
    assert res.status == "optimal"
    assert res.x == (F(-5),)
    assert res.value == 5


def test_equality_constraints():
    # max y st x + y = 1, x >= 0 via -x <= 0, y <= 10
    res = solve_lp(
        [F(0), F(1)],
        A_ub=[[-1, 0], [0, 1]],
        b_ub=[F(0), F(10)],
        A_eq=[[1, 1]],
        b_eq=[F(1)],
    )
    assert res.status == "optimal"
    assert res.value == 1
    assert res.x == (F(0), F(1))


def test_exact_rational_answers():
    # max x st 3x <= 1 and 7x <= 2: binds at min(1/3, 2/7) = 2/7
    res = solve_lp([F(1)], A_ub=[[3], [7]], b_ub=[F(1), F(2)])
    assert res.x == (F(2, 7),)


def test_loglin_rhs():
    # max x st x <= log 2, x <= 1: log 2 < 1 so optimum is log 2
    res = solve_lp([F(1)], A_ub=[[1], [1]], b_ub=[LogLin.log(2), LogLin(F(1))])
    assert res.status == "optimal"
    assert (res.value - LogLin.log(2)).is_zero()


def test_lp_feasible():
    ok, x = lp_feasible(A_ub=[[1, 0], [-1, 0]], b_ub=[F(1), F(-2)])
    assert not ok
    ok, x = lp_feasible(A_ub=[[1, 1]], b_ub=[F(0)])
    assert ok
    assert x[0] + x[1] <= 0


def test_entries_of_any_rational_form_solve_alike():
    # ints and Fractions pass straight to the tableau; strs and bools are
    # read as Fractions first, so every form gives the same answer
    exact = solve_lp([F(1), F(1)], A_ub=[[F(1, 2), F(1)], [F(1), F(1, 3)]],
                     b_ub=[F(3, 2), F(2)], A_eq=[[F(1), F(-1)]], b_eq=[F(0)])
    mixed = solve_lp([1, 1], A_ub=[["1/2", True], [1, F(1, 3)]],
                     b_ub=["3/2", 2], A_eq=[[True, -1]], b_eq=[False])
    assert exact.status == "optimal" and mixed == exact
    assert all(type(x) is Fraction for x in mixed.x)


coeff = st.integers(min_value=-4, max_value=4)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(coeff, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=5), min_size=1, max_size=4),
)
def test_reported_optimum_is_feasible(rows, rhs):
    m = min(len(rows), len(rhs))
    rows, rhs = rows[:m], [F(r) for r in rhs[:m]]
    # box the region so the LP cannot be unbounded
    rows = rows + [[1, 0], [-1, 0], [0, 1], [0, -1]]
    rhs = rhs + [F(10), F(10), F(10), F(10)]
    res = solve_lp([F(1), F(1)], A_ub=rows, b_ub=rhs)
    if res.status == "optimal":
        for row, b in zip(rows, rhs):
            assert sum(F(c) * v for c, v in zip(row, res.x)) <= b
    else:
        assert res.status == "infeasible"


# -- reference simplex ---------------------------------------------------

def _ref_frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


class _RefTableau:
    def __init__(self, rows, rhs, basis, ncols):
        self.rows = rows      # list[list[Fraction]]
        self.rhs = rhs        # list[Fraction | LogLin]
        self.basis = basis    # list[int], basic column per row
        self.ncols = ncols

    def pivot(self, r, c):
        piv = self.rows[r][c]
        inv = Fraction(1) / piv
        self.rows[r] = [v * inv for v in self.rows[r]]
        self.rhs[r] = self.rhs[r] * inv
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][c]
            if f != 0:
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], self.rows[r])]
                self.rhs[i] = self.rhs[i] - f * self.rhs[r]
        self.basis[r] = c

    def reduced_cost_row(self, cost):
        row = list(cost)
        for r, b in enumerate(self.basis):
            cb = row[b]
            if cb != 0:
                row = [a - cb * v for a, v in zip(row, self.rows[r])]
        return row

    def objective_value(self, cost):
        total = Fraction(0)
        for r, b in enumerate(self.basis):
            if cost[b] != 0:
                total = total + cost[b] * self.rhs[r]
        return total

    def run(self, cost) -> str:
        """Maximize cost . x from the current basic feasible point."""
        while True:
            red = self.reduced_cost_row(cost)
            enter = -1
            for j in range(self.ncols):
                if red[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(len(self.rows)):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    s = 1 if best is None else sign(best - ratio)
                    if s > 0 or (s == 0 and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def reference_solve_lp(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> LPResult:
    """The simplex before the tableau moved onto `matrix._pivot`: same
    phases, rules and layout, with its own pivot and a reduced-cost row
    rebuilt on every iteration."""
    n = len(c)
    c = [Fraction(v) for v in c]
    A_ub = _ref_frac_rows(A_ub)
    A_eq = _ref_frac_rows(A_eq)
    b_ub = [v if isinstance(v, LogLin) else Fraction(v) for v in b_ub]
    b_eq = [v if isinstance(v, LogLin) else Fraction(v) for v in b_eq]
    for row in A_ub + A_eq:
        if len(row) != n:
            raise ValueError("constraint row width does not match objective")

    m_ub, m_eq = len(A_ub), len(A_eq)
    nslack = m_ub
    base_cols = 2 * n + nslack

    rows, rhs, needs_art = [], [], []
    for i, row in enumerate(A_ub):
        body = [x for x in row] + [-x for x in row] + [Fraction(0)] * nslack
        body[2 * n + i] = Fraction(1)
        b = b_ub[i]
        if sign(b) < 0:
            body = [-x for x in body]
            b = -b
            needs_art.append(True)
        else:
            needs_art.append(False)
        rows.append(body)
        rhs.append(b)
    for i, row in enumerate(A_eq):
        body = [x for x in row] + [-x for x in row] + [Fraction(0)] * nslack
        b = b_eq[i]
        if sign(b) < 0:
            body = [-x for x in body]
            b = -b
        rows.append(body)
        rhs.append(b)
        needs_art.append(True)

    # phase 1: artificial columns where no ready-made basic variable exists
    art_cols = {}
    for i, need in enumerate(needs_art):
        if need:
            art_cols[i] = base_cols + len(art_cols)
    ncols = base_cols + len(art_cols)
    basis = []
    for i in range(len(rows)):
        rows[i] = rows[i] + [Fraction(0)] * len(art_cols)
        if i in art_cols:
            rows[i][art_cols[i]] = Fraction(1)
            basis.append(art_cols[i])
        else:
            basis.append(2 * n + i)  # the +1 slack of an untouched ub row

    tab = _RefTableau(rows, rhs, basis, ncols)
    if art_cols:
        phase1 = [Fraction(0)] * ncols
        for col in art_cols.values():
            phase1[col] = Fraction(-1)
        tab.run(phase1)  # bounded above by 0, cannot be unbounded
        val = tab.objective_value(phase1)
        if sign(val) < 0:
            return LPResult("infeasible", None, None)
        # drive leftover artificials out of the basis, drop redundant rows
        art_set = set(art_cols.values())
        keep = []
        for r in range(len(tab.rows)):
            if tab.basis[r] in art_set:
                piv = -1
                for j in range(base_cols):
                    if tab.rows[r][j] != 0:
                        piv = j
                        break
                if piv >= 0:
                    tab.pivot(r, piv)
                    keep.append(r)
                # else: redundant row, drop it
            else:
                keep.append(r)
        tab.rows = [tab.rows[r][:base_cols] for r in keep]
        tab.rhs = [tab.rhs[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
        tab.ncols = base_cols

    cost = [v for v in c] + [-v for v in c] + [Fraction(0)] * nslack
    status = tab.run(cost)
    if status != "optimal":
        return LPResult("unbounded", None, None)

    full = [Fraction(0)] * base_cols
    for r, b in enumerate(tab.basis):
        full[b] = tab.rhs[r]
    x = tuple(full[j] - full[n + j] for j in range(n))
    value = Fraction(0)
    for j in range(n):
        if c[j] != 0:
            value = value + c[j] * x[j]
    return LPResult("optimal", x, value)


def same_as_reference(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    res = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    assert repr(res) == repr(reference_solve_lp(c, A_ub, b_ub, A_eq, b_eq))
    return res


def test_redundant_equality_row_is_dropped():
    # after phase 1 the second row is zero with its artificial still basic
    res = same_as_reference([F(1), F(0)], A_ub=[[1, 0]], b_ub=[F(3)],
                            A_eq=[[1, 1], [2, 2]], b_eq=[F(1), F(2)])
    assert res.status == "optimal" and res.x == (F(3), F(-2))


def test_zero_level_artificial_is_driven_out():
    # phase 1 is optimal at once with both artificials basic at zero: the
    # first is pivoted out on x, then the second row is zero and dropped
    res = same_as_reference([F(1), F(0)], A_ub=[[1, 0]], b_ub=[LogLin.log(3)],
                            A_eq=[[1, 1], [-1, -1]], b_eq=[F(0), F(0)])
    assert res.status == "optimal"
    assert repr(res.x) == repr((LogLin.log(3), -LogLin.log(3)))


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
rhs_values = st.one_of(
    st.integers(min_value=-3, max_value=5).map(F),
    st.builds(lambda q, e2, e3: LogLin(q, ((2, e2), (3, e3))), small, small, small),
)


@st.composite
def lps(draw):
    """Up to 4 variables, 5 <= rows and 2 = rows; the last row of each kind
    may repeat a multiple of the first, so duplicated and redundant rows
    (consistent or not) come up, and so do zero objectives."""
    n = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(coeff, min_size=n, max_size=n)
    c = draw(st.one_of(st.just([0] * n), row))
    out = [c]
    for most in (5, 2):
        A = draw(st.lists(row, max_size=most))
        b = [draw(rhs_values) for _ in A]
        if len(A) > 1 and draw(st.booleans()):
            k = draw(st.sampled_from([1, 2, -1]))
            A[-1] = [k * v for v in A[0]]
            b[-1] = draw(st.sampled_from([k * b[0], b[-1]]))
        out += [A, b]
    return out


@settings(max_examples=300, deadline=None)
@given(lps())
def test_simplex_matches_reference(lp):
    same_as_reference(*lp)


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@st.composite
def rational_lps(draw):
    """Up to 4 variables, 2-6 <= rows and up to 2 = rows, every coefficient
    and right-hand side a fraction with denominator at most 7, so the
    simplex scales its rows and weights its artificials; the objective may
    be zero."""
    n = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(fracs, min_size=n, max_size=n)
    c = draw(st.one_of(st.just([F(0)] * n), row))
    A_ub = draw(st.lists(row, min_size=2, max_size=6))
    A_eq = draw(st.lists(row, max_size=2))
    return (c, A_ub, [draw(fracs) for _ in A_ub], A_eq, [draw(fracs) for _ in A_eq])


@settings(max_examples=150, deadline=None)
@given(rational_lps())
def test_simplex_matches_reference_rational(lp):
    same_as_reference(*lp)


@settings(max_examples=150, deadline=None)
@given(st.one_of(lps(), rational_lps()))
def test_pivots_divide_exactly_over_a_positive_denominator(lp):
    def checked(a, r, c, d):
        p = a[r][c]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and (f or p != d):
                for x, y in zip(row, a[r]):
                    v = p * x - f * y
                    if type(v) is int:
                        assert v % d == 0
        out = _pivot(a, r, c, d)
        assert type(out) is int and out > 0
        return out

    with patch.object(lp_module, "_pivot", checked):
        same_as_reference(*lp)

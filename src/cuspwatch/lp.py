"""Exact dense two-phase simplex with Bland's rule.

Variables are free (split internally into positive parts). Constraint and
objective coefficients must be rational; right-hand sides may be Fraction
or LogLin, in which case basic-variable values and the objective value are
LogLin while the tableau body stays rational. Bland's rule guarantees
termination without cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .loglin import LogLin
from .scalars import sign


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple | None
    value: object | None


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


class _Tableau:
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


def solve_lp(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> LPResult:
    """Maximize c . x subject to A_ub x <= b_ub and A_eq x = b_eq, x free."""
    n = len(c)
    c = [Fraction(v) for v in c]
    A_ub = _frac_rows(A_ub)
    A_eq = _frac_rows(A_eq)
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

    tab = _Tableau(rows, rhs, basis, ncols)
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


def lp_feasible(A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """Exact feasibility of {A_ub x <= b_ub, A_eq x = b_eq}; returns (ok, x)."""
    width = 0
    for row in list(A_ub) + list(A_eq):
        width = max(width, len(row))
    res = solve_lp([Fraction(0)] * width, A_ub, b_ub, A_eq, b_eq)
    if res.status == "optimal":
        return True, res.x
    return False, None

"""Exact dense two-phase simplex with Bland's rule.

Variables are free (split internally into positive parts). Constraint and
objective coefficients must be rational; right-hand sides may be Fraction
or LogLin, in which case basic-variable values and the objective value are
LogLin while the tableau body stays rational. The tableau is a list of
augmented rows [body | rhs] pivoted by `matrix._pivot`, and its last row
holds the reduced costs. Bland's rule guarantees termination without
cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .loglin import LogLin
from .matrix import _pivot
from .scalars import sign


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple | None
    value: object | None


def _run(a, basis, cost) -> str:
    """Maximize cost . x from the basic feasible point of the tableau a.

    a holds one row per entry of basis, which names a unit column of a.
    The reduced-cost row of cost is appended as the last row, with minus
    the objective value as its rhs: it is priced once by subtracting each
    basic row times the cost on its basic column (a unit column, so no
    other row changes), and the simplex pivots keep it current.
    """
    red = cost + [Fraction(0)]
    for r, b in enumerate(basis):
        f = red[b]
        if f != 0:
            red = [x - f * y for x, y in zip(red, a[r])]
    a.append(red)
    while True:
        red = a[-1]
        enter = next((j for j in range(len(cost)) if red[j] > 0), -1)
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(len(basis)):
            p = a[i][enter]
            if p > 0:
                ratio = a[i][-1] / p
                s = 1 if best is None else sign(best - ratio)
                if s > 0 or (s == 0 and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(a, leave, enter)
        basis[leave] = enter


def solve_lp(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> LPResult:
    """Maximize c . x subject to A_ub x <= b_ub and A_eq x = b_eq, x free."""
    n = len(c)
    c = [Fraction(v) for v in c]
    nslack = len(A_ub)
    base_cols = 2 * n + nslack

    # rows [x+ | x- | slacks | rhs] with rhs >= 0; a row needs an artificial
    # column unless it is a <= row whose own +1 slack can start basic
    a, arts = [], []
    for i, (row, b) in enumerate(list(zip(A_ub, b_ub, strict=True))
                                 + list(zip(A_eq, b_eq, strict=True))):
        row = [Fraction(v) for v in row]
        if len(row) != n:
            raise ValueError("constraint row width does not match objective")
        body = row + [-x for x in row] + [Fraction(0)] * nslack
        if i < nslack:
            body[2 * n + i] = Fraction(1)
        b = b if isinstance(b, LogLin) else Fraction(b)
        flip = sign(b) < 0
        if flip:
            body = [-x for x in body]
            b = -b
        a.append(body + [b])
        if flip or i >= nslack:
            arts.append(i)

    basis = [2 * n + i for i in range(len(a))]
    for k, i in enumerate(arts):
        basis[i] = base_cols + k
    if arts:
        # phase 1: maximize minus the sum of the artificials
        for row, b in zip(a, basis):
            row[-1:-1] = [Fraction(int(b == base_cols + k)) for k in range(len(arts))]
        _run(a, basis, [Fraction(0)] * base_cols + [Fraction(-1)] * len(arts))
        # phase 1 is bounded above by 0; its objective row holds minus the optimum
        if sign(a.pop()[-1]) > 0:
            return LPResult("infeasible", None, None)
        # drive leftover artificials out of the basis, drop redundant rows
        keep = []
        for r, row in enumerate(a):
            if basis[r] >= base_cols:
                piv = next((j for j in range(base_cols) if row[j] != 0), -1)
                if piv < 0:
                    continue
                _pivot(a, r, piv)
                basis[r] = piv
            keep.append(r)
        a = [a[r][:base_cols] + a[r][-1:] for r in keep]
        basis = [basis[r] for r in keep]

    if _run(a, basis, c + [-v for v in c] + [Fraction(0)] * nslack) != "optimal":
        return LPResult("unbounded", None, None)

    full = [Fraction(0)] * base_cols
    for r, b in enumerate(basis):
        full[b] = a[r][-1]
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

"""Exact dense two-phase simplex with Bland's rule.

Variables are free (split internally into positive parts). Constraint and
objective coefficients must be rational; right-hand sides may be Fraction
or LogLin, in which case basic-variable values and the objective value are
LogLin. The tableau is a list of augmented rows [body | rhs] pivoted
fraction-free by `matrix._pivot`, and its last row holds the reduced
costs. Each constraint row is cleared of denominators by
`scalars._cleared`, so the body is integer and holds d times the true
tableau, with d > 0 the last pivot; every division in a pivot is exact.
Scaling a row rescales its slack and artificial by a positive factor,
which keeps every sign and every ratio-test winner, so the pivots are
those of the rational tableau. Bland's rule guarantees termination
without cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .loglin import LogLin
from .matrix import _pivot
from .scalars import _cleared, sign


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple | None
    value: object | None


def _run(a, basis, cost, d, unit):
    """Maximize cost . x from the basic feasible point of the tableau a.

    a holds d times the tableau, one row per entry of basis, which names a
    column of a that is d on its row and zero elsewhere. Column j's
    variable stands for unit[j] times a variable of the caller's problem.
    The reduced-cost row of the integer cost is appended as the last row,
    with minus the objective value as its rhs: it is priced once from
    d * cost by subtracting each basic row times the cost on its basic
    column, and the simplex pivots keep it current. Returns the status and
    the last pivot.
    """
    red = [d * v for v in cost] + [0]
    for r, b in enumerate(basis):
        f = cost[b]
        if f:
            red = [x - f * y for x, y in zip(red, a[r])]
    a.append(red)
    while True:
        red = a[-1]
        enter = next((j for j in range(len(cost)) if red[j] > 0), -1)
        if enter < 0:
            return "optimal", d
        # the least ratio rhs / p over the rows with p > 0, in which d
        # cancels; ints are cross-multiplied, and a LogLin ratio is taken in
        # the caller's variables (divided by unit[enter]), where its exact
        # sign is cheaper to decide
        leave, u = -1, unit[enter]
        for i in range(len(basis)):
            p = a[i][enter]
            if p > 0:
                q = a[i][-1]
                if leave < 0:
                    s = 1
                elif type(q) is int and type(qb) is int:
                    s = sign(qb * p - q * pb)
                else:
                    s = sign(_quotient(qb, pb * u) - _quotient(q, p * u))
                if s > 0 or (s == 0 and basis[i] < basis[leave]):
                    qb, pb, leave = q, p, i
        if leave < 0:
            return "unbounded", d
        d = _pivot(a, leave, enter, d)
        basis[leave] = enter


def _quotient(v, d):
    """v / d for an int d: a Fraction for an int v, else a LogLin."""
    return Fraction(v, d) if type(v) is int else v / d


def solve_lp(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> LPResult:
    """Maximize c . x subject to A_ub x <= b_ub and A_eq x = b_eq, x free."""
    n = len(c)
    c = [Fraction(v) for v in c]
    nslack = len(A_ub)
    base_cols = 2 * n + nslack

    # rows m * [x+ | x- | slacks | rhs] with rhs >= 0, m the least positive
    # integer that makes the row integral (the rhs too unless it is a
    # LogLin, which is multiplied by m); the slack entries stay +-1, so
    # slack i stands for m times the true slack; a row needs an artificial
    # column unless it is a <= row whose own +1 slack can start basic
    a, arts, unit = [], [], [1] * (2 * n)
    for i, (row, b) in enumerate(list(zip(A_ub, b_ub, strict=True))
                                 + list(zip(A_eq, b_eq, strict=True))):
        if len(row) != n:
            raise ValueError("constraint row width does not match objective")
        # ints and Fractions go to _cleared as they are; anything else,
        # such as a str or a bool, is read as a Fraction first
        row = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in row]
        if not (type(b) is int or type(b) is Fraction or isinstance(b, LogLin)):
            b = Fraction(b)
        flip = sign(b) < 0
        [[*row, b]], m = _cleared([row + [b]])
        body = row + [-x for x in row] + [0] * nslack
        if i < nslack:
            body[2 * n + i] = 1
            unit.append(m)
        if flip:
            body = [-x for x in body]
            b = -b
        a.append(body + [b])
        if flip or i >= nslack:
            arts.append((i, m))

    basis = [2 * n + i for i in range(len(a))]
    for k, (i, _) in enumerate(arts):
        basis[i] = base_cols + k
    d = 1
    if arts:
        # phase 1: maximize minus the sum of the true artificials; artificial
        # k stands for m_k times its true value, so it costs L / m_k with L
        # the lcm of the m_k
        for row, b in zip(a, basis):
            row[-1:-1] = [int(b == base_cols + k) for k in range(len(arts))]
        L = lcm(*(m for _, m in arts))
        _, d = _run(a, basis, [0] * base_cols + [-L // m for _, m in arts], d,
                    unit + [m for _, m in arts])
        # phase 1 is bounded above by 0; its objective row holds minus d L
        # times the optimum, whose sign is decided unscaled
        if sign(_quotient(a.pop()[-1], d * L)) > 0:
            return LPResult("infeasible", None, None)
        # drive leftover artificials out of the basis, drop redundant rows;
        # a row is negated first where its pivot is negative, so d stays
        # positive
        keep = []
        for r, row in enumerate(a):
            if basis[r] >= base_cols:
                piv = next((j for j in range(base_cols) if row[j] != 0), -1)
                if piv < 0:
                    continue
                if row[piv] < 0:
                    row[:] = [-x for x in row]
                d = _pivot(a, r, piv, d)
                basis[r] = piv
            keep.append(r)
        a = [a[r][:base_cols] + a[r][-1:] for r in keep]
        basis = [basis[r] for r in keep]

    [cost], _ = _cleared([c])
    status, d = _run(a, basis, cost + [-v for v in cost] + [0] * nslack, d, unit)
    if status != "optimal":
        return LPResult("unbounded", None, None)

    full = [Fraction(0)] * base_cols
    for r, b in enumerate(basis):
        full[b] = _quotient(a[r][-1], d)
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

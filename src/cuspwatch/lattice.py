"""Integer lattice routines: Hermite form, kernels, saturation, LLL.

All arithmetic is exact (int / Fraction). These back the construction of
integral bases of rational subspaces and their annihilators, and the
reduction-assisted search mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import PreconditionError
from .matrix import _dot
from .scalars import _cleared


def row_hnf(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U * A = H, H in row echelon form
    with positive pivots and entries above each pivot reduced into [0, pivot).
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        # gcd-reduce column c below row r
        while True:
            nz = [i for i in range(r, m) if A[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(A[i][c]), i))
            if piv != r:
                A[r], A[piv] = A[piv], A[r]
                U[r], U[piv] = U[piv], U[r]
            done = True
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                        U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if A[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and A[r][c] != 0:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
                U[r] = [-x for x in U[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
            if r == m:
                break
    return A, U


def int_kernel(rows: list[list[int]], n: int | None = None) -> list[list[int]]:
    """Basis of the saturated lattice {x in Z^n : A x = 0}.

    A is given by integer rows; x is a column vector. With no rows the
    kernel is all of Z^n (n must then be supplied).
    """
    if not rows:
        if n is None:
            raise PreconditionError("empty matrix needs explicit width")
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    width = len(rows[0])
    M = [list(col) for col in zip(*rows)]  # transpose, width x len(rows)
    H, U = row_hnf(M)
    out = []
    for i in range(width):
        if all(h == 0 for h in H[i]):
            out.append(U[i])
    return out


def saturation_pair(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Saturated integral bases of a rational subspace and its annihilator.

    Given rows of ints and Fractions spanning V inside Q^n, returns (B, F)
    where B's rows are a Z-basis of V intersected with Z^n and F's rows are
    a Z-basis of {f in Z^n : f . v = 0 for all v in V}. Both lattices are
    saturated, so B extends to a basis of Z^n.
    """
    mat = [_cleared([r])[0][0] for r in rows]
    if not mat:
        raise PreconditionError("no spanning rows given")
    n = len(mat[0])
    F = int_kernel(mat, n)
    B = int_kernel(F, n)
    return B, F


def positive_primitive(seq) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational to coprime ints."""
    [ints], _ = _cleared([seq])
    g = gcd(*ints)
    if g == 0:
        raise PreconditionError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def primitive_int_vector(seq) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    ints = list(positive_primitive(seq))
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def lll_reduce(rows) -> tuple[list[list[Fraction]], list[list[int]]]:
    """Exact-rational LLL reduction with the classic Lovasz constant 3/4.

    Returns (reduced, T) with T an integer unimodular matrix satisfying
    reduced = T * rows. Input rows must be linearly independent.
    """
    B = [[Fraction(x) for x in r] for r in rows]
    if not all(B):   # a row in R^0 is the zero vector
        raise PreconditionError("dependent rows in LLL input")
    k_n = len(B)
    T = [[1 if i == j else 0 for j in range(k_n)] for i in range(k_n)]

    def gram_schmidt():
        star = []
        mu = [[Fraction(0)] * k_n for _ in range(k_n)]
        norms = []
        for i in range(k_n):
            v = list(B[i])
            for j in range(i):
                num = _dot(B[i], star[j])
                if norms[j] == 0:
                    raise PreconditionError("dependent rows in LLL input")
                mu[i][j] = num / norms[j]
                v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
            star.append(v)
            norms.append(_dot(v, v))
            if norms[i] == 0:
                raise PreconditionError("dependent rows in LLL input")
        return star, mu, norms

    star, mu, norms = gram_schmidt()
    k = 1
    while k < k_n:
        for j in range(k - 1, -1, -1):
            q = _nearest_int(mu[k][j])
            if q:
                B[k] = [a - q * b for a, b in zip(B[k], B[j])]
                T[k] = [a - q * b for a, b in zip(T[k], T[j])]
                star, mu, norms = gram_schmidt()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            B[k], B[k - 1] = B[k - 1], B[k]
            T[k], T[k - 1] = T[k - 1], T[k]
            star, mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return B, T


def _nearest_int(x: Fraction) -> int:
    # round half toward even is irrelevant here; any nearest integer works
    return int((2 * x.numerator + x.denominator) // (2 * x.denominator)) if x >= 0 \
        else -int((-2 * x.numerator + x.denominator) // (2 * x.denominator))

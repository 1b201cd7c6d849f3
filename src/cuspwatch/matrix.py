"""Dense exact matrices over Fraction or QuadScalar entries.

Immutable, row-major, no floating point. Elimination is fraction-free
(Bareiss): rational rows are scaled to integers, the rows then hold the
last pivot times the reduced matrix, a common denominator, and each step
divides by the previous pivot exactly, with `//` on integers. QuadScalar
entries, and LogLin values in extra columns, go through the same steps
with field division; anything that supports +, -, *, / and an exact
`scalars.sign` qualifies.

Matrix indices are 0-based here; the 1-based tuples used elsewhere in the
package are a property of wedge multi-indices, not of Mat.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import PreconditionError
from .scalars import QuadScalar, _cleared, _rational, frac, frac_str, one_like, sign, zero_like


class Mat:
    """An immutable exact matrix."""

    __slots__ = ("rows", "nrows", "ncols", "_hash")

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(r) for r in rows)
        if not rs or not rs[0]:
            raise PreconditionError("empty matrix")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise PreconditionError("ragged rows")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", w)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Mat":
        return Mat(rows)

    @staticmethod
    def identity(n: int, like=Fraction(1)) -> "Mat":
        one = one_like(like)
        zero = zero_like(like)
        return Mat([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries: Sequence) -> "Mat":
        entries = list(entries)
        z = zero_like(entries[0])
        n = len(entries)
        return Mat([[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def rationalize(rows) -> "Mat":
        """Build a Fraction matrix, coercing ints/strings."""
        return Mat([[frac(x) for x in r] for r in rows])

    # -- basics ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i) -> tuple:
        return self.rows[i]

    def col(self, j) -> tuple:
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        # hashing a Fraction costs a modular inverse, so the rows are hashed once
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.rows))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows)))

    def map(self, f: Callable) -> "Mat":
        return Mat([[f(x) for x in r] for r in self.rows])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat([[self.rows[i][j] for j in col_idx] for i in row_idx])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.rows])

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise PreconditionError("shape mismatch")

    def scale(self, c) -> "Mat":
        return Mat([[c * a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise PreconditionError("shape mismatch in product")
            cols = other.transpose().rows
            return Mat([[_dot(r, c) for c in cols] for r in self.rows])
        return NotImplemented

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise PreconditionError("vector length mismatch")
        return tuple(_dot(r, vec) for r in self.rows)

    # -- elimination-based operations ------------------------------------------

    def det(self):
        if not self.is_square():
            raise PreconditionError("determinant of non-square matrix")
        return _gauss_jordan([list(r) for r in self.rows], self.ncols)[1]

    def rank(self) -> int:
        return len(_gauss_jordan([list(r) for r in self.rows], self.ncols)[0])

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        a = [list(r) for r in self.rows]
        pivots, _ = _gauss_jordan(a, self.ncols)
        return Mat(a), pivots

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right kernel {x : A x = 0} over the entry field."""
        R, pivots = self.rref()
        n = self.ncols
        free = [j for j in range(n) if j not in pivots]
        one = one_like(self.rows[0][0])
        zero = zero_like(self.rows[0][0])
        basis = []
        for f in free:
            v = [zero] * n
            v[f] = one
            for r_i, c in enumerate(pivots):
                v[c] = -R.rows[r_i][f]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Mat":
        if not self.is_square():
            raise PreconditionError("inverse of non-square matrix")
        n = self.nrows
        a = [list(r) + list(e) for r, e in zip(self.rows, Mat.identity(n, self.rows[0][0]).rows)]
        if len(_gauss_jordan(a, n)[0]) < n:
            raise PreconditionError("singular matrix")
        return Mat([r[n:] for r in a])

    def solve(self, rhs: Sequence):
        """Solve A x = rhs exactly; raises if inconsistent or underdetermined.

        rhs entries may live in any module over the entry field (for example
        LogLin values over Fraction matrices); only rhs entries are combined
        with matrix coefficients, never divided into them.
        """
        m, n = self.nrows, self.ncols
        if len(rhs) != m:
            raise PreconditionError("rhs length mismatch")
        a = [list(r) + [b] for r, b in zip(self.rows, rhs)]
        pivots, _ = _gauss_jordan(a, n)
        if any(sign(r[n]) for r in a[len(pivots):]):
            raise PreconditionError("inconsistent linear system")
        if len(pivots) < n:
            raise PreconditionError("underdetermined linear system")
        return tuple(r[n] for r in a[:n])

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        out = []
        for r in self.rows:
            row = []
            for x in r:
                row.append(x.to_json() if isinstance(x, QuadScalar) else frac_str(x))
            out.append(row)
        return out

    @staticmethod
    def from_json(obj) -> "Mat":
        """Entries are QuadScalar JSON objects or JSON rationals (`scalars._rational`)."""
        return Mat([[QuadScalar.from_json(x) if isinstance(x, dict) else _rational(x) for x in r]
                    for r in obj])


def _dot(r, c):
    """r . c as the left fold r[0]*c[0] + r[1]*c[1] + ..., so a sum with
    LogLin terms is built in one fixed order."""
    it = zip(r, c)
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def _gauss_jordan(a: list, ncols: int) -> tuple[tuple[int, ...], object]:
    """Reduce the augmented rows a in place to reduced row echelon form.

    Each row without QuadScalar entries is first cleared of denominators
    by `scalars._cleared`, so its rational entries become integers (any
    other entry, such as a LogLin, is multiplied by the same factor);
    `_bareiss` eliminates, and every row is divided by its D at the end.
    The columns after ncols may hold LogLin values. Returns the pivot
    columns and the determinant of the leading ncols columns (zero when a
    column has no pivot).
    """
    zero = zero_like(a[0][0])
    scale = 1
    for i, row in enumerate(a):
        if any(isinstance(x, QuadScalar) for x in row):
            continue
        (a[i],), k = _cleared([row])
        scale *= k
    pivots, d, negated = _bareiss(a, ncols)
    if type(d) is int:
        a[:] = [[Fraction(x, d) if type(x) is int else x / d for x in row] for row in a]
    else:
        a[:] = [[x / d for x in row] for row in a]
    if len(pivots) < ncols:
        return pivots, zero
    return pivots, (-d if negated else d) / Fraction(scale)


def _bareiss(a: list, ncols: int) -> tuple[tuple[int, ...], object, bool]:
    """(pivots, D, negated): one fraction-free pass (Bareiss, Math. Comp.
    1968) over the rows a, in place, leaving them at D times their reduced
    row echelon form, D the last pivot (1 if none). Pivots are taken in the
    first ncols columns, each the first nonzero entry of its column at or
    below the current row; negated says the row exchanges were odd, so on
    a square leading block of full rank, -D or D is its determinant.
    """
    m = len(a)
    d, negated = 1, False
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if sign(a[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            negated = not negated
        d = _pivot(a, r, c, d)
        pivots.append(c)
        if r + 1 == m:
            break
    return tuple(pivots), d, negated


def _pivot(a: list, r: int, c: int, d) -> object:
    """One fraction-free elimination step on the rows a, in place.

    The rows hold d times a tableau, d the previous pivot. Row r stays;
    every other row becomes (p * row - row[c] * a[r]) / d with p = a[r][c],
    so column c is cleared outside row r and the rows hold p times the
    tableau pivoted at (r, c). The division is exact: `//` on int entries
    over an int d (Bareiss), field division on every other entry, such as
    QuadScalar or LogLin ones. Returns p, the next d.
    """
    pr = a[r]
    p = pr[c]
    for i, row in enumerate(a):
        if i == r:
            continue
        f = row[c]
        if sign(f):
            new = [p * x - f * y for x, y in zip(row, pr)]
        elif p == d:
            continue
        else:
            new = [p * x for x in row]
        if d == 1:
            row[:] = new
        elif type(d) is int:
            row[:] = [v // d if type(v) is int else v / d for v in new]
        else:
            row[:] = [v / d for v in new]
    return p

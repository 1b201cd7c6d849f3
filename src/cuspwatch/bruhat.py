"""Pivoted triangular factorization against the longest Weyl representative.

For g with det 1 the factorization is g = w * n * w0 * b where w and w0 are
signed permutation matrices of determinant one, n is upper unipotent with
off-diagonal entries bounded by 1 in absolute value, and b is upper
triangular with positive diagonal. It is produced by Gaussian elimination
with partial pivoting (largest absolute value, ties to the smallest row
index), so the permutation part of w * w0 is exactly the pivot order.

`rank_profile_cell` computes the two-sided triangular cell of g from corner
ranks; it depends only on the cell, not on entry sizes, and the pivot
permutation can sit strictly below it in Bruhat order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InternalError, PreconditionError
from .matrix import Mat
from .scalars import QuadScalar, one_like, sign, zero_like
from .wedge import WedgeVector, apply_wedge_matrix


@dataclass(frozen=True)
class WeylElement:
    """Signed permutation matrix with determinant one."""

    rep: Mat

    def __post_init__(self):
        m = self.rep
        if not m.is_square():
            raise PreconditionError("Weyl representative must be square")
        n = m.nrows
        seen_rows = set()
        for j in range(n):
            nz = [i for i in range(n) if m[i, j] != 0]
            if len(nz) != 1 or abs(Fraction(m[nz[0], j])) != 1:
                raise PreconditionError("not a signed permutation matrix")
            seen_rows.add(nz[0])
        if len(seen_rows) != n or m.det() != 1:
            raise PreconditionError("signed permutation must have det 1")

    @property
    def n(self) -> int:
        return self.rep.nrows

    def _columns(self) -> list:
        """(row, entry) of the one nonzero entry of each column."""
        m, n = self.rep, self.n
        return [next((i, m[i, j]) for i in range(n) if m[i, j] != 0) for j in range(n)]

    @property
    def perm(self) -> tuple:
        """1-based images: rep maps e_k to (sign) e_perm[k-1]."""
        return tuple(i + 1 for i, _ in self._columns())

    @property
    def signs(self) -> tuple:
        return tuple(sign(v) for _, v in self._columns())

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        return cls(Mat.identity(n, Fraction(1)))

    @classmethod
    def longest(cls, n: int) -> "WeylElement":
        """Reversal representative: e_k to e_(n+1-k), one sign fixes det."""
        rows = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n):
            rows[n - 1 - k][k] = Fraction(1)
        if (n * (n - 1) // 2) % 2 == 1:
            rows[0][n - 1] = Fraction(-1)
        return cls(Mat.from_rows(rows))

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rep * other.rep)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rep.transpose())

    def apply_set(self, idx) -> tuple:
        p = self.perm
        return tuple(sorted(p[i - 1] for i in idx))

    def to_json(self):
        return {"perm": list(self.perm), "signs": list(self.signs)}


def bruhat_leq(p, q) -> bool:
    """Bruhat order on 1-based permutation tuples via sorted prefixes."""
    n = len(p)
    if len(q) != n:
        raise PreconditionError("permutation length mismatch")
    for i in range(1, n):
        a = sorted(p[:i])
        b = sorted(q[:i])
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


@dataclass(frozen=True)
class BruhatFactorization:
    w: WeylElement
    n: Mat
    b: Mat
    bound: object  # max |off-diagonal entry of n|

    @property
    def w0(self) -> WeylElement:
        return WeylElement.longest(self.n.nrows)

    def reconstruct(self) -> Mat:
        return self.w.rep * self.n * self.w0.rep * self.b

    def pivot_perm(self) -> tuple:
        """Permutation part of w * w0: the pivot order of the elimination."""
        return self.w.compose(self.w0).perm


def bruhat_factor(g: Mat) -> BruhatFactorization:
    if not g.is_square():
        raise PreconditionError("need a square matrix")
    if g.det() != 1:
        raise PreconditionError("need determinant exactly 1")
    n_dim = g.nrows
    one = one_like(g[0, 0])
    zero = zero_like(one)

    M = [[g[i, j] for j in range(n_dim)] for i in range(n_dim)]
    order = []
    remaining = list(range(n_dim))
    mults = {}
    for k in range(n_dim):
        piv_row = remaining[0]
        for r in remaining[1:]:
            if abs(M[r][k]) > abs(M[piv_row][k]):
                piv_row = r
        if M[piv_row][k] == 0:
            raise PreconditionError("singular input")  # unreachable for det 1
        order.append(piv_row)
        remaining.remove(piv_row)
        for rr in remaining:
            if M[rr][k] != 0:
                f = M[rr][k] / M[piv_row][k]
                mults[(rr, piv_row)] = f
                M[rr] = [a - f * b for a, b in zip(M[rr], M[piv_row])]

    U = Mat.from_rows([[M[order[k]][j] for j in range(n_dim)] for k in range(n_dim)])
    L_rows = [[one if a == bcol else zero for bcol in range(n_dim)] for a in range(n_dim)]
    for a in range(n_dim):
        for bcol in range(a):
            key = (order[a], order[bcol])
            if key in mults:
                L_rows[a][bcol] = mults[key]
    L = Mat.from_rows(L_rows)
    P = Mat.from_rows(
        [[one if j == order[k] else zero for j in range(n_dim)] for k in range(n_dim)]
    )

    signs = [sign(U[k, k]) for k in range(n_dim)]
    D = Mat.diagonal([one if s > 0 else -one for s in signs])
    b = D * U
    w0 = WeylElement.longest(n_dim)
    w0_rep = w0.rep.map(lambda v: sign(v) * one)
    n_mat = w0_rep * (D * L * D) * w0_rep.transpose()
    w_rep = P.transpose() * D * w0_rep.transpose()
    w = WeylElement(_rational_mat(w_rep))

    fac = BruhatFactorization(w=w, n=n_mat, b=b, bound=_off_diag_bound(n_mat))
    if fac.reconstruct() != g:
        raise InternalError("factorization failed to reconstruct input")
    return fac


def _rational_mat(m: Mat) -> Mat:
    def conv(v):
        if isinstance(v, QuadScalar):
            if not v.is_rational():
                raise PreconditionError("entry is not rational")
            return v.as_fraction()
        return Fraction(v)

    return m.map(conv)


def _off_diag_bound(n_mat: Mat):
    best = Fraction(0)
    for i in range(n_mat.nrows):
        for j in range(i + 1, n_mat.ncols):
            v = abs(n_mat[i, j])
            if sign(v - best) > 0:
                best = v
    return best


def rank_profile_cell(g: Mat) -> tuple:
    """Permutation of the two-sided triangular cell from corner ranks.

    r(i, k) = rank of the submatrix on rows i..n, columns 1..k (1-based).
    The double difference places a single 1 per column; the result is
    invariant under left and right multiplication by invertible upper
    triangular matrices.
    """
    if not g.is_square():
        raise PreconditionError("need a square matrix")
    n = g.nrows
    if g.det() == 0:
        raise PreconditionError("need an invertible matrix")

    def r(i, k):
        if i > n or k < 1:
            return 0
        sub = g.submatrix(range(i - 1, n), range(0, k))
        return sub.rank()

    out = []
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            d = r(i, k) - r(i + 1, k) - r(i, k - 1) + r(i + 1, k - 1)
            if d == 1:
                out.append(i)
                break
        else:
            raise InternalError("rank profile did not locate a pivot")
    return tuple(out)


@dataclass(frozen=True)
class WeightBoundReport:
    w_prime: WeylElement
    subset: tuple
    c: object
    coeff_at_subset: object
    norm: object
    holds: bool
    alt_subset: tuple
    alt_holds: bool


def weight_bound_check(h: Mat, j: int, v: WedgeVector | None = None) -> WeightBoundReport:
    """Check that the pivot-order component controls the wedge image norm.

    With v the standard coordinate j-plane, the coefficient of wedge^j(h) v
    at the subset S = (w w0)({1..j}) satisfies
        norm_inf(wedge^j(h) v) <= j! * max(1, beta)^j * |coeff at S|
    where beta bounds the off-diagonal entries of the unipotent part. The
    report also evaluates the same inequality at w({1..j}), which can fail
    (its coefficient may vanish, e.g. at the identity matrix).
    """
    h = _rational_mat(h)
    n = h.nrows
    if not 1 <= j <= n - 1:
        raise PreconditionError("need 1 <= j <= n-1")
    top = tuple(range(1, j + 1))
    if v is None:
        v = WedgeVector.basis_element(n, top)
    elif v.m != n or v.k != j or v.is_zero() or set(v.coeffs) != {top}:
        raise PreconditionError("v must be a nonzero multiple of the leading coordinate wedge")
    fac = bruhat_factor(h)
    w_prime = fac.w.compose(fac.w0)
    subset = w_prime.apply_set(range(1, j + 1))
    alt_subset = fac.w.apply_set(range(1, j + 1))
    beta = fac.bound
    big = beta if sign(beta - 1) > 0 else Fraction(1)
    c = Fraction(factorial(j))
    for _ in range(j):
        c = c * big
    image = apply_wedge_matrix(h, v)
    norm = image.norm_inf()
    lead = abs(image.coeff(subset))
    alt_lead = abs(image.coeff(alt_subset))
    return WeightBoundReport(
        w_prime=w_prime,
        subset=subset,
        c=c,
        coeff_at_subset=lead,
        norm=norm,
        holds=sign(norm - c * lead) <= 0,
        alt_subset=alt_subset,
        alt_holds=sign(norm - c * alt_lead) <= 0,
    )

"""A compact-quotient lattice inside SL4 from a rational quaternion algebra.

The order Z[i, j, k] with i^2 = -1, j^2 = 3, ij = -ji = k embeds into
2x2 matrices over Q(sqrt(3)); applying the embedding blockwise to 2x2
matrices over the order produces a lattice in SL4 whose membership is
decidable exactly. On top of that sit the combinatorial pieces of the
worked example: the positivity grading of 2-planes, dimension counts for
the divergence variety, and a two-witness divergence demo at the identity.

Multiplication table, derived once from the two generating relations and
associativity and frozen here (unit-tested against the embedding):
    ij = k   ji = -k   ik = -j   ki = j   jk = -3i   kj = 3i
    i^2 = -1   j^2 = 3   k^2 = 3
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .chars import SubgroupSpec
from .divergence import WitnessVector, _analyze, _verdict_json
from .errors import InternalError, PreconditionError
from .matrix import Mat
from .radicals import coords_to_matrix, radical_from_subspace, sl_dim, standard_radical
from .scalars import QuadScalar, frac, frac_str
from .wedge import leading_tuple, plucker

# basis order (1, i, j, k); entry (a, b) -> (index, coefficient) of e_a * e_b
_MUL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, 3), (1, -3)),
    ((3, 1), (2, 1), (1, 3), (0, 3)),
)


@dataclass(frozen=True)
class Quaternion:
    x0: Fraction
    x1: Fraction
    x2: Fraction
    x3: Fraction

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "x3"):
            object.__setattr__(self, name, frac(getattr(self, name)))

    @staticmethod
    def of(x0, x1=0, x2=0, x3=0) -> "Quaternion":
        return Quaternion(x0, x1, x2, x3)

    def coeffs(self) -> tuple:
        return (self.x0, self.x1, self.x2, self.x3)

    def __add__(self, other):
        other = _as_quat(other)
        return Quaternion(*[a + b for a, b in zip(self.coeffs(), other.coeffs())])

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(*[-a for a in self.coeffs()])

    def __sub__(self, other):
        return self + (-_as_quat(other))

    def __rsub__(self, other):
        return _as_quat(other) + (-self)

    def __mul__(self, other):
        other = _as_quat(other)
        out = [Fraction(0)] * 4
        for a, ca in enumerate(self.coeffs()):
            if ca == 0:
                continue
            for b, cb in enumerate(other.coeffs()):
                if cb == 0:
                    continue
                idx, c = _MUL[a][b]
                out[idx] += ca * cb * c
        return Quaternion(*out)

    def __rmul__(self, other):
        return _as_quat(other) * self

    def conj(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def nrd(self) -> Fraction:
        """Reduced norm x0^2 + x1^2 - 3 x2^2 - 3 x3^2 = q * conj(q)."""
        return self.x0 ** 2 + self.x1 ** 2 - 3 * self.x2 ** 2 - 3 * self.x3 ** 2

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs())

    def to_json(self):
        return [frac_str(c) for c in self.coeffs()]

    def __repr__(self):
        return "Quaternion(%s, %s, %s, %s)" % self.coeffs()


def _as_quat(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    return Quaternion(frac(x), 0, 0, 0)


QUAT_ONE = Quaternion(1, 0, 0, 0)
QUAT_I = Quaternion(0, 1, 0, 0)
QUAT_J = Quaternion(0, 0, 1, 0)
QUAT_K = Quaternion(0, 0, 0, 1)


def iota(q: Quaternion) -> Mat:
    """The 2x2 realization over Q(sqrt(3)): a ring homomorphism."""
    q = _as_quat(q)
    s = QuadScalar.of
    return Mat([
        [s(q.x0, q.x2, 3), s(-q.x1, q.x3, 3)],
        [s(q.x1, q.x3, 3), s(q.x0, -q.x2, 3)],
    ])


def iota2(entries) -> Mat:
    """Blockwise realization of a 2x2 quaternion matrix as a 4x4 matrix."""
    blocks = [[iota(q) for q in row] for row in entries]
    if len(blocks) != 2 or any(len(r) != 2 for r in blocks):
        raise PreconditionError("need a 2x2 grid of quaternions")
    rows = []
    for br in range(2):
        for r in range(2):
            row = []
            for bc in range(2):
                row.extend(blocks[br][bc].row(r))
            rows.append(row)
    return Mat(rows)


def _as_quad(x) -> QuadScalar:
    if isinstance(x, QuadScalar):
        if x.d != 3:
            raise PreconditionError("entries must live over sqrt(3)")
        return x
    return QuadScalar.rational(frac(x), 3)


def iota_inverse_block(block) -> Quaternion | None:
    """Invert the realization on one 2x2 block; None when inconsistent.

    The block is iota of a quaternion iff its four entries satisfy the two
    linear symmetries tying (0,0) to (1,1) and (0,1) to (1,0).
    """
    a = _as_quad(block[0][0])
    b = _as_quad(block[0][1])
    c = _as_quad(block[1][0])
    d = _as_quad(block[1][1])
    x0, x2 = a.a, a.b
    x1, x3 = -b.a, b.b
    if (c.a, c.b) != (x1, x3) or (d.a, d.b) != (x0, -x2):
        return None
    return Quaternion(x0, x1, x2, x3)


def quat_blocks(g: Mat):
    """Quaternion preimages of the four 2x2 blocks, or None."""
    if not g.is_square() or g.nrows != 4:
        raise PreconditionError("need a 4x4 matrix")
    out = []
    for br in (0, 2):
        row = []
        for bc in (0, 2):
            block = [[g[br + r, bc + c] for c in range(2)] for r in range(2)]
            q = iota_inverse_block(block)
            if q is None:
                return None
            row.append(q)
        out.append(row)
    return out


def in_gamma(g: Mat) -> bool:
    """Membership in the arithmetic lattice: blockwise integral preimage
    under the realization, and determinant one."""
    qs = quat_blocks(g)
    if qs is None:
        return False
    if not all(q.is_integral for row in qs for q in row):
        return False
    det = g.det()
    if isinstance(det, QuadScalar):
        return det == QuadScalar.rational(Fraction(1), 3)
    return det == 1


PERIOD_M = Mat.rationalize([
    [1, 0, 0, 0],
    [0, 0, -1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
])

UNIT_U = QuadScalar.of(2, 1, 3)   # 2 + sqrt(3), a unit: (2+s)(2-s) = 1


def verify_periodicity(u: QuadScalar | None = None, m: Mat | None = None) -> bool:
    """Exact check of the return-time identity behind the periodic orbit.

    Conjugating diag(u, u, 1/u, 1/u) by the fixed permutation-like matrix
    must produce diag(u, 1/u, u, 1/u), and that result must lie in the
    lattice. Everything is computed in Q(sqrt(3)); any failed equality
    reports False rather than raising.
    """
    if u is None:
        u = UNIT_U
    if m is None:
        m = PERIOD_M
    zero = QuadScalar.rational(Fraction(0), 3)
    m = m.map(lambda x: _as_quad(x))
    ui = u.inverse()
    flow = Mat.diagonal([u, u, ui, ui])
    expected = Mat.diagonal([u, ui, u, ui])
    conj = m.inverse() * flow * m
    for i in range(4):
        for k in range(4):
            want = expected[i, k] if i == k else zero
            if conj[i, k] != want:
                return False
    return in_gamma(conj)


def _check_alpha(alpha) -> tuple:
    a = tuple(frac(x) for x in alpha)
    if len(a) != 4:
        raise PreconditionError("need four exponents")
    if sum(a) != 0:
        raise PreconditionError("exponents must sum to zero")
    if not (a[0] < a[1] < a[2] < a[3]):
        raise PreconditionError("exponents must be strictly increasing")
    return a


def gr_plus(alpha):
    """The largest negative-sum index pair and the cell dimension.

    Pairs (i, j), i < j, with alpha_i + alpha_j < 0 form a lower set in
    the componentwise order with a unique maximum (i1, j1); the attached
    dimension is i1 + j1 - 3.
    """
    a = _check_alpha(alpha)
    pairs = [
        (i, j)
        for i in range(1, 5)
        for j in range(i + 1, 5)
        if a[i - 1] + a[j - 1] < 0
    ]
    top = None
    for p in pairs:
        if all(q[0] <= p[0] and q[1] <= p[1] for q in pairs):
            top = p
            break
    if top is None:
        raise InternalError("the pair set always has a componentwise maximum")
    return top, top[0] + top[1] - 3


def x_membership(rows) -> tuple:
    """Pivot cell of a 2-plane in Q^4: the dominant support index of its
    primitive wedge coordinates."""
    rows = [list(r) for r in rows]
    if len(rows) != 2 or any(len(r) != 4 for r in rows):
        raise PreconditionError("need two spanning vectors in Q^4")
    w = plucker([[frac(x) for x in r] for r in rows], 4)
    return leading_tuple(w)


def _stabilizer_dim() -> int:
    """Dimension of trace-zero matrices preserving both coordinate 2-planes.

    Conditions: the lower-left and upper-right 2x2 blocks vanish; computed
    as 15 minus the rank of the explicit constraint system.
    """
    conditions = [(2, 0), (3, 0), (2, 1), (3, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    dim = sl_dim(4)
    rows = []
    for (r, c) in conditions:
        row = []
        for k in range(dim):
            coords = [Fraction(0)] * dim
            coords[k] = Fraction(1)
            row.append(coords_to_matrix(4, coords)[r, c])
        rows.append(row)
    return dim - Mat.from_rows(rows).rank()


def v_g_check(alpha) -> tuple:
    """Dimension count of the divergence variety and its fiber stabilizer."""
    _, d = gr_plus(alpha)
    return 7 + 2 * d, _stabilizer_dim()


@dataclass(frozen=True)
class DemoResult:
    ok: bool
    certificate: object   # DivergenceCertificate | None
    uncovered: tuple | None
    witnesses: tuple

    def to_json(self):
        return _verdict_json(self.ok, self.uncovered, self.certificate)


def sl4_divergence_demo(alpha, tamper: bool = False) -> DemoResult:
    """Two-witness divergence certificate along the diagonal flow of alpha.

    The witnesses are the radicals of the two coordinate 2-planes, read at
    the identity. Requires the base plane span(e1, e2) to sit inside the
    positive cell of alpha. Tampering drops the second witness, which must
    break coverage.
    """
    a = _check_alpha(alpha)
    top, _ = gr_plus(a)
    base = x_membership([[1, 0, 0, 0], [0, 1, 0, 0]])
    if not (base[0] <= top[0] and base[1] <= top[1]):
        raise PreconditionError("base plane misses the positive cell")
    I4 = Mat.identity(4)
    radicals = [standard_radical(4, 2),
                radical_from_subspace([[0, 0, 1, 0], [0, 0, 0, 1]], 4)]
    if tamper:
        radicals = radicals[:1]
    witnesses = [replace(WitnessVector.from_radical(I4, r), label="") for r in radicals]
    ok, uncovered, cert = _analyze(I4, SubgroupSpec(4, (a,)), witnesses)
    return DemoResult(
        ok=ok, certificate=cert, uncovered=uncovered, witnesses=tuple(witnesses)
    )

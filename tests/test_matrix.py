from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch import matrix
from cuspwatch.errors import PreconditionError
from cuspwatch.loglin import LogLin
from cuspwatch.matrix import Mat
from cuspwatch.scalars import QuadScalar, one_like, sign, zero_like

F = Fraction


def test_constructors_and_access():
    m = Mat.rationalize([[1, "1/2"], [3, 4]])
    assert m[0, 1] == F(1, 2)
    assert m.row(1) == (F(3), F(4))
    assert m.col(0) == (F(1), F(3))
    assert Mat.identity(3)[2, 2] == 1
    assert Mat.diagonal([F(2), F(5)])[0, 1] == 0


def test_rejects_ragged_and_empty():
    with pytest.raises(PreconditionError):
        Mat([[1, 2], [3]])
    with pytest.raises(PreconditionError):
        Mat([])


def test_det_rank_inverse():
    m = Mat.rationalize([[2, 1], [1, 1]])
    assert m.det() == 1
    assert m.rank() == 2
    assert m.inverse() == Mat.rationalize([[1, -1], [-1, 2]])
    singular = Mat.rationalize([[1, 2], [2, 4]])
    assert singular.det() == 0
    assert singular.rank() == 1
    with pytest.raises(PreconditionError):
        singular.inverse()


def test_kernel_and_rref():
    m = Mat.rationalize([[1, 2, 3], [2, 4, 6]])
    R, pivots = m.rref()
    assert pivots == (0,)
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert all(sum(m[i, j] * v[j] for j in range(3)) == 0 for i in range(2))


def test_solve_exact():
    m = Mat.rationalize([[2, 0], [1, 3]])
    x = m.solve([F(4), F(5)])
    assert x == (F(2), F(1))
    # LogLin right-hand sides, as in the positive-alternative projection:
    # rhs entries are only ever multiplied by matrix entries
    log2, log3 = LogLin.log(2), LogLin.log(3)
    x = m.solve([log2 * 4 - 2, log3 + 1])
    assert x == (log2 * 2 - 1, (log3 - log2 * 2 + 2) / 3)
    tall = Mat.rationalize([[1, 1], [1, -1], [2, 0]])
    assert tall.solve([log2 + log3, log2 - log3, log2 * 2]) == (log2, log3)
    with pytest.raises(PreconditionError, match="inconsistent"):
        tall.solve([log2, log3, F(0)])
    with pytest.raises(PreconditionError, match="underdetermined"):
        Mat.rationalize([[1, 2], [2, 4]]).solve([log2, log2 * 2])


def test_quadratic_entries():
    s = QuadScalar.of
    u = s(2, 1, 3)
    m = Mat([[u, s(0, 0, 3)], [s(0, 0, 3), u.inverse()]])
    assert m.det() == QuadScalar.rational(1, 3)
    assert m.inverse() * m == Mat.diagonal([s(1, 0, 3), s(1, 0, 3)])
    assert m.rank() == 2
    R, pivots = m.rref()
    assert pivots == (0, 1) and R == Mat.diagonal([s(1, 0, 3), s(1, 0, 3)])
    # rows proportional over Q(sqrt 3) but not over Q: rank 1
    dep = Mat([[u, s(1, 0, 3), s(0, 1, 3)], [u * u, u, u * s(0, 1, 3)]])
    assert dep.rank() == 1
    R, pivots = dep.rref()
    assert pivots == (0,)
    assert R.rows[0] == (s(1, 0, 3), u.inverse(), u.inverse() * s(0, 1, 3))
    assert all(x.is_zero() for x in R.rows[1])


sl2_entries = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60)
@given(sl2_entries, sl2_entries, sl2_entries)
def test_inverse_round_trip(a, b, c):
    # force det 1: [[1+ab, a],[b, 1]] style Gauss frame with a shear
    m = Mat.rationalize([[1, a, c], [0, 1, b], [0, 0, 1]])
    assert m.det() == 1
    assert m * m.inverse() == Mat.identity(3)


@settings(max_examples=40)
@given(st.lists(st.lists(sl2_entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_transpose_invariant(rows):
    m = Mat.rationalize(rows)
    assert m.rank() == m.transpose().rank()


# -- reference elimination -------------------------------------------------

def reference_gauss_jordan(a, ncols):
    """`matrix._gauss_jordan` before it went fraction-free: the same pivot
    choice, with every pivot row scaled to one as it is taken."""
    m = len(a)
    det = one_like(a[0][0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if sign(a[i][c])), None)
        if piv is None:
            det = zero_like(a[0][0])
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det = det * a[r][c]
        reference_pivot(a, r, c, c)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(pivots), det


def reference_pivot(a, r, c, lo=0):
    """Scale row r so that a[r][c] is one and clear column c from every
    other row, from column lo on."""
    p = a[r][c]
    one, zero = one_like(p), zero_like(p)
    inv = one / p
    left = [x * inv for x in a[r][lo:c]]
    right = [x * inv for x in a[r][c + 1:]]
    a[r][lo:] = left + [one] + right
    for i, row in enumerate(a):
        f = row[c]
        if i != r and sign(f):
            row[lo:] = ([x - f * y for x, y in zip(row[lo:c], left)] + [zero]
                        + [x - f * y for x, y in zip(row[c + 1:], right)])


def eliminations(m, rhs):
    """repr of every Mat result that rests on elimination, or of the error."""
    out = []
    calls = [m.rank, m.rref, m.kernel_basis, lambda: m.solve(rhs)]
    if m.is_square():
        calls += [m.det, m.inverse]
    for call in calls:
        try:
            out.append(repr(call()))
        except PreconditionError as e:
            out.append(f"PreconditionError({e})")
    return out


def same_as_reference(m, rhs):
    with patch.object(matrix, "_gauss_jordan", reference_gauss_jordan):
        expected = eliminations(m, rhs)
    assert eliminations(m, rhs) == expected


entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def rational_systems(draw):
    """Up to 5x5 Fraction matrices whose last row may be a multiple of the
    first, with a right-hand side of Fractions and LogLins."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.one_of(st.just(m), st.integers(min_value=1, max_value=5)))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        k = draw(entries)
        rows[-1] = [k * x for x in rows[0]]
    logs = st.builds(lambda q, e: LogLin(q, ((2, e),)), entries, entries)
    rhs = draw(st.lists(st.one_of(entries, logs), min_size=m, max_size=m))
    return Mat(rows), rhs


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_elimination_matches_reference(system):
    same_as_reference(*system)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=4), st.data())
def test_quadratic_elimination_matches_reference(d, n, data):
    scalar = st.builds(lambda a, b: QuadScalar.of(a, b, d), entries, entries)
    rows = data.draw(st.lists(st.lists(scalar, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        k = data.draw(scalar)
        rows[-1] = [k * x for x in rows[0]]
    same_as_reference(Mat(rows), data.draw(st.lists(scalar, min_size=n, max_size=n)))


@st.composite
def integer_tableaux(draw):
    """(rows, ncols): up to 4x4 integer matrices whose last row may be a
    combination of the first two, and which may be widened to [G | I] with
    pivots taken in G only."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    ints = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        j, k = draw(ints), draw(ints)
        rows[-1] = [j * x + k * y for x, y in zip(rows[0], rows[min(1, m - 2)])]
    if draw(st.booleans()):
        rows = [row + [int(i == k) for k in range(m)] for i, row in enumerate(rows)]
    return rows, n


@settings(max_examples=150, deadline=None)
@given(integer_tableaux())
def test_bareiss_leaves_d_times_the_reference_rref(tableau):
    rows, ncols = tableau
    a = [list(r) for r in rows]
    pivots, D, negated = matrix._bareiss(a, ncols)
    ref = [[F(x) for x in r] for r in rows]
    ref_pivots, ref_det = reference_gauss_jordan(ref, ncols)
    assert pivots == ref_pivots
    assert a == [[D * x for x in r] for r in ref]
    assert all(type(x) is int for r in a for x in r)
    if len(rows) == ncols == len(pivots):
        det = Mat.rationalize([r[:ncols] for r in rows]).det()
        assert (-D if negated else D) == det == ref_det

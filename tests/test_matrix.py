from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch.errors import PreconditionError
from cuspwatch.loglin import LogLin
from cuspwatch.matrix import Mat
from cuspwatch.scalars import QuadScalar

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

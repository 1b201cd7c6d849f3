from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cuspwatch.lattice import (
    int_kernel,
    lll_reduce,
    positive_primitive,
    primitive_int_vector,
    row_hnf,
    saturation_pair,
)
from cuspwatch.loglin import LogLin
from cuspwatch.matrix import Mat
from cuspwatch.scalars import _cleared

F = Fraction


def test_clear_denominators():
    # one row at a time, as saturation_pair and positive_primitive clear
    assert _cleared([[F(1, 2), F(1, 3)]]) == ([[3, 2]], 6)
    assert _cleared([[F(2), F(4)]]) == ([[2, 4]], 1)
    assert _cleared([[]]) == ([[]], 1)
    assert _cleared([[0, F(0)]]) == ([[0, 0]], 1)
    assert _cleared([[3, -6]]) == ([[3, -6]], 1)
    assert _cleared([[2, F(-1, 4)]]) == ([[8, -1]], 4)
    [ints], _ = _cleared([[True, F(1, 2), 3]])
    assert ints == [2, 1, 6] and all(type(v) is int for v in ints)
    # an entry that is not rational is multiplied by d
    [row], d = _cleared([[F(1, 2), F(1, 3), LogLin(F(1, 5), ((3, 1),))]])
    assert d == 6 and row[:2] == [3, 2]
    assert row[2] == LogLin(F(6, 5), ((3, 6),))
    # several rows share one d
    assert _cleared([[F(1, 2)], [F(1, 3), 1]]) == ([[3], [2, 6]], 6)


def test_positive_primitive_keeps_sign():
    assert positive_primitive([2, -4]) == (1, -2)
    assert positive_primitive([-2, -4]) == (-1, -2)
    assert positive_primitive([F(1, 2), F(-3, 4)]) == (2, -3)


def test_primitive_int_vector_normalizes_leading_sign():
    assert primitive_int_vector([-2, -4]) == (1, 2)
    assert primitive_int_vector([0, -3, 6]) == (0, 1, -2)


def test_int_kernel_is_saturated():
    # kernel of (2, 4): generated by (2, -1), not (4, -2)
    ker = int_kernel([[2, 4]])
    assert len(ker) == 1
    v = ker[0]
    assert 2 * v[0] + 4 * v[1] == 0
    from math import gcd
    assert gcd(v[0], v[1]) == 1


def _minor_gcd(rows):
    from itertools import combinations
    from math import gcd
    m = Mat.rationalize([list(r) for r in rows])
    k = m.nrows
    g = 0
    for cols in combinations(range(m.ncols), k):
        g = gcd(g, abs(int(m.submatrix(range(k), cols).det())))
    return g


def test_saturation_pair_contract():
    rows = [[1, 0, 2], [0, 1, 1]]
    B, ann = saturation_pair(rows)
    # annihilator rows kill every input row
    for f in ann:
        for r in rows:
            assert sum(a * b for a, b in zip(f, r)) == 0
    # B spans the input rationally and both lattices are saturated
    stacked = Mat.rationalize([list(r) for r in B] + rows)
    assert stacked.rank() == 2
    assert _minor_gcd(B) == 1
    assert _minor_gcd(ann) == 1


def test_row_hnf_triangular():
    A = [[2, 4, 4], [-6, 6, 12]]
    H, U = row_hnf(A)
    Um = Mat.rationalize(U)
    assert abs(Um.det()) == 1
    assert Um * Mat.rationalize(A) == Mat.rationalize(H)
    assert H[0][0] > 0 and H[1][0] == 0


def test_lll_reduces_skew_basis():
    rows = [[1, 0], [1000001, 1]]
    red, T = lll_reduce(rows)
    # transform is unimodular and maps original rows to the reduced ones
    Tm = Mat.rationalize([list(r) for r in T])
    assert abs(Tm.det()) == 1
    prod = Tm * Mat.rationalize([list(r) for r in rows])
    assert [list(map(int, r)) for r in prod.rows] == [list(r) for r in red]
    assert max(abs(x) for r in red for x in r) <= 2


ints = st.integers(min_value=-30, max_value=30)


@settings(max_examples=50)
@given(st.lists(ints, min_size=2, max_size=5))
def test_positive_primitive_parallel(vec):
    if all(v == 0 for v in vec):
        return
    p = positive_primitive(vec)
    # p is a positive multiple of vec with coprime entries
    from math import gcd
    g = 0
    for x in p:
        g = gcd(g, abs(x))
    assert g == 1
    ratios = {F(a, b) for a, b in zip(vec, p) if b != 0}
    assert len(ratios) == 1 and next(iter(ratios)) > 0

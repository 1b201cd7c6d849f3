from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch.errors import DependentInput, NoUniqueLeadingTuple, PreconditionError
from cuspwatch.matrix import Mat
from cuspwatch.wedge import (
    WedgeVector,
    _shuffle,
    apply_wedge_matrix,
    leading_tuple,
    plucker,
    wedge_of_vectors,
)

F = Fraction


def test_plucker_of_coordinate_plane():
    w = plucker([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    assert w.coeffs == {(1, 2): F(1)}
    assert w.norm_inf() == 1


def test_plucker_scaling_invariance():
    a = plucker([[2, 0, 4], [0, 3, 3]], 3)
    b = plucker([[1, 0, 2], [0, 1, 1]], 3)
    assert a == b or a == b.scale(F(-1))


def test_plucker_rejects_dependent():
    with pytest.raises(DependentInput):
        plucker([[1, 2], [2, 4]], 2)


def test_wedge_of_vectors_raw_minors():
    # non-primitive on purpose: keeps the actual 2x2 minors
    w = wedge_of_vectors([[2, 0, 0], [0, 3, 0]], 3)
    assert w.coeffs == {(1, 2): F(6)}


def test_plucker_relation_holds_for_planes_in_4_space():
    w = plucker([[1, 2, 3, 4], [0, 1, 7, -2]], 4)
    c = w.coeff
    rel = (
        c((1, 2)) * c((3, 4))
        - c((1, 3)) * c((2, 4))
        + c((1, 4)) * c((2, 3))
    )
    assert rel == 0


def test_apply_wedge_matrix_matches_wedge_of_images():
    m = Mat.rationalize([[1, 2, 0], [0, 1, 5], [1, 0, 1]])
    rows = [[1, 0, 2], [0, 3, 1]]
    direct = wedge_of_vectors([m.apply(r) for r in rows], 3)
    via = apply_wedge_matrix(m, wedge_of_vectors(rows, 3))
    assert direct == via


def test_leading_tuple():
    w = WedgeVector(4, 2, {(1, 2): F(3), (1, 3): F(2), (2, 3): F(2)})
    assert leading_tuple(w) == (2, 3)
    tie = WedgeVector(4, 2, {(1, 4): F(1), (2, 3): F(1)})
    with pytest.raises(NoUniqueLeadingTuple):
        leading_tuple(tie)


def test_primitive():
    w = WedgeVector(3, 2, {(1, 2): F(4, 3), (1, 3): F(-2, 3)})
    p = w.primitive()
    assert p.coeffs == {(1, 2): F(2), (1, 3): F(-1)}


def test_json_round_trip():
    w = WedgeVector(4, 2, {(1, 2): F(3, 7), (3, 4): F(-1)})
    assert WedgeVector.from_json(w.to_json()) == w


@pytest.mark.parametrize("idx", [(2, 1), (1, 1), (0, 2), (1, 4), (1,), (1, 2, 3)])
def test_outside_multi_indices_are_checked(idx):
    with pytest.raises(PreconditionError):
        WedgeVector(3, 2, {idx: F(1)})
    with pytest.raises(PreconditionError):
        WedgeVector.from_json({"m": 3, "k": 2, "coeffs": [[list(idx), "1"]]})


def _same_as_checked(w):
    checked = WedgeVector(w.m, w.k, dict(w.coeffs))
    assert w == checked and repr(w) == repr(checked) and w.to_json() == checked.to_json()
    assert list(w.coeffs) == sorted(w.coeffs)
    assert all(type(c) is Fraction and c != 0 for c in w.coeffs.values())


small = st.integers(min_value=-4, max_value=4)
rational = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=60)
@given(st.data())
def test_wedge_determinant_compatibility(data):
    # minor identity: the coefficient at every k-subset, zeros included, is
    # the k x k minor of the coefficient matrix on those columns
    k = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=k, max_value=6))
    rows = data.draw(st.lists(st.lists(rational, min_size=m, max_size=m), min_size=k, max_size=k))
    w = wedge_of_vectors(rows, m)
    for cols in combinations(range(1, m + 1), k):
        assert w.coeff(cols) == Mat(rows).submatrix(range(k), [c - 1 for c in cols]).det()


@settings(max_examples=40)
@given(st.data())
def test_wedge_graded_anticommutative(data):
    m = data.draw(st.integers(min_value=2, max_value=6))
    k = data.draw(st.integers(min_value=1, max_value=m - 1))
    l = data.draw(st.integers(min_value=1, max_value=m - k))

    def draw_wedge(d):
        subs = list(combinations(range(1, m + 1), d))
        coeffs = data.draw(st.lists(rational, min_size=len(subs), max_size=len(subs)))
        return WedgeVector(m, d, dict(zip(subs, coeffs)))

    a, b = draw_wedge(k), draw_wedge(l)
    assert a.wedge(b) == b.wedge(a).scale((-1) ** (k * l))
    with pytest.raises(PreconditionError):
        a.wedge(WedgeVector.basis_element(m, tuple(range(1, m - k + 2))))
    with pytest.raises(PreconditionError):
        wedge_of_vectors([[1] * m] * (m + 1), m)
    with pytest.raises(PreconditionError):
        plucker([[1] * m] * (m + 1), m)


@settings(max_examples=30)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_full_wedge_is_det(rows):
    m = Mat.rationalize(rows)
    assert wedge_of_vectors(rows, 3).coeff((1, 2, 3)) == m.det()


@settings(max_examples=60)
@given(st.data())
def test_built_products_match_checked_construction(data):
    m = 5
    ka = data.draw(st.integers(0, 2))
    kb = data.draw(st.integers(1, 3))
    u = WedgeVector(m, ka, {i: data.draw(rational) for i in combinations(range(1, m + 1), ka)})
    v = WedgeVector(m, kb, {i: data.draw(rational) for i in combinations(range(1, m + 1), kb)})
    prod = u.wedge(v)
    for w in (prod, v + v, v - v, v.scale(F(0)), -v, apply_wedge_matrix(Mat.identity(m), v)):
        _same_as_checked(w)
    if not prod.is_zero():
        _same_as_checked(prod.primitive())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_apply_wedge_matrix_is_a_sum_of_minors(data):
    # Cauchy-Binet: the image coefficient at I is the sum over the support
    # of w_J det(mat[I, J]), with mixed int and Fraction entries in mat and
    # Fraction coefficients in w, so both are cleared of denominators
    r = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, min(r, m)))
    mat = Mat(data.draw(st.lists(st.lists(st.one_of(small, rational), min_size=m, max_size=m),
                                 min_size=r, max_size=r)))
    w = WedgeVector(m, k, {J: data.draw(rational) for J in combinations(range(1, m + 1), k)})
    got = apply_wedge_matrix(mat, w)
    for I in combinations(range(r), k):
        want = sum((c * mat.submatrix(I, [j - 1 for j in J]).det() for J, c in w.coeffs.items()), F(0))
        assert got.coeff([i + 1 for i in I]) == want
    _same_as_checked(got)


def _reference_shuffle(a, b):
    """Exterior product read off the concatenated index lists: a repeated
    index kills the term, and the sign is that of the swaps an explicit
    bubble sort of the concatenation makes."""
    out = {}
    for i1, c1 in a.items():
        for i2, c2 in b.items():
            seq = list(i1 + i2)
            if len(set(seq)) < len(seq):
                continue
            swaps = 0
            for end in range(len(seq) - 1, 0, -1):
                for t in range(end):
                    if seq[t] > seq[t + 1]:
                        seq[t], seq[t + 1] = seq[t + 1], seq[t]
                        swaps += 1
            key = tuple(seq)
            out[key] = out.get(key, 0) + (-1) ** swaps * c1 * c2
    return {i: c for i, c in out.items() if c}


def _coefficient_dicts(m, k, coeff):
    """Dicts on increasing k-tuples in 1..m; with m small, the two operands
    of a product often share an index."""
    idx = st.lists(st.integers(1, m), min_size=k, max_size=k, unique=True).map(
        lambda t: tuple(sorted(t)))
    return st.dictionaries(idx, coeff, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shuffle_matches_the_sorting_reference(data):
    m = data.draw(st.integers(1, 7), label="m")
    coeff = data.draw(st.sampled_from([small, rational]), label="ring")
    k = data.draw(st.integers(0, min(3, m)), label="left degree")
    # a degree-1 right operand takes the insertion branch, higher ones the sorted merge
    l = data.draw(st.integers(1, min(3, m)), label="right degree")
    left = data.draw(_coefficient_dicts(m, k, coeff), label="left")
    right = data.draw(_coefficient_dicts(m, l, coeff), label="right")
    got = _shuffle(left, right)
    assert got == _reference_shuffle(left, right)
    assert all(c != 0 for c in got.values())

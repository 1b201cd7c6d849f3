import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch.bruhat import (
    BruhatFactorization,
    WeylElement,
    bruhat_factor,
    bruhat_leq,
    rank_profile_cell,
    weight_bound_check,
)
from cuspwatch.errors import PreconditionError
from cuspwatch.matrix import Mat
from cuspwatch.scalars import QuadScalar
from cuspwatch.wedge import WedgeVector

F = Fraction


def random_sl(n, rng, height=10, steps=8):
    """Random SL_n(Q) as a word in elementary shears with bounded entries."""
    m = Mat.identity(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = F(rng.randint(-height, height), rng.randint(1, 4))
        E = [[F(1) if a == b else F(0) for b in range(n)] for a in range(n)]
        E[i][j] = c
        m = m * Mat(E)
    return m


def test_weyl_element_basics():
    w0 = WeylElement.longest(3)
    assert w0.perm == (3, 2, 1)
    assert w0.rep.det() == 1
    e = WeylElement.identity(4)
    assert e.perm == (1, 2, 3, 4)
    c = w0.compose(w0)
    assert c.perm == (1, 2, 3)


def test_identity_factorization():
    fac = bruhat_factor(Mat.identity(3))
    assert fac.n == Mat.identity(3)
    assert fac.b == Mat.identity(3)
    # w must be an inverse longest-element representative
    assert fac.w.compose(fac.w0).perm == (1, 2, 3)
    assert fac.reconstruct() == Mat.identity(3)


def test_longest_element_factorization():
    w0 = WeylElement.longest(3)
    fac = bruhat_factor(w0.rep)
    assert fac.n == Mat.identity(3)
    assert fac.w.perm == (1, 2, 3)
    assert fac.reconstruct() == w0.rep


def test_lower_shear_example():
    g = Mat.rationalize([[1, 0], [5, 1]])
    fac = bruhat_factor(g)
    assert fac.reconstruct() == g
    assert abs(fac.n[0, 1]) == F(1, 5)
    assert fac.bound == F(1, 5)


def test_factorization_over_quadratic_field():
    u = QuadScalar.of(2, 1, 3)     # 2 + sqrt(3), with inverse 2 - sqrt(3)
    one, zero = QuadScalar.rational(1, 3), QuadScalar.rational(0, 3)
    cases = [
        Mat.diagonal([u, u.conj()]),
        Mat([[one, zero], [u, one]]),
        Mat([[zero, -one], [one, u]]),          # zero corner entry
        Mat([[u.conj(), zero, zero], [one, u, zero], [zero, u, one]]),
    ]
    for g in cases:
        fac = bruhat_factor(g)
        assert fac.reconstruct() == g
        assert fac.bound <= 1
        n = g.nrows
        for i in range(n):
            assert fac.b[i, i] > 0
            assert fac.n[i, i] == 1
            for j in range(i):
                assert fac.b[i, j] == 0
                assert fac.n[i, j] == 0


def test_rejects_non_unimodular():
    with pytest.raises(PreconditionError):
        bruhat_factor(Mat.rationalize([[2, 0], [0, 1]]))


def test_reconstruction_and_entry_bound_random():
    rng = random.Random(101)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            g = random_sl(n, rng)
            fac = bruhat_factor(g)
            assert fac.reconstruct() == g
            assert fac.bound <= 1
            for i in range(n):
                assert fac.n[i, i] == 1
                for j in range(i):
                    assert fac.n[i, j] == 0


def test_pivot_perm_below_rank_profile_cell():
    # max-|entry| pivoting can pick a smaller Weyl chamber than the true
    # cell of g, but never a larger one: the pivot order is Bruhat-below
    # the rank-profile cell, with equality on generic inputs
    rng = random.Random(73)
    for n in (2, 3, 4):
        for _ in range(20):
            g = random_sl(n, rng)
            fac = bruhat_factor(g)
            assert bruhat_leq(fac.pivot_perm(), rank_profile_cell(g))


def test_pivot_perm_equals_cell_on_generic_fixtures():
    fixtures = [
        Mat.rationalize([[1, 0], [5, 1]]),
        Mat.rationalize([[0, -1], [1, 0]]),
        Mat.identity(3),
        WeylElement.longest(3).rep,
    ]
    for g in fixtures:
        fac = bruhat_factor(g)
        assert fac.pivot_perm() == rank_profile_cell(g)


def test_bruhat_leq_is_a_partial_order_on_s3():
    e = (1, 2, 3)
    w0 = (3, 2, 1)
    for p in [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)]:
        assert bruhat_leq(e, p)
        assert bruhat_leq(p, w0)
    assert not bruhat_leq((3, 1, 2), (2, 1, 3))
    assert not bruhat_leq(w0, e)


def test_weight_bound_identity():
    rep = weight_bound_check(Mat.identity(4), 2)
    assert rep.holds
    assert rep.c >= 1


def test_weight_bound_longest_element():
    w0 = WeylElement.longest(4)
    rep = weight_bound_check(w0.rep, 2)
    assert rep.holds
    # image of e1^e2 under the longest element is supported on e3^e4
    assert rep.subset == (3, 4)
    assert rep.coeff_at_subset == rep.norm == 1


def test_weight_bound_random_sl4():
    rng = random.Random(7)
    for _ in range(30):
        h = random_sl(4, rng)
        rep = weight_bound_check(h, 2)
        assert rep.holds
        # the certified inequality, re-checked from the report fields
        assert rep.norm <= rep.c * rep.coeff_at_subset
        # independent recomputation of the image norm
        from cuspwatch.wedge import apply_wedge_matrix
        v = WedgeVector.basis_element(4, (1, 2))
        assert apply_wedge_matrix(h, v).norm_inf() == rep.norm


def test_weight_bound_rejects_non_highest_vector():
    v = WedgeVector(4, 2, {(1, 3): F(1)})
    with pytest.raises(PreconditionError):
        weight_bound_check(Mat.identity(4), 2, v)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_factorization_property(seed):
    rng = random.Random(seed)
    g = random_sl(3, rng, height=6, steps=6)
    fac = bruhat_factor(g)
    assert fac.reconstruct() == g
    assert fac.bound <= 1

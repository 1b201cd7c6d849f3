from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch.errors import PreconditionError
from cuspwatch.matrix import Mat
from cuspwatch.scalars import QuadScalar
from cuspwatch.sl4q import (
    PERIOD_M,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    UNIT_U,
    Quaternion,
    gr_plus,
    in_gamma,
    iota,
    iota2,
    iota_inverse_block,
    quat_blocks,
    sl4_divergence_demo,
    v_g_check,
    verify_periodicity,
    x_membership,
)

F = Fraction


def _quats():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.builds(Quaternion, coeff, coeff, coeff, coeff)


# ------------------------------------------------------- the algebra

def test_defining_relations():
    i, j, k = QUAT_I, QUAT_J, QUAT_K
    one = QUAT_ONE
    assert i * i == -one
    assert j * j == 3 * one
    assert k * k == 3 * one
    assert i * j == k and j * i == -k
    assert j * k == -3 * i and k * j == 3 * i
    assert k * i == j and i * k == -j


def test_reduced_norm():
    q = Quaternion.of(1, 2, 3, 4)
    assert q.nrd() == 1 + 4 - 27 - 48
    assert q * q.conj() == q.nrd() * QUAT_ONE
    # the norm form is anisotropic over Q: nrd(q) = 0 forces q = 0
    assert Quaternion.of(0).nrd() == 0


@settings(max_examples=40, deadline=None)
@given(_quats(), _quats())
def test_norm_is_multiplicative(p, q):
    assert (p * q).nrd() == p.nrd() * q.nrd()


# ------------------------------------------------------ realization

def test_iota_of_generators():
    s = QuadScalar.of
    assert iota(QUAT_I) == Mat([[s(0, 0, 3), s(-1, 0, 3)], [s(1, 0, 3), s(0, 0, 3)]])
    assert iota(QUAT_J) == Mat([[s(0, 1, 3), s(0, 0, 3)], [s(0, 0, 3), s(0, -1, 3)]])
    assert iota(QUAT_K) == Mat([[s(0, 0, 3), s(0, 1, 3)], [s(0, 1, 3), s(0, 0, 3)]])


@settings(max_examples=40, deadline=None)
@given(_quats(), _quats())
def test_iota_is_a_ring_map(p, q):
    assert iota(p * q) == iota(p) * iota(q)
    assert iota(p + q) == iota(p) + iota(q)


@settings(max_examples=40, deadline=None)
@given(_quats())
def test_iota_inverse_round_trip(q):
    m = iota(q)
    back = iota_inverse_block([[m[0, 0], m[0, 1]], [m[1, 0], m[1, 1]]])
    assert back == q


def test_iota_determinant_is_reduced_norm():
    q = Quaternion.of(1, 2, 0, 1)
    assert iota(q).det() == QuadScalar.rational(q.nrd(), 3)


def test_iota_inverse_rejects_asymmetric_blocks():
    s = QuadScalar.of
    bad = [[s(1, 0, 3), s(0, 0, 3)], [s(0, 0, 3), s(2, 0, 3)]]
    assert iota_inverse_block(bad) is None


def test_quat_blocks():
    z = Quaternion.of(0)
    g = iota2([[QUAT_I, z], [z, QUAT_J]])
    qs = quat_blocks(g)
    assert qs == [[QUAT_I, z], [z, QUAT_J]]
    assert quat_blocks(Mat.identity(4)) == [[QUAT_ONE, z], [z, QUAT_ONE]]
    broken = Mat.rationalize([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert quat_blocks(broken) is None
    with pytest.raises(PreconditionError):
        quat_blocks(Mat.identity(3))


def test_in_gamma():
    z = Quaternion.of(0)
    assert in_gamma(Mat.identity(4))
    assert in_gamma(iota2([[QUAT_I, z], [z, QUAT_ONE]]))       # det nrd(i)=1
    assert not in_gamma(iota2([[QUAT_J, z], [z, QUAT_ONE]]))   # det -3
    half = Quaternion.of(F(1, 2))
    assert not in_gamma(iota2([[half, z], [z, Quaternion.of(4)]]))
    assert not in_gamma(Mat.rationalize(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


# ------------------------------------------------------- periodicity

def test_unit_identities():
    u = UNIT_U
    assert u * QuadScalar.of(2, -1, 3) == QuadScalar.rational(F(1), 3)
    assert u.inverse() == QuadScalar.of(2, -1, 3)
    # symbolic eigenvalue sum: u + 1/u = 4, twice over = trace 8
    assert u + u.inverse() == QuadScalar.rational(F(4), 3)
    q = Quaternion.of(2, 0, 1, 0)
    z = Quaternion.of(0)
    m = iota2([[q, z], [z, q]])
    assert m == Mat.diagonal([u, u.inverse(), u, u.inverse()])
    trace = m[0, 0] + m[1, 1] + m[2, 2] + m[3, 3]
    assert trace == QuadScalar.rational(F(8), 3)


def test_verify_periodicity():
    assert verify_periodicity() is True
    # same conjugation identity, but the preimage is no longer integral
    assert verify_periodicity(u=QuadScalar.of(2, 2, 3)) is False
    assert verify_periodicity(u=QuadScalar.of(1, 1, 3)) is False
    # wrong return matrix: the flow lands on the wrong diagonal
    assert verify_periodicity(m=Mat.identity(4)) is False
    # global sign of the return matrix is immaterial
    assert verify_periodicity(m=PERIOD_M.map(lambda x: -x)) is True


# ------------------------------------------------------- divergence data

def test_gr_plus_examples():
    assert gr_plus((-3, -1, 1, 3)) == ((1, 3), 1)
    assert gr_plus((-4, -1, 2, 3)) == ((1, 4), 2)
    assert gr_plus((-3, -2, 1, 4)) == ((2, 3), 2)


def test_gr_plus_rejects_bad_exponents():
    with pytest.raises(PreconditionError):
        gr_plus((-1, 0, 1))
    with pytest.raises(PreconditionError):
        gr_plus((-1, 0, 0, 2))
    with pytest.raises(PreconditionError):
        gr_plus((1, -1, -1, 1))


def test_x_membership_examples():
    assert x_membership([[1, 0, 0, 0], [0, 1, 0, 0]]) == (1, 2)
    assert x_membership([[1, 0, 1, 0], [0, 1, 0, 0]]) == (2, 3)
    assert x_membership([[0, 1, 0, 0], [0, 0, 1, 1]]) == (2, 4)
    with pytest.raises(PreconditionError):
        x_membership([[1, 0, 0, 0]])


def test_v_g_dimension_counts():
    assert v_g_check((-3, -1, 1, 3)) == (9, 7)
    assert v_g_check((-4, -1, 2, 3)) == (11, 7)


def test_demo_certifies_both_regimes():
    d = sl4_divergence_demo((-3, -1, 1, 3))
    assert d.ok and d.uncovered is None and len(d.witnesses) == 2
    assert d.certificate is not None
    assert sorted(d.to_json()) == ["certificate", "ok"]
    assert sl4_divergence_demo((-4, -1, 2, 3)).ok


def test_demo_tamper_detected():
    t = sl4_divergence_demo((-3, -1, 1, 3), tamper=True)
    assert not t.ok and t.uncovered == (F(-1),)
    assert sorted(t.to_json()) == ["ok", "uncovered"]

import json
from fractions import Fraction
from operator import ge, gt, le, lt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cuspwatch.errors import PreconditionError
from cuspwatch.loglin import LogLin
from cuspwatch.matrix import Mat
from cuspwatch.scalars import QuadScalar, frac, frac_str, one_like, parse_frac, sign, zero_like
from cuspwatch.wedge import WedgeVector

F = Fraction

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
fields = st.sampled_from([2, 3, 5])
log_terms = st.lists(
    st.tuples(st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20),
              st.fractions(min_value=-5, max_value=5, max_denominator=6)),
    max_size=3,
)


def test_frac_forms():
    assert frac(3, 4) == Fraction(3, 4)
    assert frac("3/4") == Fraction(3, 4)
    assert frac("-7") == Fraction(-7)
    assert parse_frac(" 5/10 ") == Fraction(1, 2)


@pytest.mark.parametrize("text", ["1/0", " -3/0 ", "0/0"])
def test_parse_frac_rejects_zero_denominator(text):
    with pytest.raises(PreconditionError):
        parse_frac(text)


def test_frac_str_round_trip():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(-8, 2)) == "-4"
    assert parse_frac(frac_str(Fraction(-355, 113))) == Fraction(-355, 113)


def test_quad_basic_arithmetic():
    # (2 + sqrt(3)) * (2 - sqrt(3)) = 1
    u = QuadScalar.of(2, 1, 3)
    v = QuadScalar.of(2, -1, 3)
    assert (u * v).is_one()
    assert u.inverse() == v
    assert u.norm() == 1
    assert u.conj() == v


def test_quad_sign_and_order():
    # 1 + sqrt(2) > 2 but 1 + sqrt(2) < 5/2
    x = QuadScalar.of(1, 1, 2)
    assert x > QuadScalar.rational(2, 2)
    assert x < QuadScalar.rational(Fraction(5, 2), 2)
    # sign decided exactly even when parts nearly cancel: 577/408 - sqrt(2) > 0
    y = QuadScalar.of(Fraction(577, 408), -1, 2)
    assert y.sign() == 1
    z = QuadScalar.of(Fraction(1393, 985), -1, 2)
    assert z.sign() == -1


def test_quad_division():
    a = QuadScalar.of(Fraction(1, 2), 3, 5)
    b = QuadScalar.of(-2, Fraction(7, 3), 5)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / QuadScalar.rational(0, 5)


def test_quad_mixed_with_rationals():
    a = QuadScalar.of(1, 1, 3)
    assert a + 1 == QuadScalar.of(2, 1, 3)
    assert 2 * a == QuadScalar.of(2, 2, 3)
    assert a - Fraction(1, 2) == QuadScalar.of(Fraction(1, 2), 1, 3)
    assert a == a + 0
    assert QuadScalar.rational(Fraction(7, 3), 3) == Fraction(7, 3)


def test_quad_json_round_trip():
    a = QuadScalar.of(Fraction(-3, 7), Fraction(5, 2), 3)
    assert QuadScalar.from_json(a.to_json()) == a


@given(rationals, rationals, rationals, rationals)
def test_quad_mul_commutes_with_conj(a, b, c, d):
    x = QuadScalar.of(a, b, 3)
    y = QuadScalar.of(c, d, 3)
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()


@given(rationals, rationals)
def test_quad_sign_matches_float(a, b):
    x = QuadScalar.of(a, b, 2)
    approx = a + b * 2 ** 0.5
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)


def _sign_by_order(x):
    lt, gt, eq = x < 0, x > 0, x == 0
    assert lt + gt + eq == 1
    return gt - lt


@given(rationals)
def test_sign_of_fraction_agrees_with_order(q):
    assert sign(q) == _sign_by_order(q)
    assert sign(q.numerator) == _sign_by_order(q.numerator)


@given(rationals, rationals, fields)
def test_sign_of_quad_agrees_with_order(a, b, d):
    x = QuadScalar.of(a, b, d)
    assert sign(x) == _sign_by_order(x) == x.sign()
    assert (sign(x) == 0) == x.is_zero()


@given(rationals, log_terms)
def test_sign_of_loglin_agrees_with_order(q, logs):
    for x in (LogLin(q), LogLin(q, logs)):
        assert sign(x) == _sign_by_order(x) == x.sign()
        approx = float(x)
        if abs(approx) > 1e-9:
            assert sign(x) == (1 if approx > 0 else -1)


@given(rationals, fields)
def test_sign_of_rational_is_the_same_in_every_scalar_type(q, d):
    assert sign(q) == sign(LogLin(q)) == sign(QuadScalar.rational(q, d))


def test_zero_and_one_follow_the_field():
    assert zero_like(Fraction(3)) == 0 and one_like(7) == 1
    assert type(one_like(7)) is Fraction
    x = QuadScalar.of(2, 1, 3)
    assert one_like(x) == QuadScalar.rational(1, 3) and one_like(x).d == 3
    assert zero_like(x).is_zero() and zero_like(x).d == 3
    assert one_like(QuadScalar.rational(0, 5)).d == 5


@pytest.mark.parametrize("d", [-3, 0, 1, 4, 8, 9, 12, 18, 50, 98, 1 << 40, 2 * 1009 ** 2])
def test_quad_rejects_d_that_is_not_square_free(d):
    with pytest.raises(PreconditionError):
        QuadScalar.of(2, -1, d)
    with pytest.raises(PreconditionError):
        QuadScalar.from_json({"a": "2", "b": "-1", "d": d})


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 30, 1009, 2 * 1009 * 1013])
def test_quad_accepts_square_free_d(d):
    x = QuadScalar.of(2, -1, d)
    assert QuadScalar.from_json(x.to_json()) == x
    assert sign(x) == (1 if d < 4 else -1)


def _real(x) -> float:
    if isinstance(x, QuadScalar):
        return float(x.a) + float(x.b) * x.d ** 0.5
    return float(x)


# values of both exact ordered types, compared with ints, Fractions and their
# own type; no two values lie within 1e-3 of each other unless equal, so
# floats give the expected order
ORDERED = {
    LogLin: [LogLin(F(1, 2)), LogLin.log(2), LogLin.log(2, -1), LogLin(1, ((F(3, 2), 2),))],
    QuadScalar: [QuadScalar.rational(F(1, 2), 3), QuadScalar.of(-1, 1, 3),
                 QuadScalar.of(1, -1, 3), QuadScalar.of(2, F(-1, 2), 3)],
}
PLAIN = [0, 1, -1, F(1, 2), F(-3, 4), F(7, 10)]


@pytest.mark.parametrize("kind", sorted(ORDERED, key=lambda t: t.__name__))
def test_order_and_abs_of_exact_ordered_types(kind):
    values = ORDERED[kind]
    for x in values:
        for y in PLAIN + values:
            fx, fy = _real(x), _real(y)
            for op in (lt, le, gt, ge):
                assert op(x, y) == op(fx, fy) and op(y, x) == op(fy, fx)
        a = abs(x)
        assert type(a) is kind and a == (x if _real(x) >= 0 else -x)


@pytest.mark.parametrize("x", [LogLin.log(2), QuadScalar.of(1, 1, 3)])
@pytest.mark.parametrize("other", [None, "1"])
def test_order_against_a_foreign_type_raises_type_error(x, other):
    for op in (lt, le, gt, ge):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)


def test_quad_order_across_fields_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        QuadScalar.of(0, 1, 2) < QuadScalar.of(0, 1, 3)


def test_hashing_of_exact_ordered_types():
    with pytest.raises(TypeError):
        hash(LogLin(F(3, 4)))
    assert hash(QuadScalar.rational(F(3, 4), 5)) == hash(F(3, 4))
    assert QuadScalar.rational(F(3, 4), 5) in {F(3, 4)}


# every from_json reads a rational entry through scalars._rational: an int
# or a "p/q" string, never a binary float or a bool
JSON_READERS = {
    "Mat": lambda x: Mat.from_json([[x, "1"]])[0, 0],
    "WedgeVector": lambda x: WedgeVector.from_json({"m": 2, "k": 1, "coeffs": [[[1], x]]})
    .coeff((1,)),
    "QuadScalar.a": lambda x: QuadScalar.from_json({"a": x, "b": "1", "d": 2}).a,
    "QuadScalar.b": lambda x: QuadScalar.from_json({"a": "1", "b": x, "d": 2}).b,
}

# the integer fields go through the same reader and must be whole: a float
# is never truncated (d = 3.9 is not sqrt(3)) and a bool is not 0 or 1
JSON_INT_READERS = {
    "QuadScalar.d": lambda x: QuadScalar.from_json({"a": "1", "b": "1", "d": x}).d,
    "WedgeVector.m": lambda x: WedgeVector.from_json({"m": x, "k": 1, "coeffs": []}).m,
    "WedgeVector.k": lambda x: WedgeVector.from_json({"m": 9, "k": x, "coeffs": []}).k,
}


@pytest.mark.parametrize("read", [*JSON_READERS.values(), *JSON_INT_READERS.values()],
                         ids=[*JSON_READERS, *JSON_INT_READERS])
@pytest.mark.parametrize("entry", [0.1, 2.0, True, False, None, [1], F(1, 2)])
def test_json_readers_refuse_floats_and_bools(read, entry):
    with pytest.raises(PreconditionError, match='is not an integer or "p/q"'):
        read(entry)


@pytest.mark.parametrize("read", JSON_INT_READERS.values(), ids=JSON_INT_READERS)
def test_json_integer_fields_refuse_p_over_q_and_accept_integers(read):
    with pytest.raises(PreconditionError, match='JSON entry "5/2" is not an integer$'):
        read("5/2")
    # "7", not "4": a radicand d must be square-free
    assert read(3) == 3 and read("7") == 7


@pytest.mark.parametrize("read", JSON_READERS.values(), ids=JSON_READERS)
def test_json_readers_accept_ints_and_p_over_q(read):
    assert read(3) == 3 and read(-5) == -5
    assert read("-22/7") == F(-22, 7) and read("4") == 4


def test_json_round_trips():
    m = Mat([[F(1, 2), QuadScalar.of(F(-3, 4), 2, 5)], [F(-7), QuadScalar.rational(1, 5)]])
    w = WedgeVector(4, 2, {(1, 2): F(3, 7), (3, 4): F(-1)})
    x = QuadScalar.of(F(5, 3), F(-1, 6), 7)
    for obj, cls in ((m, Mat), (w, WedgeVector), (x, QuadScalar)):
        assert cls.from_json(json.loads(json.dumps(obj.to_json()))) == obj


def test_the_fan_corpus_still_loads():
    corpus = json.loads((Path(__file__).resolve().parents[1]
                         / "perfbench" / "data" / "fan_corpus.json").read_text())
    for e in corpus:
        g = Mat.from_json(e["g"])
        assert g.det() == 1 and g.to_json() == e["g"]

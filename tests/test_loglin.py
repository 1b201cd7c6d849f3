from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

from cuspwatch import loglin
from cuspwatch.errors import PrecisionExhausted
from cuspwatch.loglin import LogLin

F = Fraction


def test_log_identities_cancel_exactly():
    assert (LogLin.log(2) + LogLin.log(3) - LogLin.log(6)).is_zero()
    assert (LogLin.log(F(1, 2)) + LogLin.log(2)).is_zero()
    assert (2 * LogLin.log(4) - 4 * LogLin.log(2)).is_zero()


def test_base_normalization():
    # bases below 1 fold into negated exponents; base 1 drops
    a = LogLin(0, ((F(1, 3), F(2)),))
    b = LogLin(0, ((F(3), F(-2)),))
    assert a == b
    assert LogLin(F(5), ((F(1), F(7)),)).is_rational()


def test_signs():
    assert LogLin.log(2).sign() == 1
    assert LogLin.log(F(1, 2)).sign() == -1
    assert (LogLin(F(1)) - LogLin.log(3)).sign() == -1       # 1 < log 3 ... no: log 3 ~ 1.0986
    assert (LogLin(F(11, 10)) - LogLin.log(3)).sign() == 1   # 1.1 > 1.0986
    assert LogLin(F(0)).sign() == 0


def test_close_call_sign_certified():
    # log(2) vs 25469/36744: the rational is a hair below
    q = F(25469, 36744)
    assert (LogLin.log(2) - LogLin(q)).sign() == 1
    # ... and a hair above with the next convergent-scale perturbation
    q2 = q + F(1, 10 ** 12)
    assert (LogLin.log(2) - LogLin(q2)).sign() in (-1, 1)


def test_comparisons_and_minmax():
    assert LogLin.log(2) < 1 < LogLin.log(3)


def test_mixed_arithmetic_with_fraction():
    x = LogLin.log(5)
    y = F(1, 2) + x        # reflected add
    z = x - F(1, 2)
    assert y - z == LogLin(F(1))
    assert (F(2) * x - x - x).is_zero()


def test_unhashable():
    with pytest.raises(TypeError):
        hash(LogLin.log(2))


def test_to_decimal_fixed_point():
    assert LogLin(F(1, 3)).to_decimal(10) == "0.3333333333"
    two = LogLin.log(2).to_decimal(30)
    assert two == "0.693147180559945309417232121458"
    assert LogLin(F(0)).to_decimal(5) == "0.00000"
    # 50-digit rendering of a mixed value stays stable
    v = (LogLin(F(-7, 3)) + 2 * LogLin.log(10)).to_decimal(50)
    assert v == "2.27183685265475803470264957603539508186886964392421"


def test_float_view():
    import math
    assert abs(float(LogLin.log(2)) - math.log(2)) < 1e-12


rat = st.fractions(min_value=-20, max_value=20, max_denominator=12)
base = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9).filter(
    lambda x: x > 0
)


@settings(max_examples=60)
@given(rat, base, base)
def test_sum_of_logs_is_log_of_product(q, b1, b2):
    left = LogLin(q) + LogLin.log(b1) + LogLin.log(b2)
    right = LogLin(q, ((b1 * b2, F(1)),))
    assert (left - right).is_zero()


@settings(max_examples=60)
@given(rat, rat)
def test_order_total_and_antisymmetric(a, b):
    x = LogLin(a) + LogLin.log(2) * 0
    y = LogLin(b)
    assert (x < y) == (a < b)
    assert (x == y) == (a == b)


# -- the sign against the direct construction it replaced -------------------


def _reference_interval_sign(q, P, s):
    prec = 128
    while prec <= 1 << 22:
        old = iv.prec
        try:
            iv.prec = prec
            logp = iv.log(iv.mpf(P.numerator)) - iv.log(iv.mpf(P.denominator))
            total = iv.mpf(q.numerator) / iv.mpf(q.denominator) + logp / s
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
        finally:
            iv.prec = old
        prec *= 2
    raise AssertionError("reference sign ran out of precision")


def reference_sign(v):
    """Sign of q + (1/s) log P with P = prod b^(e*s) built exactly first."""
    if not v.logs:
        return (v.rat > 0) - (v.rat < 0)
    s = 1
    for _, e in v.logs:
        s = lcm(s, e.denominator)
    P = F(1)
    for b, e in v.logs:
        P *= b ** int(e * s)
    if P == 1:
        return (v.rat > 0) - (v.rat < 0)
    if v.rat == 0:
        return 1 if P > 1 else -1
    return _reference_interval_sign(v.rat, P, s)


def _approx(logs, digits):
    """A rational that agrees with the log part of logs to `digits`
    significant digits."""
    with mp.workdps(digits + 10):
        x = mp.fsum(mp.mpf(e.numerator) / e.denominator
                    * mp.log(mp.mpf(b.numerator) / b.denominator) for b, e in logs)
        return F(Decimal(mp.nstr(x, digits, strip_zeros=False)))


dependent = st.sampled_from([F(2), F(4), F(8), F(3, 2), F(9, 4), F(1, 2), F(3)])
expo = st.fractions(min_value=-6, max_value=6, max_denominator=4)
terms = st.lists(st.tuples(dependent, expo), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(terms, st.sampled_from([0, F(1, 3), F(-7, 5), F(1, 10 ** 60), F(-1, 10 ** 60)]))
def test_sign_matches_reference_on_dependent_bases(logs, q):
    v = LogLin(q, logs)
    assert v.sign() == reference_sign(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), expo.filter(bool),
       st.sampled_from([0, F(1, 10 ** 90), F(-1, 10 ** 90), F(5, 7)]))
def test_sign_of_exact_cancellation(k, e, q):
    # e*log(2^k) - k*e*log(2) + q, with P == 1 whatever the exponents
    v = LogLin(q, ((F(2 ** k), e), (F(2), -k * e)))
    assert len(v.logs) == (2 if k > 1 else 0)
    assert v.sign() == reference_sign(v) == (q > 0) - (q < 0)


@settings(max_examples=25, deadline=None)
@given(terms.filter(lambda ls: not LogLin(0, ls).is_zero()), st.sampled_from([-1, 1]))
def test_sign_beyond_first_precision(logs, side):
    # rat cancels the log part to 80 digits, more than 128 bits resolve
    log_part = LogLin(0, logs)
    q = -_approx(log_part.logs, 80) + side * F(1, 10 ** 90)
    v = LogLin(q, logs)
    assert v.sign() == reference_sign(v)


def test_rat_zero_below_first_precision():
    # log(1 + 2^-300) is lost at 128 bits, so the sign comes from P - 1
    nu = F(2 ** 300 + 1, 2 ** 300)
    for e in (F(1), F(-3, 2)):
        v = LogLin(0, ((nu, e),))
        assert v.sign() == reference_sign(v) == (1 if e > 0 else -1)
    w = LogLin(F(1, 2 ** 400), ((nu, F(-1)),))
    assert w.sign() == reference_sign(w) == -1


def test_precision_exhausted_past_the_cap(monkeypatch):
    v = LogLin(-_approx(((F(3), F(1)),), 80), ((F(3), F(1)),))
    monkeypatch.setattr(loglin, "_MAX_PREC", 256)
    with pytest.raises(PrecisionExhausted):
        v.sign()


def test_enclosures_are_exact_and_tight():
    with mp.workdps(120):
        exact = mp.log(3)
        for prec in (128, 256):
            lo, hi = loglin._log_enclosure(3, 1, prec)
            assert isinstance(lo, F) and isinstance(hi, F)
            assert lo < hi and hi - lo < F(1, 2 ** (prec - 4))
            assert mp.mpf(lo.numerator) / lo.denominator <= exact
            assert exact <= mp.mpf(hi.numerator) / hi.denominator


values = st.builds(LogLin, rat, st.lists(st.tuples(dependent, expo), max_size=3))


@settings(max_examples=80, deadline=None)
@given(st.builds(LogLin, st.one_of(st.just(F(0)), rat),
                 st.lists(st.tuples(dependent, expo), max_size=3)),
       st.one_of(st.sampled_from([0, F(0)]), st.integers(-5, 5), rat))
def test_adding_a_rational_keeps_the_terms(v, q):
    # the rational fast path of __add__ (taking q as the rational part when
    # v's is 0) agrees with adding LogLin(q), from either side
    want = v + LogLin(q)
    for got in (v + q, q + v):
        assert type(got) is LogLin and type(got.rat) is F
        assert got == want and repr(got) == repr(want)
        assert got.to_json() == want.to_json()


@settings(max_examples=80, deadline=None)
@given(values, values, st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_built_values_match_checked_rebuild(a, b, c):
    built = [a + b, a - b, -a, c - a, a * c, c * a, a + c]
    if c:
        built.append(a / c)
    for v in built:
        w = LogLin(v.rat, v.logs)
        assert v == w
        assert repr(v) == repr(w)
        assert v.to_json() == w.to_json()

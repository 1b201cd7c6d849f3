"""Exact scalars.

Rational scalars are plain ``fractions.Fraction`` values; the stdlib type
already guarantees the normalized p/q invariants (gcd(p, q) = 1, q > 0), so
we do not wrap it. This module adds the quadratic field Q(sqrt(d)) for a
fixed square-free d, the "p/q" string codec used by all JSON surfaces and
its one reader of a JSON entry (`_rational`; `_integer` reads a
whole-number field through it), the one exact sign dispatch
over the package's scalar types (`sign`, `zero_like`, `one_like`), the one
order read from a sign (`_Ordered`, shared by `QuadScalar` and
`loglin.LogLin`), the one routine that clears rational rows of
denominators (`_cleared`), and the one sup norm (`_sup_norm`).

>>> u = QuadScalar.of(2, 1, 3)          # 2 + sqrt(3)
>>> (u * u.conj()).is_one()             # norm one unit
True
>>> parse_frac("-22/7")
Fraction(-22, 7)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from numbers import Rational

from .errors import PreconditionError


def sign(x) -> int:
    """Exact sign -1, 0 or 1 of an int, Fraction, QuadScalar or LogLin."""
    if isinstance(x, (int, Fraction)):
        n = x.numerator  # a Fraction's denominator is positive
        return (n > 0) - (n < 0)
    return x.sign()


def zero_like(x):
    """Zero of the field x lives in: Q(sqrt(d)) for a QuadScalar, else Q."""
    if isinstance(x, QuadScalar):
        return QuadScalar.rational(0, x.d)
    return Fraction(0)


def one_like(x):
    """One of the field x lives in: Q(sqrt(d)) for a QuadScalar, else Q."""
    if isinstance(x, QuadScalar):
        return QuadScalar.rational(1, x.d)
    return Fraction(1)


def _cleared(rows) -> tuple[list[list], int]:
    """(rows * d, d) for d the least positive integer that clears every
    Fraction entry of the rows; those entries come back as ints, and any
    other entry, such as an int or a LogLin, is multiplied by d. Strings
    must be parsed first: d times a str repeats it."""
    d = lcm(*[x.denominator for r in rows for x in r if type(x) is Fraction])
    return [[x.numerator * (d // x.denominator) if type(x) is Fraction else x * d for x in r]
            for r in rows], d


def _sup_norm(xs):
    """The largest absolute value among xs (nonempty)."""
    return max(map(abs, xs))


def frac(x, y=None) -> Fraction:
    """Coerce to Fraction. frac(3, 4) and frac("3/4") both work."""
    if y is not None:
        return Fraction(x, y)
    if isinstance(x, str):
        return parse_frac(x)
    return Fraction(x)


def _rational(x) -> Fraction:
    """A parsed JSON entry as a rational: an int that is not a bool, or a
    "p/q" string; a float or a bool is refused, never rounded or read as 0/1."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise PreconditionError("JSON entry %s is not an integer or \"p/q\""
                                % json.dumps(x, default=repr))
    return frac(x)


def _integer(x) -> int:
    """A parsed JSON integer field (a dimension, a degree, a radicand):
    _rational's entry, refused unless it is a whole number."""
    q = _rational(x)
    if q.denominator != 1:
        raise PreconditionError("JSON entry %s is not an integer" % json.dumps(x))
    return q.numerator


def parse_frac(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = (int(t) for t in s.split("/", 1))
        if den == 0:
            raise PreconditionError("zero denominator in %r" % s)
        return Fraction(num, den)
    return Fraction(int(s))


def frac_str(x: Rational) -> str:
    """Render a rational as "p" or "p/q" with q > 0."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _square_free(d: int) -> bool:
    """Whether no square of a prime divides d >= 1, by trial division up to
    the cube root of what is left; that rest has at most two prime factors,
    so it is square-free unless it is a perfect square above one."""
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 1
    return d == 1 or isqrt(d) ** 2 != d


class _Ordered:
    """The exact order of a scalar class, read from its `_cmp(other)`: the
    sign of self - other, or NotImplemented for a foreign type. Absolute
    values are read from the class's `sign`."""

    __slots__ = ()

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self


@dataclass(frozen=True)
class QuadScalar(_Ordered):
    """Element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d is a fixed positive square-free integer carried on every element;
    mixing elements with different d is an error. Arithmetic is exact.
    Rational numbers coerce automatically in mixed expressions.
    """

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def of(a, b, d: int) -> "QuadScalar":
        if d <= 1 or not _square_free(d):
            raise PreconditionError("QuadScalar requires square-free d > 1")
        return QuadScalar(Fraction(a), Fraction(b), d)

    @staticmethod
    def rational(a, d: int) -> "QuadScalar":
        return QuadScalar.of(a, 0, d)

    def _coerce(self, other) -> "QuadScalar":
        if isinstance(other, QuadScalar):
            if other.d != self.d:
                raise PreconditionError(f"mixed quadratic fields: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadScalar(Fraction(other), Fraction(0), self.d)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(o.a - self.a, o.b - self.b, self.d)

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(self.a * o.a + self.d * self.b * o.b,
                          self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("QuadScalar division by zero")
        return QuadScalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def conj(self) -> "QuadScalar":
        """Galois conjugate a - b*sqrt(d)."""
        return QuadScalar(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d b^2 (a rational)."""
        return self.a * self.a - self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise PreconditionError("not a rational element")
        return self.a

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadScalar):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(d), decided exactly.

        Compares a against -b*sqrt(d) by squaring; no floating point.
        """
        sa, sb = sign(self.a), sign(self.b)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the part of larger magnitude decides
        lhs, rhs = self.a * self.a, self.d * self.b * self.b
        return sa if lhs > rhs else sb if lhs < rhs else 0

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign()

    def __repr__(self):
        if self.b == 0:
            return f"QuadScalar({frac_str(self.a)})"
        return f"QuadScalar({frac_str(self.a)} + {frac_str(self.b)}*sqrt({self.d}))"

    def to_json(self) -> dict:
        return {"a": frac_str(self.a), "b": frac_str(self.b), "d": self.d}

    @staticmethod
    def from_json(obj: dict) -> "QuadScalar":
        return QuadScalar.of(_rational(obj["a"]), _rational(obj["b"]), _integer(obj["d"]))

"""Exact ordered scalars of the form q + sum_k e_k * log(nu_k).

`LogLin` models a rational number plus a rational combination of logarithms
of positive rationals. Every such value has a decidable sign:

* with no log terms the value is rational;
* otherwise collect the log part over a common denominator s, so the value
  is q + (1/s) * log(P) for a single rational P > 0 computed exactly. If
  P == 1 the value is q. If q == 0 the sign is the sign of P - 1. If both
  parts are nonzero the value itself is nonzero (log of a rational other
  than 1 is transcendental), so outward-rounded interval arithmetic at
  increasing precision terminates with a certified sign.

Comparisons, max/min, and decimal rendering all route through that sign
computation, which keeps every downstream decision exact.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

import mpmath
from mpmath import iv, mp

from .errors import PrecisionExhausted
from .scalars import frac_str, sign

_MAX_PREC = 1 << 22


def _interval_sign(rat: Fraction, P: Fraction, s: int) -> int:
    """Certified sign of rat + (1/s) log P, both parts nonzero."""
    prec = 128
    while prec <= _MAX_PREC:
        old = iv.prec
        try:
            iv.prec = prec
            logp = iv.log(iv.mpf(P.numerator)) - iv.log(iv.mpf(P.denominator))
            total = iv.mpf(rat.numerator) / iv.mpf(rat.denominator) + logp / s
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
        finally:
            iv.prec = old
        prec *= 2
    raise PrecisionExhausted(
        "interval sign refinement did not separate from zero at %d bits" % _MAX_PREC
    )


class LogLin:
    """q + sum of e * log(nu) with q, e rational and nu positive rational.

    Instances are immutable value objects with exact arithmetic against
    ints, Fractions, and each other, and exact total-order comparisons.
    Not hashable: use sorted containers or explicit keys instead.
    """

    __slots__ = ("rat", "logs", "_sign_memo")

    def __init__(self, rat=0, logs=()):
        object.__setattr__(self, "rat", Fraction(rat))
        merged: dict[Fraction, Fraction] = {}
        for base, e in logs:
            base = Fraction(base)
            e = Fraction(e)
            if base <= 0:
                raise ValueError("log term needs a positive rational base")
            if base == 1 or e == 0:
                continue
            if base < 1:
                base, e = 1 / base, -e
            merged[base] = merged.get(base, Fraction(0)) + e
        clean = tuple(sorted((b, e) for b, e in merged.items() if e != 0))
        object.__setattr__(self, "logs", clean)
        object.__setattr__(self, "_sign_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("LogLin is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "LogLin":
        if isinstance(x, LogLin):
            return x
        return LogLin(Fraction(x))

    @staticmethod
    def log(nu, coeff=1) -> "LogLin":
        """coeff * log(nu) for a positive rational nu."""
        return LogLin(0, ((Fraction(nu), Fraction(coeff)),))

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, LogLin):
            return other
        if isinstance(other, (int, Fraction)):
            return LogLin(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return LogLin(self.rat + o.rat, self.logs + o.logs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return LogLin(-self.rat, tuple((b, -e) for b, e in self.logs))

    def __mul__(self, other):
        if isinstance(other, LogLin):
            if not other.logs:
                other = other.rat
            elif not self.logs:
                return other * self.rat
            else:
                return NotImplemented  # products of logs leave the class
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        return LogLin(self.rat * c, tuple((b, e * c) for b, e in self.logs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, LogLin):
            if other.logs:
                return NotImplemented
            other = other.rat
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(other))

    # -- sign and order ----------------------------------------------------

    def sign(self) -> int:
        memo = self._sign_memo
        if memo is not None:
            return memo
        s = self._compute_sign()
        object.__setattr__(self, "_sign_memo", s)
        return s

    def _compute_sign(self) -> int:
        if not self.logs:
            return sign(self.rat)
        s = 1
        for _, e in self.logs:
            s = lcm(s, e.denominator)
        P = Fraction(1)
        for b, e in self.logs:
            P *= b ** int(e * s)
        if P == 1:
            return sign(self.rat)
        if self.rat == 0:
            return 1 if P > 1 else -1
        return _interval_sign(self.rat, P, s)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __bool__(self):
        return self.sign() != 0

    def _cmp(self, other) -> int:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not self.logs and not o.logs:
            a, b = self.rat, o.rat
            return 0 if a == b else (1 if a > b else -1)
        return (self - o).sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __ne__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c != 0

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

    __hash__ = None  # exact equality crosses representations; no stable hash

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rendering ---------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.logs or (self - LogLin(self.rat)).sign() == 0

    def _mpf(self):
        acc = mp.mpf(self.rat.numerator) / mp.mpf(self.rat.denominator)
        for b, e in self.logs:
            coeff = mp.mpf(e.numerator) / mp.mpf(e.denominator)
            acc += coeff * (mp.log(mp.mpf(b.numerator)) - mp.log(mp.mpf(b.denominator)))
        return acc

    def __float__(self):
        with mpmath.workprec(80):
            return float(self._mpf())

    def to_decimal(self, digits: int = 50) -> str:
        """Fixed-point decimal string with `digits` places after the point."""
        if digits < 1:
            raise ValueError("digits must be positive")
        with mpmath.workdps(digits + 15):
            text = mp.nstr(self._mpf(), digits + 10, strip_zeros=False)
        with localcontext() as ctx:
            ctx.prec = digits + len(text) + 10
            q = Decimal(text).quantize(Decimal(1).scaleb(-digits))
        return format(q, "f")

    def __repr__(self):
        terms = "".join(
            " + (%s)*log(%s)" % (e, b) for b, e in self.logs
        )
        return "LogLin(%s%s)" % (self.rat, terms)

    def to_json(self):
        return {
            "rat": frac_str(self.rat),
            "logs": [[frac_str(b), frac_str(e)] for b, e in self.logs],
            "decimal": self.to_decimal(30),
        }


def loglin_max(values):
    vals = list(values)
    best = vals[0]
    for v in vals[1:]:
        if LogLin.of(v) > LogLin.of(best):
            best = v
    return best


def loglin_min(values):
    vals = list(values)
    best = vals[0]
    for v in vals[1:]:
        if LogLin.of(v) < LogLin.of(best):
            best = v
    return best

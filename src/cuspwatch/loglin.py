"""Exact ordered scalars of the form q + sum_k e_k * log(nu_k).

`LogLin` models a rational number plus a rational combination of logarithms
of positive rationals. Every such value has a decidable sign, found in this
order:

* with no log terms the value is rational;
* otherwise add q + sum_k e_k * [lo_k, hi_k] in exact rationals, where
  [lo_k, hi_k] is an outward-rounded enclosure of log(nu_k) at the current
  precision, cached per (base, precision). If the sum excludes 0 its sign
  is the answer;
* the first time the sum straddles 0, collect the log part over a common
  denominator s, so the value is q + (1/s) * log(P) for a single rational
  P > 0 computed exactly. If P == 1 the value is q. If q == 0 the sign is
  the sign of P - 1;
* otherwise both parts are nonzero, so the value itself is nonzero (log of
  a rational other than 1 is transcendental), and doubling the precision
  of the enclosures terminates with a certified sign.

Comparisons (`_cmp`, from which `scalars._Ordered` reads the order) and
decimal rendering all route through that sign computation, which keeps
every downstream decision exact.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .errors import PrecisionExhausted
from .scalars import _Ordered, _cleared, frac_str, sign

_START_PREC = 128
_MAX_PREC = 1 << 22


def _mpf_fraction(m) -> Fraction:
    """The exact value of a finite raw mpf tuple (sign, man, exp, bc)."""
    neg, man, exp, _ = m
    if neg:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


@lru_cache(maxsize=256)
def _log_enclosure(num: int, den: int, prec: int) -> tuple[Fraction, Fraction]:
    """Exact rationals lo <= log(num/den) <= hi, outward-rounded at prec bits.

    Keyed on the base's integer parts, which hash faster than a Fraction.
    mpmath is imported here and in the decimal rendering, on first use, so a
    run that signs no log term does not load it.
    """
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = prec
        x = iv.log(iv.mpf(num)) - iv.log(iv.mpf(den))
    finally:
        iv.prec = old
    lo, hi = x._mpi_
    return _mpf_fraction(lo), _mpf_fraction(hi)


def _fraction(x) -> Fraction:
    """x as a Fraction, without a copy when it already is one."""
    return x if type(x) is Fraction else Fraction(x)


def _log_argument(logs) -> Fraction:
    """P = prod b^(e*s), s the lcm of the exponent denominators."""
    [es], _ = _cleared([[e for _, e in logs]])
    P = Fraction(1)
    for (b, _), e in zip(logs, es):
        P *= b ** e
    return P


def _merge(a: tuple, b: tuple) -> tuple:
    """Sum of two sorted, clean term tuples, still sorted and clean."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ba, bb = a[i][0], b[j][0]
        if ba < bb:
            out.append(a[i])
            i += 1
        elif bb < ba:
            out.append(b[j])
            j += 1
        else:
            e = a[i][1] + b[j][1]
            if e:
                out.append((ba, e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class LogLin(_Ordered):
    """q + sum of e * log(nu) with q, e rational and nu positive rational.

    Instances are immutable value objects with exact arithmetic against
    ints, Fractions, and each other, and exact total-order comparisons.
    Not hashable: use sorted containers or explicit keys instead.
    """

    __slots__ = ("rat", "logs")

    def __init__(self, rat=0, logs=()):
        object.__setattr__(self, "rat", _fraction(rat))
        terms = []
        for base, e in logs:
            base, e = _fraction(base), _fraction(e)
            n, d = base.numerator, base.denominator
            if n <= 0:
                raise ValueError("log term needs a positive rational base")
            if n == d or not e:
                continue
            terms.append((Fraction(d, n), -e) if n < d else (base, e))
        clean = []
        for b, e in sorted(terms):   # equal bases end up adjacent
            if clean and clean[-1][0] == b:
                e += clean.pop()[1]
            if e:
                clean.append((b, e))
        object.__setattr__(self, "logs", tuple(clean))

    @classmethod
    def _built(cls, rat: Fraction, logs: tuple) -> "LogLin":
        """Wrap data this class computed itself: a Fraction and (base, e)
        Fraction pairs sorted by base, with base > 1 and e != 0, so no term
        is checked again."""
        v = object.__new__(cls)
        object.__setattr__(v, "rat", rat)
        object.__setattr__(v, "logs", logs)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("LogLin is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def log(nu, coeff=1) -> "LogLin":
        """coeff * log(nu) for a positive rational nu."""
        return LogLin(0, ((Fraction(nu), Fraction(coeff)),))

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, LogLin):
            return other
        if isinstance(other, (int, Fraction)):
            return LogLin._built(_fraction(other), ())
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return LogLin._built(self.rat + o.rat, _merge(self.logs, o.logs))

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
        return LogLin._built(-self.rat, tuple((b, -e) for b, e in self.logs))

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
        c = _fraction(other)
        if not c:
            return LogLin._built(c, ())
        return LogLin._built(self.rat * c, tuple((b, e * c) for b, e in self.logs))

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
        rat, logs = self.rat, self.logs
        if not logs:
            return sign(rat)
        exact_tried = False
        prec = _START_PREC
        while prec <= _MAX_PREC:
            # the value lies in [lo_n / lo_d, hi_n / hi_d]: exact rationals
            # with positive denominators, left unreduced since only the
            # signs of lo_n and hi_n are read
            lo_n = hi_n = rat.numerator
            lo_d = hi_d = rat.denominator
            for b, e in logs:
                p, q = e.numerator, e.denominator
                lo_b, hi_b = _log_enclosure(b.numerator, b.denominator, prec)
                if p < 0:
                    lo_b, hi_b = hi_b, lo_b
                lo_n = lo_n * q * lo_b.denominator + p * lo_b.numerator * lo_d
                lo_d *= q * lo_b.denominator
                hi_n = hi_n * q * hi_b.denominator + p * hi_b.numerator * hi_d
                hi_d *= q * hi_b.denominator
            if lo_n > 0:
                return 1
            if hi_n < 0:
                return -1
            if not exact_tried:
                exact_tried = True
                P = _log_argument(logs)
                if P == 1:
                    return sign(rat)
                if rat == 0:
                    return 1 if P > 1 else -1
            prec *= 2
        raise PrecisionExhausted(
            "interval sign refinement did not separate from zero at %d bits" % _MAX_PREC
        )

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

    __hash__ = None  # exact equality crosses representations; no stable hash

    # -- rendering ---------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.logs or (self - LogLin(self.rat)).sign() == 0

    def _mpf(self):
        from mpmath import mp

        acc = mp.mpf(self.rat.numerator) / mp.mpf(self.rat.denominator)
        for b, e in self.logs:
            coeff = mp.mpf(e.numerator) / mp.mpf(e.denominator)
            acc += coeff * (mp.log(mp.mpf(b.numerator)) - mp.log(mp.mpf(b.denominator)))
        return acc

    def __float__(self):
        from mpmath import mp

        with mp.workprec(80):
            return float(self._mpf())

    def to_decimal(self, digits: int = 50) -> str:
        """Fixed-point decimal string with `digits` places after the point."""
        if digits < 1:
            raise ValueError("digits must be positive")
        from mpmath import mp

        with mp.workdps(digits + 15):
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


"""Diagonal characters and restriction data for diagonal subgroups.

A character is an integer coefficient vector (c_1, ..., c_n) read against
the diagonal entries; on trace-zero directions only the class of c modulo
constant vectors matters, so equality and hashing quotient by the all-ones
vector while the raw coefficients are kept for exact evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from operator import mul

from .errors import DependentInput, PreconditionError
from .matrix import Mat
from .scalars import _cleared, frac_str


@dataclass(frozen=True)
class Character:
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not all(type(c) is int for c in coeffs):
            if any(Fraction(c).denominator != 1 for c in coeffs):
                raise PreconditionError("character coefficients must be integers")
            coeffs = tuple(int(c) for c in coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not self.coeffs:
            raise PreconditionError("character needs at least one coefficient")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def eval(self, direction) -> Fraction:
        """Pair with a diagonal direction vector (callers pass trace zero)."""
        d = [Fraction(x) for x in direction]
        if len(d) != self.n:
            raise PreconditionError("direction length mismatch")
        return sum((c * x for c, x in zip(self.coeffs, d)), Fraction(0))

    def canonical(self) -> tuple:
        """Primitive sum-zero representative; used for display and keys only.

        Scaling is not applied to the working coefficients because distinct
        multiples of a character are distinct weights.
        """
        n = self.n
        total = sum(self.coeffs)
        v = [n * c - total for c in self.coeffs]
        g = gcd(*v) or 1
        return tuple(x // g for x in v)

    def shifted(self) -> tuple:
        """The coefficients less the first, the key of equality and hashing."""
        c0 = self.coeffs[0]
        return tuple(c - c0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == self.coeffs[0] for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.shifted() == other.shifted()

    def __hash__(self):
        return hash(self.shifted())

    def __add__(self, other):
        if not isinstance(other, Character) or other.n != self.n:
            return NotImplemented
        return Character(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Character(tuple(-c for c in self.coeffs))

    def scaled(self, k: int) -> "Character":
        return Character(tuple(k * c for c in self.coeffs))

    def sort_key(self):
        return self.canonical()

    def __repr__(self):
        return "Character%r" % (self.coeffs,)

    def to_json(self):
        return list(self.canonical())


def subset_weight(idx, n: int) -> Character:
    """Weight of the wedge basis vector e_I on the diagonal (1-based I)."""
    c = [0] * n
    for i in idx:
        c[i - 1] += 1
    return Character(tuple(c))


def ambient_independent(chars) -> bool:
    """Linear independence in the quotient by constant vectors."""
    rows = [list(ch.shifted())[1:] for ch in chars]  # drop the pinned zero
    if not rows:
        return True
    if any(len(r) == 0 for r in rows):
        return False  # n = 1 has no nonzero characters
    m = Mat.from_rows([[Fraction(x) for x in r] for r in rows])
    return m.rank() == len(rows)


@dataclass(frozen=True)
class SubgroupSpec:
    """A diagonal subgroup given by a basis of trace-zero direction vectors.

    Points of the parameter space are coordinate tuples s against this
    basis; norms are coordinate sup norms in these coordinates. The hash is
    computed once, on construction, as memos key on the subgroup; equality
    compares the fields.
    """

    n: int
    basis: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.basis)
        object.__setattr__(self, "basis", rows)
        if not rows:
            raise PreconditionError("subgroup needs at least one direction")
        for row in rows:
            if len(row) != self.n:
                raise PreconditionError("direction length mismatch")
            if sum(row) != 0:
                raise PreconditionError("directions must be trace zero")
        m = Mat.from_rows([list(r) for r in rows])
        if m.rank() != len(rows):
            raise DependentInput("subgroup basis directions are dependent")
        object.__setattr__(self, "_hash", hash((self.n, rows)))

    def __hash__(self):
        return self._hash

    @classmethod
    def full_torus(cls, n: int) -> "SubgroupSpec":
        rows = []
        for i in range(n - 1):
            row = [0] * n
            row[i] = 1
            row[i + 1] = -1
            rows.append(tuple(row))
        return cls(n, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def direction(self, s) -> tuple:
        """The diagonal vector sum_i s_i D_i."""
        s = [Fraction(x) for x in s]
        if len(s) != self.dim:
            raise PreconditionError("coordinate length mismatch")
        out = [Fraction(0)] * self.n
        for coeff, row in zip(s, self.basis):
            for k in range(self.n):
                out[k] += coeff * row[k]
        return tuple(out)

    @cached_property
    def _int_basis(self) -> tuple:
        """(integer rows, d) with basis = integer rows / d."""
        return _cleared(self.basis)

    def restrict(self, char: Character) -> tuple:
        """Coefficients of the character as a functional in s-coordinates."""
        if char.n != self.n:
            raise PreconditionError("direction length mismatch")
        rows, d = self._int_basis
        return tuple(Fraction(sum(c * x for c, x in zip(char.coeffs, row)), d) for row in rows)

    def primitive_form(self, coeffs: tuple) -> tuple | None:
        """The restriction of the character with these integer coefficients
        as a primitive integer row, a positive multiple of restrict's, or
        None when it restricts to zero."""
        if len(coeffs) != self.n:
            raise PreconditionError("direction length mismatch")
        r = [sum(map(mul, coeffs, row)) for row in self._int_basis[0]]
        k = gcd(*r)
        return tuple(x // k for x in r) if k else None

    def to_json(self):
        return {"n": self.n, "basis": [[frac_str(x) for x in r] for r in self.basis]}


def box_points(dim: int, radius, step):
    """The grid points of the sup-norm box [-radius, radius]^dim: on every
    axis -radius, -radius + step, ... up to radius, in product order."""
    r, step = Fraction(radius), Fraction(step)
    if step <= 0 or r < 0:
        raise PreconditionError("grid axis needs step > 0 and hi >= lo")
    axis = []
    t = -r
    while t <= r:
        axis.append(t)
        t += step
    return product(axis, repeat=dim)


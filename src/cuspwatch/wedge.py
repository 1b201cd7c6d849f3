"""Exterior powers over the rationals.

A WedgeVector is a sparse element of the k-th exterior power of Q^m,
stored as {increasing 1-based index tuple: nonzero Fraction}. The basis
is e_I = e_{i1} ^ ... ^ e_{ik} for I = (i1 < ... < ik); multi-indices are
1-based throughout because that is the convention used by every tuple
surface of this package (leading tuples, Grassmannian strata, and so on).

Primitive normalization scales a nonzero rational wedge vector so that all
coefficients are coprime integers and the lexicographically first nonzero
coefficient is positive.

Every exterior product goes through one shuffle kernel, `_shuffle`, over
coefficient dicts of any exact ring. It reads the sign of e_I ^ e_J by
bisecting each index of J into I: the entries of I above it are its
inversions, and an equal entry just below the bisection point makes the
term vanish. A one-index J is spliced in at that point; a longer J is
merged by sorting. `WedgeVector.wedge` runs it on Fractions; the minors of
explicit vectors are taken over integers, the rows cleared of
denominators once and each minor divided once at the end, and
`apply_wedge_matrix` takes its column minors the same way.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction

from .errors import DependentInput, NoUniqueLeadingTuple, PreconditionError
from .lattice import primitive_int_vector
from .matrix import Mat
from .scalars import _cleared, _integer, _rational, _sup_norm, frac_str


class WedgeVector:
    """Sparse exact element of Lambda^k Q^m."""

    __slots__ = ("m", "k", "coeffs")

    def __init__(self, m: int, k: int, coeffs: dict[tuple[int, ...], Fraction]):
        if not (0 <= k <= m):
            raise PreconditionError(f"degree {k} out of range for ambient dimension {m}")
        clean = {}
        for idx, c in coeffs.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c == 0:
                continue
            idx = tuple(idx)
            if len(idx) != k or any(not (1 <= i <= m) for i in idx) or list(idx) != sorted(set(idx)):
                raise PreconditionError(f"bad multi-index {idx} for Lambda^{k} Q^{m}")
            clean[idx] = c
        self._fill(m, k, clean)

    @classmethod
    def _built(cls, m: int, k: int, coeffs: dict[tuple[int, ...], Fraction]) -> "WedgeVector":
        """Wrap coefficients this class computed itself: Fraction values on
        increasing in-range k-tuples, so no index is checked again."""
        w = object.__new__(cls)
        w._fill(m, k, {idx: c for idx, c in coeffs.items() if c})
        return w

    def _fill(self, m, k, clean):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("WedgeVector is immutable")

    @staticmethod
    def basis_element(m: int, idx: tuple[int, ...]) -> "WedgeVector":
        return WedgeVector(m, len(idx), {tuple(idx): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[tuple[int, ...]]:
        return list(self.coeffs.keys())

    def coeff(self, idx) -> Fraction:
        return self.coeffs.get(tuple(idx), Fraction(0))

    def norm_inf(self) -> Fraction:
        """Sup norm over coefficients.

        Each weight space of the ambient torus action is spanned by distinct
        basis multi-indices, so the max over weight components of the
        per-component sup norm equals the plain max over coefficients.
        """
        return _sup_norm(self.coeffs.values()) if self.coeffs else Fraction(0)

    def scale(self, c) -> "WedgeVector":
        c = Fraction(c)
        return WedgeVector._built(self.m, self.k, {i: c * v for i, v in self.coeffs.items()})

    def __add__(self, other: "WedgeVector") -> "WedgeVector":
        if self.m != other.m or self.k != other.k:
            raise PreconditionError("wedge vector shape mismatch")
        out = dict(self.coeffs)
        for i, v in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + v
        return WedgeVector._built(self.m, self.k, out)

    def __sub__(self, other: "WedgeVector") -> "WedgeVector":
        return self + other.scale(-1)

    def __neg__(self) -> "WedgeVector":
        return self.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, WedgeVector) and self.m == other.m
                and self.k == other.k and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, self.k, tuple(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return f"WedgeVector(0 in L^{self.k}Q^{self.m})"
        terms = " + ".join(f"{frac_str(c)}*e{list(i)}" for i, c in self.coeffs.items())
        return f"WedgeVector({terms})"

    def primitive(self) -> "WedgeVector":
        """Primitive integer representative with normalized sign.

        Scales so coefficients are coprime integers and the coefficient on
        the lexicographically first support tuple is positive.
        """
        if not self.coeffs:
            raise PreconditionError("zero wedge vector has no primitive form")
        ints = primitive_int_vector(self.coeffs.values())
        return WedgeVector._built(self.m, self.k, {i: Fraction(v) for i, v in zip(self.coeffs, ints)})

    def wedge(self, other: "WedgeVector") -> "WedgeVector":
        """Exterior product, with the usual shuffle sign."""
        if self.m != other.m:
            raise PreconditionError("ambient dimension mismatch")
        m = self.m
        kk = self.k + other.k
        if kk > m:
            raise PreconditionError(f"degree {kk} out of range for ambient dimension {m}")
        return WedgeVector._built(m, kk, _shuffle(self.coeffs, other.coeffs))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "coeffs": [[list(i), frac_str(c)] for i, c in self.coeffs.items()],
        }

    @staticmethod
    def from_json(obj: dict) -> "WedgeVector":
        coeffs = {tuple(i): _rational(c) for i, c in obj["coeffs"]}
        return WedgeVector(_integer(obj["m"]), _integer(obj["k"]), coeffs)


def _shuffle(a: dict, b: dict) -> dict:
    """Exterior product of coefficient dicts over any exact ring, with the
    usual shuffle sign; zero coefficients are dropped.

    For each index x of i2, p = bisect(i1, x) entries of i1 are <= x: x is
    already in i1 when i1[p - 1] == x, and otherwise it passes the
    len(i1) - p larger entries of i1, so those counts summed over i2 are
    the inversions of i1 + i2 and give the sign."""
    out = {}
    for i1, c1 in a.items():
        n1 = len(i1)
        for i2, c2 in b.items():
            inv = 0
            for x in i2:
                p = bisect(i1, x)
                if p and i1[p - 1] == x:
                    break
                inv += n1 - p
            else:
                merged = i1[:p] + i2 + i1[p:] if len(i2) == 1 else tuple(sorted(i1 + i2))
                term = -c1 * c2 if inv & 1 else c1 * c2
                out[merged] = out[merged] + term if merged in out else term
    return {i: c for i, c in out.items() if c}


def _int_minors(rows) -> dict:
    """The nonzero k x k minors of k integer rows, keyed by increasing
    1-based column tuples."""
    out = {(): 1}
    for row in rows:
        out = _shuffle(out, {(i + 1,): c for i, c in enumerate(row) if c})
    return out


def wedge_of_vectors(vectors, m: int) -> WedgeVector:
    """Raw wedge v_1 ^ ... ^ v_k of explicit coordinate vectors.

    Coefficients are the k x k minors of the k x m coefficient matrix, one
    per increasing column tuple. No normalization is applied. The rows are
    cleared of denominators by one lcm, the integer minors come from the
    shuffle kernel, and each is divided by den^k once.
    """
    vs = [list(map(Fraction, v)) for v in vectors]
    if any(len(v) != m for v in vs):
        raise PreconditionError("vector length mismatch")
    if len(vs) > m:
        raise PreconditionError(f"degree {len(vs)} out of range for ambient dimension {m}")
    ints, den = _cleared(vs)
    minors = _int_minors(ints)
    den **= len(vs)
    return WedgeVector._built(m, len(vs), {i: Fraction(c, den) for i, c in minors.items()})


def plucker(vectors, m: int | None = None) -> WedgeVector:
    """Primitive Plucker vector of the span of the given vectors.

    Raises DependentInput when the vectors are linearly dependent (all
    minors vanish), since they then span no k-dimensional subspace.
    """
    vs = list(vectors)
    if not vs:
        raise PreconditionError("no vectors given")
    if m is None:
        m = len(vs[0])
    w = wedge_of_vectors(vs, m)
    if w.is_zero():
        raise DependentInput("vectors are linearly dependent")
    return w.primitive()


def apply_wedge_matrix(mat: Mat, w: WedgeVector) -> WedgeVector:
    """Image of w under Lambda^k(mat), computed column-sparsely.

    Each support tuple J contributes w_J times the wedge of columns J of
    mat, so cost scales with |support| rather than with the full exterior
    power matrix. mat and w are cleared of denominators once each, the
    column minors are taken over integers, and each image coefficient is
    divided once.
    """
    if mat.ncols != w.m:
        raise PreconditionError("ambient dimension mismatch")
    M, d = _cleared(mat.rows)
    cols = list(zip(*M))
    (cs,), e = _cleared([list(w.coeffs.values())])
    out: dict[tuple[int, ...], int] = {}
    for J, cJ in zip(w.coeffs, cs):
        for I, minor in _int_minors([cols[j - 1] for j in J]).items():
            out[I] = out.get(I, 0) + cJ * minor
    den = e * d ** w.k
    return WedgeVector._built(mat.nrows, w.k, {I: Fraction(c, den) for I, c in out.items() if c})


def leading_tuple(w: WedgeVector) -> tuple[int, ...]:
    """The maximum support tuple of w in the componentwise order.

    For a decomposable w this is the pivot pattern of its subspace (the
    column positions of the trailing nonzero entries in a suitably reduced
    basis). A zero vector or a support with no unique maximum is rejected;
    the latter certifies that w is not decomposable.
    """
    if w.is_zero():
        raise PreconditionError("zero wedge vector has no leading tuple")
    support = w.support()
    best = support[0]
    for t in support[1:]:
        if all(x <= y for x, y in zip(best, t)):
            best = t
    for t in support:
        if not all(x <= y for x, y in zip(t, best)):
            raise NoUniqueLeadingTuple(
                f"support has no componentwise maximum: {t} and {best} are incomparable")
    return best

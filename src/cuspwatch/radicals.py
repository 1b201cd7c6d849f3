"""Unipotent radicals of rational parabolic stabilizers, as wedge data.

A proper nonzero rational subspace V of Q^n determines the nilpotent space
Hom(Q^n / V, V) inside the trace-zero matrices. Its integral points have an
explicit Z-basis: outer products of a saturated basis of V with a saturated
basis of the annihilator of V. The wedge of that basis, written in a fixed
coordinate basis of the trace-zero matrices, is the witness vector whose
norm under conjugation detects cusp excursions.

Basis of the trace-zero matrices: all elementary E_ab (a != b) in
lexicographic order of (a, b), then H_i = E_ii - E_(i+1)(i+1). Coordinates
of a diagonal part are partial sums of the diagonal entries.

The short-radical search decides every candidate over integers. With
g = G / d_g and the rows b of a witness's saturated basis, it forms the
integer rows G b once and reads two things from them: the prefilter
max |Lambda^j(g) p_std|^n, from their j x j minors, and the conjugated
wedge's sup norm, from the minors of the outer products of G b with the
cleared conjugated annihilator. Both are compared with eps = p / q by
cross-multiplication, so a Fraction is built only for a returned radical.
The prefilter rests on a saturation identity: the minors of the rows b
are +-p_std (see active_radicals).

Lines and hyperplanes are sized without minors. With u = G v for a line's
primitive row v (w = H f for a hyperplane's primitive normal f), the
conjugated wedge has one component per multiset A of size n over 1..n
whose factors u_a are all nonzero: weight chi_A = sum_(a in A) e_a -
(1, ..., 1) (-chi_A for a hyperplane) and norm prod |u_a| / |det G|
(prod |w_a| / |det H|); see _closed_components. The vectors u of many
lines or hyperplanes are formed in one column-wise pass (_closed_vectors)
over the columns of their vectors v or f (_closed_columns), which each
type's enumeration record keeps. Planes are sized from the integer minors
of _conj_minors.

This module alone sizes a witness: the witness search reads one stream,
_keyed, of the enumerated candidates with their Plucker supports, which
decide their shrink cones, and their sizing.

A witness is its subspace: RadicalWitness stores the primitive Plucker
vector alone, and derives both saturated bases from it one way, however
the witness was built. Witnesses of every type come from one enumerator
over the Schubert charts of the Grassmannian (_charts), the charts on which
Schmidt (Ann. of Math. 1967) counts rational subspaces by height. A chart
meets one subspace and carries its primitive Plucker vector, so each
witness is built from its chart once, with no second Plucker pass, height
filter or dedup; radical_from_subspace builds one from spanning rows. Each
type is enumerated into one record (_enumerated): its sorted witnesses and,
for lines and hyperplanes, the columns of their vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations, combinations_with_replacement, product
from math import gcd, prod
from operator import add, mul
from typing import NamedTuple

from .chars import Character, SubgroupSpec
from .errors import PreconditionError
from .lattice import saturation_pair, lll_reduce
from .loglin import LogLin
from .matrix import Mat, _bareiss
from .scalars import _cleared, _sup_norm, frac, frac_str
from .wedge import WedgeVector, _int_minors, _shuffle, plucker


def sl_dim(n: int) -> int:
    return n * n - 1


def sl_weights(n: int) -> list:
    """Diagonal weight of each basis label: E_ab gets e_a - e_b, H_i gets 0."""
    out = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            c = [0] * n
            c[a - 1] = 1
            c[b - 1] = -1
            out.append(Character(tuple(c)))
    zero = Character(tuple([0] * n))
    out += [zero] * (n - 1)
    return out


def sl_coords(M: Mat) -> tuple:
    """Coordinates of a trace-zero matrix in the fixed basis."""
    n = M.nrows
    if not M.is_square():
        raise PreconditionError("need a square matrix")
    diag = [Fraction(M[i, i]) for i in range(n)]
    if sum(diag) != 0:
        raise PreconditionError("matrix is not trace zero")
    coords = []
    for a in range(n):
        for b in range(n):
            if a != b:
                coords.append(Fraction(M[a, b]))
    acc = Fraction(0)
    for i in range(n - 1):
        acc += diag[i]
        coords.append(acc)
    return tuple(coords)


def coords_to_matrix(n: int, coords) -> Mat:
    coords = [Fraction(x) for x in coords]
    if len(coords) != sl_dim(n):
        raise PreconditionError("coordinate length mismatch")
    rows = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for a in range(n):
        for b in range(n):
            if a != b:
                rows[a][b] = coords[pos]
                pos += 1
    partial = coords[pos:]
    prev = Fraction(0)
    for i in range(n - 1):
        rows[i][i] = partial[i] - prev
        prev = partial[i]
    rows[n - 1][n - 1] = -partial[-1]
    return Mat(rows)


@lru_cache(maxsize=8)
def _position_codes(n: int) -> tuple:
    """Integer code of each basis label's weight (1-based; slot 0 unused).

    A weight c has the code sum c_i (2n)^i. Over distinct labels a summed
    weight has entries of size at most n - 1, so the codes of an index sum
    to the code of its weight, and equal codes are equal weight tuples;
    each weight sums to zero, so equal tuples are equal characters."""
    base = 2 * n
    return (0,) + tuple(sum(c * base ** i for i, c in enumerate(ch.coeffs))
                        for ch in sl_weights(n))


@lru_cache(maxsize=1024)
def _weight_entry(n: int, code: int) -> tuple:
    """(Character, sort key) of the weight with the given code, read off as
    balanced base-2n digits; shared by every bucket of that weight."""
    base = 2 * n
    coeffs = []
    for _ in range(n):
        digit = (code + n) % base - n
        coeffs.append(digit)
        code = (code - digit) // base
    ch = Character(tuple(coeffs))
    return ch, ch.sort_key()


def _components(coeffs: dict, n: int, den=1) -> list:
    """Per-weight sup norms of the wedge with coefficients coeffs / den,
    sorted by character; one Fraction per weight.

    Each index is bucketed by the sum of its position codes, and each
    bucket's Character and sort key come from a table shared across calls.
    Characters with one canonical form (a weight and its multiples) tie in
    the sort and keep the order of their least index, so the indices are
    read in increasing order."""
    codes = _position_codes(n)
    buckets: dict = {}
    for idx, c in sorted(coeffs.items()):
        key = sum(map(codes.__getitem__, idx))
        a = abs(c)
        if a > buckets.get(key, 0):
            buckets[key] = a
    out = [(_weight_entry(n, key), a) for key, a in buckets.items()]
    out.sort(key=lambda t: t[0][1])
    return [(ch, Fraction(a, den)) for (ch, _), a in out]


def weight_components(w: WedgeVector, n: int) -> list:
    """Per-weight sup norms of a wedge over the trace-zero basis."""
    return _components(w.coeffs, n)


@dataclass(frozen=True)
class RadicalWitness:
    """Exact wedge data of the nilpotent space attached to a subspace V.

    The record is V's primitive Plucker vector p_std, so equality and
    hashing compare subspaces. The saturated Z-bases of V (rows, in Hermite
    form) and of its annihilator (ann_rows) are derived from it one way, by
    saturating its kernel presentation (_subspace), once per witness."""

    n: int
    j: int
    p_std: WedgeVector

    @cached_property
    def _bases(self) -> tuple:
        B, F = saturation_pair(_subspace(self.n, self.j, self.p_std.coeffs))
        return tuple(map(tuple, B)), tuple(map(tuple, F))

    rows = property(lambda self: self._bases[0])        # saturated Z-basis of V
    ann_rows = property(lambda self: self._bases[1])    # ... of the annihilator

    @property
    def dim(self) -> int:
        return self.j * (self.n - self.j)

    @cached_property
    def label(self) -> str:
        """The witness's name in divergence.WitnessVector; formatted once,
        so an enumerated witness (see enumerate_witnesses) pays it once."""
        return "subspace j=%d rows=%r" % (self.j, self.rows)

    @property
    def p_ad(self) -> WedgeVector:
        """Primitive wedge of the nilpotent space's integral basis."""
        return conj_ad_wedge(Mat.identity(self.n), self).primitive()

    def components_at(self, g: Mat) -> list:
        """Per-weight sup norms of the wedge conjugated by g, sorted by
        character. Lines and hyperplanes read them from a closed form (see
        _closed_components); planes bucket the integer minors of the
        conjugated wedge (see conj_ad_wedge), divided once per weight."""
        _check_size(g, self)
        if self.j == 1 or self.j == self.n - 1:
            sign, den, (u,) = _closed_vectors(g, self.j, _closed_columns((self,), self.j))
            return _closed_components((self.n, self.j, _support(u if sign > 0 else u[::-1])), u, den)
        minors, den = _conj_minors(g, self)
        return _components(minors, self.n, den)

    def height(self) -> Fraction:
        """Height of the subspace: sup norm of its primitive Plucker vector."""
        return self.p_std.norm_inf()

    @property
    def weights_ad(self) -> list:
        """Characters carrying a nonzero component of p_ad."""
        return [ch for ch, _ in weight_components(self.p_ad, self.n)]

    def sort_key(self):
        return (self.j, tuple(sorted(self.p_std.coeffs.items())))

    def to_json(self):
        return {
            "n": self.n,
            "j": self.j,
            "rows": [list(r) for r in self.rows],
            "p_std": self.p_std.to_json(),
            "p_ad": self.p_ad.to_json(),
        }

    def __repr__(self):
        return "RadicalWitness(n=%d, j=%d, rows=%r)" % (self.n, self.j, self.rows)


def radical_from_subspace(rows, n: int | None = None) -> RadicalWitness:
    """The witness of the span of rows; plucker refuses dependent rows."""
    rows = [list(map(frac, r)) for r in rows]
    if not rows:
        raise PreconditionError("no spanning rows")
    if n is None:
        n = len(rows[0])
    p_std = plucker(rows, n)
    if not 1 <= len(rows) <= n - 1:
        raise PreconditionError("need a proper nonzero subspace")
    return RadicalWitness(n, len(rows), p_std)


def standard_radical(n: int, j: int) -> RadicalWitness:
    if not 1 <= j <= n - 1:
        raise PreconditionError("need 1 <= j <= n-1")
    rows = [[1 if t == i else 0 for t in range(n)] for i in range(j)]
    return radical_from_subspace(rows, n)


class _Conjugator(NamedTuple):
    G: list
    H: list
    d_g: int
    d: int
    det_G: int
    abs_det_G: int
    abs_det_H: int


@lru_cache(maxsize=32)
def _conjugator(g: Mat) -> _Conjugator:
    """g and g^-T as integer rows G and H, with g = G / d_g, g^-T = H / d_H
    and d = d_g * d_H; det_G = det G, and |det G|, |det H| size lines and
    hyperplanes (see _closed_vectors).

    matrix._bareiss on the integer rows [G | I] leaves them at D [I | G^-1],
    D = +-det G, so the right block is D G^-1 = +-adj(G). Then g^-T =
    d_g (D G^-1)^T / D, and H clears it with the least d_H, as
    scalars._cleared would: d_H = |D| / k for k the gcd of D and every
    entry of d_g D G^-1. As H = d_H g^-T and g = G / d_g, det H = d_H^n
    d_g^n / det G = d^n / det G.
    """
    if not g.is_square():
        raise PreconditionError("inverse of non-square matrix")
    n = g.nrows
    G, d_g = _cleared(g.rows)
    a = [row + [int(i == k) for k in range(n)] for i, row in enumerate(G)]
    pivots, D, negated = _bareiss(a, n)
    if len(pivots) < n:
        raise PreconditionError("singular matrix")
    k = gcd(D, d_g * gcd(*(x for row in a for x in row[n:])))
    s = d_g if D > 0 else -d_g
    H = [[s * row[n + i] // k for row in a] for i in range(n)]
    d = d_g * (abs(D) // k)
    return _Conjugator(G, H, d_g, d, -D if negated else D, abs(D), d ** n // abs(D))


def _moved(M, rows) -> list:
    """The integer rows M b, for each integer row b of rows."""
    return [[sum(map(mul, r, b)) for r in M] for b in rows]


def _ad_minors(gbs, fgs, n: int) -> dict:
    """Integer minors of the outer products x y^T, x in gbs and y in fgs
    (in that order), each in the coordinates of sl_coords: off-diagonal
    entries, then partial sums of the diagonal."""
    vecs = []
    for x in gbs:
        for y in fgs:
            coords = [x[a] * y[b] for a in range(n) for b in range(n) if a != b]
            acc = 0
            for i in range(n - 1):
                acc += x[i] * y[i]
                coords.append(acc)
            vecs.append(coords)
    return _int_minors(vecs)


def _check_size(g: Mat, witness: RadicalWitness) -> None:
    """Refuse a conjugator whose size is not the witness's n."""
    if g.nrows != witness.n:
        raise PreconditionError("a witness in Q^%d needs a %d x %d matrix, got %d rows"
                                % (witness.n, witness.n, witness.n, g.nrows))


def _conj_minors(g: Mat, witness: RadicalWitness) -> tuple:
    """(minors, den): the conjugated wedge is {I: minors[I] / den}.

    Each conjugated basis element is the outer product of G b and H f (see
    _conjugator) over d; its coordinates are integers over d, so the
    k x k minors are integers over d^k.
    """
    _check_size(g, witness)
    conj = _conjugator(g)
    minors = _ad_minors(_moved(conj.G, witness.rows), _moved(conj.H, witness.ann_rows), witness.n)
    return minors, conj.d ** witness.dim


@lru_cache(maxsize=256)
def _closed_table(key) -> tuple:
    """The monomials of a line (j = 1, sign 1) or hyperplane (j = n - 1,
    sign -1) with the support key (n, j, mask) of _keyed: (A, sign *
    chi_A) for each multiset A of size n over the entries a (0-based) with
    u_a != 0, which are the bits a of mask for a line and n - 1 - a for a
    hyperplane, sorted by the characters' sort keys, which are pairwise
    distinct (see _closed_components)."""
    n, j, mask = key
    sign = 1 if j == 1 else -1
    idx = [a for a in range(n) if mask >> (a if j == 1 else n - 1 - a) & 1]
    out = []
    for A in combinations_with_replacement(idx, n):
        coeffs = [-sign] * n
        for a in A:
            coeffs[a] += sign
        out.append((A, Character(tuple(coeffs))))
    out.sort(key=lambda t: t[1].sort_key())
    return tuple(out)


def _closed_columns(witnesses, j: int) -> tuple:
    """The n columns of the vectors of lines (j = 1: the primitive row v)
    or hyperplanes (j = n - 1: the primitive normal f = ann_rows[0]), at
    least one: column a holds entry a of each witness's vector, in order."""
    return tuple(zip(*(w.rows[0] if j == 1 else w.ann_rows[0] for w in witnesses)))


def _closed_vectors(g: Mat, j: int, columns) -> tuple:
    """(sign, den, us) for the lines (j = 1) or hyperplanes (j = n - 1)
    whose vectors have these columns (_closed_columns): us lists each u =
    G v, with sign 1 and den = |det G|, or each u = H f, with sign -1 and
    den = |det H| (see _conjugator), as a tuple, in order.

    The pass is column-wise: coordinate i of every u is the sum over a of
    M[i][a] times column a (M = G or H), one map of int operations per
    nonzero entry of M, so no vector is formed on its own."""
    conj = _conjugator(g)
    M, sign, den = (conj.G, 1, conj.abs_det_G) if j == 1 else (conj.H, -1, conj.abs_det_H)
    coords = []
    for row in M:
        acc = None
        for c, col in zip(row, columns):
            if c:
                term = col if c == 1 else map(c.__mul__, col)
                acc = term if acc is None else map(add, acc, term)
        coords.append(acc)
    return sign, den, list(zip(*coords))


def _support(u) -> int:
    """The bit mask of the nonzero entries of u: with W in lexicographic
    order, the mask of a support key (_keyed)."""
    support = 0
    for a, x in enumerate(u):
        if x:
            support |= 1 << a
    return support


def _closed_components(key, u, den) -> list:
    """components_at for a line (j = 1) or a hyperplane (j = n - 1), from
    its support key (_keyed), its vector u and den of _closed_vectors and
    the monomials of _closed_table(key), with no minor.

    Line V = Q v, v the primitive row, with u = G v (see _conjugator): the
    components are chi_A, with norm prod_(a in A) |u_a| / |det G|, for each
    multiset A of size n over 1..n with every u_a nonzero. A hyperplane,
    with w = H f for its primitive normal f = ann_rows[0], has -chi_A with
    norm prod |w_a| / |det H|. For n = 2 both forms apply and agree. The
    characters depend on n, the sign and the zero pattern of u alone, that
    is on the support key, so they come from the table _closed_table.

    Proof for a line. The conjugated basis is g v f_k^T g^-1 = u y_k^T / d
    with y_k = H f_k and d = d_g d_H, over the saturated annihilator rows
    f_k. Coordinate r of u y^T (see sl_coords) is l_r . y, where l_r =
    u_a e_b at the off-diagonal label (a, b) and l_r = (u_1, ..., u_i, 0,
    ..., 0) at the i-th partial sum. So the coefficient at an index I of
    n - 1 labels is det(L_I Y^T) / d^(n-1), with rows l_r (r in I) in L_I
    and rows y_k in Y.

    By Cauchy-Binet and Laplace expansion along the last row, det(L_I Y^T)
    = det[L_I; z], where z is the vector with z . x = det[Y; x] for all x.
    Since Y = F H^T, det[Y; x] = det H det[F; H^-1 x], so z = det H H^-T z_F.
    The rows f_k are saturated, so their maximal minors are coprime; z_F is
    orthogonal to every f_k, so it is an integer multiple of v with coprime
    entries, that is +-v. With H^-T = g / d_H this gives z = +-(det H / d) u,
    and as det H / d^n = 1 / det G the coefficient is +-det[L_I; u] / det G.

    In det[L_I; u], let the partial sums of I be i_1 < ... < i_m and i_(m+1)
    = n (the row u). Subtracting each of these rows from the next leaves
    u restricted to the blocks (i_(t-1), i_t], i_0 = 0, which partition
    1..n. The off-diagonal rows u_a e_b vanish in the determinant unless
    their columns b are distinct; then m + 1 columns C are left, one row per
    block. Expanding along the off-diagonal rows leaves +-prod u_a times the
    block rows on C, whose determinant is +-prod_(c in C) u_c when each block
    holds one column of C, and 0 otherwise. So det[L_I; u] is 0 or
    +-prod_(a in A) u_a, with A the multiset of the off-diagonal a's and C,
    of size n. The weight of I is sum (e_a - e_b) over its off-diagonal
    labels; the b's are the complement of C, so it is chi_A. Every nonzero
    coefficient of weight chi_A is therefore +-prod_(a in A) u_a / det G.

    Each A with all u_a nonzero is met: with S the distinct elements of A,
    take C = S, pair the other n - |S| entries of A (all in S) with the
    columns b outside S as off-diagonal labels, and put a partial sum
    between consecutive elements of S. That is n - 1 labels, one element of
    S per block, and a nonzero coefficient.

    A hyperplane is the same with G and H exchanged: its conjugated basis is
    x_k w^T / d with x_k = G b_k, coordinate r is l_r . x with l_r = w_b e_a
    or w restricted to 1..i, the rows b_k are saturated with +-f as their
    maximal minors, and z = +-(det G / d) w. Now the free columns C are the
    complement of the a's, and the weight sum (e_a - e_b) is -chi_A.

    Order: chi_A sums to zero and its entries are >= -1, with an entry -1
    unless chi_A = 0. Two positive multiples of one primitive vector with
    minimum entry -1 are equal, so distinct weights have distinct canonical
    forms (sort keys), and likewise for -chi_A. Sorting by sort key alone is
    then the order of _components, which only breaks ties.
    """
    monomials = _closed_table(key)
    u = list(map(abs, u))
    if den == 1:    # integer norms: Fraction skips its gcd
        return [(ch, Fraction(prod(map(u.__getitem__, A)))) for A, ch in monomials]
    return [(ch, Fraction(prod(map(u.__getitem__, A)), den)) for A, ch in monomials]


def _deciding_components(chars, norms) -> tuple:
    """Indices, in order, of the components (chars[k], norms[k]) of a
    witness that decide every reading of it by its largest component: its
    log size, its activity and its region's membership.

    Component k is dropped when it is an average of present pure
    components. With n the length of its character chi and, for a sign
    sigma in {1, -1}, the counts c_a = 1 + sigma * (chi_a - sum(chi) / n),
    that is: every c_a is a nonnegative integer, at least two are nonzero,
    the pure character sigma * (n e_a - (1, ..., 1)) is present for each a
    with c_a > 0, at norm nu_a, and norms[k]^n = prod_a nu_a^c_a exactly.
    The rule reads the characters and norms alone, so it holds for any
    witness type and for any norms a caller stores.

    Proof. The counts sum to n, and sum_a c_a sigma (n e_a - 1) = n sigma
    (c - 1), which is n chi on trace-zero directions; with the norm
    identity, (chi, log norms[k]) = sum_a (c_a / n) (chi_a', log nu_a) for
    the pure characters chi_a'. A reading of a component at a point is
    lambda(chi) + log nu plus a shift common to all components (a cut C0,
    a gauge value), affine in (chi, log nu), so component k reads the
    average of its pure components with weights c_a / n >= 0 summing to
    one: never more than their maximum, and below a level (strictly or
    not) whenever they all are. A pure character has one nonzero count for
    its own sign, and a negative count or again one nonzero count for the
    other, so pure components are kept and the kept ones decide alone.

    A line's component chi_A (see _closed_components) has sigma = 1, c_a
    the multiplicity of a in A and norm prod |u_a| / |det G|, whose n-th
    power is prod_a (|u_a|^n / |det G|)^c_a: only its pure components
    (A = {a, ..., a}, u_a nonzero) are kept. A hyperplane is the same with
    sigma = -1. For a plane the norm identity rarely holds, and every
    component is then kept.
    """
    index = {ch: k for k, ch in enumerate(chars)}
    kept = []
    for k, (ch, nu) in enumerate(zip(chars, norms)):
        n, total = ch.n, sum(ch.coeffs)
        for sigma in (1, -1):
            counts = [n + sigma * (n * x - total) for x in ch.coeffs]   # n * c_a
            if any(c < 0 or c % n for c in counts):
                continue
            counts = [c // n for c in counts]
            pure = [(index.get(Character(tuple(sigma * (n * (a == b) - 1) for b in range(n)))), c)
                    for a, c in enumerate(counts) if c]
            if (len(pure) > 1 and all(i is not None for i, _ in pure)
                    and nu ** n == prod(norms[i] ** c for i, c in pure)):
                break
        else:
            kept.append(k)
    return tuple(kept)


def conj_ad_wedge(g: Mat, witness: RadicalWitness) -> WedgeVector:
    """Wedge of the conjugated integral basis; the norm carrier.

    The integral basis of the nilpotent space is the outer products b f^T,
    b in rows and f in ann_rows (in that order), so its conjugate
    g b f^T g^-1 is the outer product of g b and f^T g^-1. The minors are
    taken over integers and divided once each (see _conj_minors); g and
    g^-T are cleared of denominators once per g. active_radicals reads the
    same minors without building this wedge.
    """
    minors, den = _conj_minors(g, witness)
    coeffs = {idx: Fraction(c, den) for idx, c in minors.items()}
    return WedgeVector._built(sl_dim(witness.n), witness.dim, coeffs)


@dataclass(frozen=True)
class ActiveRadical:
    witness: RadicalWitness
    norm: Fraction


def _validate_sl(g: Mat) -> _Conjugator:
    """_conjugator(g), whose det G = d_g^n says whether det g is exactly 1."""
    try:
        conj = _conjugator(g)
    except PreconditionError:    # g is not square, or singular
        conj = None
    if conj is None or conj.det_G != conj.d_g ** g.nrows:
        raise PreconditionError("need a matrix with determinant exactly 1")
    return conj


# The most charts one witness type may try; the SL2 lines of
# scripts/golden_shear_profile.py at its top height, 354, try 251,340.
_MAX_CHARTS = 1 << 20


def _pivot_sets(n: int, j: int):
    """(I, free) for each pivot set I, in lexicographic order, with the
    (row, column) of each free entry of a reduced row echelon form."""
    for I in combinations(range(n), j):
        yield I, [(r, k) for r, i in enumerate(I) for k in range(i + 1, n) if k not in I]


def _chart_count(n: int, j: int, height: int) -> int:
    """The number of charts _charts(n, j, height) tries, in closed form.

    Each pivot set I gives height * q^f(I) charts, q = 2 height + 1 and
    f(I) the free entries of I (_pivot_sets). The sum of q^f(I) over the
    pivot sets is the Gaussian binomial [n choose j]_q, a polynomial
    identity in q: over a field of q elements it counts the j-subspaces
    Schubert cell by Schubert cell. So the count is height [n choose j]_q,
    formed as height [n choose i]_q for i = 1..j, each step an exact
    division; height 0 tries none."""
    if not height:
        return 0
    q = 2 * height + 1
    count = height
    for i in range(j):
        count = count * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return count


def _charts(n: int, j: int, height: int):
    """The primitive Plucker vector p, as {index: nonzero coefficient}, of
    each j-subspace of Q^n with height <= height, once each.

    A chart is (I, c, free entries): Y is c times the reduced row echelon
    form with pivot columns I, so c sits at each pivot, and each free entry
    of Y is an integer in [-height, height]. It is kept when every j x j
    minor of Y divided by c^(j-1) is an integer of size <= height and these
    quotients p have gcd 1.

    Proof. Let V have reduced row echelon form R with pivot columns I. A
    column set J before I first differs from it at some J_s < I_s, and J's
    first s columns meet only R's first s - 1 rows, so R's minor at J is 0;
    at I it is 1. So V's primitive Plucker vector p (first nonzero entry
    positive) is c times R's minors, c = p_I > 0. Y = c R has minors
    c^(j-1) p, and its free entries are +-p at the sets that differ from I
    in one column, so V is met at the chart (I, c, c R). Conversely, a kept
    chart's quotients are primitive, proportional to Y's minors and first
    nonzero at I, where they are c: they are p for the row space of Y, whose
    chart this is. So each subspace is met once.
    """
    box = range(-height, height + 1)
    for I, free in _pivot_sets(n, j):
        Y = [[0] * n for _ in I]
        for c in range(1, height + 1):
            q = c ** (j - 1)
            for r, i in enumerate(I):
                Y[r][i] = c
            for entries in product(box, repeat=len(free)):
                for (r, k), x in zip(free, entries):
                    Y[r][k] = x
                p = {}
                for idx, m in _int_minors(Y).items():
                    x, rest = divmod(m, q)
                    if rest or abs(x) > height:
                        break
                    p[idx] = x
                else:
                    if gcd(*p.values()) == 1:
                        yield p


def _subspace(n: int, j: int, p: dict) -> list:
    """Spanning rows of the subspace with Plucker vector p: the kernel of
    v -> v ^ p."""
    images = [_shuffle({(i,): 1}, p) for i in range(1, n + 1)]    # e_i ^ p
    K = Mat.rationalize([[v.get(t, 0) for v in images]
                         for t in combinations(range(1, n + 1), j + 1)])
    return [list(v) for v in K.kernel_basis()]


def _reduction_candidates(g: Mat, j: int):
    """Candidate subspaces from a reduced basis of the column lattice.

    The pullback rows of the unimodular transform give integer directions
    whose images under g are short; actives hide among small combinations.
    Each subspace is proposed once, by its first spanning combination.
    """
    n = g.nrows
    rows = [[Fraction(g[i, k]) for i in range(n)] for k in range(n)]  # columns of g
    _, T = lll_reduce(rows)
    pulls = [list(t) for t in T]
    pool = [tuple(p) for p in pulls]
    for a in range(len(pulls)):
        for b in range(a + 1, len(pulls)):
            pool.append(tuple(x + y for x, y in zip(pulls[a], pulls[b])))
            pool.append(tuple(x - y for x, y in zip(pulls[a], pulls[b])))
    spans = {}   # reduced row echelon form -> first spanning rows
    for combo in combinations(range(len(pool)), j):
        rows_c = [list(pool[i]) for i in combo]
        R, pivots = Mat.rationalize(rows_c).rref()
        if len(pivots) == j:
            spans.setdefault(R, rows_c)
    return list(spans.values())


def _types(n: int, height: int, js) -> list:
    """The sorted distinct types of js (every proper type when js is None),
    once the height and each type are checked."""
    if height < 0:
        raise PreconditionError("height must be nonnegative")
    types = sorted(set(range(1, n) if js is None else js))
    for j in types:
        if not 1 <= j <= n - 1:
            raise PreconditionError("type j=%r is not proper: need 1 <= j <= %d" % (j, n - 1))
    return types


class _Enumeration(NamedTuple):
    """One witness type: its witnesses sorted by sort_key, and the columns
    of their vectors (_closed_columns) for a nonempty line or hyperplane
    type, else None."""
    witnesses: tuple
    columns: tuple | None


@lru_cache(maxsize=32)
def _enumerated(n: int, j: int, height: int) -> _Enumeration:
    """The record of the j-subspaces of Q^n with height <= height, each
    built from its chart once (see _charts): the chart's p is the witness's
    primitive Plucker vector. Only the columns of a line or hyperplane type
    read bases, so only those are saturated here; a plane's are derived
    when it is first sized. The type is not checked here (see _records)."""
    ws = [RadicalWitness(n, j, WedgeVector._built(n, j, {i: Fraction(x) for i, x in p.items()}))
          for p in _charts(n, j, height)]
    ws.sort(key=RadicalWitness.sort_key)
    return _Enumeration(tuple(ws), _closed_columns(ws, j) if ws and j in (1, n - 1) else None)


def _sized(n: int, j: int) -> bool:
    """The plane guard: is the j-subspace type of Q^n one that may be
    enumerated, and so searched? Lines and hyperplanes are, for any n, and
    planes (2 <= j <= n - 2) for n = 4 only: the charts serve any n, but
    sizing an SL5 plane from the minors of its conjugated wedge takes about
    a second, and a search would take hours."""
    return j in (1, n - 1) or (n, j) == (4, 2)


def _records(n: int, height: int, js) -> list:
    """The _enumerated record of each type of js (see _types). Every type
    is checked once, before any chart is built: it must pass the plane
    guard (_sized), and no type may try more than _MAX_CHARTS charts."""
    types = _types(n, height, js)
    for j in types:
        if not _sized(n, j):
            raise PreconditionError(
                "witnesses are enumerated for j=1, j=n-1 and (n,j)=(4,2): planes of"
                " larger n would enumerate, but a search would take hours to size them")
        count = _chart_count(n, j, height)
        if count > _MAX_CHARTS:
            raise PreconditionError(
                "height %d needs %d charts for j=%d, above the bound %d"
                % (height, count, j, _MAX_CHARTS))
    return [_enumerated(n, j, height) for j in types]


def enumerate_witnesses(n: int, height: int, js=None) -> list:
    """Every subspace witness with primitive Plucker height <= height.

    Sorted by type and Plucker data so the output order is reproducible;
    height 0 is empty. Every type is checked before any chart is built, and
    each type is enumerated once per (n, j, height); each call returns a new
    list, so a caller may change it freely.
    """
    return [w for rec in _records(n, height, js) for w in rec.witnesses]


def _pure_weights(support) -> list:
    """The coefficients of n e_R - j (1, ..., 1) for each j-subset R of a
    support (n, j, mask) of _keyed, in order: the pure weights, which cut
    out the shrink cone."""
    n, j, mask = support
    return [tuple(n * (i in R) - j for i in range(1, n + 1))
            for k, R in enumerate(combinations(range(1, n + 1), j)) if mask >> k & 1]


def _keyed(g: Mat, height: int):
    """(witness, key, size) for each witness of height <= height of the
    types the plane guard admits (_sized), n = g.nrows, in the order of
    enumerate_witnesses, except the lines and hyperplanes of balanced
    support (below). The key is V's support: the j-subsets R of 1..n with
    W_R != 0, for W = Lambda^j(g) p_V, as (n, j, mask), with bit k of mask
    for the k-th j-subset in lexicographic order (see _pure_weights).
    size() returns components_at(g). For n >= 5 the stream holds lines and
    hyperplanes only, until planes of larger n are sized without minors.

    The rule. The shrink cone of V's witness at g, on any subgroup, is the
    set of trace-zero y in it with y_R = sum_(r in R) y_r < 0 for every R
    in the support. Proof:
    - The top exterior power of Hom(Q^n / V, V) is (Lambda^j V)^(x n) (x)
      det^(-j), naturally in V. So each coefficient of the conjugated wedge
      is a form of degree n in W, times a factor that depends only on det g.
      The diagonal torus acts on both sides, so each monomial
      prod_i W_(R_i) of the form at an index of weight chi has weight
      sum_i e_(R_i) - j (1, ..., 1) = chi.
    - The only monomial of weight n e_R - j (1, ..., 1) is W_R^n: each R_i
      lies in R and has j elements, so R_i = R. The subspace span(e_r : r
      in R) at g = 1 has W = +-e_R and a wedge with the one coefficient +-1,
      at the index {E_ab : a in R, b not in R}, of that weight. So that
      index's form is +-W_R^n, and V has a component of weight n e_R - j
      (1, ..., 1) exactly when W_R != 0: the pure weights.
    - Any other weight present is that of a monomial with every W_(R_i) !=
      0, so it is (1 / n) sum_i (n e_(R_i) - j (1, ..., 1)), an average of
      pure weights. A direction shrinks the witness when every weight
      present is negative on it, and a pure weight takes the value n y_R on
      a trace-zero y. So the pure weights alone cut out the cone, which
      divergence._cone_verdict decides from the key.
    In lexicographic order, W is +-u = G v for a line, +-u = H f reversed
    for a hyperplane (Lambda^(n-1)(g) is det g times g^-T on the
    complements of the coordinates, up to signs), and for a plane the j x j
    minors of the integer rows G b up to the factor d_g^j (see
    active_radicals).

    A balanced support, one with sum_R e_R constant, shrinks nowhere: its
    pure weights sum to 0. A line or hyperplane is balanced exactly when
    its u has full support, and is skipped before any key is formed.

    The types are walked in order, each from its record (_records). The
    u of every line, and then of every hyperplane, comes from one
    column-wise pass (_closed_vectors) over the columns the record keeps,
    and size() reads the same u. A plane is sized only when size() is
    called, so a search sizes only the planes it keeps.
    """
    n = g.nrows
    for ws, columns in _records(n, height, [j for j in range(1, n) if _sized(n, j)]):
        if columns is None:     # planes, or an empty type
            for w in ws:
                W = _int_minors(_moved(_conjugator(g).G, w.rows))
                key = n, w.j, _support([W.get(R, 0) for R in combinations(range(1, n + 1), w.j)])
                yield w, key, partial(w.components_at, g)
        else:
            sign, den, us = _closed_vectors(g, ws[0].j, columns)
            for w, u in zip(ws, us):
                if not all(u):     # else balanced
                    key = n, w.j, _support(u if sign > 0 else u[::-1])
                    yield w, key, partial(_closed_components, key, u, den)


def active_radicals(g: Mat, eps, height: int, js=None, method: str = "brute") -> list:
    """All proper subspaces of bounded height whose conjugated wedge is small.

    Height of a subspace is the sup norm of its primitive Plucker vector.
    `method="brute"` enumerates every candidate; `method="reduction"` only
    proposes candidates from a reduced basis and verifies them exactly, so
    it is fast but is only as complete as its proposal set.

    Each candidate is decided over integers, with eps = p / q and g = G / d_g
    (see _conjugator), from the integer rows G b of its saturated basis B:

    - prefilter: with M the largest |minor| of the rows G b, the candidate
      is dropped when q M^n >= p d_g^(j n), which is max_R |W_R|^n >= eps
      for W = Lambda^j(g) p_std, with no root and no Fraction. That max is
      a lower bound for the norm: the conjugated wedge's coefficient at the
      off-diagonal index R x ([n] \\ R) is det(A_R)^(n-j) det(B_comp)^j,
      A the conjugated rows and B the conjugated annihilator (Kronecker
      determinant identity), and complement duality of a saturated
      subspace and its annihilator, kept by a g of determinant one, makes
      it +-W_R^n;
    - norm: with top the largest |minor| of the conjugated basis over its
      denominator den (see _conj_minors), it is kept when q top < p den,
      and its norm is then Fraction(top, den), the sup norm of
      conj_ad_wedge(g, w).

    The prefilter's identity Lambda^j(g) p_std = +-minors(G B) / d_g^j
    holds because B is saturated: its rows extend to a unimodular U, and
    Laplace expansion of det U = +-1 along them writes 1 as an integer
    combination of the j x j minors of B, so those minors are coprime. They
    are the coordinates of the wedge of B, which spans the same line as
    p_std, so they are +-p_std, and Lambda^j(g) maps that wedge to the
    wedge of the rows g b = G b / d_g.
    """
    conj = _validate_sl(g)
    G, H, d_g, d = conj.G, conj.H, conj.d_g, conj.d
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("need eps > 0")
    n = g.nrows
    if method == "brute":
        witnesses = enumerate_witnesses(n, height, js)
    elif method == "reduction":
        found = (radical_from_subspace(rows, n) for j in _types(n, height, js)
                 for rows in _reduction_candidates(g, j))
        witnesses = sorted((w for w in found if w.height() <= height), key=RadicalWitness.sort_key)
    else:
        raise PreconditionError("unknown method %r" % (method,))

    p, q = eps.numerator, eps.denominator
    out = []
    for w in witnesses:
        gbs = _moved(G, w.rows)
        if q * _sup_norm(_int_minors(gbs).values()) ** n >= p * d_g ** (w.j * n):
            continue    # max_R |W_R|^n >= eps: the norm is at least that
        top = _sup_norm(_ad_minors(gbs, _moved(H, w.ann_rows), n).values())
        den = d ** w.dim
        if q * top < p * den:
            out.append(ActiveRadical(witness=w, norm=Fraction(top, den)))
    return out


@dataclass(frozen=True)
class ProfileTable:
    """Exact sampled depth profile: per grid point the least witness value."""

    points: tuple
    values: tuple          # LogLin entries
    argmin: tuple          # the minimizing witness at each point
    digits: int

    def rendered(self) -> list:
        out = []
        for p, v in zip(self.points, self.values):
            out.append(([frac_str(x) for x in p], v.to_decimal(self.digits)))
        return out

    def to_csv(self) -> str:
        lines = []
        dim = len(self.points[0]) if self.points else 0
        header = ",".join("s%d" % (i + 1) for i in range(dim)) + ",value"
        lines.append(header)
        for coords, dec in self.rendered():
            lines.append(",".join(coords) + "," + dec)
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "digits": self.digits,
            "rows": [
                {"point": p, "value": d}
                for p, d in self.rendered()
            ],
        }


def _log_size(rows, s) -> LogLin:
    """Exact log sup norm at s: max over rows (coeffs, norm) of c.s + log norm."""
    val = None
    for coeffs, nu in rows:
        lin = sum((c * x for c, x in zip(coeffs, s)), Fraction(0))
        term = LogLin(lin, ((nu, 1),)) if nu != 1 else LogLin(lin)
        if val is None or term > val:
            val = term
    return val


def cusp_profile(g: Mat, subgroup: SubgroupSpec, grid_points, witnesses,
                 digits: int = 50) -> ProfileTable:
    """Exact log-depth profile over rational grid points.

    At a point s the value is the minimum over witnesses of the maximum over
    present weights of  lambda(direction(s)) + log(component norm), an exact
    LogLin quantity; ties and comparisons are certified. The maximum is read
    over the deciding components alone (_deciding_components), which attain
    it. digits sets the decimal places the table renders.
    """
    _validate_sl(g)
    witnesses = list(witnesses)
    if not witnesses:
        raise PreconditionError("need at least one witness")
    pts = [tuple(Fraction(x) for x in p) for p in grid_points]
    if not pts:
        raise PreconditionError("need at least one grid point")
    if any(len(p) != subgroup.dim for p in pts):
        raise PreconditionError("coordinate length mismatch")

    prepared = []
    for wit in witnesses:
        chars, norms = zip(*wit.components_at(g))
        prepared.append((wit, [(subgroup.restrict(chars[k]), norms[k])
                               for k in _deciding_components(chars, norms)]))

    values, mins = [], []
    for s in pts:
        best = None
        best_wit = None
        for wit, rows in prepared:
            val = _log_size(rows, s)
            if best is None or val < best:
                best = val
                best_wit = wit
        values.append(best)
        mins.append(best_wit)
    return ProfileTable(points=tuple(pts), values=tuple(values),
                        argmin=tuple(mins), digits=digits)

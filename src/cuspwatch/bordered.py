"""Bordered regions: finite functional systems cut off by a norm gauge.

A bordered region in R^l is the set {x : phi_i(x) > C_i + s * |x|_inf}
for finitely many nonzero rational functionals phi_i, constants C_i, and
a gauge slope s >= 0; s = 0 gives the zero-gauge polyhedron. Everything here
is decided exactly: rational linear programs with certificates on both
sides, no floating point. Strictness is handled by slack variables, so the
stored data always uses non-strict constants.

The norm is the sup norm throughout; its unit sphere splits into the 2l
faces {x_c = +-1, |x_d| <= 1}, which keeps every sphere optimization a
finite family of linear programs.

This is the one module of the package that builds an LP, and every LP goes
through `solve_lp`. Each LP shape is built in one place: the Gordan point
(`positively_nontrivial`, also for the shrink cones of `divergence`), the
cone point (`_cone_point`, for Gordan's dual, ray reversibility and
positive spanning), the separation face (`_face_lp`), the depth LP
(`_depth_lp`, for the peak depth and, capped, intersection, the emptiness
test of `invdim` and the box test `_meets_box`, which decides the local
finiteness of `cover.enumerate_local`) and the lex-least point
(`_lex_inf_min`). No other module writes an LP row or names an LP shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .errors import GaugeTooSteep, InternalError, PreconditionError
from .lattice import positive_primitive
from .loglin import LogLin
from .lp import solve_lp
from .matrix import Mat, _dot
from .scalars import _sup_norm, frac, frac_str, sign


def _coerce_scalar(v):
    return v if isinstance(v, LogLin) else frac(v)


def _functional_list(phi_list) -> list:
    """The coefficient rows of a functional system as tuples of Fractions:
    at least one row, all of one positive length, none zero."""
    rows = [tuple(frac(c) for c in f) for f in phi_list]
    if not rows:
        raise PreconditionError("need at least one functional")
    l = len(rows[0])
    if l == 0:
        raise PreconditionError("functional needs at least one coefficient")
    for r in rows:
        if len(r) != l:
            raise PreconditionError("functionals of mixed dimension")
        if not any(r):
            raise PreconditionError("zero functional not allowed here")
    return rows


class Gauge:
    """The norm cutoff f(t) = slope * t, for an exact rational slope >= 0.

    Every decision about a bordered set reads the gauge through its slope:
    boundedness and the contraction path compare it with the separation
    constant of the system, and membership subtracts slope * |x|_inf.
    """

    __slots__ = ("slope",)

    def __init__(self, slope=0):
        slope = frac(slope)
        if slope < 0:
            raise PreconditionError("gauge slope must be nonnegative")
        self.slope = slope

    @classmethod
    def zero(cls) -> "Gauge":
        return cls()

    @classmethod
    def linear(cls, slope) -> "Gauge":
        return cls(slope)

    @property
    def is_zero(self) -> bool:
        return self.slope == 0

    def __call__(self, t):
        if sign(t) < 0:
            raise PreconditionError("gauge argument must be a nonnegative norm value")
        return self.slope * t

    def __eq__(self, other):
        if not isinstance(other, Gauge):
            return NotImplemented
        return self.slope == other.slope

    def __hash__(self):
        return hash(self.slope)

    def __repr__(self):
        return "Gauge.linear(%s)" % (self.slope,)

    def to_json(self):
        return {"kind": "linear", "slope": frac_str(self.slope)}


@dataclass(frozen=True)
class BorderedSet:
    """The region {x : phi_i(x) > C_i + gauge(|x|_inf)} in R^l."""

    l: int
    phi: tuple        # pairs (coefficient row, constant); constants may be LogLin
    gauge: Gauge

    def __post_init__(self):
        pairs = tuple(self.phi)
        rows = _functional_list(f for f, _ in pairs)
        if len(rows[0]) != self.l:
            raise PreconditionError("functional dimension mismatch")
        object.__setattr__(
            self, "phi", tuple((r, _coerce_scalar(c)) for r, (_, c) in zip(rows, pairs))
        )

    @property
    def functionals(self) -> list:
        return [f for f, _ in self.phi]

    @property
    def constants(self) -> list:
        return [c for _, c in self.phi]

    @cached_property
    def _negated(self) -> tuple:
        """-C_i for each i."""
        return tuple(-c for c in self.constants)

    def _margins(self, x):
        """The margins one at a time, each -C_i plus a scalar: at a rational
        point, a LogLin constant's log terms are kept as they are."""
        if len(x) != self.l:
            raise PreconditionError("point dimension mismatch")
        cut = self.gauge(_sup_norm(x))
        for (f, _), c in zip(self.phi, self._negated):
            yield c + (_dot(f, x) - cut)

    def margins(self, x) -> list:
        """phi_i(x) - C_i - gauge(|x|) for each i, exact scalars."""
        return list(self._margins(x))

    def rho(self, x):
        """Depth function: least margin at x."""
        best = None
        for m in self._margins(x):
            if best is None or m < best:
                best = m
        return best

    def contains(self, x, closed: bool = False) -> bool:
        """Whether every margin is positive (nonnegative when closed), read
        margin by margin up to the first that fails: the sign of rho."""
        for m in self._margins(x):
            s = sign(m)
            if s < 0 or (s == 0 and not closed):
                return False
        return True

    def zero_gauge(self) -> "BorderedSet":
        return BorderedSet(self.l, self.phi, Gauge.zero())

    @cached_property
    def _plan(self) -> "_ContractionPlan":
        """What boundedness and contraction need of this set, kept with it."""
        return _ContractionPlan(self)


def conjunction(sets) -> BorderedSet:
    """Intersection of bordered sets sharing dimension and gauge."""
    sets = list(sets)
    if not sets:
        raise PreconditionError("need at least one set")
    l, gauge = sets[0].l, sets[0].gauge
    for s in sets[1:]:
        if s.l != l:
            raise PreconditionError("dimension mismatch in conjunction")
        if s.gauge != gauge:
            raise PreconditionError("conjunction requires a common gauge")
    pairs = []
    for s in sets:
        pairs.extend(s.phi)
    return BorderedSet(l, tuple(pairs), gauge)


def _positive_primitive(vec) -> tuple:
    return tuple(Fraction(v) for v in positive_primitive(vec))


def positively_nontrivial(phi_list):
    """Gordan alternative for a finite functional system, with certificate.

    Returns (True, v) with phi(v) > 0 for every phi, or (False, lam) with
    lam >= 0 nonzero and sum(lam_i * phi_i) = 0. Exactly one side exists;
    both certificates are verified exactly before returning.
    """
    fs = _functional_list(phi_list)
    l, m = len(fs[0]), len(fs)
    res = solve_lp(
        [Fraction(0)] * l,
        A_ub=[[-c for c in f] for f in fs],
        b_ub=[Fraction(-1)] * m,
    )
    if res.status == "optimal":
        v = _positive_primitive(res.x)
        if not all(sign(_dot(f, v)) > 0 for f in fs):
            raise InternalError("Gordan point is not strictly positive")
        return True, v
    # infeasible: (0, ..., 0, 1) lies in the cone of the vectors (phi_i, 1)
    lam = _cone_point([f + (1,) for f in fs], (0,) * l + (1,))
    if lam is None:
        raise InternalError("Gordan dual system is infeasible")
    lam = _positive_primitive(lam)
    if not (all(v >= 0 for v in lam) and any(v > 0 for v in lam)):
        raise InternalError("Gordan multipliers are not nonnegative and nonzero")
    for d in range(l):
        if sum(lam[i] * fs[i][d] for i in range(m)) != 0:
            raise InternalError("Gordan multipliers do not cancel")
    return False, lam


def _face_lp(vectors, fix_coord: int, side: int, l: int):
    """max over {x = -sum gamma_i v_i, gamma >= 0} on one sphere face of
    min_i <v_i, x>, as an LP value; None when the face misses the cone.

    x is substituted out, so the LP runs over t and the weights gamma:
    t + sum_j gamma_j <v_i, v_j> <= 0 for each i, gamma >= 0, the box rows
    of the coordinates the face leaves free, and -sum gamma_i v_i = side on
    the one it fixes.
    """
    k = len(vectors)
    zero = [Fraction(0)]
    A_ub = [[Fraction(1)] + [_dot(u, v) for v in vectors] for u in vectors]
    A_ub += [zero + [-Fraction(i == j) for j in range(k)] for i in range(k)]
    for d in range(l):
        if d != fix_coord:
            col = [v[d] for v in vectors]
            A_ub += [zero + [-c for c in col], zero + col]
    res = solve_lp(
        [Fraction(1)] + [Fraction(0)] * k,
        A_ub=A_ub,
        b_ub=[Fraction(0)] * (2 * k) + [Fraction(1)] * (2 * l - 2),
        A_eq=[zero + [-v[fix_coord] for v in vectors]],
        b_eq=[Fraction(side)],
    )
    if res.status != "optimal":
        return None
    return res.value


def _independent_subsets(rows, l: int):
    """(indices, rows) of each linearly independent subset of the rows with
    at most l members (in R^l a larger one is always dependent), by size and
    then in `combinations` order."""
    for size in range(1, min(l, len(rows)) + 1):
        for combo in combinations(range(len(rows)), size):
            B = [rows[i] for i in combo]
            if Mat(B).rank() == size:
                yield combo, B


@lru_cache(maxsize=128)
def _separation(vecs: frozenset) -> Fraction:
    """epsilon_bound of the distinct coefficient vectors vecs."""
    vecs = sorted(vecs)
    l = len(vecs[0])
    best = None
    for _, rows in _independent_subsets(vecs, l):
        M = None
        for d in range(l):
            for side in (1, -1):
                val = _face_lp(rows, d, side, l)
                if val is not None and (M is None or val > M):
                    M = val
        if M is None:
            raise InternalError("cone missed the unit sphere")
        eps_sub = -M
        if eps_sub <= 0:
            raise InternalError("independent subset does not separate from the cone")
        if best is None or eps_sub < best:
            best = eps_sub
    if best is None:
        raise InternalError("no independent subset of the functionals")
    return best / 2


# The most subsets epsilon_bound walks. Each costs up to 2l face LPs: in R^3
# on a 2-core host, 111,716 subsets took 290 s, about 2.6 ms a subset, so
# the cap bounds a call to about 10 s.
_MAX_SUBSETS = 1 << 12


def epsilon_bound(phi_list) -> Fraction:
    """Certified separation constant of a functional system.

    For every linearly independent subset and every unit-norm nonpositive
    combination x of its vectors, some member satisfies phi(x) <= -eps.
    The returned value is half the exact minimum over subsets, so it stays
    strictly inside the valid range. It depends only on the set of
    coefficient vectors and is memoized on it, with a bounded memo: a
    caller that sizes a gauge by eps and then asks is_bounded solves the
    LPs once.

    The subsets of at most l of the m distinct vectors number
    sum_(k <= l) C(m, k); above _MAX_SUBSETS the call is refused before any
    LP is solved.
    """
    vecs = frozenset(_functional_list(phi_list))
    m, l = len(vecs), len(next(iter(vecs)))
    count = sum(math.comb(m, k) for k in range(1, l + 1))
    if count > _MAX_SUBSETS:
        raise PreconditionError(
            "epsilon_bound would walk %d subsets of %d functionals in R^%d, over the cap of %d"
            % (count, m, l, _MAX_SUBSETS))
    return _separation(vecs)


def is_bounded(U: BorderedSet) -> bool:
    """Whether a bordered region is bounded.

    At a positive slope the region is bounded iff its system has a dead
    combination (Gordan); the slope must be strictly less than the
    separation constant of the system, and a steeper gauge is rejected
    rather than answered wrongly. At slope 0 the region is a polyhedron,
    bounded iff it is empty or the phi_i positively span R^l (rank l and
    -sum phi_i in their cone; Stiemke). The verdict is kept in the set's
    contraction plan.
    """
    return U._plan.bounded


@dataclass(frozen=True)
class ConvexSpec:
    """V-representation of a convex region: points plus recession rays.

    The region described is conv(points) + cone(rays), read as an open set
    (its relative interior) where openness matters. No points means empty.
    """

    points: tuple = ()
    rays: tuple = ()
    l: int = 0

    def __post_init__(self):
        pts = tuple(tuple(frac(c) for c in p) for p in self.points)
        rys = tuple(tuple(frac(c) for c in r) for r in self.rays)
        l = self.l
        for v in pts + rys:
            if l == 0:
                l = len(v)
            if len(v) != l:
                raise PreconditionError("mixed generator dimensions")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "rays", rys)
        object.__setattr__(self, "l", l)

    @property
    def is_empty(self) -> bool:
        return not self.points


def _cone_point(rays, target):
    """Weights gamma >= 0 with sum gamma_i rays_i = target, or None when
    target is not in the conical hull of the rays."""
    m = len(rays)
    res = solve_lp(
        [Fraction(0)] * m,
        A_ub=[[-Fraction(i == k) for i in range(m)] for k in range(m)],
        b_ub=[Fraction(0)] * m,
        A_eq=[[r[d] for r in rays] for d in range(len(target))],
        b_eq=list(target),
    )
    return res.x if res.status == "optimal" else None


def _reversible_rays(S: ConvexSpec) -> list:
    return [r for r in S.rays if _cone_point(S.rays, tuple(-c for c in r)) is not None]


def _span_dim(vectors) -> int:
    return Mat.rationalize([list(v) for v in vectors]).rank() if vectors else 0


def invdim(S):
    """Dimension of the translation stabilizer; -inf for the empty region.

    A zero-gauge bordered set is the open region {phi_i(x) > C_i}; its
    emptiness is the capped depth LP of `intersect_nonempty`, not the
    feasibility of the closed polyhedron.
    """
    if isinstance(S, BorderedSet):
        if not S.gauge.is_zero:
            raise PreconditionError("invariance dimension needs the zero-gauge polyhedron")
        if not intersect_nonempty([S])[0]:
            return -math.inf
        return S.l - _span_dim(S.functionals)
    if isinstance(S, ConvexSpec):
        if S.is_empty:
            return -math.inf
        return _span_dim(_reversible_rays(S))
    raise PreconditionError("invdim expects a ConvexSpec or a zero-gauge BorderedSet")


def is_k_trivial(S: ConvexSpec, k: int) -> bool:
    """False exactly when k is the invariance dimension and the region is
    bounded transverse to its stabilizer (recession cone = lineality)."""
    if not isinstance(S, ConvexSpec):
        raise PreconditionError("k-triviality is decided on convex V-representations")
    if S.l and not 1 <= k <= S.l:
        raise PreconditionError("k out of range")
    if S.is_empty:
        return True
    rev = _reversible_rays(S)
    # bounded transverse to the stabilizer: every ray is reversible
    return _span_dim(rev) != k or len(rev) < len(S.rays)


def _lex_inf_min(rows, rhs, l: int):
    """Point of {x : rows . x >= rhs} with least sup norm, ties broken by
    smallest coordinates in order; deterministic and unique.

    One system over (r, x) with |x_d| <= r: minimize r, then x_1, ..., x_l,
    each optimum fixed by an equality row before the next LP.
    """
    zero = [Fraction(0)]
    A_ub = [zero + [-v for v in r] for r in rows]
    b_ub = [-b for b in rhs]
    for d in range(l):
        for s in (1, -1):
            A_ub.append([Fraction(-1)] + [Fraction(s * (e == d)) for e in range(l)])
            b_ub.append(Fraction(0))
    A_eq, b_eq = [], []
    for k in range(1 + l):
        unit = [Fraction(j == k) for j in range(1 + l)]
        res = solve_lp([-v for v in unit], A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        if res.status != "optimal":
            raise InternalError("lexicographic LP %d is %s" % (k, res.status))
        A_eq.append(unit)
        b_eq.append(res.x[k])
    return tuple(res.x[1:])


def _depth_lp(l: int, pairs, cap: bool):
    """max t subject to phi(x) >= c + t for each pair (phi, c), and t <= 1
    when capped, as the LP result over (t, x)."""
    A_ub = [[Fraction(1)] + [-v for v in f] for f, _ in pairs]
    b_ub = [-c for _, c in pairs]
    if cap:
        A_ub.append([Fraction(1)] + [Fraction(0)] * l)
        b_ub.append(Fraction(1))
    return solve_lp([Fraction(1)] + [Fraction(0)] * l, A_ub=A_ub, b_ub=b_ub)


def _meets_box(l: int, pairs, R) -> bool:
    """Whether the closed region {x : phi(x) >= c for each pair (phi, c)}
    in R^l meets the closed box |x|_inf <= R: the capped depth LP over the
    pairs and the box pairs (+-e_k, -R) reaches a slack >= 0."""
    box = tuple((tuple(Fraction(sgn if i == k else 0) for i in range(l)), -R)
                for k in range(l) for sgn in (1, -1))
    return sign(_depth_lp(l, tuple(pairs) + box, cap=True).value) >= 0


class _ContractionPlan:
    """Everything contract_step needs of one set that depends on neither the
    point nor the time, each part built on first use and then kept.

    The parts are the boundedness verdict, the peak-depth polytope, its
    lex-least point, and the polytope's candidate active subsets: (indices,
    rows, inverse Gram matrix) for each linearly independent subset of at
    most l rows, since in R^l a larger subset is always dependent. A part
    whose construction raises is not kept, so the error recurs on the next
    call. Besides these the plan keeps one entry, the last point projected
    with its projection, so that the times asked at one point share one
    projection.
    """

    def __init__(self, U: BorderedSet):
        self.U = U
        self._last = None

    @cached_property
    def bounded(self) -> bool:
        U = self.U
        if U.gauge.is_zero:
            # a polyhedron: bounded iff empty or the phi_i positively span R^l
            vecs = U.functionals
            minus_sum = [-sum(col) for col in zip(*vecs)]
            if _span_dim(vecs) == U.l and _cone_point(vecs, minus_sum) is not None:
                return True
            return not intersect_nonempty([U])[0]
        eps = epsilon_bound(U.functionals)
        if U.gauge.slope >= eps:
            raise GaugeTooSteep(
                "gauge slope %s is not below the separation constant %s"
                % (U.gauge.slope, eps)
            )
        ok, _ = positively_nontrivial(U.functionals)
        return not ok

    @cached_property
    def peak(self):
        """(rows, rhs) of {x : rows_i . x >= rhs_i}, where the zero-gauge depth peaks."""
        U = self.U
        res = _depth_lp(U.l, U.phi, cap=False)
        if res.status != "optimal":
            raise InternalError("a bounded system has a finite peak depth, LP is %s" % res.status)
        return [list(f) for f in U.functionals], [c + res.value for c in U.constants]

    @cached_property
    def lex_min(self) -> tuple:
        return _lex_inf_min(*self.peak, self.U.l)

    @cached_property
    def faces(self) -> list:
        out = []
        for combo, B in _independent_subsets(self.peak[0], self.U.l):
            gram = Mat([[_dot(r, s) for s in B] for r in B])
            out.append((combo, B, gram.inverse()))
        return out

    def project(self, p: tuple) -> tuple:
        """Exact Euclidean projection of p onto the peak polytope, reused
        while the same point (by exact equality) is asked again."""
        last = self._last
        if last is not None and last[0] == p:
            return last[1]
        a = self._project(p)
        self._last = (p, a)
        return a

    def _project(self, p) -> tuple:
        """Exact Euclidean projection of p onto the peak polytope
        {x : rows_i . x >= rhs_i}.

        Active-set enumeration: the projection satisfies x = p + B_S^T mu with
        mu >= 0 supported on an independent active subset S, B_S x = rhs_S. The
        minimizer is unique, so the first subset passing both checks is it,
        whatever the order the subsets are tried in. The rows of S hold with
        equality by construction, so only the others are checked.
        """
        rows, rhs = self.peak
        l = len(p)
        slack = [_dot(r, p) - b for r, b in zip(rows, rhs)]
        if all(sign(v) >= 0 for v in slack):
            return tuple(p)
        for combo, B, gram_inv in self.faces:
            mu = gram_inv.apply([-slack[i] for i in combo])
            if any(sign(v) < 0 for v in mu):
                continue
            x = [p[d] + sum(mu[i] * B[i][d] for i in range(len(B))) for d in range(l)]
            if all(
                sign(_dot(r, x) - b) >= 0
                for i, (r, b) in enumerate(zip(rows, rhs)) if i not in combo
            ):
                return tuple(x)
        raise InternalError("projection onto a nonempty polyhedron always exists")


def contract_step(U: BorderedSet, x, t):
    """Two-phase contraction path with nondecreasing depth.

    Phase one (t in [0, 1/2]) moves x straight to its Euclidean projection
    onto the peak-depth polytope; phase two (t in [1/2, 1]) slides inside
    that polytope to its sup-norm-least point. Both phases keep rho from
    decreasing as long as the gauge slope stays below the separation
    constant of the system, which is checked. The LPs and eliminations that
    depend only on U are done once per set, in its contraction plan.
    """
    t = frac(t)
    if not 0 <= t <= 1:
        raise PreconditionError("time parameter must lie in [0, 1]")
    if len(x) != U.l:
        raise PreconditionError("point dimension mismatch")
    x = tuple(_coerce_scalar(v) for v in x)
    if not is_bounded(U):
        raise PreconditionError("contraction is defined for bounded regions")
    a = U._plan.project(x)
    if t <= Fraction(1, 2):
        s = 2 * t
        return tuple(xv + s * (av - xv) for xv, av in zip(x, a))
    u = U._plan.lex_min
    s = 2 * t - 1
    return tuple(av + s * (uv - av) for av, uv in zip(a, u))


def intersect_nonempty(sets):
    """Whether the zero-gauge relaxations of the sets meet, with witness.

    Decided by maximizing a common slack delta <= 1 under phi(x) >= C + delta
    pooled over all sets; the strict conjunction is nonempty iff the best
    slack is positive.
    """
    sets = list(sets)
    if not sets:
        raise PreconditionError("need at least one set")
    l = sets[0].l
    if any(s.l != l for s in sets):
        raise PreconditionError("dimension mismatch")
    res = _depth_lp(l, [p for s in sets for p in s.phi], cap=True)
    if res.status != "optimal":
        raise InternalError("capped intersection LP is %s" % res.status)
    if sign(res.value) > 0:
        return True, tuple(res.x[1:])
    return False, None

"""Certificates that every escape direction shrinks some rational vector.

A witness vector, conjugated through a fixed unimodular matrix, decays
along a diagonal direction exactly when every character carrying one of
its components is strictly negative there. A family of witnesses
certifies divergence when those open shrink cones jointly cover the unit
sphere of the subgroup. Coverage is decided exactly on the sign-pattern
fan of the arrangement cut out by all the restricted characters: every
realizable sign pattern, lower-dimensional faces included, must admit a
witness whose characters are all strictly negative on it.

A fan op does each piece of integer work once, and solves no LP:
- the patterns come from the arrangement's rays (cocircuits), each the
  primitive kernel vector of l - 1 integer rows from one fraction-free
  pass, and their compositions, in the order a run over all 3^h patterns
  would give; the rays also say whether the arrangement has full rank;
- a witness's demand (the signs its characters need) is worked out once
  per distinct character tuple, and a face's owner is read off its
  pattern's bit masks;
- a ray's direction is its cocircuit vector, and a cell's of dimension
  >= 2 the sum of the rays in its closure, computed only where a
  direction is returned.
The witness search decides each shrink cone once per subgroup and
character set, in a bounded memo kept across calls. A line's or
hyperplane's character set comes from the zero pattern of one integer
vector, formed once: a kept witness is sized from the same vector.

Witnesses come only from `radicals` (`RadicalWitness.components_at`, or
its closed form for lines and hyperplanes): `radicals` alone conjugates a
witness and sizes it, ray profiles included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul

from .chars import Character, SubgroupSpec
from .errors import PreconditionError
from .lattice import positive_primitive
from .lp import lp_feasible
from .matrix import Mat, _pivot
from .radicals import (
    RadicalWitness, _closed_components, _closed_table, _closed_vector, _log_size,
    enumerate_witnesses,
)
from .scalars import frac_str


@dataclass(frozen=True)
class WitnessVector:
    """The per-weight components of a subspace witness at a fixed conjugator."""

    n: int
    degree: int
    components: tuple   # (Character, exact component norm) pairs
    label: str = ""

    def __post_init__(self):
        if not self.components:
            raise PreconditionError("witness vector has no components")

    @classmethod
    def from_radical(cls, g: Mat, witness: RadicalWitness, components=None) -> "WitnessVector":
        """components, when given, are witness.components_at(g) already read."""
        return cls(
            n=witness.n,
            degree=witness.dim,
            components=tuple(witness.components_at(g) if components is None else components),
            label=witness.label,
        )

    def to_json(self):
        return {
            "n": self.n,
            "degree": self.degree,
            "label": self.label,
            "components": [
                {"char": list(ch.canonical()), "norm": frac_str(nu)}
                for ch, nu in self.components
            ],
        }


def _coerce_witness(g: Mat, w) -> WitnessVector:
    if isinstance(w, WitnessVector):
        return w
    if isinstance(w, RadicalWitness):
        return WitnessVector.from_radical(g, w)
    raise PreconditionError("expected a witness vector or subspace witness")


def ray_shrink_set(g: Mat, v, A: SubgroupSpec) -> list:
    """The open cone of directions shrinking the conjugated witness.

    Returned as the list of restricted coefficient rows whose joint strict
    positivity defines the cone: one row per present character, negated.
    A character restricting to zero contributes the zero row, which makes
    the cone empty, as it must be.
    """
    w = _coerce_witness(g, v)
    return [A.restrict(-ch) for ch, _ in w.components]


def cone_nonempty(rows) -> bool:
    """Exact: is there a direction with every row . x >= 1 (so > 0)?"""
    rows = list(rows)
    return bool(rows) and _sign_point(rows, (1,) * len(rows)) is not None


@dataclass(frozen=True)
class FanCell:
    pattern: tuple        # sign of each shared hyperplane on the cell
    direction: tuple      # primitive integer interior representative
    witness_index: int    # witness strictly negative throughout the cell


@dataclass(frozen=True)
class DivergenceCertificate:
    subgroup: SubgroupSpec
    witnesses: tuple
    hyperplanes: tuple    # primitive functional forms shared by the fan
    fan: tuple

    def to_json(self):
        return {
            "witnesses": [w.to_json() for w in self.witnesses],
            "hyperplanes": [[frac_str(c) for c in h] for h in self.hyperplanes],
            "fan": [
                {
                    "pattern": list(cell.pattern),
                    "direction": [frac_str(c) for c in cell.direction],
                    "witness": cell.witness_index,
                }
                for cell in self.fan
            ],
        }


def _witness_faces(g: Mat, A: SubgroupSpec, witnesses):
    """Shared primitive hyperplanes and each witness's sign requirements.

    A witness shrinks on a face exactly when each of its characters is
    strictly negative there; a character lambda = c * h (h primitive,
    c != 0) is negative on a face iff the face sign of h is -sign(c).
    The first form met of h and -h is kept as the hyperplane. A witness
    with a character restricting to zero, or needing a hyperplane both
    ways, shrinks nowhere: its demand is None. A demand depends only on the
    witness's tuple of character coefficients, so it is worked out once per
    distinct tuple, and witnesses with equal tuples share one dict.
    """
    ws = [_coerce_witness(g, w) for w in witnesses]
    basis = A._int_basis[0]
    hyps: list = []
    table = {}   # h -> (k, -1) and -h -> (k, 1), for hyps[k] = h
    forms = {}   # ch.coeffs -> h, or None for a zero restriction
    known = {}   # tuple of the witness's ch.coeffs -> its demand
    demands = []
    for w in ws:
        chars = tuple(ch.coeffs for ch, _ in w.components)
        if chars in known:
            demands.append(known[chars])
            continue
        need = {}
        for coeffs in chars:
            if coeffs not in forms:
                # restrict over the integer basis: a positive multiple of
                # A.restrict, with the same primitive form
                if len(coeffs) != A.n:
                    raise PreconditionError("direction length mismatch")
                r = [sum(map(mul, coeffs, row)) for row in basis]
                k = gcd(*r)
                forms[coeffs] = tuple(x // k for x in r) if k else None
            h = forms[coeffs]
            if h is None:
                need = None
                break
            if h not in table:
                table[h] = (len(hyps), -1)
                table[tuple(-x for x in h)] = (len(hyps), 1)
                hyps.append(h)
            k, want = table[h]
            if need.setdefault(k, want) != want:
                need = None   # needs h both positive and negative: impossible
                break
        known[chars] = need
        demands.append(need)
    return ws, hyps, demands


def _sign_point(hyps, pattern):
    """A point with the given signs on the first len(pattern) hyperplanes,
    or None; nonzero signs are enforced as >= 1."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for h, s in zip(hyps, pattern):
        if s == 0:
            A_eq.append(h)
            b_eq.append(0)
        else:
            A_ub.append([-s * x for x in h])
            b_ub.append(-1)
    ok, x = lp_feasible(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    return x if ok else None


def _cocircuit(rows, l: int):
    """A primitive integer vector spanning the kernel of the l - 1 integer
    rows in R^l, up to sign, when they have rank l - 1; else None.

    One fraction-free pass of matrix._pivot (Bareiss) leaves the rows at D
    times their reduced row echelon form, D the last pivot. A kernel line
    leaves exactly one column f without a pivot (a lower rank leaves two),
    and x with x_f = D and x_c = -(row of pivot c)_f spans it: the entries
    are, up to one sign, the signed maximal minors. Dividing by their gcd
    makes x primitive.
    """
    a = [list(r) for r in rows]
    D, free, pivots = 1, None, []
    for c in range(l):
        r = len(pivots)
        for i in range(r, len(a)):
            if a[i][c]:
                a[r], a[i] = a[i], a[r]
                D = _pivot(a, r, c, D)
                pivots.append(c)
                break
        else:
            if free is not None:
                return None    # two free columns: the kernel is wider
            free = c
    x = [0] * l
    x[free] = D
    for row, c in zip(a, pivots):
        x[c] = -row[free]
    k = gcd(*x)
    return tuple(v // k for v in x)


def _fan_patterns(hyps):
    """Every nonzero sign pattern that a point realizes on the arrangement
    hyps, in the order of product((1, 0, -1), repeat=len(hyps)), as a dict
    from each pattern to the face's (pos, neg, ray): the bit masks of its
    positive and negative hyperplanes, and its primitive direction when the
    face is a ray, else None. None when hyps is not essential (rank < l).

    Any l - 1 hyperplanes of rank l - 1 meet in a line spanned by a
    primitive integer vector v (_cocircuit); its two rays carry the patterns
    of the signs of h . v and of -h . v (the cocircuits), and a ray's only
    primitive direction is v or -v. Every other face is a composition of
    rays, (X o Y)_i = X_i if X_i != 0 else Y_i (Bjorner, Las Vergnas,
    Sturmfels, White & Ziegler, Oriented Matroids, 1999, ch. 4), so the
    patterns are the closure of the rays under composition; no LP is
    solved. _direction reads a face's direction off the rays.

    The rays also give the rank. When hyps has rank l, no line lies in
    every hyperplane, so each ray has a nonzero pattern. When it has rank
    l - 1, each l - 1 hyperplanes of that rank meet in the line common to
    all, whose pattern is zero, and below l - 1 no ray exists.
    """
    l = len(hyps[0])
    bits = [1 << i for i in range(len(hyps))]
    rays = {}
    for sub in combinations(hyps, l - 1):
        v = _cocircuit(sub, l)
        if v is None:
            continue
        pos = neg = 0
        for bit, h in zip(bits, hyps):
            s = sum(map(mul, h, v))
            if s > 0:
                pos |= bit
            elif s < 0:
                neg |= bit
        if not pos | neg:
            return None
        rays[pos, neg] = v
        rays[neg, pos] = tuple(-x for x in v)
    if not rays:
        return None
    full = (1 << len(hyps)) - 1
    faces = set(rays)
    todo = list(rays)
    while todo:
        pos, neg = todo.pop()
        zero = full & ~(pos | neg)
        if not zero:
            continue
        for p, n in rays:
            if (p | n) & zero:
                face = (pos | p & zero, neg | n & zero)
                if face not in faces:
                    faces.add(face)
                    todo.append(face)
    # 1 > 0 > -1, so descending order is product order; patterns are
    # distinct, so the sort never compares two values
    return dict(sorted(
        ((tuple([1 if pos & bit else -1 if neg & bit else 0 for bit in bits]),
          (pos, neg, rays.get((pos, neg))))
         for pos, neg in faces),
        reverse=True,
    ))


def _direction(faces, face):
    """The primitive direction of face, a (pos, neg, ray) value of
    _fan_patterns: its ray if it is one, else positive_primitive of the sum
    of the rays among faces (values of the same fan) in its closure.

    The arrangement is essential, so the closure of a face is a pointed
    cone, spanned by the rays it contains (Ziegler, Lectures on Polytopes,
    1995, sec. 1.3), and a ray lies in it exactly when the ray's positive
    and negative masks are within the face's. A sum of the spanning rays
    with all weights positive lies in the cone's relative interior, which
    is the face itself, so the direction realizes the face's pattern."""
    pos, neg, ray = face
    if ray is not None:
        return ray
    total = None
    for p, n, v in faces:
        if v is not None and not (p & ~pos or n & ~neg):
            total = v if total is None else [a + b for a, b in zip(total, v)]
    return positive_primitive(total)


def _owned_faces(g: Mat, A: SubgroupSpec, witnesses):
    """(ws, hyps, fan, faces, uncovered): fan is _fan_patterns(hyps), and
    faces lists (pattern, owner) for every face of the fan, owner the first
    witness whose demand the pattern meets. When some face has no owner,
    faces is None and uncovered() gives a direction no witness shrinks
    along. The owner test reads only the masks, and no LP is solved: a
    direction is computed only by uncovered() and by _certificate.

    Witnesses with equal character tuples share one demand (_witness_faces),
    and only the first of them can own a face, so masks are built for that
    one alone. Full rank is read off the rays: _fan_patterns gives None
    without it, and only then is a kernel basis taken, for a direction
    that lies in every hyperplane.
    """
    ws, hyps, demands = _witness_faces(g, A, witnesses)
    l = A.dim
    if not hyps:
        unit = tuple(1 if i == 0 else 0 for i in range(l))
        return ws, hyps, None, None, lambda: unit
    fan = _fan_patterns(hyps)
    if fan is None:
        H = Mat.rationalize([list(h) for h in hyps])
        free = tuple(positive_primitive(H.kernel_basis()[0]))
        return ws, hyps, None, None, lambda: free
    # a demand as masks: the hyperplanes it needs positive, and negative
    needs, seen = [], set()
    for idx, need in enumerate(demands):
        if need is not None and id(need) not in seen:
            seen.add(id(need))
            needs.append((idx, sum(1 << k for k, s in need.items() if s > 0),
                          sum(1 << k for k, s in need.items() if s < 0)))
    faces = []
    for pattern, face in fan.items():
        pos, neg, _ = face
        for idx, p, n in needs:
            if not (p & ~pos or n & ~neg):
                faces.append((pattern, idx))
                break
        else:
            return ws, hyps, fan, None, lambda: _direction(fan.values(), face)
    return ws, hyps, fan, faces, None


def _certificate(A: SubgroupSpec, ws, hyps, fan, faces) -> DivergenceCertificate:
    """The certificate of owned faces, each with its direction from
    _direction over the fan's rays: no LP is solved."""
    rays = [face for face in fan.values() if face[2] is not None]
    cells = tuple(
        FanCell(pattern=pattern, direction=_direction(rays, fan[pattern]),
                witness_index=owner)
        for pattern, owner in faces
    )
    return DivergenceCertificate(
        subgroup=A, witnesses=tuple(ws), hyperplanes=tuple(hyps), fan=cells
    )


def _analyze(g: Mat, A: SubgroupSpec, witnesses):
    """(ok, uncovered, certificate), as check_certificate and
    build_certificate would give them, from one fan."""
    ws, hyps, fan, faces, uncovered = _owned_faces(g, A, witnesses)
    if faces is None:
        return False, uncovered(), None
    return True, None, _certificate(A, ws, hyps, fan, faces)


def check_certificate(g: Mat, A: SubgroupSpec, witnesses):
    """True when the shrink cones of the witnesses cover every direction.

    Exact fan decision over all realizable sign patterns of the restricted
    characters; on failure the second value is an uncovered direction.
    """
    _, _, _, faces, uncovered = _owned_faces(g, A, witnesses)
    return (True, None) if faces is not None else (False, uncovered())


def build_certificate(g: Mat, A: SubgroupSpec, witnesses):
    """The checked fan as a reusable object, or None when coverage fails;
    it solves no LP."""
    ws, hyps, fan, faces, _ = _owned_faces(g, A, witnesses)
    return None if faces is None else _certificate(A, ws, hyps, fan, faces)


def ray_profile(w, A: SubgroupSpec, direction, times) -> list:
    """Exact log-size of the conjugated witness along exp(t * direction).

    Each value is the max over components of  t * char(direction) + log norm,
    an exact ordered scalar.
    """
    if not isinstance(w, WitnessVector):
        raise PreconditionError("ray_profile expects a prepared witness vector")
    d = tuple(Fraction(x) for x in direction)
    if len(d) != A.dim:
        raise PreconditionError("coordinate length mismatch")
    rows = [(A.restrict(ch), nu) for ch, nu in w.components]
    return [_log_size(rows, [t * x for x in d]) for t in map(Fraction, times)]


@lru_cache(maxsize=256)
def _cone_verdict(A: SubgroupSpec, coeffs: frozenset) -> bool:
    """cone_nonempty for the shrink cone of any witness whose characters
    have exactly these coefficient tuples: the cone depends on nothing else."""
    return cone_nonempty(A.restrict(-Character(c)) for c in sorted(coeffs))


def search_witnesses(g: Mat, A: SubgroupSpec, height: int) -> list:
    """Subspace witnesses of bounded height with a nonempty shrink cone.

    The cone is decided once per subgroup and character set, across calls:
    the characters of a given n come from a finite set, so a warm memo
    solves no LP. components_at gives sum-zero coefficients, so equal
    coefficient tuples are equal characters. A line's or hyperplane's
    character set is fixed by n, its sign and the zero pattern of one
    integer vector u = G v (or H f; radicals._closed_vector). That vector
    is formed once per candidate: its (sign, support) picks the verdict,
    read from the memo once per call, and a kept witness is sized from the
    same u. A plane is sized once, and a kept plane reuses its components.
    """
    out = []
    n = g.nrows
    verdicts = {}   # (sign, support) -> cone verdict of a line or hyperplane
    for rw in enumerate_witnesses(n, height):
        if rw.j == 1 or rw.j == n - 1:
            closed = _closed_vector(g, rw)
            kind = closed[1:]
            keep = verdicts.get(kind)
            if keep is None:
                keep = verdicts[kind] = _cone_verdict(A, _closed_table(n, *kind)[1])
            comps = _closed_components(g, rw, closed) if keep else None
        else:
            comps = rw.components_at(g)
            keep = _cone_verdict(A, frozenset(ch.coeffs for ch, _ in comps))
        if keep:
            out.append(WitnessVector.from_radical(g, rw, comps))
    return out

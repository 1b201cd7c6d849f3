"""Certificates that every escape direction shrinks some rational vector.

A witness vector, conjugated through a fixed unimodular matrix, decays
along a diagonal direction exactly when every character carrying one of
its components is strictly negative there. A family of witnesses
certifies divergence when those open shrink cones jointly cover the unit
sphere of the subgroup. Coverage is decided exactly on the sign-pattern
fan of the arrangement cut out by all the restricted characters: every
realizable sign pattern, lower-dimensional faces included, must admit a
witness whose characters are all strictly negative on it.

One analysis, _analyze, answers check_certificate and build_certificate;
it does each piece of integer work once, and solves no LP:
- the patterns come from the arrangement's rays (cocircuits), each the
  primitive kernel vector of l - 1 integer rows (matrix._bareiss), and
  their compositions, in the order a run over all 3^h patterns would
  give; the rays also say whether the arrangement has full rank;
- a witness's demand, the bit masks of the hyperplanes it needs positive
  and negative, is worked out once per distinct character tuple, and
  every face is given an owner before any direction is computed;
- a ray's direction is its cocircuit vector, and a cell's of dimension
  >= 2 the sum of the rays in its closure, computed only for the
  uncovered face returned or for the cells of a certificate that is read
  (check_certificate reads none).
The witness search decides each shrink cone from the witness's Plucker
support alone: the j-subsets R with W_R != 0 for W = Lambda^j(g) p_V, whose
pure weights n e_R - j (1, ..., 1) cut out the cone (radicals._keyed has
the proof). It decides once per subgroup and support, in a bounded memo
kept across calls, by bordered's Gordan LP (`bordered.positively_nontrivial`);
this module builds no LP.

Witnesses come only from `radicals`: `radicals` alone conjugates a witness
and sizes it, ray profiles included. The search reads its candidates,
their supports and their sizing from one stream of `radicals`, and does
not know how a witness of any type is sized; it sizes only the witnesses
it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import gcd
from operator import mul

from .bordered import positively_nontrivial
from .chars import SubgroupSpec
from .errors import PreconditionError
from .lattice import positive_primitive
from .matrix import Mat, _bareiss
from .radicals import RadicalWitness, _keyed, _log_size, _pure_weights
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
    def from_radical(cls, g: Mat, witness: RadicalWitness) -> "WitnessVector":
        return cls(
            n=witness.n,
            degree=witness.dim,
            components=tuple(witness.components_at(g)),
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
    """Exact: is there a direction with every row . x > 0? No row, or a
    zero row, means no; otherwise bordered's Gordan LP decides, and an empty
    cone's multipliers are checked exactly before the verdict is returned."""
    rows = list(rows)
    return bool(rows) and all(map(any, rows)) and positively_nontrivial(rows)[0]


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
    The first form met of h and -h is kept as the hyperplane. A demand is
    the bit masks (pos, neg) of the hyperplanes a witness needs positive
    and negative, or None when it shrinks nowhere: a character restricts
    to zero, or it needs a hyperplane both ways. It depends only on the
    witness's tuple of character coefficients, so it is worked out once
    per distinct tuple.
    """
    ws = [_coerce_witness(g, w) for w in witnesses]
    hyps: list = []
    table = {}   # form -> the (pos, neg) it demands: h -> (0, bit), -h -> (bit, 0)
    forms = {}   # ch.coeffs -> A.primitive_form(ch.coeffs)
    known = {}   # tuple of the witness's ch.coeffs -> its demand
    demands = []
    for w in ws:
        chars = tuple(ch.coeffs for ch, _ in w.components)
        if chars not in known:
            known[chars] = None
            pos = neg = 0
            for coeffs in chars:
                if coeffs not in forms:
                    forms[coeffs] = A.primitive_form(coeffs)
                h = forms[coeffs]
                if h is None:
                    break
                if h not in table:
                    bit = 1 << len(hyps)
                    table[h] = (0, bit)
                    table[tuple(-x for x in h)] = (bit, 0)
                    hyps.append(h)
                p, q = table[h]
                pos |= p
                neg |= q
                if pos & neg:
                    break   # needs h both positive and negative: impossible
            else:
                known[chars] = pos, neg
        demands.append(known[chars])
    return ws, hyps, demands


def _cocircuit(rows, l: int):
    """A primitive integer vector spanning the kernel of the l - 1 integer
    rows in R^l, up to sign, when they have rank l - 1; else None.

    matrix._bareiss leaves the rows at D times their reduced row echelon
    form. A kernel line leaves exactly one column f without a pivot, and x
    with x_f = D and x_c = -(row of pivot c)_f spans it: the entries are,
    up to one sign, the signed maximal minors. Dividing by their gcd makes
    x primitive.
    """
    a = [list(r) for r in rows]
    pivots, D, _ = _bareiss(a, l)
    if len(pivots) < l - 1:
        return None
    free = next(c for c in range(l) if c not in pivots)
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


def _analyze(g: Mat, A: SubgroupSpec, witnesses):
    """Yields ok, uncovered and certificate, in that order: ok when the
    shrink cones of the witnesses cover every direction, with the checked
    fan as certificate; else a direction that no witness shrinks along.
    The certificate is built only when it is read, so a caller that stops
    after two values, as check_certificate does, computes no cell
    direction.

    Each face of _fan_patterns(hyps) is owned by the first witness whose
    demand its masks meet. Directions come from _direction only once the
    owners are found: for the first face without one, or for every cell.
    Without full rank, read off the rays, the direction is a kernel vector
    of the hyperplanes.
    """
    ws, hyps, demands = _witness_faces(g, A, witnesses)
    if not hyps:
        yield from (False, tuple(1 if i == 0 else 0 for i in range(A.dim)), None)
        return
    fan = _fan_patterns(hyps)
    if fan is None:
        H = Mat.rationalize([list(h) for h in hyps])
        yield from (False, tuple(positive_primitive(H.kernel_basis()[0])), None)
        return
    first = {}   # demand -> the first witness with it
    for idx, need in enumerate(demands):
        if need is not None:
            first.setdefault(need, idx)
    needs = [(p, n, idx) for (p, n), idx in first.items()]
    owners = []
    for face in fan.values():
        pos, neg, _ = face
        for p, n, idx in needs:
            if not (p & ~pos or n & ~neg):
                owners.append(idx)
                break
        else:
            yield from (False, _direction(fan.values(), face), None)
            return
    yield from (True, None)
    rays = [face for face in fan.values() if face[2] is not None]
    cells = tuple(
        FanCell(pattern=pattern, direction=_direction(rays, face), witness_index=idx)
        for (pattern, face), idx in zip(fan.items(), owners)
    )
    yield DivergenceCertificate(
        subgroup=A, witnesses=tuple(ws), hyperplanes=tuple(hyps), fan=cells
    )


def check_certificate(g: Mat, A: SubgroupSpec, witnesses):
    """True when the shrink cones of the witnesses cover every direction.

    Exact fan decision over all realizable sign patterns of the restricted
    characters; on failure the second value is an uncovered direction.
    """
    return tuple(islice(_analyze(g, A, witnesses), 2))


def build_certificate(g: Mat, A: SubgroupSpec, witnesses):
    """The checked fan as a reusable object, or None when coverage fails;
    it solves no LP."""
    _, _, certificate = _analyze(g, A, witnesses)
    return certificate


def _verdict_json(ok, uncovered, certificate) -> dict:
    """{"ok", "certificate" | "uncovered"}: an _analyze verdict as JSON."""
    if ok:
        return {"ok": True, "certificate": certificate.to_json()}
    return {"ok": False, "uncovered": [frac_str(x) for x in uncovered]}


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
def _cone_verdict(A: SubgroupSpec, key: tuple) -> bool:
    """cone_nonempty for the shrink cone on A of any witness whose Plucker
    support is key (radicals._keyed): the cone depends on nothing else. By
    the rule proved there, its rows are the distinct negated primitive
    restrictions of the pure weights n e_R - j (1, ..., 1), R in the
    support; a subgroup of another n is refused. With no LP, the cone is
    empty when a form restricts to zero, or when the support is balanced
    (sum_R e_R constant): then the pure weights sum to 0, and multipliers
    all one prove the cone empty."""
    weights = _pure_weights(key)
    forms = {A.primitive_form(c) for c in weights}
    return (None not in forms and any(map(sum, zip(*weights)))
            and cone_nonempty(sorted(tuple(-x for x in h) for h in forms)))


def search_witnesses(g: Mat, A: SubgroupSpec, height: int) -> list:
    """Subspace witnesses of bounded height with a nonempty shrink cone,
    in the order of enumerate_witnesses. For n >= 5 only lines and
    hyperplanes are searched, since planes of larger n are not sized yet.

    The candidates, their keys (Plucker supports) and their sizing come
    from radicals' stream (radicals._keyed), which skips the lines and
    hyperplanes that shrink nowhere. The cone is decided once per key in a
    call, and once per subgroup and key across calls: the supports of a
    given n come from a finite set, so a warm memo solves no LP. Only a
    kept witness is sized, a plane included.
    """
    verdicts = {}   # key -> _cone_verdict(A, key)
    out = []
    for rw, key, size in _keyed(g, height):
        if key not in verdicts:
            verdicts[key] = _cone_verdict(A, key)
        if verdicts[key]:
            out.append(WitnessVector(rw.n, rw.dim, tuple(size()), rw.label))
    return out

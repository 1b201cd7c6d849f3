"""Covers of a diagonal parameter space by witness activity regions.

Each subspace witness, conjugated through a fixed unimodular matrix, has a
finite set of diagonal characters carrying its wedge vector. Negating the
characters that actually appear and shifting by the exact log of the
component norm produces a bordered region in the subgroup coordinates: the
locus where the conjugated vector is small. This module builds those
regions, enumerates the ones meeting a box (local finiteness, decided by
bordered's capped depth LP; this module builds no LP), tests that
restriction to the subgroup keeps small character sets independent, and
verifies candidate subcovers on grids.

Membership and activity are computed along two independent routes (margin
arithmetic of the bordered region vs. certified log-linear signs of the
component norms) so they can cross-check each other in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .bordered import BorderedSet, Gauge, _depth_lp, epsilon_bound
from .chars import Character, SubgroupSpec, ambient_independent, box_points
from .errors import PreconditionError
from .loglin import LogLin
from .matrix import Mat
from .radicals import RadicalWitness, enumerate_witnesses
from .scalars import _sup_norm, frac, frac_str, sign


@dataclass(frozen=True)
class CoverElement:
    """Activity region of one witness in subgroup coordinates.

    psi holds the negatives of the characters present in the conjugated
    wedge vector; norms holds the exact rational component norm at each.
    The cut value for psi is log(norm) + C0, stored exactly as that pair.
    A character whose restriction to the subgroup is the zero row cannot
    sit in a bordered region, so it is kept aside and checked as a
    norm-ball condition. Both parts derive from the stored fields on first use, so a
    `dataclasses.replace` copy never keeps a stale region.
    """

    witness: RadicalWitness
    subgroup: SubgroupSpec
    C0: Fraction
    gauge: Gauge
    psi: tuple           # Characters: negated present weights
    norms: tuple         # exact component norms, aligned with psi
    restr: tuple         # restricted coefficient tuples, aligned with psi

    @cached_property
    def zero_psi(self) -> tuple:
        """(Character, norm) pairs whose restriction vanishes."""
        return tuple((p, nu) for p, nu, coeffs in zip(self.psi, self.norms, self.restr)
                     if not any(coeffs))

    @cached_property
    def restricted(self):
        """BorderedSet over the nonzero restrictions at (C0, gauge), or None."""
        pairs = tuple((coeffs, LogLin(self.C0, ((nu, 1),)))
                      for nu, coeffs in zip(self.norms, self.restr) if any(coeffs))
        return BorderedSet(self.subgroup.dim, pairs, self.gauge) if pairs else None

    @cached_property
    def _log_norms(self) -> tuple:
        """log(norm) of each component as LogLin's checked term tuple."""
        return tuple(LogLin.log(nu).logs for nu in self.norms)

    def contains(self, s, closed: bool = False) -> bool:
        """Gauged membership, via bordered-set margins plus ball conditions."""
        s = tuple(frac(v) for v in s)
        if len(s) != self.subgroup.dim:
            raise PreconditionError("coordinate length mismatch")
        top = self.C0 + self.gauge(_sup_norm(s))
        for coeffs, logs in zip(self.restr, self._log_norms):
            if not any(coeffs):
                sign = LogLin._built(top, logs).sign()
                if sign > 0 or (sign == 0 and not closed):
                    return False
        if self.restricted is None:
            return True
        return self.restricted.contains(s, closed=closed)

    def is_active(self, s, strict: bool = True) -> bool:
        """Smallness of the conjugated vector at s, via component signs.

        Active means every weight component of the conjugated wedge at the
        point exp(D(s))*g stays at or under exp(-C0 - gauge(|s|)): the sign
        of  psi-restriction(s) shortfall plus log norm  decides each one.
        """
        s = tuple(frac(v) for v in s)
        if len(s) != self.subgroup.dim:
            raise PreconditionError("coordinate length mismatch")
        top = self.C0 + self.gauge(_sup_norm(s))
        for coeffs, logs in zip(self.restr, self._log_norms):
            lin = top - sum(c * v for c, v in zip(coeffs, s))
            sign = LogLin._built(lin, logs).sign()
            if sign > 0 or (sign == 0 and strict):
                return False
        return True

    def zero_gauge(self) -> "CoverElement":
        return replace(self, gauge=Gauge.zero())

    def to_json(self):
        return {
            "witness": self.witness.to_json(),
            "psi": [list(p.canonical()) for p in self.psi],
            "d": [
                {"norm": frac_str(nu), "C0": frac_str(self.C0)}
                for nu in self.norms
            ],
            "gauge": self.gauge.to_json(),
        }


def _element_data(g: Mat, A: SubgroupSpec, witness: RadicalWitness):
    """Present characters of the conjugated wedge, negated, with norms."""
    comps = witness.components_at(g)
    if not comps:
        raise PreconditionError("witness wedge vanished; corrupt input")
    psi, norms, restr = [], [], []
    for ch, nu in comps:
        p = -ch
        psi.append(p)
        norms.append(nu)
        restr.append(A.restrict(p))
    return tuple(psi), tuple(norms), tuple(restr)


def build_cover(g: Mat, A: SubgroupSpec, candidates, C0=0, gauge=None) -> list:
    """One cover element per candidate witness, at the conjugator g.

    When no gauge is given, a linear one is fitted with slope at half the
    separation constant of the pooled nonzero restricted functionals, which
    keeps it strictly inside the admissible range; if every functional
    restricts to zero the gauge falls back to zero.
    """
    candidates = list(candidates)
    if not candidates:
        raise PreconditionError("need at least one candidate witness")
    C0 = frac(C0)
    data = [_element_data(g, A, w) for w in candidates]
    if gauge is None:
        pooled = []
        for _, _, restr in data:
            for coeffs in restr:
                if any(c != 0 for c in coeffs) and coeffs not in pooled:
                    pooled.append(coeffs)
        if pooled:
            gauge = Gauge.linear(epsilon_bound(pooled) / 2)
        else:
            gauge = Gauge.zero()
    return [
        CoverElement(witness=witness, subgroup=A, C0=C0, gauge=gauge,
                     psi=psi, norms=norms, restr=restr)
        for witness, (psi, norms, restr) in zip(candidates, data)
    ]


def enumerate_local(g: Mat, A: SubgroupSpec, R, C0, H: int) -> list:
    """Witnesses of height <= H whose zero-gauge region meets the R-box.

    Decided exactly by bordered's capped depth LP over the restricted
    pairs and the box pairs (+-e_k, -R): the closed region meets the
    closed box iff the best common slack is >= 0. Constant characters
    survive exactly when their cut level is nonpositive. The output is
    finite for every (R, H).
    """
    R = frac(R)
    if R < 0:
        raise PreconditionError("box radius must be nonnegative")
    C0 = frac(C0)
    l = A.dim
    box = tuple((tuple(Fraction(sgn if i == k else 0) for i in range(l)), -R)
                for k in range(l) for sgn in (1, -1))
    out = []
    for witness in enumerate_witnesses(g.nrows, H):
        e = CoverElement(witness, A, C0, Gauge.zero(), *_element_data(g, A, witness))
        if any(LogLin(C0, ((nu, 1),)).sign() > 0 for _, nu in e.zero_psi):
            continue
        phi = e.restricted.phi if e.restricted is not None else ()
        if sign(_depth_lp(l, phi + box, cap=True).value) >= 0:
            out.append(witness)
    return out


def good_restrictions(A: SubgroupSpec, Psi, l: int):
    """Whether restriction to A preserves independence of small subsets.

    Scans subsets of the character list of size at most l that are
    independent in the ambient quotient and checks that their restrictions
    stay independent; returns (False, subset) on the first failure.
    """
    chars = [c if isinstance(c, Character) else Character(tuple(c)) for c in Psi]
    for size in range(1, max(0, l) + 1):
        for combo in combinations(range(len(chars)), size):
            subset = [chars[i] for i in combo]
            if not ambient_independent(subset):
                continue
            rows = [list(A.restrict(c)) for c in subset]
            if Mat.rationalize(rows).rank() < size:
                return False, tuple(subset)
    return True, None


@dataclass(frozen=True)
class CoverReport:
    covered: bool
    gaps: tuple
    checked: int

    def to_json(self):
        return {
            "covered": self.covered,
            "checked": self.checked,
            "gaps": [[frac_str(v) for v in p] for p in self.gaps],
        }


def verify_subcover(elements, R, delta, core: BorderedSet) -> CoverReport:
    """Grid check that the elements cover the box outside the core.

    Every grid point of the sup-norm R-box not in the closed core must lie
    in some element's closed gauged region. A desk-scale sanity check of a
    cover claim, not a proof.
    """
    delta = frac(delta)
    if delta <= 0:
        raise PreconditionError("grid step must be positive")
    l = core.l
    for e in elements:
        if e.subgroup.dim != l:
            raise PreconditionError("element dimension mismatch with core")
    gaps = []
    checked = 0
    for point in box_points(l, frac(R), delta):
        if core.contains(point, closed=True):
            continue
        checked += 1
        if not any(e.contains(point, closed=True) for e in elements):
            gaps.append(point)
    return CoverReport(covered=not gaps, gaps=tuple(gaps), checked=checked)

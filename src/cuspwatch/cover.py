"""Covers of a diagonal parameter space by witness activity regions.

Each subspace witness, conjugated through a fixed unimodular matrix, has a
finite set of diagonal characters carrying its wedge vector. Negating the
characters that actually appear and shifting by the exact log of the
component norm produces a bordered region in the subgroup coordinates: the
locus where the conjugated vector is small. This module builds those
regions, enumerates the ones meeting a box (local finiteness, decided by
`bordered`, which writes the box LP; this module builds no LP), tests that
restriction to the subgroup keeps small character sets independent, and
verifies candidate subcovers on grids.

Membership and activity are computed along two independent routes (margin
arithmetic of the bordered region vs. certified log-linear signs of the
component norms) so they can cross-check each other in tests. Both add a
rational to a stored log norm; neither reads a LogLin's terms.

Both read only the deciding components of an element
(radicals._deciding_components). For a line, the component of a multiset A
of size n has character chi_A = (1/n) sum_(a in A) chi_(a^n) and log norm
(1/n) sum_(a in A) log nu_(a^n), over the pure multisets a^n = {a, ..., a}.
A component's margin at a point is affine in (character, log norm), with a
shift (C0 and the gauge value) common to all, so chi_A's margin is the
average of the pure margins: positive (or nonnegative) whenever they all
are. The n pure components therefore decide activity and membership alone,
and a hyperplane likewise. The rule that drops a component checks this
identity exactly on the stored characters and norms, so it serves any
witness type; a plane seldom meets it and keeps every component.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .bordered import BorderedSet, Gauge, _meets_box, epsilon_bound
from .chars import Character, SubgroupSpec, ambient_independent, box_points
from .errors import PreconditionError
from .loglin import LogLin
from .matrix import Mat
from .radicals import RadicalWitness, _deciding_components, enumerate_witnesses
from .scalars import _sup_norm, frac, frac_str


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

    The stored and printed fields (psi, norms, restr, zero_psi, restricted,
    to_json) keep every component. Activity and membership read only the
    deciding subset: a component whose character and log norm are the
    average, with weights c_a / n summing to one, of present pure
    components' (for a line, chi_A with c_a the multiplicity of a in A) has
    the average of their margins at every point, so it fails only where one
    of them fails, and is dropped. The subset is found once, on first use.
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
    def _deciding(self) -> tuple:
        """(pairs, balls, region) over the deciding components alone (see
        radicals._deciding_components): pairs holds (restricted coefficients,
        log norm) of each, balls the log norms of those restricting to zero,
        and region is the BorderedSet over the others at (C0, gauge), or
        None. Computed on first use, from the stored fields."""
        keep = _deciding_components(tuple(-p for p in self.psi), self.norms)
        pairs = tuple((self.restr[k], LogLin.log(self.norms[k])) for k in keep)
        balls = tuple(log_norm for coeffs, log_norm in pairs if not any(coeffs))
        phi = tuple((coeffs, log_norm + self.C0) for coeffs, log_norm in pairs if any(coeffs))
        return pairs, balls, BorderedSet(self.subgroup.dim, phi, self.gauge) if phi else None

    def contains(self, s, closed: bool = False) -> bool:
        """Gauged membership, via bordered-set margins plus ball conditions,
        read on the deciding components."""
        s = tuple(frac(v) for v in s)
        if len(s) != self.subgroup.dim:
            raise PreconditionError("coordinate length mismatch")
        _, balls, region = self._deciding
        if balls:
            top = self.C0 + self.gauge(_sup_norm(s))
            for log_norm in balls:
                sign = (log_norm + top).sign()
                if sign > 0 or (sign == 0 and not closed):
                    return False
        return region is None or region.contains(s, closed=closed)

    def is_active(self, s, strict: bool = True) -> bool:
        """Smallness of the conjugated vector at s, via component signs.

        Active means every weight component of the conjugated wedge at the
        point exp(D(s))*g stays at or under exp(-C0 - gauge(|s|)): the sign
        of  psi-restriction(s) shortfall plus log norm  decides each one.
        The deciding components alone are read.
        """
        s = tuple(frac(v) for v in s)
        if len(s) != self.subgroup.dim:
            raise PreconditionError("coordinate length mismatch")
        top = self.C0 + self.gauge(_sup_norm(s))
        for coeffs, log_norm in self._deciding[0]:
            lin = top - sum(c * v for c, v in zip(coeffs, s))
            sign = (log_norm + lin).sign()
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

    Decided exactly by bordered's box test over the restricted pairs
    (`bordered._meets_box`). Constant characters survive exactly when
    their cut level is nonpositive. Both read the deciding components
    alone, which cut out the same closed region. The output is finite for
    every (R, H).
    """
    R = frac(R)
    if R < 0:
        raise PreconditionError("box radius must be nonnegative")
    C0 = frac(C0)
    out = []
    for witness in enumerate_witnesses(g.nrows, H):
        _, balls, region = CoverElement(witness, A, C0, Gauge.zero(),
                                        *_element_data(g, A, witness))._deciding
        if any((log_norm + C0).sign() > 0 for log_norm in balls):
            continue
        if _meets_box(A.dim, region.phi if region is not None else (), R):
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

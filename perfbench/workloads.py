"""The four benchmark workloads and their exact output checks.

Each workload turns a seed into inputs, does its shared set-up once, then
runs a stream of independent ops.  An op calls the program; the check that
follows it uses only the op's input and output and exact arithmetic of its
own, so a wrong answer counts as a failed op.  `canon` renders an output in
a form that pins the mathematical answer but not incidental choices (which
LP vertex represents a cell, the order cells were found in), so the
recorded digests survive algorithm changes that keep the answers.

Program functions are looked up through their modules at call time, never
bound by name here, so the tracer's rebinding reaches every call.

`cycle` is the number of consecutive ops, from the first, after which
the mix of problems repeats exactly; a timed run stops only at the end of
a cycle, so every run times the same mix whatever the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

from cuspwatch import bordered, chars, cover, divergence, matrix, radicals

DATA = Path(__file__).resolve().parent / "data"


def _height(rows):
    return max(max(abs(x.numerator), x.denominator) for row in rows for x in row)


def random_sl(n, rng, hmax=10):
    """Determinant-one product of n rational shears, entry height <= hmax.

    The products are formed here, not with the program's Mat, so that
    input generation adds nothing to the traced layers."""
    ident = [[F(int(r == k)) for k in range(n)] for r in range(n)]
    while True:
        g = [row[:] for row in ident]
        for _ in range(n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = F(rng.randint(-4, 4), rng.randint(1, 3))
                # right-multiplying by the shear I + c E_ij adds c * column i to column j
                for row in g:
                    row[j] += c * row[i]
        if g != ident and _height(g) <= hmax:
            return matrix.Mat.from_rows(g)


def weyl_conjugate(g, perm, rng):
    """P g P^-1 for the signed permutation matrix P of determinant 1 with
    P[i][perm[i]] = +-1, its signs drawn from rng.

    P normalizes the diagonal torus and permutes its coordinates, so entry
    heights, witness families up to relabelling, fan verdicts and the sizes
    of every intermediate result carry over, while the matrix changes.  The
    cost does not carry over: the order in which the program meets the
    permuted sign patterns and candidates changes it up to tenfold, while
    the signs leave it alone."""
    n = g.nrows
    signs = [rng.choice((1, -1)) for _ in range(n)]
    parity = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)) % 2
    if (-1) ** parity * math.prod(signs) != 1:
        signs[0] = -signs[0]
    # (P g P^T)[i][j] = s_i s_j g[perm i][perm j] for P[i][perm i] = s_i
    return matrix.Mat.from_rows(
        [[signs[i] * signs[j] * g[perm[i], perm[j]] for j in range(n)] for i in range(n)])


def orientations(nitems, n, rng):
    """Endless (item, permutation of range(n)) pairs, one cycle at a time.

    Cycle c holds each item i twice, under the permutations number
    2c + i and 2c + i + 1 in itertools order, shuffled by rng.  Every run
    thus times the same (item, permutation) pairs, and with them the same
    costs, whatever the seed, and no cycle repeats a pair."""
    perms = list(itertools.permutations(range(n)))
    for c in itertools.count():
        pairs = [(i, perms[(2 * c + i + j) % len(perms)]) for i in range(nitems) for j in (0, 1)]
        yield from rng.sample(pairs, len(pairs))


def _fr(v):
    return str(v) if not hasattr(v, "logs") else repr(v)


def _sign(v):
    return v.sign() if hasattr(v, "sign") else (v > 0) - (v < 0)


def _dot(a, b):
    return sum((F(x) * F(y) for x, y in zip(a, b)), F(0))


# ---------------------------------------------------------------- contraction

class Contraction:
    """Depth-monotone contraction trajectories in bounded sets, l = 2.

    The sets are drawn as in acceptance 10, from one fixed stream, so every
    run builds the same sets; the seed draws the trajectories' start points.
    A seeded choice of a dozen sets moved the op cost by more than the
    bounds allow, and a run cannot afford to build many more.
    """

    name = "contraction"
    times = (F(1, 4), F(1, 2), F(3, 4), F(1))

    def __init__(self, nsets=12):
        self.nsets = self.cycle = nsets

    def setup(self, seed):
        rng = random.Random("contraction-sets")
        sets = []
        while len(sets) < self.nsets:
            m = rng.randint(3, 5)
            phis = []
            while len(phis) < m:
                v = (rng.randint(-3, 3), rng.randint(-3, 3))
                if any(v) and v not in phis:
                    phis.append(v)
            if bordered.positively_nontrivial(phis)[0]:
                continue
            U = bordered.BorderedSet(
                2,
                tuple((p, F(rng.randint(-4, 4), 2)) for p in phis),
                bordered.Gauge.linear(bordered.epsilon_bound(phis) / 2),
            )
            if not bordered.is_bounded(U):
                raise RuntimeError("constructed set is not bounded")
            sets.append(U)
        return sets

    def inputs(self, seed, sets):
        rng = random.Random("contraction-points-%d" % seed)
        for i in itertools.count():
            yield i % self.nsets, (F(rng.randint(-10, 10), 2), F(rng.randint(-10, 10), 2))

    def op(self, sets, inp):
        U = sets[inp[0]]
        x = inp[1]
        points = [bordered.contract_step(U, x, t) for t in self.times]
        depths = [U.rho(x)] + [U.rho(p) for p in points]
        return points, depths

    def check(self, sets, inp, out):
        points, depths = out
        if len(points) != len(self.times) or len(depths) != len(points) + 1:
            return False
        return all(_sign(b - a) >= 0 for a, b in zip(depths, depths[1:]))

    def canon(self, inp, out):
        points, depths = out
        return [inp[0], [_fr(v) for v in inp[1]],
                [[_fr(v) for v in p] for p in points], [_fr(d) for d in depths]]


# ---------------------------------------------------------------- containment

class Containment:
    """Activity and containment of the acceptance-07 covers at grid points."""

    name = "containment"
    cycle = 7
    digits = 50
    decimal_every = 97

    def setup(self, seed):
        T2, T3 = chars.SubgroupSpec.full_torus(2), chars.SubgroupSpec.full_torus(3)
        g2 = matrix.Mat.rationalize([[2, 0], [0, "1/2"]])
        g3 = matrix.Mat.rationalize([[2, 0, 0], [0, 1, "1/2"], [0, 0, "1/2"]])
        covers = []
        for g, T, h in ((g2, T2, 3), (g3, T3, 1)):
            els = cover.build_cover(g, T, radicals.enumerate_witnesses(g.nrows, h), C0=-2)
            covers.append([(e, e.zero_gauge()) for e in els])
        return covers

    def inputs(self, seed, covers):
        # points of the acceptance-07 grids, six on the n = 2 grid (10001
        # points there) for each one on the n = 3 grid (1681 points); a
        # fixed interleave keeps the mix of cheap n = 2 and dearer n = 3
        # ops, and with it the median, the same in every run
        rng = random.Random("containment-points-%d" % seed)
        for i in itertools.count():
            if i % 7 < 6:
                which, p = 0, (F(-3) + F(3, 5000) * rng.randint(0, 10000),)
            else:
                which, p = 1, (F(-2) + F(rng.randint(0, 40), 10), F(-2) + F(rng.randint(0, 40), 10))
            yield which, p, i % self.decimal_every == 0

    def op(self, covers, inp):
        which, p, decimals = inp
        rows = []
        for e, z in covers[which]:
            if not e.is_active(p):
                rows.append(None)
                continue
            rendered = []
            if decimals and e.restricted is not None:
                for m in e.restricted.margins(p):
                    if hasattr(m, "sign"):
                        rendered.append((m.sign(), m.to_decimal(self.digits)))
            rows.append((e.contains(p, closed=True), z.contains(p, closed=True), rendered))
        return rows

    def check(self, covers, inp, out):
        if len(out) != len(covers[inp[0]]):
            return False
        for row in out:
            if row is None:
                continue
            gauged, sharp, rendered = row
            if not (gauged and sharp):
                return False
            for sgn, text in rendered:
                if sgn != 0 and text.startswith("-") != (sgn < 0):
                    return False
        return True

    def canon(self, inp, out):
        return [inp[0], [_fr(v) for v in inp[1]],
                [None if r is None else [r[0], r[1], [list(t) for t in r[2]]] for r in out]]


# ---------------------------------------------------------------- fan

class Fan:
    """Witness search and divergence fan certificates on the SL3 full torus.

    The problems come from a recorded corpus (entry height <= 10) of 4
    whose witness family certifies and 6 whose family leaves a direction
    uncovered, the share of certified verdicts among fresh random draws,
    with the number of witnesses and fan cells each one gave.  A cycle of
    ops meets each corpus problem twice, each time conjugated by a signed
    permutation (see weyl_conjugate and orientations), which keeps its
    verdict and the sizes of its witness family and its fan.  Fresh draws
    made the verdict mix, and with it the throughput, swing from seed to
    seed, and so did a seeded choice of permutations.
    """

    name = "fan"
    height = 2
    cycle = 20      # the 10 corpus problems, twice each

    def setup(self, seed):
        corpus = json.loads((DATA / "fan_corpus.json").read_text())
        for e in corpus:
            e["g"] = matrix.Mat.from_json(e["g"])
        return corpus, chars.SubgroupSpec.full_torus(3)

    def inputs(self, seed, state):
        corpus = state[0]
        rng = random.Random("fan-%d" % seed)
        for k, perm in orientations(len(corpus), 3, rng):
            yield k, weyl_conjugate(corpus[k]["g"], perm, rng)

    def op(self, state, inp):
        g, T = inp[1], state[1]
        ws = divergence.search_witnesses(g, T, self.height)
        cert = divergence.build_certificate(g, T, ws)
        if cert is not None:
            return ws, cert, None
        ok, direction = divergence.check_certificate(g, T, ws)
        if ok:
            raise RuntimeError("build_certificate failed where check_certificate passed")
        return ws, None, direction

    def check(self, state, inp, out):
        T = state[1]
        expected = state[0][inp[0]]
        ws, cert, direction = out
        if (cert is not None) != (expected["verdict"] == "certified"):
            return False
        # a conjugate has as many witnesses and cells as its corpus problem
        if len(ws) != expected["witnesses"]:
            return False
        restr = [[tuple(_dot(ch.coeffs, row) for row in T.basis) for ch, _ in w.components]
                 for w in ws]
        if cert is None:
            # no witness may shrink along the reported direction
            if direction is None or not any(direction):
                return False
            return all(any(_dot(r, direction) >= 0 for r in rs) for rs in restr)
        if len(cert.witnesses) != len(ws) or len(cert.fan) != expected["cells"]:
            return False
        seen = set()
        for cell in cert.fan:
            d = cell.direction
            if not any(d) or cell.pattern in seen:
                return False
            seen.add(cell.pattern)
            if len(cell.pattern) != len(cert.hyperplanes):
                return False
            for h, s in zip(cert.hyperplanes, cell.pattern):
                dot = _dot(h, d)
                if (dot > 0) - (dot < 0) != s:
                    return False
            if not 0 <= cell.witness_index < len(ws):
                return False
            if not all(_dot(r, d) < 0 for r in restr[cell.witness_index]):
                return False
        return True

    def canon(self, inp, out):
        ws, cert, _ = out
        labels = sorted(w.label for w in ws)
        if cert is None:
            return [inp[0], "uncovered", labels]
        cells = sorted(
            [sorted([list(h), s] for h, s in zip(cert.hyperplanes, cell.pattern)),
             cert.witnesses[cell.witness_index].label]
            for cell in cert.fan
        )
        return [inp[0], "certified", labels, cells]


# ---------------------------------------------------------------- radicals

class Radicals:
    """Short line radicals of g in SL4 (entry height <= 10), eps in {1/2, 2}.

    Six base matrices come from one fixed stream.  A cycle of ops meets
    each of the twelve (base, eps) pairs twice, the base conjugated by a
    signed permutation (see weyl_conjugate and orientations).  The
    conjugate has the same candidate lines up to relabelling, and so the
    same number of radicals, recorded per pair in data/radicals_counts.json.
    """

    name = "radicals"
    height = 1
    js = (1,)
    nbase = 6
    cycle = 24      # the 12 (base, eps) pairs, twice each

    def bases(self):
        rng = random.Random("radicals-base")
        return [random_sl(4, rng, 10) for _ in range(self.nbase)]

    def pairs(self):
        """(base index, eps, key of its recorded count) for the twelve pairs."""
        return [(k, eps, "%d %s" % (k, eps)) for k in range(self.nbase) for eps in (F(1, 2), F(2))]

    def setup(self, seed):
        return self.bases(), json.loads((DATA / "radicals_counts.json").read_text())

    def inputs(self, seed, state):
        rng = random.Random("radicals-%d" % seed)
        pairs = self.pairs()
        for i, perm in orientations(len(pairs), 4, rng):
            k, eps, key = pairs[i]
            yield weyl_conjugate(state[0][k], perm, rng), eps, key

    def op(self, state, inp):
        g, eps, _ = inp
        return radicals.active_radicals(g, eps, self.height, js=list(self.js))

    def check(self, state, inp, out):
        _, eps, key = inp
        if len(out) != state[1][key]:
            return False
        keys = [(r.witness.j, tuple(sorted(r.witness.p_std.coeffs.items()))) for r in out]
        if keys != sorted(set(keys)):
            return False
        return all(r.witness.height() <= self.height and r.norm < eps for r in out)

    def canon(self, inp, out):
        g, eps, _ = inp
        return [[[_fr(x) for x in row] for row in g.rows], _fr(eps),
                [[list(r.witness.rows), _fr(r.norm)] for r in out]]


WORKLOADS = {w.name: w for w in (Contraction(), Containment(), Fan(), Radicals())}


def small(name):
    """The workload with a small set-up, for cross-checks of the tracer."""
    return Contraction(nsets=3) if name == "contraction" else WORKLOADS[name]

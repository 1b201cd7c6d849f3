"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the toolkit on randomized
or frozen instances and emits exactly one verdict line, so a full run
reads as a scoreboard of one line per check.  Verdicts are printed straight to the
real stdout (bypassing capture) and the assertion fires afterwards, which
keeps the scoreboard complete even when something breaks.

All decisions below are exact: rational arithmetic throughout, with
certified sign evaluation for log-linear quantities.  Wall-clock caps are
asserted where a budget is part of the guarantee.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from cuspwatch.bordered import (
    BorderedSet,
    ConvexSpec,
    Gauge,
    contract_step,
    epsilon_bound,
    invdim,
    is_bounded,
    is_k_trivial,
    positively_nontrivial,
)
from cuspwatch.bruhat import bruhat_factor, weight_bound_check
from cuspwatch.chars import Character, SubgroupSpec, subset_weight
from cuspwatch.cover import build_cover, enumerate_local, good_restrictions
from cuspwatch.divergence import (
    build_certificate,
    check_certificate,
    ray_profile,
    search_witnesses,
)
from cuspwatch.matrix import Mat
from cuspwatch.radicals import (
    enumerate_witnesses,
    radical_from_subspace,
    standard_radical,
)
from cuspwatch.scalars import QuadScalar
from cuspwatch.sl4q import (
    PERIOD_M,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    UNIT_U,
    gr_plus,
    iota,
    iota2,
    sl4_divergence_demo,
    v_g_check,
    verify_periodicity,
)
from cuspwatch.wedge import WedgeVector, apply_wedge_matrix
from test_bruhat import random_sl

F = Fraction


@pytest.fixture
def verdict(capfd):
    """Print one scoreboard line past the capture, then assert."""

    def emit(label, bad, detail=""):
        line = "[%s] %s" % (label, "PASS" if not bad else "FAIL")
        if detail:
            line += " (%s)" % detail
        with capfd.disabled():
            print(line, flush=True)
        assert not bad, "%s: %s" % (label, "; ".join(str(b) for b in bad[:5]))

    return emit


def _shear(n, i, j, c):
    rows = [[F(int(r == k)) for k in range(n)] for r in range(n)]
    rows[i][j] = c
    return Mat.from_rows(rows)


def _height(g):
    h = 0
    for i in range(g.nrows):
        for j in range(g.nrows):
            x = F(g[i, j])
            h = max(h, abs(x.numerator), x.denominator)
    return h


def _random_sl(n, rng, hmax=20):
    """Random determinant-one matrix with entry height capped at hmax."""
    while True:
        g = Mat.identity(n)
        for _ in range(n):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            g = g * _shear(n, i, j, F(rng.randint(-4, 4), rng.randint(1, 3)))
        if 0 < _height(g) <= hmax and g != Mat.identity(n):
            return g


def _ge(a, b):
    d = a - b
    return d.sign() >= 0 if hasattr(d, "sign") else d >= 0


_ROOTS = {
    n: [
        Character(tuple(1 if k == i else (-1 if k == j else 0) for k in range(n)))
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    for n in (3, 4)
}


# ------------------------------------------------------------------ 01


def test_bruhat_reconstruction_on_random_matrices(verdict):
    rng = random.Random(101)
    bad = []
    t0 = time.monotonic()
    for n in (2, 3, 4, 5, 6):
        for _ in range(40):
            g = _random_sl(n, rng)
            fac = bruhat_factor(g)
            if fac.reconstruct() != g:
                bad.append("reconstruction mismatch for n=%d" % n)
            if fac.bound > 1 or any(
                abs(fac.n[i, j]) > 1 for i in range(n) for j in range(n)
            ):
                bad.append("unipotent entry above 1 for n=%d" % n)
    dt = time.monotonic() - t0
    if dt >= 10.0:
        bad.append("ran %.1fs, cap 10s" % dt)
    verdict("acceptance 01: bruhat reconstruction", bad,
             "200 matrices, n=2..6, heights<=20, %.1fs" % dt)


# ------------------------------------------------------------------ 02


def test_weight_bound_on_random_degree_two_wedges(verdict):
    rng = random.Random(202)
    bad = []
    t0 = time.monotonic()
    lead = WedgeVector.basis_element(4, (1, 2))
    for _ in range(100):
        h = _random_sl(4, rng, hmax=10)
        rep = weight_bound_check(h, 2)
        u = apply_wedge_matrix(h, lead)
        if not rep.holds:
            bad.append("bound reported failed for %r" % h)
        if u.norm_inf() != rep.norm or abs(u.coeff(rep.subset)) != rep.coeff_at_subset:
            bad.append("independent wedge recomputation disagrees")
        if rep.norm > rep.c * rep.coeff_at_subset:
            bad.append("norm exceeds c * |controlling coordinate|")
    dt = time.monotonic() - t0
    if dt >= 10.0:
        bad.append("ran %.1fs, cap 10s" % dt)
    verdict("acceptance 02: dominant weight bound", bad,
             "100 random degree-4 matrices, j=2, %.1fs" % dt)


# ------------------------------------------------------------------ 03


def test_quaternion_model_identities(verdict):
    bad = []
    t0 = time.monotonic()
    s = QuadScalar.of

    if verify_periodicity(UNIT_U, PERIOD_M) is not True:
        bad.append("periodicity identity failed")
    if iota(QUAT_I) != Mat([[s(0, 0, 3), s(-1, 0, 3)], [s(1, 0, 3), s(0, 0, 3)]]):
        bad.append("iota(i) mismatch")
    if iota(QUAT_J) != Mat([[s(0, 1, 3), s(0, 0, 3)], [s(0, 0, 3), s(0, -1, 3)]]):
        bad.append("iota(j) mismatch")
    if iota(QUAT_K) != Mat([[s(0, 0, 3), s(0, 1, 3)], [s(0, 1, 3), s(0, 0, 3)]]):
        bad.append("iota(k) mismatch")
    if UNIT_U * s(2, -1, 3) != QuadScalar.rational(F(1), 3):
        bad.append("unit times conjugate is not 1")

    # symbolic eigenvalue count: the adjoint weight on the plane subgroup
    # is four times the degree-two subset weight, 8 = 4 * 2
    plane = SubgroupSpec(4, ((1, 1, -1, -1),))
    w_ad = plane.restrict(standard_radical(4, 2).weights_ad[0])
    w_std = plane.restrict(subset_weight((1, 2), 4))
    if w_ad != (F(8),) or w_std != (F(2),) or w_ad[0] != 4 * w_std[0]:
        bad.append("adjoint weight is not 4x the subset weight")

    if gr_plus((-3, -1, 1, 3)) != ((1, 3), 1):
        bad.append("expanding block pair mismatch")
    if v_g_check((-3, -1, 1, 3)) != (9, 7):
        bad.append("dimension count (9, 7) mismatch")
    if v_g_check((-4, -1, 2, 3)) != (11, 7):
        bad.append("dimension count (11, 7) mismatch")

    dt = time.monotonic() - t0
    if dt >= 5.0:
        bad.append("ran %.1fs, cap 5s" % dt)
    verdict("acceptance 03: quaternion lattice identities", bad, "%.1fs" % dt)


# ------------------------------------------------------------------ 04


def _fm_feasible(rows):
    """Fourier-Motzkin: decide whether some x has row . x >= 1 for all rows."""
    system = [(tuple(F(c) for c in r), F(1)) for r in rows]
    nvars = len(rows[0])
    for k in range(nvars):
        pos = [rc for rc in system if rc[0][k] > 0]
        neg = [rc for rc in system if rc[0][k] < 0]
        zero = [rc for rc in system if rc[0][k] == 0]
        system = list(zero)
        for (ap, bp) in pos:
            for (an, bn) in neg:
                mp, mn = -an[k], ap[k]
                coeffs = tuple(mp * x + mn * y for x, y in zip(ap, an))
                system.append((coeffs, mp * bp + mn * bn))
    return all(b <= 0 for _, b in system)


def test_positive_spanning_alternative_matches_elimination(verdict):
    bad = []
    count = 0
    t0 = time.monotonic()
    for l in (1, 2, 3):
        vecs = [v for v in itertools.product((-1, 0, 1), repeat=l) if any(v)]
        for size in (1, 2, 3, 4):
            for fs in itertools.combinations(vecs, size):
                count += 1
                flag, cert = positively_nontrivial(list(fs))
                if flag != _fm_feasible(fs):
                    bad.append("disagrees with elimination on %r" % (fs,))
                    continue
                if flag:
                    if not all(
                        sum(a * b for a, b in zip(f, cert)) > 0 for f in fs
                    ):
                        bad.append("witness not strictly positive on %r" % (fs,))
                else:
                    combo = [
                        sum(lam * f[k] for lam, f in zip(cert, fs))
                        for k in range(l)
                    ]
                    if (
                        any(lam < 0 for lam in cert)
                        or not any(cert)
                        or any(combo)
                    ):
                        bad.append("combination certificate invalid on %r" % (fs,))
    if count != 18066:
        bad.append("expected 18066 instances, saw %d" % count)
    dt = time.monotonic() - t0
    if dt >= 60.0:
        bad.append("ran %.1fs, cap 60s" % dt)
    verdict("acceptance 04: positive spanning alternative", bad,
             "%d instances vs elimination, %.1fs" % (count, dt))


# ------------------------------------------------------------------ 05


def test_k_triviality_on_standard_shapes(verdict):
    bad = []
    cube = tuple(itertools.product((0, 1), repeat=3))
    fixtures = [
        ("strip in the plane",
         ConvexSpec(points=((0, 0),), rays=((0, 1), (0, -1))),
         1, {1: False, 2: True}),
        ("strip in 3-space",
         ConvexSpec(points=((0, 0, 0),),
                    rays=((0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))),
         2, {1: True, 2: False, 3: True}),
        ("half-plane",
         ConvexSpec(points=((0, 0),), rays=((0, 1), (0, -1), (1, 0))),
         1, {1: True, 2: True}),
        ("half-space",
         ConvexSpec(points=((0, 0, 0),),
                    rays=((0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                          (1, 0, 0))),
         2, {1: True, 2: True, 3: True}),
        ("box in the plane",
         ConvexSpec(points=((0, 0), (1, 0), (0, 1), (1, 1))),
         0, {1: True, 2: True}),
        ("box in 3-space", ConvexSpec(points=cube), 0,
         {1: True, 2: True, 3: True}),
        ("cylinder in the plane",
         ConvexSpec(points=((0, 0), (1, 0)), rays=((0, 1), (0, -1))),
         1, {1: False, 2: True}),
        ("cylinder in 3-space",
         ConvexSpec(points=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
                    rays=((0, 0, 1), (0, 0, -1))),
         1, {1: False, 2: True, 3: True}),
    ]
    for name, spec, dim, table in fixtures:
        if invdim(spec) != dim:
            bad.append("%s: invariance dimension != %d" % (name, dim))
        for k, expected in table.items():
            if is_k_trivial(spec, k) is not expected:
                bad.append("%s: k=%d expected %s" % (name, k, expected))
    verdict("acceptance 05: k-triviality on standard shapes", bad,
             "8 fixtures, exact")


# ------------------------------------------------------------------ 06


def test_local_finiteness_of_the_cover(verdict):
    bad = []
    t0 = time.monotonic()
    A = SubgroupSpec.full_torus(2)
    g = Mat.identity(2)
    universe = build_cover(g, A, enumerate_witnesses(2, 20), C0=-3)
    by_rows = {e.witness.rows: e for e in universe}
    for R in (1, 2, 4):
        listed = enumerate_local(g, A, R, -3, 20)
        rows = sorted(w.rows for w in listed)
        if len(rows) != len(set(rows)):
            bad.append("R=%d: duplicate entries" % R)
        if rows != sorted(w.rows for w in enumerate_local(g, A, R, -3, 25)):
            bad.append("R=%d: list changed when height cap grew" % R)
        # independent scan: grid membership must agree with the list
        grid = [(F(-R) + F(k, 4),) for k in range(8 * R + 1)]
        listed_set = set(rows)
        for p in grid:
            hits = {
                key for key, e in by_rows.items() if e.contains(p, closed=True)
            }
            if not hits <= listed_set:
                bad.append("R=%d: point %s hit an unlisted witness" % (R, p))
                break
    dt = time.monotonic() - t0
    if dt >= 30.0:
        bad.append("ran %.1fs, cap 30s" % dt)
    verdict("acceptance 06: local finiteness of the cover", bad,
             "boxes R=1,2,4 vs grid scan at height 20, %.1fs" % dt)


# ------------------------------------------------------------------ 07


def _chain_violations(elements, grid, digits):
    """Count active points escaping the gauged or sharp regions."""
    bad = []
    pairs = [(e, e.zero_gauge()) for e in elements]
    checked = 0
    for idx, p in enumerate(grid):
        for e, z in pairs:
            if not e.is_active(p):
                continue
            checked += 1
            if not e.contains(p, closed=True):
                bad.append("active point %s left the gauged region" % (p,))
            if not z.contains(p, closed=True):
                bad.append("active point %s left the sharp region" % (p,))
            if idx % 97 == 0 and e.restricted is not None:
                # decimal rendering must agree with the certified sign
                for m in e.restricted.margins(p):
                    if not hasattr(m, "sign"):
                        continue
                    sgn = m.sign()
                    if sgn != 0 and m.to_decimal(digits).startswith("-") != (sgn < 0):
                        bad.append("decimal sign mismatch at %s" % (p,))
        if bad:
            break
    return bad, checked


def test_containment_chain_on_grids(verdict):
    bad = []
    t0 = time.monotonic()
    g2 = Mat.rationalize([[2, 0], [0, "1/2"]])
    els2 = build_cover(g2, SubgroupSpec.full_torus(2),
                       enumerate_witnesses(2, 3), C0=-2)
    grid2 = [(F(-3) + F(3, 5000) * k,) for k in range(10001)]
    b2, n2 = _chain_violations(els2, grid2, 50)
    bad.extend(b2)

    g3 = Mat.rationalize([[2, 0, 0], [0, 1, "1/2"], [0, 0, "1/2"]])
    els3 = build_cover(g3, SubgroupSpec.full_torus(3),
                       enumerate_witnesses(3, 1), C0=-2)
    grid3 = [
        (F(-2) + F(i, 10), F(-2) + F(j, 10))
        for i in range(41)
        for j in range(41)
    ]
    b3, n3 = _chain_violations(els3, grid3, 50)
    bad.extend(b3)

    points = len(grid2) + len(grid3)
    if points < 10**4:
        bad.append("only %d grid points sampled" % points)
    dt = time.monotonic() - t0
    if dt >= 90.0:
        bad.append("ran %.1fs, cap 90s" % dt)
    verdict("acceptance 07: containment chain on grids", bad,
             "%d points, %d active checks, digits=50, %.1fs"
             % (points, n2 + n3, dt))


# ------------------------------------------------------------------ 08


def test_divergence_certificates(verdict):
    bad = []
    t0 = time.monotonic()
    times = (F(1), F(2), F(4), F(8))
    A2 = SubgroupSpec.full_torus(2)
    g = Mat.identity(2)
    up = radical_from_subspace([[1, 0]], 2)
    lo = radical_from_subspace([[0, 1]], 2)

    certs = []
    ok, uncovered = check_certificate(g, A2, [up, lo])
    if not ok or uncovered is not None:
        bad.append("two-witness family did not certify")
    else:
        certs.append(build_certificate(g, A2, [up, lo]))

    for kept in ([up], [lo]):
        ok, direction = check_certificate(g, A2, kept)
        if ok or direction is None:
            bad.append("one-witness family should fail with a direction")
            continue
        prof = ray_profile(
            certs[0].witnesses[0 if kept == [up] else 1]
            if certs else None,
            A2, direction, times)
        if (prof[-1] - prof[0]).sign() != 1:
            bad.append("reported direction is not actually uncovered")

    for alpha in ((-3, -1, 1, 3), (-4, -1, 2, 3)):
        demo = sl4_divergence_demo(alpha)
        if not demo.ok or demo.certificate is None:
            bad.append("demo failed for alpha=%s" % (alpha,))
            continue
        certs.append(demo.certificate)

    for cert in certs:
        for cell in cert.fan:
            w = cert.witnesses[cell.witness_index]
            prof = ray_profile(w, cert.subgroup, cell.direction, times)
            if not all((b - a).sign() == -1 for a, b in zip(prof, prof[1:])):
                bad.append("profile not strictly decreasing on a fan cell")

    dt = time.monotonic() - t0
    if dt >= 30.0:
        bad.append("ran %.1fs, cap 30s" % dt)
    verdict("acceptance 08: divergence certificates", bad,
             "%d certificates, rays at t=1,2,4,8, %.1fs" % (len(certs), dt))


# ------------------------------------------------------------------ 09


def test_good_restrictions_and_generic_planes(verdict):
    bad = []
    roots4 = _ROOTS[4]

    ok, viol = good_restrictions(
        SubgroupSpec(4, ((1, 0, 0, -1), (0, 1, -1, 0))), roots4, 2)
    if ok:
        bad.append("antidiagonal plane should fail")
    elif frozenset(c.coeffs for c in viol) != {(1, -1, 0, 0), (0, 0, 1, -1)}:
        bad.append("unexpected violating pair %r" % (viol,))

    ok, _ = good_restrictions(SubgroupSpec.full_torus(3), _ROOTS[3], 2)
    if not ok:
        bad.append("full diagonal subgroup of degree 3 should pass")

    # genericity smoke test: wide random coefficients make the degenerate
    # planes (a root dying, or two restrictions turning collinear) measure
    # zero in practice
    rng = random.Random(909)
    passed = 0
    for _ in range(20):
        while True:
            rows = []
            for _ in range(2):
                r = [rng.randint(-10**6, 10**6) for _ in range(3)]
                r.append(-sum(r))
                rows.append(tuple(r))
            if Mat.rationalize([list(r) for r in rows]).rank() == 2:
                break
        ok, _ = good_restrictions(SubgroupSpec(4, tuple(rows)), roots4, 2)
        passed += ok
    if passed != 20:
        bad.append("only %d/20 random planes passed" % passed)

    verdict("acceptance 09: good restriction genericity", bad,
             "fixed plane + %d/20 random planes, exact ranks" % passed)


# ------------------------------------------------------------------ 10


def test_contraction_monotonicity(verdict):
    rng = random.Random(1010)
    bad = []
    t0 = time.monotonic()
    sample_times = (F(1, 4), F(1, 2), F(3, 4), F(1))
    sets = 0
    trajectories = 0
    while sets < 20:
        m = rng.randint(3, 5)
        phis = []
        while len(phis) < m:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if any(v) and v not in phis:
                phis.append(v)
        if positively_nontrivial(phis)[0]:
            continue
        U = BorderedSet(
            2,
            tuple((p, F(rng.randint(-4, 4), 2)) for p in phis),
            Gauge.linear(epsilon_bound(phis) / 2),
        )
        if not is_bounded(U):
            bad.append("constructed set is not bounded")
            break
        sets += 1
        for _ in range(100):
            x = (F(rng.randint(-10, 10), 2), F(rng.randint(-10, 10), 2))
            depths = [U.rho(x)]
            for t in sample_times:
                depths.append(U.rho(contract_step(U, x, t)))
            if not all(_ge(b, a) for a, b in zip(depths, depths[1:])):
                bad.append("depth decreased along trajectory from %s" % (x,))
            trajectories += 1
        if bad:
            break
    dt = time.monotonic() - t0
    verdict("acceptance 10: contraction monotonicity", bad,
             "%d sets x %d trajectories, rational times, %.1fs"
             % (sets, trajectories // max(sets, 1), dt))


# ------------------------------------------------------------------ 11


def test_sl4_full_torus_divergence_fans(verdict):
    # the full torus of SL4 acts on R^3; witnesses of height 1 cut it with
    # 25 and 34 restricted character hyperplanes, and neither family covers
    bad = []
    t0 = time.monotonic()
    g = Mat.rationalize([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]])
    T4 = SubgroupSpec.full_torus(4)
    lines_and_hyperplanes = [w for w in enumerate_witnesses(4, 1) if w.j != 2]
    searched = search_witnesses(g, T4, 1)
    for ws, size, expected in ((lines_and_hyperplanes, 80, (False, (2, 2, -3))),
                               (searched, 54, (False, (0, 0, -1)))):
        if len(ws) != size:
            bad.append("%d witnesses, expected %d" % (len(ws), size))
        got = check_certificate(g, T4, ws)
        if got != expected:
            bad.append("%d witnesses gave %r, expected %r" % (size, got, expected))
    dt = time.monotonic() - t0
    if dt >= 15.0:
        bad.append("ran %.1fs, cap 15s" % dt)
    verdict("acceptance 11: SL4 full-torus divergence fans", bad,
             "80 and 54 witnesses, both uncovered, %.1fs" % dt)


# ------------------------------------------------------------------ 12


def test_sl5_and_sl6_full_torus_searches(verdict):
    # n >= 5 searches lines and hyperplanes, each decided from its Plucker
    # support; enumeration included, the three searches take about 1.5 s
    bad = []
    t0 = time.monotonic()
    detail = []
    for n, height, expected in ((5, 1, 182), (5, 2, 1582), (6, 1, 608)):
        g = random_sl(n, random.Random(0), height=2, steps=4)
        ws = search_witnesses(g, SubgroupSpec.full_torus(n), height)
        if len(ws) != expected:
            bad.append("SL%d height %d: %d witnesses, expected %d" % (n, height, len(ws), expected))
        if {w.degree for w in ws} != {n - 1}:
            bad.append("SL%d height %d: a witness is not a line or hyperplane" % (n, height))
        detail.append("SL%d h%d: %d" % (n, height, len(ws)))
    dt = time.monotonic() - t0
    if dt >= 10.0:
        bad.append("ran %.1fs, cap 10s" % dt)
    verdict("acceptance 12: SL5 and SL6 full-torus searches", bad,
             "%s, %.1fs" % (", ".join(detail), dt))

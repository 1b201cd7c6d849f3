import ast
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cuspwatch.bordered as bordered
import cuspwatch.divergence as divergence
import cuspwatch.radicals as radicals
from cuspwatch.chars import Character, SubgroupSpec
from cuspwatch.divergence import (
    DivergenceCertificate,
    FanCell,
    WitnessVector,
    build_certificate,
    check_certificate,
    cone_nonempty,
    ray_profile,
    ray_shrink_set,
    search_witnesses,
    _analyze,
    _cocircuit,
    _direction,
    _fan_patterns,
    _witness_faces,
)
from cuspwatch.bordered import positively_nontrivial
from cuspwatch.errors import PreconditionError
from cuspwatch.lattice import int_kernel, positive_primitive
from cuspwatch.loglin import LogLin
from cuspwatch.lp import lp_feasible
from cuspwatch.matrix import Mat
from cuspwatch.radicals import (cusp_profile, enumerate_witnesses, radical_from_subspace,
                                standard_radical)
from cuspwatch.scalars import sign
from test_bruhat import random_sl
from test_radicals import _minor_support

F = Fraction

A2 = SubgroupSpec.full_torus(2)
I2 = Mat.identity(2)
UP = radical_from_subspace([[1, 0]], 2)
LO = radical_from_subspace([[0, 1]], 2)


def test_witness_from_radical_components():
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    w = WitnessVector.from_radical(g, UP)
    assert w.n == 2 and w.degree == 1
    assert [(c.canonical(), nu) for c, nu in w.components] == [((1, -1), F(4))]


def test_check_certificate_refuses_a_witness_of_another_size():
    g3 = random_sl(3, random.Random(0), 3)
    with pytest.raises(PreconditionError, match=r"in Q\^2 needs a 2 x 2 matrix, got 3 rows"):
        check_certificate(g3, SubgroupSpec.full_torus(3), [UP])


def test_certificate_both_coordinate_lines():
    ok, uncovered = check_certificate(I2, A2, [UP, LO])
    assert ok and uncovered is None
    cert = build_certificate(I2, A2, [UP, LO])
    assert isinstance(cert, DivergenceCertificate)
    assert cert.hyperplanes == ((1,),)
    assert [(c.pattern, c.direction, c.witness_index) for c in cert.fan] == [
        ((1,), (1,), 1),
        ((-1,), (-1,), 0),
    ]
    j = cert.to_json()
    assert set(j) == {"witnesses", "hyperplanes", "fan"}
    assert j["fan"][0]["direction"] == ["1"]


def test_certificate_single_line_fails_with_direction():
    assert check_certificate(I2, A2, [UP]) == (False, (1,))
    assert check_certificate(I2, A2, [LO]) == (False, (-1,))
    assert build_certificate(I2, A2, [UP]) is None
    # no witnesses at all: nothing shrinks anywhere
    assert check_certificate(I2, A2, []) == (False, (1,))


def test_uncovered_direction_really_escapes():
    ok, d = check_certificate(I2, A2, [UP])
    assert not ok
    w = WitnessVector.from_radical(I2, UP)
    vals = ray_profile(w, A2, d, [1, 2, 4])
    assert all((b - a).sign() > 0 for a, b in zip(vals, vals[1:]))


def test_rational_rotation_certificate():
    r = Mat.rationalize([["-435/533", "-308/533"], ["308/533", "-435/533"]])
    assert r.det() == 1
    w1 = radical_from_subspace([[435, 308]], 2)
    w2 = radical_from_subspace([[308, -435]], 2)
    v1 = WitnessVector.from_radical(r, w1)
    v2 = WitnessVector.from_radical(r, w2)
    # the rotation maps each line onto a coordinate axis, scaled by 533
    assert [(c.canonical(), nu) for c, nu in v1.components] == [((1, -1), F(533 ** 2))]
    assert [(c.canonical(), nu) for c, nu in v2.components] == [((-1, 1), F(533 ** 2))]
    assert check_certificate(r, A2, [w1, w2]) == (True, None)
    # the coordinate lines themselves do not work for a rotated lattice
    assert check_certificate(r, A2, [UP, LO]) == (False, (-1,))


def test_ray_profile_exact_values():
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    w = WitnessVector.from_radical(g, UP)
    vals = ray_profile(w, A2, (-1,), [1, 2, 4, 8])
    for t, v in zip([1, 2, 4, 8], vals):
        assert (v - (LogLin(F(-2 * t)) + LogLin.log(4))).is_zero()
    assert all((a - b).sign() > 0 for a, b in zip(vals, vals[1:]))
    with pytest.raises(PreconditionError):
        ray_profile(UP, A2, (-1,), [1])
    for d in ((), (-1, 0)):
        with pytest.raises(PreconditionError, match="coordinate length"):
            ray_profile(w, A2, d, [1])


@st.composite
def unimodular(draw, n):
    """A product of up to three integer shears: an exact SL_n matrix."""
    g = Mat.identity(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[i][j] = draw(st.integers(-2, 2))
        g = g * Mat.rationalize(rows)
    return g


@st.composite
def profile_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    rw = draw(st.sampled_from(enumerate_witnesses(n, 1)))
    d = tuple(draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)))
    t = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return draw(unimodular(n)), rw, d, t


@settings(max_examples=25, deadline=None)
@given(profile_cases())
def test_ray_profile_matches_cusp_profile(case):
    # both profiles read the one log-size loop: the value along exp(t * d)
    # is the depth profile of the same witness at the point t * d
    g, rw, d, t = case
    A = SubgroupSpec.full_torus(g.nrows)
    w = WitnessVector.from_radical(g, rw)
    point = tuple(t * x for x in d)
    assert ray_profile(w, A, d, [t])[0] == cusp_profile(g, A, [point], [rw]).values[0]


def test_shrink_cone():
    fs = ray_shrink_set(I2, UP, A2)
    assert fs == [(F(-2),)]
    assert cone_nonempty(fs)
    # a slanted line carries the constant character: its cone is empty
    mix = radical_from_subspace([[1, 1]], 2)
    fs = ray_shrink_set(I2, mix, A2)
    assert (F(0),) in fs
    assert not cone_nonempty(fs)
    assert not cone_nonempty([])


def test_search_witnesses():
    found = search_witnesses(I2, A2, 2)
    assert [w.label for w in found] == [
        "subspace j=1 rows=((1, 0),)",
        "subspace j=1 rows=((0, 1),)",
    ]
    r = Mat.rationalize([["3/5", "-4/5"], ["4/5", "3/5"]])
    found = search_witnesses(r, A2, 4)
    assert sorted(w.label for w in found) == [
        "subspace j=1 rows=((-3, 4),)",
        "subspace j=1 rows=((4, 3),)",
    ]
    assert search_witnesses(r, A2, 2) == []
    with pytest.raises(PreconditionError):
        search_witnesses(I2, A2, -1)


def test_sl3_coordinate_lines_cover():
    A3 = SubgroupSpec.full_torus(3)
    I3 = Mat.identity(3)
    lines = [radical_from_subspace([r], 3) for r in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    cert = build_certificate(I3, A3, lines)
    assert cert is not None
    assert cert.hyperplanes == ((1, 0), (-1, 1), (0, -1))
    assert len(cert.fan) == 12     # 6 sectors and 6 rays of three lines
    assert sorted({c.witness_index for c in cert.fan}) == [0, 1, 2]
    assert check_certificate(I3, A3, lines[:2]) == (False, (1, 2))


def test_rank_deficient_restriction_fails_fast():
    A3 = SubgroupSpec.full_torus(3)
    line = radical_from_subspace([[1, 0, 0]], 3)
    ok, d = check_certificate(Mat.identity(3), A3, [line])
    assert not ok and d == (0, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(-5, 5).filter(bool), st.integers(1, 3))
def test_fan_cells_really_shrink_their_witness(num, den):
    # along any interior fan direction, the owning witness decays strictly
    cert = build_certificate(I2, A2, [UP, LO])
    t = F(num, den)
    for cell in cert.fan:
        w = cert.witnesses[cell.witness_index]
        vals = ray_profile(w, A2, cell.direction, [abs(t), 2 * abs(t)])
        assert (vals[0] - vals[1]).sign() > 0


# -- the cocircuit fan against the depth-first walk and brute enumeration --

A3 = SubgroupSpec.full_torus(3)
I3 = Mat.identity(3)
SL3_LINES = [WitnessVector.from_radical(I3, w) for w in enumerate_witnesses(3, 1) if w.j == 1]


def _sign_point(hyps, pattern):
    """The pattern-LP oracle: a point with the given signs on the first
    len(pattern) hyperplanes, or None; nonzero signs are enforced as >= 1."""
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


def _face_direction(hyps, pattern):
    """The LP oracle: a primitive direction with the given full sign
    pattern, or None."""
    x = _sign_point(hyps, pattern)
    return None if x is None else positive_primitive(x)


def _realizes(hyps, d, pattern):
    return tuple(sign(sum(a * b for a, b in zip(h, d))) for h in hyps) == tuple(pattern)


def _brute_faces(hyps):
    return [
        (pattern, d)
        for pattern in product((1, 0, -1), repeat=len(hyps))
        if any(pattern)
        for d in [_face_direction(hyps, pattern)]
        if d is not None
    ]


def _walk_faces(hyps):
    """Depth first over sign prefixes, children in the order 1, 0, -1, so the
    leaves come out in product order. A prefix is kept only when a point
    realizes it; the parent's point already realizes the child carrying its
    own sign on the next hyperplane, so that child needs no LP. The origin's
    all-zero pattern is not a face."""
    h = len(hyps)

    def walk(prefix, x):
        i = len(prefix)
        if i + 1 == h:
            for s in (1, 0, -1):
                if not any(prefix + (s,)):
                    continue
                d = _face_direction(hyps, prefix + (s,))
                if d is not None:
                    yield prefix + (s,), d
            return
        own = sign(sum(a * b for a, b in zip(hyps[i], x)))
        for s in (1, 0, -1):
            y = x if s == own else _sign_point(hyps, prefix + (s,))
            if y is not None:
                yield from walk(prefix + (s,), y)

    return list(walk((), (0,) * len(hyps[0])))


def _meets(pattern, need):
    """Does the sign pattern give every hyperplane the sign the demand
    (a (pos, neg) mask pair, or None) needs?"""
    return need is not None and all(
        pattern[k] == (1 if need[0] >> k & 1 else -1)
        for k in range(len(pattern)) if (need[0] | need[1]) >> k & 1
    )


def _brute_analyze(g, A, witnesses):
    """(ok, uncovered, certificate) with one LP for every one of the 3^h
    sign patterns."""
    ws, hyps, demands = _witness_faces(g, A, witnesses)
    if not hyps or Mat.rationalize([list(h) for h in hyps]).rank() < A.dim:
        ok, uncovered = check_certificate(g, A, witnesses)
        return ok, uncovered, build_certificate(g, A, witnesses)
    cells = []
    for pattern, d in _brute_faces(hyps):
        owners = [i for i, need in enumerate(demands) if _meets(pattern, need)]
        if not owners:
            return False, d, None
        cells.append(FanCell(pattern=pattern, direction=d, witness_index=owners[0]))
    return True, None, DivergenceCertificate(A, tuple(ws), tuple(hyps), tuple(cells))


@st.composite
def arrangements(draw, dims=(1, 2, 3), size=6, most=7):
    """An essential arrangement in R^l of up to size drawn rows, then up to
    two repeated or parallel rows while there are fewer than most."""
    l = draw(st.sampled_from(dims))
    vec = st.tuples(*[st.integers(-3, 3)] * l).filter(any)
    rows = draw(st.lists(vec, min_size=l, max_size=size).filter(
        lambda rs: Mat.rationalize([list(r) for r in rs]).rank() == l))
    for _ in range(draw(st.integers(0, max(0, min(2, most - len(rows)))))):
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        rows.insert(draw(st.integers(0, len(rows))),
                    tuple(k * x for x in draw(st.sampled_from(rows))))
    return rows


@settings(max_examples=20, deadline=None)
@given(arrangements())
def test_fan_faces_match_brute_enumeration(hyps):
    # same realizable patterns, same directions, same order
    got = [(p, _face_direction(hyps, p)) for p in _fan_patterns(hyps)]
    assert got == _walk_faces(hyps) == _brute_faces(hyps)


@settings(max_examples=40, deadline=None)
@given(arrangements(dims=(1, 2, 3, 4)))
def test_ray_directions_match_the_lp(hyps):
    # a face is a ray when its zero hyperplanes have rank l - 1; the ray
    # keeps its cocircuit vector, which is the LP's primitive direction,
    # and every other face keeps None. Every face's direction, a ray's own
    # or the sum of a cell's rays, realizes its pattern
    l = len(hyps[0])
    fan = _fan_patterns(hyps)
    for pattern, (_, _, ray) in fan.items():
        zero = [list(h) for h, s in zip(hyps, pattern) if s == 0]
        is_ray = (Mat.rationalize(zero).rank() if zero else 0) == l - 1
        assert (ray is not None) == is_ray
        if is_ray:
            assert ray == _face_direction(hyps, pattern)
        assert _realizes(hyps, _direction(fan.values(), fan[pattern]), pattern)


@st.composite
def cone_rows(draw):
    """An arrangement in R^1 to R^4, sometimes with a zero row inserted."""
    rows = draw(arrangements(dims=(1, 2, 3, 4)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (0,) * len(rows[0]))
    return rows


@settings(max_examples=80, deadline=None)
@given(cone_rows())
@example([])
@example([(0, 0)])
@example([(1, 0), (0, 0)])
@example([(1, 0), (-1, 1), (0, -1)])
def test_cone_nonempty_matches_the_pattern_lp(rows):
    # bordered's Gordan LP gives the verdict of the pattern LP at the
    # all-ones pattern; no row leaves the cone empty, as before
    oracle = bool(rows) and _sign_point(rows, (1,) * len(rows)) is not None
    assert cone_nonempty(rows) == oracle


@settings(max_examples=80, deadline=None)
@given(arrangements(dims=(1, 2, 3, 4)))
@example([(1, 0), (-1, 1), (0, -1)])
@example([(2,), (-1,)])
def test_empty_cones_carry_gordan_multipliers(rows):
    # an empty shrink cone comes with lam >= 0, not all zero, whose
    # combination of the rows cancels; a nonempty one with a point on
    # which every row is positive
    ok, cert = positively_nontrivial(rows)
    assert ok == cone_nonempty(rows)
    if ok:
        assert all(sum(a * b for a, b in zip(r, cert)) > 0 for r in rows)
    else:
        assert len(cert) == len(rows)
        assert all(v >= 0 for v in cert) and any(cert)
        assert all(sum(lam * r[d] for lam, r in zip(cert, rows)) == 0
                   for d in range(len(rows[0])))


@settings(max_examples=8, deadline=None)
@given(arrangements(dims=(1, 2, 3, 4), size=5, most=6))
def test_ray_sums_realize_every_brute_face(hyps):
    # the patterns are those an LP finds realizable among all 3^h, and the
    # sum of a face's rays realizes each of them
    fan = _fan_patterns(hyps)
    brute = [p for p, _ in _brute_faces(hyps)]
    assert list(fan) == brute
    for pattern in brute:
        assert _realizes(hyps, _direction(fan.values(), fan[pattern]), pattern)


def _no_lp(*args, **kwargs):
    raise AssertionError("an LP was solved")


def test_sl2_fans_solve_no_lp(monkeypatch):
    # every SL2 cell is a ray, so the golden `diverge check` example and its
    # uncovered variant take every direction from a cocircuit
    monkeypatch.setattr(bordered, "solve_lp", _no_lp)
    cert = build_certificate(I2, A2, [UP, LO])
    assert [(c.pattern, c.direction, c.witness_index) for c in cert.fan] == [
        ((1,), (1,), 1),
        ((-1,), (-1,), 0),
    ]
    assert check_certificate(I2, A2, [UP]) == (False, (1,))


@settings(max_examples=60, deadline=None)
@given(arrangements(dims=(1, 2, 3, 4), size=7, most=9))
def test_fan_patterns_euler_characteristic(hyps):
    # the faces of an essential arrangement in R^l tile the sphere S^(l-1):
    # sum over k of (-1)^(k-1) f_k, f_k the faces of dimension k, is
    # 1 + (-1)^(l-1); a face's zero hyperplanes have rank l - k
    l = len(hyps[0])
    f = [0] * (l + 1)
    for pattern in _fan_patterns(hyps):
        zero = [list(h) for h, s in zip(hyps, pattern) if s == 0]
        f[l - (Mat.rationalize(zero).rank() if zero else 0)] += 1
    assert f[0] == 0
    assert sum((-1) ** (k - 1) * f[k] for k in range(1, l + 1)) == 1 + (-1) ** (l - 1)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.sampled_from(range(len(SL3_LINES))), max_size=6, unique=True))
def test_fan_verdicts_match_brute_analysis(picks):
    ws = [SL3_LINES[i] for i in picks]
    ok, uncovered, cert = _brute_analyze(I3, A3, ws)
    assert check_certificate(I3, A3, ws) == (ok, uncovered)
    assert build_certificate(I3, A3, ws) == cert


def test_fan_and_search_lp_count(monkeypatch):
    # a certified SL3 problem at height 2: 98 search LPs and 728 per fan
    # pass (1554 in all) when every cone and every sign pattern gets an LP
    g = Mat.rationalize([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    inner = bordered.solve_lp
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(bordered, "solve_lp", counted)
    ws = search_witnesses(g, A3, 2)
    cert = build_certificate(g, A3, ws)
    assert check_certificate(g, A3, ws) == (True, None)
    assert cert is not None and len(cert.fan) == 24
    assert len(calls) <= 1554 // 2
    # the fan itself solves no LP: a ray's direction is its cocircuit
    # vector and a 2-dimensional cell's (on no hyperplane) the sum of its
    # rays, and coverage is read off the patterns
    cells = sum(0 not in c.pattern for c in cert.fan)
    assert cells == 12
    for run in (
        lambda: build_certificate(g, A3, ws),
        lambda: check_certificate(g, A3, ws),
        # the first unowned face is the cell (1, 1, 1, 1)
        lambda: check_certificate(g, A3, ws[:2]),
        # the first unowned face is a ray
        lambda: check_certificate(g, A3, ws[20:22]),
        lambda: build_certificate(g, A3, ws[:2]),
    ):
        calls.clear()
        run()
        assert calls == []
    assert check_certificate(g, A3, ws[:2]) == (False, (1, 2))
    assert check_certificate(g, A3, ws[20:22]) == (False, (1, 0))
    # one LP per distinct shrink cone selects the witnesses one LP each would
    assert list(map(repr, ws)) == list(map(repr, _one_lp_per_witness(g, A3, 2)))


def _one_lp_per_witness(g, A, height):
    """The search's reference: every witness's cone decided by its own LP."""
    out = []
    for rw in enumerate_witnesses(g.nrows, height):
        w = WitnessVector.from_radical(g, rw)
        if cone_nonempty(ray_shrink_set(g, w, A)):
            out.append(w)
    return out


SL3_CONE_GS = [
    Mat.rationalize(m)
    for m in ([[1, 0, 1], [0, 1, 0], [0, 0, 1]], [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
              [[1, 2, 3], [0, 1, 4], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
]
G4 = Mat.rationalize([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]])


@pytest.fixture(scope="module")
def g4_lp_verdicts():
    """Each witness of enumerate_witnesses(4, 1) at G4, as enumerated and
    sized, with the verdict of its own shrink-cone LP on the SL4 full torus.
    The cold SL4 LPs take seconds, so the two tests that compare with them
    share one run."""
    T4 = SubgroupSpec.full_torus(4)
    out = []
    for rw in enumerate_witnesses(4, 1):
        w = WitnessVector.from_radical(G4, rw)
        out.append((rw, w, cone_nonempty(ray_shrink_set(G4, w, T4))))
    return out


def _plucker_support(g, rw):
    """The key (n, j, mask) of rw at g: bit k for the k-th j-subset R in
    lexicographic order when W_R != 0, W from the rows g b (_minor_support)."""
    support = _minor_support(g, rw)
    return rw.n, rw.j, sum(1 << k for k, R in enumerate(combinations(range(1, rw.n + 1), rw.j))
                           if R in support)


def test_cone_memo_matches_the_lp(g4_lp_verdicts):
    # each memoized verdict, read from the Plucker support alone, is the
    # LP's on the restricted rows of all the witness's characters
    for g in SL3_CONE_GS:
        for rw in enumerate_witnesses(g.nrows, 2):
            rows = [A3.restrict(-ch) for ch, _ in rw.components_at(g)]
            lp = _sign_point(rows, (1,) * len(rows)) is not None
            assert divergence._cone_verdict(A3, _plucker_support(g, rw)) == lp
    T4 = SubgroupSpec.full_torus(4)
    for rw, _, lp in g4_lp_verdicts:
        assert divergence._cone_verdict(T4, _plucker_support(G4, rw)) == lp


def test_warm_cone_memo_solves_no_lp(monkeypatch):
    g = Mat.rationalize([[2, 1, 1], [1, 1, 0], [1, 1, 1]])
    per_witness = _one_lp_per_witness(g, A3, 2)
    divergence._cone_verdict.cache_clear()
    search_witnesses(SL3_CONE_GS[0], A3, 2)
    monkeypatch.setattr(bordered, "solve_lp", _no_lp)
    ws = search_witnesses(g, A3, 2)
    assert ws and list(map(repr, ws)) == list(map(repr, per_witness))


def test_search_keeps_what_one_lp_per_witness_keeps_in_sl4(g4_lp_verdicts):
    # SL4 lines, hyperplanes and planes: deciding each from its Plucker
    # support and sizing the kept ones gives the witnesses (components
    # included) that sizing each one and solving its LP gives (the
    # fixture's verdicts are _one_lp_per_witness(G4, T4, 1))
    T4 = SubgroupSpec.full_torus(4)
    ws = search_witnesses(G4, T4, 1)
    assert {w.degree for w in ws} == {3, 4}
    assert list(map(repr, ws)) == [repr(w) for _, w, lp in g4_lp_verdicts if lp]


def test_search_forms_each_closed_vector_once(monkeypatch):
    # radicals' stream forms every line's G v and every hyperplane's H f
    # once per search: the cone verdict and a kept witness's components
    # read the same vector, and no full-support vector reaches the table
    g = Mat.rationalize([[2, 1, 1], [1, 1, 0], [1, 1, 1]])
    inner = radicals._closed_vectors
    formed = []

    def counted(g, j, columns):
        formed.extend(zip(*columns))
        return inner(g, j, columns)

    monkeypatch.setattr(radicals, "_closed_vectors", counted)
    table = radicals._closed_table
    supports = []

    def looked_up(key):
        supports.append(key[2])
        return table(key)

    monkeypatch.setattr(radicals, "_closed_table", looked_up)
    ws = search_witnesses(g, A3, 2)
    assert 0 < len(ws) < len(enumerate_witnesses(3, 2))
    assert sorted(formed) == sorted(rw.rows[0] if rw.j == 1 else rw.ann_rows[0]
                                    for rw in enumerate_witnesses(3, 2))
    assert supports and 0b111 not in supports


def _oracle_closed_components(g, rw):
    """The components of one line (u = G v, sign 1) or hyperplane (u = H f,
    sign -1), its vector formed on its own: sign * chi_A with norm
    prod |u_a| / |det G| (|det H|) for each multiset A of size n over the
    a with u_a != 0, sorted by character."""
    conj = radicals._conjugator(g)
    if rw.j == 1:
        (u,), sign, den = radicals._moved(conj.G, rw.rows), 1, conj.abs_det_G
    else:
        (u,), sign, den = radicals._moved(conj.H, rw.ann_rows), -1, conj.abs_det_H
    comps = []
    for A in combinations_with_replacement([a for a in range(rw.n) if u[a]], rw.n):
        coeffs = [-sign] * rw.n
        for a in A:
            coeffs[a] += sign
        comps.append((Character(tuple(coeffs)), F(prod(abs(u[a]) for a in A), den)))
    return sorted(comps, key=lambda c: c[0].sort_key())


@lru_cache(maxsize=None)
def _full_character_verdict(A, coeffs):
    """The shrink cone's LP on the distinct negated primitive restrictions
    of every character with these coefficient tuples."""
    forms = {A.primitive_form(c) for c in coeffs}
    return None not in forms and cone_nonempty(sorted(tuple(-x for x in h) for h in forms))


def _oracle_search(g, A, height):
    """The search one candidate at a time, sizing every candidate first:
    a line's or hyperplane's vector formed on its own and sized from that
    vector, a plane sized by components_at, and the cone decided by the LP
    on all its characters (full support included), not by the support."""
    n = g.nrows
    out = []
    for rw in enumerate_witnesses(n, height):
        if rw.j == 1 or rw.j == n - 1:
            comps = _oracle_closed_components(g, rw)
        else:
            comps = rw.components_at(g)
        if _full_character_verdict(A, frozenset(ch.coeffs for ch, _ in comps)):
            out.append(WitnessVector(rw.n, rw.dim, tuple(comps), rw.label))
    return out


@st.composite
def search_problems(draw):
    """(g, A, height): g in SL_n or a GL_n g with |det g| != 1, A the full
    torus or a rank-1 subgroup, for SL2 (height <= 3), SL3 (height <= 2)
    and SL4 (height 1, planes included)."""
    n, height = draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)]))
    g = random_sl(n, random.Random(draw(st.integers(0, 10 ** 6))), height=3, steps=6)
    c = draw(st.sampled_from([F(1), F(2), F(-3), F(1, 2), F(-3, 2)]))
    g = g * Mat([[c if a == b == 0 else F(int(a == b)) for b in range(n)] for a in range(n)])
    if draw(st.booleans()):
        A = SubgroupSpec.full_torus(n)
    else:
        head = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)
                    .filter(any))
        A = SubgroupSpec(n, (tuple(head) + (-sum(head),),))
    return g, A, height


@settings(max_examples=30, deadline=None)
@given(search_problems())
@example((G4, SubgroupSpec.full_torus(4), 1))
@example((Mat.rationalize([[2, 1, 0], [1, 1, 1], [0, 1, 4]]), SubgroupSpec(3, ((1, 2, -3),)), 2))
def test_search_matches_the_per_candidate_oracle(problem):
    # same witnesses, components and order (types ascending, so SL4 planes
    # sit between lines and hyperplanes) as one vector per candidate
    g, A, height = problem
    assert repr(search_witnesses(g, A, height)) == repr(_oracle_search(g, A, height))


@pytest.mark.parametrize("n", range(2, 7))
def test_full_support_lines_and_hyperplanes_shrink_nowhere(monkeypatch, n):
    # a balanced support, sum_R e_R constant, shrinks nowhere, and is
    # decided without an LP: for every type j, the full support (which a
    # line or hyperplane has when its u has full support), and for planes
    # a support that pairs each R with its complement
    monkeypatch.setattr(bordered, "solve_lp", _no_lp)
    line = SubgroupSpec(n, ((1,) + (0,) * (n - 2) + (-1,),))
    supports = [(n, j, (1 << comb(n, j)) - 1) for j in range(1, n)]
    if n % 2 == 0 and n > 2:
        # {1, ..., n / 2} first and its complement last in lexicographic order
        supports.append((n, n // 2, 1 | 1 << comb(n, n // 2) - 1))
    for support in supports:
        for A in (SubgroupSpec.full_torus(n), line):
            assert divergence._cone_verdict(A, support) is False


def test_fan_corpus_under_every_coordinate_permutation():
    # the benchmark's fan problems, each conjugated by every permutation
    # matrix P (which permutes the torus coordinates), keep the recorded
    # verdict and the sizes of the witness family and of the fan
    corpus = json.loads((Path(__file__).resolve().parents[1]
                         / "perfbench" / "data" / "fan_corpus.json").read_text())
    assert len(corpus) == 10
    for entry in corpus:
        g0 = Mat.from_json(entry["g"])
        for perm in permutations(range(3)):
            # (P g P^T)[i][j] = g[perm i][perm j] for P[i][perm i] = 1
            g = Mat([[g0[perm[i], perm[j]] for j in range(3)] for i in range(3)])
            ws = search_witnesses(g, A3, 2)
            assert len(ws) == entry["witnesses"]
            cert = build_certificate(g, A3, ws)
            if entry["verdict"] == "certified":
                assert cert is not None and len(cert.fan) == entry["cells"]
            else:
                assert cert is None and entry["cells"] == 0
                ok, direction = check_certificate(g, A3, ws)
                assert not ok and any(direction)


def test_a_subgroup_of_another_n_is_refused():
    # the search, the check and the build refuse a subgroup whose n is not
    # g's, in both directions, rather than reading supports against it
    g3 = SL3_CONE_GS[1]
    T4 = SubgroupSpec.full_torus(4)
    ws3 = search_witnesses(g3, A3, 2)
    for g, A, ws in ((g3, T4, ws3), (G4, A3, [standard_radical(4, 1)])):
        with pytest.raises(PreconditionError):
            search_witnesses(g, A, 2)
        with pytest.raises(PreconditionError):
            check_certificate(g, A, ws)
        with pytest.raises(PreconditionError):
            build_certificate(g, A, ws)


def test_search_sizes_only_the_planes_it_keeps(monkeypatch):
    # a plane is sized after its verdict, and only when it is kept: during
    # an SL4 search the components_at calls are the kept planes, out of 122
    T4 = SubgroupSpec.full_torus(4)
    inner = radicals.RadicalWitness.components_at
    sized = []

    def counted(self, g):
        sized.append(self.j)
        return inner(self, g)

    monkeypatch.setattr(radicals.RadicalWitness, "components_at", counted)
    for g in (G4, random_sl(4, random.Random(2), height=3, steps=6)):
        sized.clear()
        kept = sum(w.degree == 4 for w in search_witnesses(g, T4, 1))
        assert 0 < kept < 122 and sized == [2] * kept


def test_equal_subgroups_share_a_cone_memo_entry():
    a = SubgroupSpec.full_torus(3)
    b = SubgroupSpec(3, (("1", "-1", 0), (0, F(2, 2), -1)))
    assert a is not b and a == b and hash(a) == hash(b)
    key = (3, 1, 0b011)    # the lines with u_1, u_2 != 0 = u_3
    divergence._cone_verdict.cache_clear()
    assert divergence._cone_verdict(a, key) is divergence._cone_verdict(b, key)
    info = divergence._cone_verdict.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_fan_ops_solve_no_lp_once_the_search_is_warm(monkeypatch):
    # the certified and the uncovered SL3 problem of
    # test_fan_and_search_lp_count, and acceptance 11's lines and
    # hyperplanes, whose first unowned face is a cell of dimension >= 2
    g = Mat.rationalize([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    ws = search_witnesses(g, A3, 2)
    T4 = SubgroupSpec.full_torus(4)
    lines_and_hyperplanes = [w for w in enumerate_witnesses(4, 1) if w.j != 2]
    monkeypatch.setattr(bordered, "solve_lp", _no_lp)
    cert = build_certificate(g, A3, ws)
    assert cert is not None and len(cert.fan) == 24
    assert check_certificate(g, A3, ws) == (True, None)
    assert build_certificate(g, A3, ws[:2]) is None
    assert check_certificate(g, A3, ws[:2]) == (False, (1, 2))
    assert build_certificate(G4, T4, lines_and_hyperplanes) is None
    assert check_certificate(G4, T4, lines_and_hyperplanes) == (False, (2, 2, -3))


def test_covered_check_computes_no_cell_direction(monkeypatch):
    # check_certificate stops before the certificate, so a covered family
    # costs no _direction call; build_certificate makes one per cell
    g = Mat.rationalize([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    ws = search_witnesses(g, A3, 2)
    calls = []

    def counted(faces, face):
        calls.append(face)
        return _direction(faces, face)

    monkeypatch.setattr(divergence, "_direction", counted)
    assert check_certificate(g, A3, ws) == (True, None)
    assert calls == []
    cert = build_certificate(g, A3, ws)
    assert len(calls) == len(cert.fan) == 24


def test_divergence_conjugates_only_through_radicals():
    # witnesses come from RadicalWitness.components_at; a second conjugation
    # path would need the wedge kernel or the trace-zero coordinates
    for node in ast.walk(ast.parse(Path(divergence.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert node.module not in ("wedge", "cuspwatch.wedge")
            if node.module in (None, "cuspwatch"):
                assert "wedge" not in names
            if node.module in ("radicals", "cuspwatch.radicals"):
                assert not {"sl_coords", "coords_to_matrix"} & set(names)
        elif isinstance(node, ast.Import):
            assert "cuspwatch.wedge" not in [alias.name for alias in node.names]


def _witness(*coeffs):
    return WitnessVector(3, 1, tuple((Character(c), F(1)) for c in coeffs))


def test_witness_faces_table_on_hand_built_witnesses():
    # on the SL3 torus (1,-1,0) restricts to h = (2,-1), (0,1,-1) to
    # (-1,2), (1,0,-1) to (1,1) and the constant (1,1,1) to zero
    ws = [
        _witness((1, -1, 0), (0, 1, -1)),
        _witness((-2, 2, 0)),                           # -2h: h kept, sign +1 demanded
        _witness((1, -1, 0), (-1, 1, 0), (1, 0, -1)),   # h both ways
        _witness((1, 1, 1), (1, 0, -1)),                # zero restriction first
    ]
    got, hyps, demands = _witness_faces(Mat.identity(3), A3, ws)
    assert all(a is b for a, b in zip(got, ws)) and len(got) == len(ws)
    # the dead witnesses' later characters add no hyperplane (1, 1)
    assert hyps == [(2, -1), (-1, 2)]
    assert demands == [(0, 0b11), (0b1, 0), None, None]


@settings(max_examples=40, deadline=None)
@given(arrangements(dims=(1, 2, 3, 4)))
@example([(1, 2, 0), (2, 4, 0), (0, 0, 1)])
@example([(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
def test_cocircuits_match_the_hermite_kernel(hyps):
    # every l - 1 of the rows, dependent ones included (the examples, and
    # the drawn arrangements' repeated and parallel rows): the one-pass
    # vector is the HNF kernel's up to sign when that kernel is a line,
    # and None otherwise
    l = len(hyps[0])
    for sub in combinations(hyps, l - 1):
        ker = int_kernel([list(h) for h in sub], l)
        got = _cocircuit(sub, l)
        if len(ker) == 1:
            assert got in (tuple(ker[0]), tuple(-x for x in ker[0]))
        else:
            assert got is None


@st.composite
def spanned_arrangements(draw, dims=(1, 2, 3, 4), size=6):
    """Nonzero rows in R^l that are integer combinations of r <= l drawn
    vectors, so of rank at most r: often below l, and below l - 1."""
    l = draw(st.sampled_from(dims))
    r = draw(st.integers(1, l))
    basis = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * l).filter(any),
                          min_size=r, max_size=r))
    combos = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    rows = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(l))
            for cs in draw(st.lists(combos, min_size=1, max_size=size))]
    rows = [row for row in rows if any(row)]
    return rows or [basis[0]]


@settings(max_examples=60, deadline=None)
@given(st.one_of(arrangements(dims=(1, 2, 3, 4)), spanned_arrangements()))
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0)])      # rank l - 1
@example([(1, 1, 0), (2, 2, 0), (-1, -1, 0)])    # rank l - 2
@example([(1, 1, 0, 0), (0, 0, 1, -1)])          # rank l - 2, no ray
def test_rank_is_read_off_the_rays(hyps):
    # full rank holds exactly when some ray exists and none lies in every
    # hyperplane; _fan_patterns gives None otherwise
    l = len(hyps[0])
    rank = Mat.rationalize([list(h) for h in hyps]).rank()
    assert (_fan_patterns(hyps) is None) == (rank < l)


def _per_witness_faces(A, ws):
    """The reference for _witness_faces: every witness's demand worked out
    on its own, whether or not an earlier witness had its characters."""
    hyps, table, demands = [], {}, []
    for w in ws:
        need = {}
        for ch, _ in w.components:
            r = A.restrict(ch)
            if not any(r):
                need = None
                break
            h = positive_primitive(r)
            if h not in table:
                table[h] = (len(hyps), -1)
                table[tuple(-x for x in h)] = (len(hyps), 1)
                hyps.append(h)
            k, want = table[h]
            if need.setdefault(k, want) != want:
                need = None
                break
        if need is not None:
            need = (sum(1 << k for k, s in need.items() if s > 0),
                    sum(1 << k for k, s in need.items() if s < 0))
        demands.append(need)
    return hyps, demands


# searched SL3 families, whose lines and hyperplanes of one zero pattern
# share a character set, and hand-built witnesses with multiples of a
# character (equal demands from different character tuples)
DEMAND_POOL = (search_witnesses(SL3_CONE_GS[1], A3, 2)
               + search_witnesses(SL3_CONE_GS[2], A3, 2)
               + [_witness((1, -1, 0)), _witness((2, -2, 0)), _witness((1, -1, 0), (0, 1, -1)),
                  _witness((1, 1, 1), (1, 0, -1)), _witness((-1, 1, 0), (1, -1, 0))])


# the SL3 coordinate lines cover, so a family ending in them has an owner
# for every face
COORDINATE_LINES = [WitnessVector.from_radical(I3, radical_from_subspace([r], 3))
                    for r in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(DEMAND_POOL))), max_size=12))
def test_shared_demands_and_owners_match_the_per_witness_reference(picks):
    # repeated picks repeat a witness, and the pool repeats character sets
    ws = [DEMAND_POOL[i] for i in picks] + COORDINATE_LINES
    _, hyps, demands = _witness_faces(I3, A3, ws)
    assert (hyps, demands) == _per_witness_faces(A3, ws)
    ok, _, cert = _analyze(I3, A3, ws)
    assert ok
    # owner: the first witness of all whose demand the pattern meets
    want = [
        (pattern, next(i for i, need in enumerate(demands) if _meets(pattern, need)))
        for pattern in _fan_patterns(hyps)
    ]
    assert [(cell.pattern, cell.witness_index) for cell in cert.fan] == want


def test_demand_pool_repeats_character_sets():
    chars = [tuple(ch.coeffs for ch, _ in w.components) for w in DEMAND_POOL]
    assert len(set(chars)) < len(chars) - 5

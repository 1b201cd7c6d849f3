import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cuspwatch import radicals, wedge
from cuspwatch.chars import Character, SubgroupSpec, subset_weight
from cuspwatch.errors import DependentInput, PreconditionError
from cuspwatch.lattice import lll_reduce, saturation_pair
from cuspwatch.loglin import LogLin
from cuspwatch.matrix import Mat
from cuspwatch.scalars import _cleared, _sup_norm
from cuspwatch.radicals import (
    _closed_columns,
    _closed_table,
    _closed_vectors,
    _components,
    _conj_minors,
    _support,
    active_radicals,
    conj_ad_wedge,
    coords_to_matrix,
    cusp_profile,
    enumerate_witnesses,
    radical_from_subspace,
    sl_coords,
    sl_dim,
    sl_weights,
    standard_radical,
    weight_components,
)
from cuspwatch.wedge import WedgeVector, _int_minors, apply_wedge_matrix, plucker
from test_bruhat import random_sl

F = Fraction


def test_sl_coords_round_trip():
    m = Mat.rationalize([[1, 2, 3], [4, -5, 6], [7, 8, 4]])
    coords = sl_coords(m)
    assert len(coords) == sl_dim(3) == 8
    assert coords_to_matrix(3, coords) == m
    with pytest.raises(PreconditionError):
        sl_coords(Mat.identity(3))   # trace 3, not 0


def test_standard_radical_shape():
    w = standard_radical(4, 2)
    assert w.rows == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert w.ann_rows == ((0, 0, 1, 0), (0, 0, 0, 1))
    assert dict(w.p_std.coeffs) == {(1, 2): F(1)}
    assert w.dim == 4
    assert w.height() == 1
    # the nilpotent space wedge lives in a single weight line
    assert len(w.p_ad.coeffs) == 1


def test_ad_weight_is_n_times_std_weight():
    # weight of the conjugation-representation wedge is n times the weight
    # of the defining coordinate wedge (modulo the constant character)
    for n in (2, 3, 4):
        for j in range(1, n):
            w = standard_radical(n, j)
            assert len(w.weights_ad) == 1
            top = tuple(range(1, j + 1))
            assert w.weights_ad[0] == subset_weight(top, n).scaled(n)


def test_radical_from_subspace_basis_invariance():
    a = radical_from_subspace([[1, 0, 2], [0, 1, 1]], 3)
    b = radical_from_subspace([[1, 1, 3], [2, 1, 5]], 3)
    assert a.p_std == b.p_std
    assert a.rows == b.rows
    assert a.p_ad == b.p_ad


def test_radical_from_subspace_reads_rational_strings():
    assert radical_from_subspace([["1/2", "1"]], 2) == radical_from_subspace([[1, 2]], 2)
    assert (radical_from_subspace([[2, "-1/4", "5/6"]], 3)
            == radical_from_subspace([[24, -3, 10]], 3))


def test_negative_height_is_rejected():
    g = Mat.rationalize([[5, 0], [0, F(1, 5)]])
    for call in (lambda: enumerate_witnesses(2, -1),
                 lambda: active_radicals(g, F(1, 10), -1),
                 lambda: active_radicals(g, F(1, 10), -1, method="reduction")):
        with pytest.raises(PreconditionError, match="height must be nonnegative"):
            call()


def test_radical_from_subspace_rejects_dependent():
    with pytest.raises(DependentInput):
        radical_from_subspace([[1, 2, 0], [2, 4, 0]], 3)


def test_a_witness_is_its_subspace_whatever_rows_span_it():
    # equality and hashing compare subspaces, and the bases are derived from
    # the Plucker vector alone: every unimodular respan of an enumerated
    # plane's rows gives the enumerated witness, bases and all
    for w in enumerate_witnesses(4, 1, js=[2]):
        r0, r1 = w.rows
        for a, b in ((r0, r1), (r1, r0)):
            for k in (0, 1, -2, 3):
                v = radical_from_subspace([[x + k * y for x, y in zip(a, b)], b], 4)
                assert v == w and hash(v) == hash(w)
                assert (v.rows, v.ann_rows) == (w.rows, w.ann_rows)


@pytest.mark.parametrize("seed", range(6))
def test_reduction_radicals_are_the_enumerated_witnesses(seed):
    g = random_sl(4, random.Random(seed), 3)
    brute = {w.p_std: w for w in enumerate_witnesses(4, 2)}
    found = active_radicals(g, 10, 2, method="reduction")
    assert found
    for a in found:
        w = brute[a.witness.p_std]
        assert a.witness == w and hash(a.witness) == hash(w)
        assert (a.witness.rows, a.witness.ann_rows) == (w.rows, w.ann_rows)


@pytest.mark.parametrize("n, w", [
    (3, standard_radical(2, 1)),
    (3, standard_radical(4, 2)),
    (2, standard_radical(3, 1)),
    (2, standard_radical(3, 2)),
    (4, radical_from_subspace([[1, 2, 0]], 3)),
])
def test_a_witness_is_sized_only_at_its_own_size(n, w):
    g = random_sl(n, random.Random(n), 3)
    for size in (w.components_at, lambda g: conj_ad_wedge(g, w)):
        with pytest.raises(PreconditionError, match="witness in Q\\^%d needs" % w.n):
            size(g)


def test_conj_ad_wedge_identity_fixes_p_ad():
    w = standard_radical(3, 1)
    assert conj_ad_wedge(Mat.identity(3), w) == w.p_ad


def test_enumerate_witnesses_sl2():
    ws = enumerate_witnesses(2, 2)
    lines = {x.rows[0] for x in ws}
    assert len(ws) == 8
    assert (1, 0) in lines and (0, 1) in lines and (1, 1) in lines
    assert enumerate_witnesses(2, 0) == []
    assert len(enumerate_witnesses(2, 1)) == 4


def test_enumerate_witnesses_sl4_counts():
    ws = enumerate_witnesses(4, 1)
    by_j = {j: sum(1 for x in ws if x.j == j) for j in (1, 2, 3)}
    assert by_j == {1: 40, 2: 122, 3: 40}
    for x in ws:
        assert x.height() <= 1


# (n, height): witness count per j and sha256 of
# repr([(w.sort_key(), w.rows, w.ann_rows) for w in enumerate_witnesses(n, height)]),
# recorded from the enumerator with hand-split Plucker cases for SL4 planes
ENUMERATION_PINS = {
    (2, 1): ({1: 4}, "79ac46e93ee7b77dcb1e7f73e6008846187c5845f798409711e0443bd4409059"),
    (2, 2): ({1: 8}, "cd8660ec36f7617e8b8b2705ccd2aad3e1a2b2681671c5b41a08292230c82ebe"),
    (2, 3): ({1: 16}, "f273631df282003612e9034ac14840d7b52da292feeefc09628852f2b559dc24"),
    (2, 4): ({1: 24}, "9749fa3cc2546959d95885e3afb1505fd75cb2d814f50e7e1d6a6f66d08185cd"),
    (2, 5): ({1: 40}, "7ecb61d33b18e2b3e12ed7c8805aa5a5647bb79393f0bcd213b296088b17acd7"),
    (2, 6): ({1: 48}, "abcdbfa13d4f7b2560d670458ea4f93dfa6b8a3796ec61cc21495e2c7cf18356"),
    (3, 1): ({1: 13, 2: 13}, "34fbafe220c5f6ace1048284d5e6688fd4e4f5a0fc188f4c5c963fa6f05db210"),
    (3, 2): ({1: 49, 2: 49}, "af123ca9ff9983426bb942964170c1c19b2b799cfc8d18fc247683d8286d17d2"),
    (3, 3): ({1: 145, 2: 145}, "1ef1d839cf774090a3bc2592059659c3dd871fa50c5fc98f4940f7a345095cfb"),
    (4, 1): ({1: 40, 2: 122, 3: 40},
             "ec1312e5085dab061bc582aa80caf96fcd664039866edb620fb50ac085ad0f42"),
    (4, 2): ({1: 272, 2: 1034, 3: 272},
             "598f66c257e4dfa64e4810c6bae85d9a0ccf4ea0723502aceb2801b328c87621"),
}


@pytest.mark.parametrize("n, height", sorted(ENUMERATION_PINS))
def test_enumeration_matches_its_pins(n, height):
    radicals._enumerated.cache_clear()
    ws = enumerate_witnesses(n, height)
    counts, digest = ENUMERATION_PINS[n, height]
    assert dict(Counter(w.j for w in ws)) == counts
    blob = repr([(w.sort_key(), w.rows, w.ann_rows) for w in ws]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("height", [1, 2])
def test_sl4_planes_are_the_primitive_points_of_the_plucker_quadric(height):
    rng = range(-height, height + 1)
    want = {
        w for w in product(rng, repeat=6)
        if math.gcd(*w) == 1 and next(c for c in w if c) > 0
        and w[0] * w[5] - w[1] * w[4] + w[2] * w[3] == 0
    }
    ws = radicals._enumerated(4, 2, height).witnesses
    assert all(plucker(w.rows) == w.p_std for w in ws)
    got = [tuple(plucker(w.rows).coeffs.get(t, 0) for t in combinations(range(1, 5), 2))
           for w in ws]
    assert len(got) == len(set(got))
    assert set(got) == want


def test_chart_plucker_vectors_match_the_slow_route_on_sl5():
    # a witness takes p_std from its chart; the Plucker vector of its
    # saturated rows is the same, over the SL5 lines and hyperplanes
    ws = enumerate_witnesses(5, 1, js=[1, 4])
    assert dict(Counter(w.j for w in ws)) == {1: 121, 4: 121}
    assert all(plucker(w.rows) == w.p_std for w in ws)


def test_candidate_subspaces_reject_unsupported_types():
    with pytest.raises(PreconditionError,
                       match=r"\(n,j\)=\(4,2\): planes of larger n would enumerate,"
                             r" but a search would take hours to size them$"):
        enumerate_witnesses(5, 1, js=[2])


def test_sl5_plane_charts_are_the_decomposable_primitive_points():
    # below the type guard the charts serve every (n, j): the SL5 planes of
    # height 1 are the primitive w in Z^10, |w| <= 1 and first nonzero
    # entry positive, with w ^ w = 0, each met once
    pairs = list(combinations(range(1, 6), 2))
    want = set()
    for w in product(range(-1, 2), repeat=10):
        if math.gcd(*w) == 1 and next(c for c in w if c) > 0:
            coeffs = {t: c for t, c in zip(pairs, w) if c}
            if not wedge._shuffle(coeffs, coeffs):
                want.add(w)
    charts = list(radicals._charts(5, 2, 1))
    got = [tuple(p.get(t, 0) for t in pairs) for p in charts]
    assert len(got) == len(set(got)) == len(want) == 1010
    assert set(got) == want
    # the kernel of v -> v ^ p presents the subspace of p
    assert all(plucker(radicals._subspace(5, 2, p)).coeffs == p for p in charts)


def test_sl5_chart_counts_are_symmetric_under_duality():
    # a j-subspace and its annihilator have the same height
    counts = [sum(1 for _ in radicals._charts(5, j, 1)) for j in range(1, 5)]
    assert counts == [121, 1010, 1010, 121]


@pytest.mark.parametrize("j", [0, 3])
def test_enumeration_refuses_improper_types(j):
    with pytest.raises(PreconditionError):
        enumerate_witnesses(3, 1, js=[j])


@pytest.mark.parametrize("n", range(2, 8))
def test_chart_count_is_the_walk_over_the_pivot_sets(n):
    for j in range(1, n):
        for height in range(7):
            walk = sum(height * (2 * height + 1) ** len(free)
                       for _, free in radicals._pivot_sets(n, j))
            assert radicals._chart_count(n, j, height) == walk


def test_chart_bound_admits_the_shear_profile_and_refuses_an_explosion():
    # scripts/golden_shear_profile.py enumerates SL2 lines up to height 354
    assert radicals._chart_count(2, 1, 354) == 251340 <= radicals._MAX_CHARTS
    count = radicals._chart_count(2, 1, 10 ** 5)
    with pytest.raises(PreconditionError, match="%d.*%d" % (count, radicals._MAX_CHARTS)):
        enumerate_witnesses(2, 10 ** 5)


def test_active_radicals_diagonal():
    g = Mat.rationalize([[5, 0], [0, "1/5"]])
    act = active_radicals(g, F(1, 10), 3)
    assert len(act) == 1
    assert act[0].witness.rows == ((0, 1),)
    assert act[0].norm == F(1, 25)
    # reduction-assisted search agrees on this instance
    act_r = active_radicals(g, F(1, 10), 3, method="reduction")
    assert [(a.witness.rows, a.norm) for a in act_r] == [(((0, 1),), F(1, 25))]


def test_active_radicals_identity_empty():
    assert active_radicals(Mat.identity(2), F(1, 2), 4) == []
    assert active_radicals(Mat.identity(3), F(1, 2), 2, js=[1, 2]) == []


def test_active_radicals_rejects_bad_input():
    with pytest.raises(PreconditionError):
        active_radicals(Mat.rationalize([[2, 0], [0, 1]]), F(1, 2), 2)
    with pytest.raises(PreconditionError):
        active_radicals(Mat.identity(2), F(0), 2)


def test_cusp_profile_exact_values():
    g = Mat.rationalize([[2, 0], [0, "1/2"]])
    A = SubgroupSpec.full_torus(2)
    table = cusp_profile(g, A, [(F(-1),), (F(0),), (F(1),)],
                         enumerate_witnesses(2, 1), digits=50)
    expected = [
        LogLin(F(-2)) + LogLin.log(4),      # upper line dominates at s = -1
        LogLin.log(F(1, 4)),                # lower line at s = 0
        LogLin(F(-2)) + LogLin.log(F(1, 4)),
    ]
    for got, want in zip(table.values, expected):
        assert (got - want).is_zero()
    assert table.rendered()[0][1].startswith("-0.61370563888010938116")
    for bad in ((), (F(1), F(0))):
        with pytest.raises(PreconditionError, match="coordinate length"):
            cusp_profile(g, A, [(F(0),), bad], enumerate_witnesses(2, 1))


def test_conjugation_equivariance_under_integral_maps():
    # moving the subspace by a unimodular integral matrix is the same as
    # moving the evaluation point: norms of the conjugated wedges agree
    rng = random.Random(5)
    gamma = Mat.rationalize([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    g = Mat.rationalize([[1, 0, 0], ["1/2", 1, 0], [0, "2/3", 1]])
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        if Mat.rationalize(rows).rank() != 2:
            continue
        v = radical_from_subspace(rows, 3)
        moved = radical_from_subspace(
            [list(gamma.apply(r)) for r in rows], 3
        )
        a = conj_ad_wedge(g * gamma, v)
        b = conj_ad_wedge(g, moved)
        assert a.norm_inf() == b.norm_inf()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_weight_components_cover_support(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(1)]
    if Mat.rationalize(rows).rank() != 1:
        return
    w = radical_from_subspace(rows, 3)
    g = Mat.rationalize([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    W = conj_ad_wedge(g, w)
    comps = weight_components(W, 3)
    # the sup of per-weight norms is the sup norm of the whole wedge
    assert max(nu for _, nu in comps) == W.norm_inf()


def _reference_p_ad(w):
    """Wedge of the nilpotent basis built directly: outer products b f^T."""
    u_basis = [Mat([[F(b * f) for f in frow] for b in brow])
               for brow in w.rows for frow in w.ann_rows]
    return plucker([sl_coords(u) for u in u_basis], sl_dim(w.n))


@pytest.mark.parametrize("n,height", [(3, 2), (4, 1)])
def test_p_ad_matches_outer_product_construction(n, height):
    for w in enumerate_witnesses(n, height):
        ref = _reference_p_ad(w)
        assert w.p_ad == ref
        assert w.weights_ad == [ch for ch, _ in weight_components(ref, n)]


def _reference_reduction_candidates(g, j):
    """Every independent j-combination of the reduced pool, repeated spans too."""
    n = g.nrows
    _, T = lll_reduce([[F(g[i, k]) for i in range(n)] for k in range(n)])
    pulls = [list(t) for t in T]
    pool = pulls + [[x + s * y for x, y in zip(p, q)]
                    for a, p in enumerate(pulls) for q in pulls[a + 1:] for s in (1, -1)]
    for combo in combinations(pool, j):
        if Mat.rationalize(list(combo)).rank() == j:
            yield list(combo)


def _reference_active(g, eps, height, method):
    """Candidate loop that filters on Plucker height only, with no prefilter:
    every new subspace is measured by its conjugated wedge."""
    n = g.nrows
    found = {}
    for j in range(1, n):
        if method == "brute":
            cands = (w.rows for w in radicals._enumerated(n, j, height).witnesses)
        else:
            cands = _reference_reduction_candidates(g, j)
        for rows in cands:
            p_std = plucker([list(map(F, r)) for r in rows], n)
            if p_std.norm_inf() > height:
                continue
            key = (j, tuple(sorted(p_std.coeffs.items())))
            if key in found:
                continue
            witness = radical_from_subspace(rows, n)
            norm = conj_ad_wedge(g, witness).norm_inf()
            if norm < eps:
                found[key] = (witness.rows, norm)
    return [found[k] for k in sorted(found)]


def _prefilter_bound(g, witness):
    """active_radicals' prefilter as a Fraction, a cheap lower bound for
    the conjugated wedge norm: max_R |W_R|^n.

    W is the image of the subspace wedge under Lambda^j(g). The nilpotent
    space has the basis g b f^T g^-1, b in the rows and f in the
    annihilator, so its wedge coefficient at the off-diagonal index
    R x ([n] \\ R) is det(A_R)^(n-j) * det(B_comp)^j, with A the conjugated
    rows and B the conjugated annihilator (Kronecker determinant identity).
    Complement duality of a saturated subspace and its annihilator gives
    det(A_R) = W_R and det(B_comp) = +-W_R, and it survives conjugation by a
    g of determinant one, so that coefficient is +-W_R^n.

    W is read from the integer rows G b (see _conjugator): the rows b are a
    saturated basis, so their minors are +-p_std, and W = +-minors(G b) /
    d_g^j. active_radicals makes the same comparison over integers, inline.

    For a line or a hyperplane and det g = 1 the bound is the norm. A line's
    norm is max_A prod |u_a| / d_g^n (see _closed_components), reached at
    A = n copies of the largest |u_a|, which is the bound. A hyperplane's
    minors of G b are +-(det G / d) w, so the bound is (max |w_a| / d_H)^n,
    and so is its norm max |w_a|^n / det H. For planes it is only a lower
    bound.
    """
    conj = radicals._conjugator(g)
    top = _sup_norm(_int_minors(radicals._moved(conj.G, witness.rows)).values())
    return Fraction(top, conj.d_g ** witness.j) ** witness.n


@settings(max_examples=2, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_prefilter_bound_is_below_the_norm(seed):
    # every witness type of (n, height) (3, 2) and (4, 1): j = 1, 2 in SL3
    # and j = 1, 2, 3 in SL4, so both j != n/2 and j = n/2
    rng = random.Random(seed)
    for n, height in ((3, 2), (4, 1)):
        g = random_sl(n, rng, height=2, steps=4)
        for w in enumerate_witnesses(n, height):
            bound = _prefilter_bound(g, w)
            norm = conj_ad_wedge(g, w).norm_inf()
            if w.j in (1, n - 1):
                assert bound == norm    # exact here (see _prefilter_bound)
            else:
                assert 0 < bound <= norm


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_prefilter_bound_is_below_the_norm_on_sl4_height_two(seed, data):
    # all 1,578 witnesses of (4, 2) under one g take several seconds, so
    # they are drawn: lines, planes and hyperplanes of height up to 2
    g = random_sl(4, random.Random(seed), height=2, steps=4)
    w = data.draw(st.sampled_from(enumerate_witnesses(4, 2)))
    assert 0 < _prefilter_bound(g, w) <= conj_ad_wedge(g, w).norm_inf()


def test_saturated_rows_wedge_to_the_plucker_vector():
    # the integer prefilter reads Lambda^j(g) p_std as +-minors(G b) / d_g^j,
    # which holds because the minors of a saturated basis are +-p_std
    for n, heights in ((2, range(1, 7)), (3, range(1, 4)), (4, range(1, 3))):
        for height in heights:
            for w in enumerate_witnesses(n, height):
                minors = {idx: F(c) for idx, c in _int_minors(w.rows).items()}
                assert minors in (w.p_std.coeffs, (-w.p_std).coeffs)


@settings(max_examples=2, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_prefilter_bound_matches_the_image_of_the_plucker_vector(seed):
    rng = random.Random(seed)
    for n, height in ((3, 2), (4, 1)):
        g = random_sl(n, rng, height=2, steps=4)
        for w in enumerate_witnesses(n, height):
            ref = apply_wedge_matrix(g, w.p_std).norm_inf() ** n
            assert _prefilter_bound(g, w) == ref


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([(3, 2), (4, 1)]), st.integers(min_value=0, max_value=10 ** 6),
       st.data())
def test_integer_decision_matches_reference_at_its_boundaries(shape, seed, data):
    # eps at a witness's exact norm (the strict < drops it), at its prefilter
    # bound (the >= rejects it before its norm is taken) and just above its
    # norm (it is kept); the reference measures every witness
    n, height = shape
    g = random_sl(n, random.Random(seed), height=2, steps=4)
    ws = enumerate_witnesses(n, height)
    w = data.draw(st.sampled_from(ws))
    norm = conj_ad_wedge(g, w).norm_inf()
    above = norm + F(1, 10 ** 9)
    ref = _reference_active(g, above, height, "brute")
    bounds = [_prefilter_bound(g, x) for x in ws]
    for eps in (_prefilter_bound(g, w), norm, above):
        want = [(rows, nu) for rows, nu in ref if nu < eps]
        with patch.object(radicals, "_ad_minors", wraps=radicals._ad_minors) as norms:
            got = [(a.witness.rows, a.norm) for a in active_radicals(g, eps, height)]
        assert got == want
        assert norms.call_count == sum(b < eps for b in bounds)
        assert (w.rows in [rows for rows, _ in got]) == (eps == above)
        lines = [(a.witness.rows, a.norm) for a in active_radicals(g, eps, height, js=[1])]
        assert lines == [(rows, nu) for rows, nu in want if len(rows) == 1]


def test_active_radicals_decides_over_integers(monkeypatch):
    # an SL4 g with denominators, where the prefilter rejects some witnesses
    # and the norm others: the search builds no wedge and one Fraction per
    # returned radical, besides eps
    g = random_sl(4, random.Random(0), height=2, steps=4)
    want = active_radicals(g, F(2), 2)
    assert 0 < len(want) < len(enumerate_witnesses(4, 2))

    def boom(*args, **kwargs):
        raise AssertionError("the search left the integer path")

    made = []

    def counting(*args):
        made.append(args)
        return F(*args)

    monkeypatch.setattr(radicals, "conj_ad_wedge", boom)
    monkeypatch.setattr(wedge, "apply_wedge_matrix", boom)
    monkeypatch.setattr(WedgeVector, "_built", boom)
    monkeypatch.setattr(radicals, "Fraction", counting)
    assert active_radicals(g, F(2), 2) == want
    assert len(made) == 1 + len(want)


@pytest.mark.parametrize("method", ["brute", "reduction"])
@pytest.mark.parametrize("rows,height,epss", [
    ([[2, 1, 0], [1, 1, 0], [0, 0, 1]], 2, (F(1, 2), F(2), F(10))),
    ([[1, 3, -2], [0, 1, 4], [0, 0, 1]], 2, (F(1, 2), F(2), F(10))),
    ([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]], 1, (F(2),)),
])
def test_active_radicals_match_reference_loop(rows, height, epss, method):
    g = Mat.rationalize(rows)
    for eps in epss:
        got = [(a.witness.rows, a.norm) for a in active_radicals(g, eps, height, method=method)]
        assert got == _reference_active(g, eps, height, method)


def _counted_saturations(monkeypatch):
    """The list that gains one entry per radicals.saturation_pair call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return saturation_pair(*args, **kwargs)

    monkeypatch.setattr(radicals, "saturation_pair", counting)
    return calls


def test_one_saturation_per_candidate(monkeypatch):
    # a witness is built from its chart with no Plucker pass, and its bases
    # are saturated once, when first read: at enumeration for the 80 lines
    # and hyperplanes, whose columns read them, and later for the planes
    def boom(*args, **kwargs):
        raise AssertionError("a Plucker vector was taken")

    calls = _counted_saturations(monkeypatch)
    monkeypatch.setattr(radicals, "plucker", boom)
    radicals._enumerated.cache_clear()
    ws = enumerate_witnesses(4, 1)
    assert len(ws) == 202
    assert len(calls) == 80
    assert len({w.rows for w in ws}) == 202
    assert len(calls) == 202
    calls.clear()
    again = enumerate_witnesses(4, 1)
    assert [w.rows for w in again] == [w.rows for w in ws]
    assert calls == []      # a repeated call reads the memo and the kept bases
    radicals._enumerated.cache_clear()
    g = Mat.rationalize([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]])
    active_radicals(g, F(2), 1, js=[1])
    assert len(calls) == 40
    calls.clear()
    active_radicals(g, F(2), 1, js=[1])
    assert calls == []


def test_types_share_one_memo(monkeypatch):
    # enumeration is memoized per type, so a request for a subset of types,
    # in any order and with repeats, reads what a full run built
    calls = _counted_saturations(monkeypatch)
    radicals._enumerated.cache_clear()
    full = enumerate_witnesses(4, 1)
    built = len(calls)
    assert enumerate_witnesses(4, 1, js=[3, 1, 1]) == [w for w in full if w.j in (1, 3)]
    assert len(calls) == built
    assert enumerate_witnesses(3, 1, js=[2, 1]) == enumerate_witnesses(3, 1)


@pytest.mark.parametrize("n, height, js", [(5, 1, None), (4, 10, [1, 2])])
def test_every_type_is_refused_before_any_chart_is_built(monkeypatch, n, height, js):
    # (5, 1) refuses its planes and (4, 10) its 2 million plane charts,
    # each after an admitted type
    def boom(*args, **kwargs):
        raise AssertionError("a chart was built")

    monkeypatch.setattr(radicals, "_charts", boom)
    radicals._enumerated.cache_clear()
    with pytest.raises(PreconditionError):
        enumerate_witnesses(n, height, js)


@pytest.mark.parametrize("method", ["brute", "reduction"])
def test_improper_types_are_refused_by_name_and_repeats_are_listed_once(method):
    g2 = Mat.rationalize([[5, 0], [0, F(1, 5)]])
    g3 = Mat.rationalize([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    for g, j in ((g2, 0), (g3, 3)):
        with pytest.raises(PreconditionError, match="j=%d is not proper" % j):
            active_radicals(g, 2, 2, js=[j], method=method)
    once = active_radicals(g3, 10, 2, js=[1], method=method)
    assert len(once) > 0
    assert active_radicals(g3, 10, 2, js=[1, 1], method=method) == once


def test_enumerate_witnesses_returns_a_new_list():
    first = enumerate_witnesses(3, 1)
    want = list(first)
    first.reverse()
    first.append(standard_radical(3, 1))
    assert enumerate_witnesses(3, 1) == want
    assert enumerate_witnesses(3, 1, js=[1, 2]) == want


def _reference_conj_ad_wedge(g, w):
    """The Fraction construction: g^-T, trace-zero coordinates of each
    conjugated outer product over Mat, and the Fraction shuffle product."""
    gi_t = g.inverse().transpose()
    gbs = [g.apply([F(v) for v in b]) for b in w.rows]
    fgs = [gi_t.apply([F(v) for v in f]) for f in w.ann_rows]
    m = sl_dim(w.n)
    out = WedgeVector(m, 0, {(): 1})
    for gb in gbs:
        for fg in fgs:
            coords = sl_coords(Mat([[x * y for y in fg] for x in gb]))
            out = out.wedge(WedgeVector(m, 1, {(i + 1,): c for i, c in enumerate(coords)}))
    return out


def _reference_components(wedge, n):
    """Per-weight sup norms, each index weight summed as a Character."""
    weights = sl_weights(n)
    buckets = {}
    for idx, c in wedge.coeffs.items():
        ch = Character(tuple([0] * n))
        for pos in idx:
            ch = ch + weights[pos - 1]
        buckets[ch] = max(buckets.get(ch, F(0)), abs(c))
    return sorted(buckets.items(), key=lambda t: t[0].sort_key())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (4, 1), (3, 2), (4, 2)]),
       st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_integer_conjugation_matches_fraction_reference(shape, seed, data):
    # every witness type the workloads meet: the fan's 98 SL3 witnesses of
    # height 2, and SL4 lines, planes and hyperplanes of height up to 2,
    # where a weight and its multiple often both occur and tie in the order
    n, height = shape
    g = random_sl(n, random.Random(seed), height=3, steps=6)
    w = data.draw(st.sampled_from(enumerate_witnesses(n, height)))
    ref = _reference_conj_ad_wedge(g, w)
    got = conj_ad_wedge(g, w)
    assert got == ref and repr(got) == repr(ref)
    assert repr(w.components_at(g)) == repr(_reference_components(ref, n))


def _minor_components(g, w):
    minors, den = _conj_minors(g, w)
    return _components(minors, w.n, den)


def _random_gl(n, rng):
    """Random invertible rational matrix with |det| != 1."""
    while True:
        g = Mat([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)])
        if abs(g.det()) not in (0, 1):
            return g


@settings(max_examples=16, deadline=None)
@given(st.sampled_from([(2, 4), (3, 2), (4, 1), (5, 1)]), st.booleans(),
       st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_closed_form_components_match_the_minor_path(shape, unimodular, seed, data):
    # the lines and hyperplanes of the shape under one g, in SL_n or with
    # |det g| != 1, against the buckets of the conjugated wedge's minors;
    # SL draws keep zero entries in g v, so zero factors occur. For n = 5
    # the minor path takes up to 0.1 s a witness, so four are drawn
    n, height = shape
    rng = random.Random(seed)
    g = random_sl(n, rng, height=3, steps=6) if unimodular else _random_gl(n, rng)
    ws = enumerate_witnesses(n, height, js=[1, n - 1])
    if n == 5:
        lines = [w for w in ws if w.j == 1]
        hyperplanes = [w for w in ws if w.j == 4]
        ws = [data.draw(st.sampled_from(pool))
              for pool in (lines, lines, hyperplanes, hyperplanes)]
    for w in ws:
        assert repr(w.components_at(g)) == repr(_minor_components(g, w))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(3, 2), (4, 1)]), st.integers(min_value=0, max_value=10 ** 6))
def test_support_key_is_the_components_key(shape, seed):
    # the shrink-cone key of a line or hyperplane, read from the zero
    # pattern of its u = G v (H f) in the search's column pass alone, is
    # the set of its characters under a rational SL g; in SL3 also those of
    # the conjugated wedge's minors
    n, height = shape
    g = random_sl(n, random.Random(seed), height=3, steps=6)
    for j in (1, n - 1):
        ws = enumerate_witnesses(n, height, js=[j])
        sign, _, us = _closed_vectors(g, j, _closed_columns(ws, j))
        assert len(us) == len(ws)
        for w, u in zip(ws, us):
            key = _closed_table(n, sign, _support(u))[1]
            assert key == frozenset(ch.coeffs for ch, _ in w.components_at(g))
            if n == 3:
                assert key == frozenset(ch.coeffs for ch, _ in _minor_components(g, w))


def test_lines_and_hyperplanes_are_sized_without_minors(monkeypatch):
    # a GL3 g with |det g| != 1 and an SL4 g; a plane still takes minors
    ws = enumerate_witnesses(3, 2) + enumerate_witnesses(4, 1, js=[1, 3])
    gs = {3: _random_gl(3, random.Random(0)), 4: random_sl(4, random.Random(0), height=3, steps=6)}
    want = [_minor_components(gs[w.n], w) for w in ws]

    def boom(*args, **kwargs):
        raise AssertionError("a minor was taken")

    monkeypatch.setattr(radicals, "_conj_minors", boom)
    monkeypatch.setattr(radicals, "_ad_minors", boom)
    monkeypatch.setattr(radicals, "_int_minors", boom)
    monkeypatch.setattr(wedge, "_int_minors", boom)
    assert [w.components_at(gs[w.n]) for w in ws] == want
    with pytest.raises(AssertionError, match="a minor was taken"):
        standard_radical(4, 2).components_at(gs[4])


@st.composite
def invertible(draw, dims=range(2, 7)):
    """A rational n x n matrix with det != 0, n in dims; its determinant
    takes either sign and is rarely 1."""
    n = draw(st.sampled_from(dims))
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    g = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
             .map(Mat).filter(lambda m: m.det() != 0))
    return g


@settings(max_examples=60, deadline=None)
@given(invertible())
def test_conjugator_matches_the_fraction_inverse(g):
    # one fraction-free pass over [G | I] gives what g.inverse() cleared of
    # denominators and g.det() give, including the least d_H, and |det G|
    # and |det H|
    n = g.nrows
    conj = radicals._conjugator(g)
    assert (conj.G, conj.d_g) == _cleared(g.rows)
    ref_H, d_h = _cleared(g.inverse().transpose().rows)
    assert (conj.H, conj.d) == (ref_H, conj.d_g * d_h)
    assert conj.det_G == g.det() * conj.d_g ** n
    assert (conj.abs_det_G, conj.abs_det_H) == (abs(Mat(conj.G).det()), abs(Mat(conj.H).det()))


def test_conjugator_signs_and_bad_input():
    # a row exchange in the pass flips det G's sign; det -1, det 2 and
    # singular or non-square g keep their errors, and active_radicals
    # names the determinant for each
    swap = Mat.rationalize([[0, 1], [1, 0]])
    assert radicals._conjugator(swap).det_G == -1
    assert radicals._conjugator(Mat.rationalize([[0, 2], ["1/2", 0]])).det_G == -4   # 2^2 det g
    with pytest.raises(PreconditionError, match="singular matrix"):
        radicals._conjugator(Mat.rationalize([[1, 2], [2, 4]]))
    with pytest.raises(PreconditionError, match="non-square"):
        radicals._conjugator(Mat.rationalize([[1, 2, 3], [4, 5, 6]]))
    for g in (swap, Mat.rationalize([[2, 0], [0, 1]]), Mat.rationalize([[1, 2], [2, 4]]),
              Mat.rationalize([[1, 2, 3], [4, 5, 6]])):
        with pytest.raises(PreconditionError, match="need a matrix with determinant exactly 1"):
            active_radicals(g, F(1, 2), 1)
    assert active_radicals(Mat.rationalize([[0, -1], [1, 0]]), F(2), 1)

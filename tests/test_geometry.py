import itertools
import random

import pytest

from lu3q.geometry import (
    GridPair,
    NoGridFoundError,
    PointOnLineError,
    SymplecticSpace,
)
from test_acceptance import ALL_Q

E0, E1, E2, E3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def test_form_on_symplectic_basis(field):
    S = SymplecticSpace(field(4))
    assert S.form(E0, E3) == 1
    assert S.form(E1, E2) == 1
    assert S.form(E0, E1) == 0
    assert S.form(E0, E2) == 0


def test_form_is_alternating_and_antisymmetric(field):
    for q in (2, 3):
        F = field(q)
        S = SymplecticSpace(F)
        vecs = list(itertools.product(range(q), repeat=4))
        rng = random.Random(1)
        for u in rng.sample(vecs, min(40, len(vecs))):
            assert S.form(u, u) == 0
            for v in rng.sample(vecs, min(10, len(vecs))):
                assert S.form(u, v) == F.neg(S.form(v, u))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_point_and_line_counts(quad, q):
    Q = quad(q)
    expected = q**3 + q**2 + q + 1
    assert Q.n_points == expected
    assert Q.n_lines == expected


@pytest.mark.parametrize("q", ALL_Q)
def test_closed_form_lines_are_every_isotropic_line(quad, q):
    # totally isotropic (the form is alternating, so the basis pair
    # decides), pairwise distinct 2-spaces, and as many as W(q) has:
    # so the closed-form families list every line
    Q = quad(q)
    assert all(Q.space.form(*l.basis) == 0 for l in Q.lines)
    assert all(len(set(l.points)) == q + 1 for l in Q.lines)
    assert len({l.points for l in Q.lines}) == len(Q.lines) == (q + 1) * (q**2 + 1)


@pytest.mark.parametrize("q", ALL_Q)
def test_perp_is_the_form_evaluated_point_by_point(quad, q):
    Q = quad(q)
    form = Q.space.form
    probe = range(Q.n_points) if q <= 5 else random.Random(q).sample(range(Q.n_points), 30)
    for p in probe:
        u = Q.points[p]
        assert Q.perp(p) == frozenset(
            i for i, v in enumerate(Q.points) if form(u, v) == 0
        )


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_degree_regularity(quad, q):
    Q = quad(q)
    assert all(len(ls) == q + 1 for ls in Q.point_to_lines)
    assert all(len(l.points) == q + 1 for l in Q.lines)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_no_two_lines_share_two_points(quad, q):
    Q = quad(q)
    for l1, l2 in itertools.combinations(range(Q.n_lines), 2):
        assert len(Q.line_points(l1) & Q.line_points(l2)) <= 1


def test_e2e3_is_a_line_disjoint_from_ell0_q2(quad):
    Q = quad(2)
    idx = Q.line_index.get((E2, E3))
    assert idx is not None
    assert Q.space.form(E2, E3) == 0
    assert not (Q.line_points(idx) & Q.line_points(Q.ell0))


def test_all_line_bases_are_isotropic(quad):
    for q in (2, 3, 4):
        Q = quad(q)
        for l in Q.lines:
            u, w = l.basis
            assert Q.space.form(u, w) == 0


def test_perp_of_p0_is_last_coordinate_zero(quad):
    for q in (2, 3, 4):
        Q = quad(q)
        expected = {i for i, v in enumerate(Q.points) if v[3] == 0}
        assert set(Q.perp(Q.p0)) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_perp_properties(quad, q):
    Q = quad(q)
    for p in range(Q.n_points):
        perp = Q.perp(p)
        assert p in perp
        assert len(perp) == q**2 + q + 1
        assert perp == Q.collinear(p)


def test_perp_size_q2(quad):
    assert len(quad(2).perp(quad(2).p0)) == 7


@pytest.mark.parametrize("q", [2, 3, 4])
def test_restricted_set_sizes(quad, q):
    Q = quad(q)
    rs = Q.restricted_sets()
    assert len(rs.P1) == q**3
    assert len(rs.L1) == q**3
    assert len(rs.X) == q + 1
    assert len(rs.X0) == q
    assert len(rs.Y) == q


@pytest.mark.parametrize("q", [2, 3, 4])
def test_restricted_sets_disjoint(quad, q):
    Q = quad(q)
    rs = Q.restricted_sets()
    X, Y, L1 = set(rs.X), set(rs.Y), set(rs.L1)
    assert not (X & Y) and not (X & L1) and not (Y & L1)
    # Y lines meet ell0 at q distinct points other than p0
    hits = set()
    for l in rs.Y:
        common = Q.line_points(l) & Q.line_points(Q.ell0)
        assert len(common) == 1
        hits |= common
    assert len(hits) == q and Q.p0 not in hits


@pytest.mark.parametrize("q", [2, 3, 4])
def test_x_lines_avoid_p1(quad, q):
    Q = quad(q)
    rs = Q.restricted_sets()
    P1 = set(rs.P1)
    for l in rs.X:
        assert not (Q.line_points(l) & P1)


def test_connector_example_q2(quad):
    Q = quad(2)
    target = Q.line_index[(E2, E3)]
    got = Q.unique_connector(Q.p0, target)
    assert Q.lines[got].basis == (E0, E2)


def test_connector_raises_on_incident_point(quad):
    Q = quad(2)
    p = next(iter(Q.line_points(Q.ell0)))
    with pytest.raises(PointOnLineError):
        Q.unique_connector(p, Q.ell0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_connector_exists_and_unique_exhaustive(quad, q):
    Q = quad(q)
    for l in range(Q.n_lines):
        pts = Q.line_points(l)
        for p in range(Q.n_points):
            if p in pts:
                continue
            hits = [
                m for m in Q.point_to_lines[p] if pts & Q.line_points(m)
            ]
            assert len(hits) == 1
            c = hits[0]
            assert p in Q.line_points(c)
            assert len(Q.line_points(c) & pts) == 1


def _concurrent_pairs_on_ell0(Q):
    """All pairs of distinct lines != ell0 through a point of ell0."""
    pairs = []
    for p in sorted(Q.line_points(Q.ell0)):
        through = [l for l in Q.point_to_lines[p] if l != Q.ell0]
        pairs.extend((l, lp, p) for l, lp in itertools.combinations(through, 2))
    return pairs


def test_grid_sum_identity_q2_all_pairs(quad):
    Q = quad(2)
    for l, lp, p in _concurrent_pairs_on_ell0(Q):
        g = Q.grid_decompose(l, lp, p)
        total = 0
        for m in g.delta + g.lam:
            total ^= Q.chi_line(m)
        assert total == Q.chi_line(l) ^ Q.chi_line(lp)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_grid_identity_on_seeded_pairs(quad, q):
    Q = quad(q)
    pairs = _concurrent_pairs_on_ell0(Q)
    rng = random.Random(20_000 + q)
    sample = pairs if len(pairs) <= 20 else rng.sample(pairs, 20)
    rs = Q.restricted_sets()
    L1 = set(rs.L1)
    for l, lp, p in sample:
        g = Q.grid_decompose(l, lp, p)
        assert len(g.delta) == q and len(g.lam) == q
        total = 0
        for m in g.delta + g.lam:
            total ^= Q.chi_line(m)
        assert total == Q.chi_line(l) ^ Q.chi_line(lp)
        # both lines meet ell0 only at p, so the grid sits inside L1
        assert set(g.delta) <= L1 and set(g.lam) <= L1


def test_grid_absent_for_some_pair_q3(quad):
    Q = quad(3)
    failures = 0
    for l, lp, p in _concurrent_pairs_on_ell0(Q):
        try:
            Q.grid_decompose(l, lp, p)
        except NoGridFoundError as exc:
            failures += 1
            assert exc.odd_q
    assert failures > 0


def test_grid_all_z_recorded(quad):
    # measured regularity, pinned: every candidate z on the trace of
    # {u1, w1} yields a valid grid at even q; the search returns the first
    Q = quad(4)
    l, lp, p = _concurrent_pairs_on_ell0(Q)[0]
    u1, w1 = min(Q.line_points(l) - {p}), min(Q.line_points(lp) - {p})
    candidates = sorted((Q.collinear(u1) & Q.collinear(w1)) - {p})
    valid = [z for z in candidates if Q._try_grid(l, lp, p, u1, w1, z) is not None]
    assert len(valid) == 4
    g = Q.grid_decompose(l, lp, p)
    assert isinstance(g, GridPair)
    assert g.z == valid[0]


def test_grid_rejects_bad_arguments(quad):
    Q = quad(2)
    l, lp, p = _concurrent_pairs_on_ell0(Q)[0]
    with pytest.raises(ValueError):
        Q.grid_decompose(l, l, p)
    outside = next(i for i in range(Q.n_points) if i not in Q.line_points(l))
    with pytest.raises(ValueError):
        Q.grid_decompose(l, lp, outside)


def test_point_enumeration_is_lexicographic(quad):
    Q = quad(3)
    assert Q.points == sorted(Q.points)
    assert Q.points[0] == (0, 0, 0, 1)
    assert Q.points[Q.p0] == E0


def test_line_enumeration_is_lexicographic(quad):
    Q = quad(3)
    keys = [l.basis[0] + l.basis[1] for l in Q.lines]
    assert keys == sorted(keys)


def test_line_points_lie_in_row_space(quad):
    Q = quad(2)
    for l in Q.lines:
        u, w = l.basis
        F = Q.F
        span = {Q.point_index[Q.canonicalize(w)]}
        for lam in range(Q.q):
            vec = tuple(F.add(u[i], F.mul(lam, w[i])) for i in range(4))
            span.add(Q.point_index[Q.canonicalize(vec)])
        assert span == set(l.points)

import itertools
import random

import numpy as np
import pytest

from lu3q.geometry import (
    GridPair,
    NoGridFoundError,
    PointOnLineError,
    SymplecticSpace,
    enumerate_quadrangle,
    torus_and_swap,
)
from lu3q.incidence import build_incidence
from test_acceptance import ALL_Q

E0, E1, E2, E3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
SLOW_Q = [pytest.param(q, marks=pytest.mark.slow) for q in (25, 27, 32)]


def reference_quadrangle(F):
    """The scalar enumeration: canonical points in lexicographic order,
    the four closed-form line families sorted by flattened basis, and the
    points u + lam*w and w of each line by one field call per coordinate
    and a lookup per point."""
    q = F.q
    els = range(q)
    points = sorted(
        (0,) * lead + (1,) + tail
        for lead in range(4)
        for tail in itertools.product(els, repeat=3 - lead)
    )
    index = {v: i for i, v in enumerate(points)}
    bases = [((1, 0, a, b), (0, 1, c, a)) for a, b, c in itertools.product(els, repeat=3)]
    bases += [((1, a, 0, b), (0, 0, 1, F.neg(a))) for a, b in itertools.product(els, repeat=2)]
    bases += [((0, 1, a, 0), (0, 0, 0, 1)) for a in els]
    bases.append(((0, 0, 1, 0), (0, 0, 0, 1)))
    bases.sort(key=lambda b: b[0] + b[1])
    line_pts = []
    for u, w in bases:
        pts = [index[w]]
        for lam in els:
            pts.append(index[tuple(F.add(u[i], F.mul(lam, w[i])) for i in range(4))])
        line_pts.append(tuple(sorted(pts)))
    point_lines = [[] for _ in points]
    for l, pts in enumerate(line_pts):
        for p in pts:
            point_lines[p].append(l)
    return points, bases, line_pts, point_lines


def reference_rows(points, bases, line_pts, point_lines):
    """pl and p1l1 rows by one shift per incidence, with P1 and L1 from
    set algebra on the reference lines."""
    pl = [0] * len(points)
    for l, pts in enumerate(line_pts):
        for p in pts:
            pl[p] |= 1 << l
    p0 = points.index(E0)
    ell0 = set(line_pts[bases.index((E0, E1))])
    perp = set().union(*(line_pts[l] for l in point_lines[p0]))
    P1 = [p for p in range(len(points)) if p not in perp]
    L1 = [l for l, pts in enumerate(line_pts) if not ell0 & set(pts)]
    col_of = {l: j for j, l in enumerate(L1)}
    p1l1 = []
    for p in P1:
        bits = 0
        for l in point_lines[p]:
            if l in col_of:
                bits |= 1 << col_of[l]
        p1l1.append(bits)
    return pl, p1l1, P1, L1


def canonical(F, v):
    """The representative of <v> with first nonzero coordinate 1."""
    lead = next(x for x in v if x)
    return tuple(F.mul(F.inv(lead), x) for x in v)


def line_with_basis(Q, u, w):
    return int(np.flatnonzero((Q.bases == (u, w)).all(axis=(1, 2)))[0])


@pytest.mark.parametrize("q", list(ALL_Q) + SLOW_Q)
def test_quadrangle_equals_the_scalar_reference(quad, field, q):
    Q = quad(q) if q in ALL_Q else enumerate_quadrangle(field(q))
    points, bases, line_pts, point_lines = reference_quadrangle(Q.F)
    assert Q.points.tolist() == [list(v) for v in points]
    assert Q.bases.tolist() == [[list(u), list(w)] for u, w in bases]
    assert Q.line_pts.tolist() == [list(pts) for pts in line_pts]
    assert Q.point_lines.tolist() == point_lines
    assert Q.p0 == points.index(E0) and Q.ell0 == bases.index((E0, E1))


@pytest.mark.parametrize("q", ALL_Q)
def test_incidence_rows_equal_the_scalar_reference(quad, matrix, q):
    pl, p1l1, P1, L1 = reference_rows(*reference_quadrangle(quad(q).F))
    rs = quad(q).restricted_sets
    assert (list(rs.P1), list(rs.L1)) == (P1, L1)
    assert matrix(q, "pl").bits.rows == pl
    assert matrix(q, "p1l1").bits.rows == p1l1


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
    assert all(Q.space.form(u, w) == 0 for u, w in Q.bases.tolist())
    assert all(len(set(pts)) == q + 1 for pts in Q.line_pts.tolist())
    assert len({tuple(pts) for pts in Q.line_pts.tolist()}) == Q.n_lines == (q + 1) * (q**2 + 1)


@pytest.mark.parametrize("q", ALL_Q)
def test_perp_is_the_form_evaluated_point_by_point(quad, q):
    Q = quad(q)
    form = Q.space.form
    probe = range(Q.n_points) if q <= 5 else random.Random(q).sample(range(Q.n_points), 30)
    for p in probe:
        u = Q.points[p].tolist()
        assert Q.perp(p) == frozenset(
            i for i, v in enumerate(Q.points.tolist()) if form(u, v) == 0
        )


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_degree_regularity(quad, q):
    Q = quad(q)
    assert np.bincount(Q.line_pts.ravel()).tolist() == [q + 1] * Q.n_points
    assert np.bincount(Q.point_lines.ravel()).tolist() == [q + 1] * Q.n_lines


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_no_two_lines_share_two_points(quad, q):
    Q = quad(q)
    for l1, l2 in itertools.combinations(range(Q.n_lines), 2):
        assert len(Q.line_points(l1) & Q.line_points(l2)) <= 1


def test_e2e3_is_a_line_disjoint_from_ell0_q2(quad):
    Q = quad(2)
    idx = line_with_basis(Q, E2, E3)
    assert Q.space.form(E2, E3) == 0
    assert not (Q.line_points(idx) & Q.line_points(Q.ell0))


def test_all_line_bases_are_isotropic(quad):
    for q in (2, 3, 4):
        Q = quad(q)
        for u, w in Q.bases.tolist():
            assert Q.space.form(u, w) == 0


def test_perp_of_p0_is_last_coordinate_zero(quad):
    for q in (2, 3, 4):
        Q = quad(q)
        expected = set(np.flatnonzero(Q.points[:, 3] == 0).tolist())
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
    rs = Q.restricted_sets
    assert len(rs.P1) == q**3
    assert len(rs.L1) == q**3
    assert len(rs.X) == q + 1
    assert len(rs.X0) == q
    assert len(rs.Y) == q


@pytest.mark.parametrize("q", [2, 3, 4])
def test_restricted_sets_disjoint(quad, q):
    Q = quad(q)
    rs = Q.restricted_sets
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
    rs = Q.restricted_sets
    P1 = set(rs.P1)
    for l in rs.X:
        assert not (Q.line_points(l) & P1)


def test_connector_example_q2(quad):
    Q = quad(2)
    target = line_with_basis(Q, E2, E3)
    got = Q.unique_connector(Q.p0, target)
    assert Q.bases[got].tolist() == [list(E0), list(E2)]


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
                m for m in Q.point_lines[p].tolist() if pts & Q.line_points(m)
            ]
            assert len(hits) == 1
            c = hits[0]
            assert p in Q.line_points(c)
            assert len(Q.line_points(c) & pts) == 1


def _concurrent_pairs_on_ell0(Q):
    """All pairs of distinct lines != ell0 through a point of ell0."""
    pairs = []
    for p in sorted(Q.line_points(Q.ell0)):
        through = [l for l in Q.point_lines[p].tolist() if l != Q.ell0]
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
    rs = Q.restricted_sets
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
    points = [tuple(v) for v in Q.points.tolist()]
    assert points == sorted(points)
    assert points[0] == (0, 0, 0, 1)
    assert points[Q.p0] == E0


def test_line_enumeration_is_lexicographic(quad):
    Q = quad(3)
    keys = [u + w for u, w in Q.bases.tolist()]
    assert keys == sorted(keys)


def test_line_points_lie_in_row_space(quad):
    Q = quad(2)
    F = Q.F
    index = {tuple(v): i for i, v in enumerate(Q.points.tolist())}
    for (u, w), pts in zip(Q.bases.tolist(), Q.line_pts.tolist()):
        span = {index[canonical(F, w)]}
        for lam in range(Q.q):
            vec = tuple(F.add(u[i], F.mul(lam, w[i])) for i in range(4))
            span.add(index[canonical(F, vec)])
        assert span == set(pts)


def reference_orbits(perms, n):
    """The orbits of the group the line permutations generate, by a
    breadth-first closure from each line not yet reached."""
    orbit_of = [None] * n
    orbits = []
    for start in range(n):
        if orbit_of[start] is None:
            orbit_of[start], todo, orbit = len(orbits), [start], [start]
            while todo:
                l = todo.pop()
                for p in perms:
                    m = int(p[l])
                    if orbit_of[m] is None:
                        orbit_of[m] = len(orbits)
                        todo.append(m)
                        orbit.append(m)
            orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("q, n_orbits", [(2, 11), (4, 13), (8, 17), (16, 25)])
def test_torus_and_swap_line_orbits(quad, q, n_orbits):
    Q = quad(q)
    perms = []
    for scale, order in torus_and_swap(Q.F):
        perm = Q.map_lines(scale, order)
        # every point of every line, not only the two map_lines uses
        images = Q.point_of(Q.F.tables.mul[scale, Q.points[Q.line_pts][..., order]])
        assert np.array_equal(np.sort(images, axis=1), Q.line_pts[perm])
        assert np.array_equal(np.sort(perm), np.arange(Q.n_lines))
        perms.append(perm)
    reps, sizes = Q.line_orbits(torus_and_swap(Q.F))
    orbits = reference_orbits(perms, Q.n_lines)
    assert len(reps) == n_orbits == q + 9
    assert reps.tolist() == [min(o) for o in orbits]
    assert sizes.tolist() == [len(o) for o in orbits]
    assert sizes.sum() == Q.n_lines


@pytest.mark.parametrize("q", [4, 8])
def test_a_map_that_is_no_similitude_is_refused(quad, q):
    # diag(1, g, 1, 1) scales x1*x2 by g and x0*x3 by 1, so it sends some
    # line to a 2-space on which the form does not vanish
    Q = quad(q)
    g = Q.F.primitive
    with pytest.raises(ValueError, match="collinear"):
        Q.map_lines((1, g, 1, 1))
    for scale, order in [((0, 1, 1, 1), (0, 1, 2, 3)), ((1, 1, 1, q), (0, 1, 2, 3)),
                         ((1, 1, 1, 1), (0, 0, 2, 3))]:
        with pytest.raises(ValueError, match="no invertible map"):
            Q.map_lines(scale, order)

import dataclasses
import itertools

import pytest

from lu3q.formulas import predict
from lu3q.gf2 import Subspace, rank2
from lu3q.incidence import (
    EquivalenceReport,
    SpanMismatchError,
    build_incidence,
    build_kim_matrix,
    check_kim_equivalence,
    restricted_submatrix_check,
    select_Z,
    verify_spanning,
)


def test_kim_row_000_q2(field):
    m = build_kim_matrix(field(2))
    # a=b=c=0 forces y=0, z=0 with x free: columns [0,0,0] and [1,0,0]
    i000 = m.row_labels.index((0, 0, 0))
    cols = [j for j in range(m.n_cols) if m.bits.get(i000, j)]
    assert [m.col_labels[j] for j in cols] == [(0, 0, 0), (1, 0, 0)]


def test_kim_two_rows_share_one_column_q2(field):
    m = build_kim_matrix(field(2))
    r1 = m.bits.rows[m.row_labels.index((0, 0, 0))]
    r2 = m.bits.rows[m.row_labels.index((1, 0, 0))]
    common = r1 & r2
    assert common.bit_count() == 1
    assert m.col_labels[common.bit_length() - 1] == (0, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_kim_weights(field, q):
    m = build_kim_matrix(field(q))
    assert m.bits.row_weights() == [q] * q**3
    assert m.bits.col_weights() == [q] * q**3


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_kim_no_two_rows_share_two_columns(field, q):
    m = build_kim_matrix(field(q))
    rows = m.bits.rows
    for r1, r2 in itertools.combinations(rows, 2):
        assert (r1 & r2).bit_count() <= 1


def test_pl_shape_and_weights_q2(matrix):
    m = matrix(2, "pl")
    assert m.n_rows == m.n_cols == 15
    assert m.bits.row_weights() == [3] * 15
    assert m.bits.col_weights() == [3] * 15


def test_p1l1_shape_and_weights_q2(matrix):
    m = matrix(2, "p1l1")
    assert m.n_rows == m.n_cols == 8
    assert m.bits.row_weights() == [2] * 8
    assert m.bits.col_weights() == [2] * 8


@pytest.mark.parametrize("q", [2, 3, 4])
def test_p1l1_is_submatrix_of_pl(quad, q):
    assert restricted_submatrix_check(quad(q))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_l1_columns_lose_one_point_outside_p1(quad, matrix, q):
    # a line missing ell0 meets the perp of p0 in exactly one point
    Q = quad(q)
    rs = Q.restricted_sets()
    pl = matrix(q, "pl")
    p1 = set(rs.P1)
    for l in rs.L1:
        outside = [p for p in Q.lines[l].points if p not in p1]
        assert len(outside) == 1


def test_select_z_q2(quad, matrix):
    Q = quad(2)
    sel = select_Z(matrix(2, "p1l1"), Q)
    assert len(sel.Z) == 6
    assert len(set(sel.X0) | set(sel.Y)) == 4  # |X0 u Y| = 2q


@pytest.mark.parametrize("q", [2, 4])
def test_lemma_independence_rank(quad, matrix, q):
    Q = quad(q)
    sel = select_Z(matrix(q, "p1l1"), Q)
    stacked = [Q.chi_line(l) for l in sel.X0 + sel.Y + sel.Z]
    assert rank2(stacked) == 2 * q + len(sel.Z)


def test_select_z_is_deterministic(quad, matrix):
    Q = quad(2)
    m = matrix(2, "p1l1")
    assert select_Z(m, Q) == select_Z(m, Q)


@pytest.mark.parametrize("q, dim_pl, dim_p1l1", [(2, 10, 6), (4, 50, 42)])
def test_spanning_report(quad, matrix, q, dim_pl, dim_p1l1):
    Q = quad(q)
    sel = select_Z(matrix(q, "p1l1"), Q)
    rep = verify_spanning(Q, sel)
    assert rep.ok
    assert rep.dim_pl == dim_pl
    assert rep.dim_p1l1 == dim_p1l1
    assert rep.dim_pl == rep.dim_p1l1 + 2 * q
    assert rep.ones_sum_identity


@pytest.mark.parametrize("q", [2, 4])
def test_spanning_with_randomized_y(quad, matrix, q):
    # the choice of Y is free: rerun the span checks with a different
    # valid Y (largest-index rule instead of smallest)
    Q = quad(q)
    sel = select_Z(matrix(q, "p1l1"), Q)
    alt_y = []
    for p in sorted(Q.line_points(Q.ell0) - {Q.p0}):
        alt_y.append(max(l for l in Q.point_to_lines[p] if l != Q.ell0))
    alt = type(sel)(sel.X, sel.X0, tuple(alt_y), sel.Z)
    rep = verify_spanning(Q, alt)
    assert rep.ok


def test_spanning_without_y_reports_first_escaping_line(quad, matrix):
    Q = quad(4)
    sel = dataclasses.replace(select_Z(matrix(4, "p1l1"), Q), Y=())
    rs = Q.restricted_sets()
    span = Subspace.span([Q.chi_line(l) for l in sel.X0 + rs.L1], Q.n_points)
    first = next(l for l in range(Q.n_lines) if not span.contains(Q.chi_line(l)))
    with pytest.raises(SpanMismatchError, match=f"line {first} escapes") as exc:
        verify_spanning(Q, sel)
    assert exc.value.line == first


@pytest.mark.parametrize("drop", [0, -1])
def test_spanning_without_a_z_line_fails(quad, matrix, drop):
    Q = quad(4)
    sel = select_Z(matrix(4, "p1l1"), Q)
    Z = list(sel.Z)
    del Z[drop]
    with pytest.raises(SpanMismatchError, match=r"span\(Z u X0\)|dimension gap"):
        verify_spanning(Q, dataclasses.replace(sel, Z=tuple(Z)))


def test_spanning_rejects_z_outside_l1(quad, matrix):
    Q = quad(4)
    sel = select_Z(matrix(4, "p1l1"), Q)
    bad = dataclasses.replace(sel, Z=sel.Z[1:] + sel.Y[:1])
    with pytest.raises(SpanMismatchError, match="not a subset of L1"):
        verify_spanning(Q, bad)


@pytest.mark.slow  # about 60 s
def test_kim_rank_q32(field):
    assert build_kim_matrix(field(32)).rank == predict(32).rank_p1l1 == 12186


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_corollary_gap_equality(quad, matrix, q):
    # q^3 - rank(PL) + 2q == q^3 - rank(P1L1), i.e. the bound holds with
    # equality for even and odd q alike
    pl_rank = rank2(matrix(q, "pl").bits)
    p1l1_rank = rank2(matrix(q, "p1l1").bits)
    assert pl_rank - p1l1_rank == 2 * q


def test_kim_equivalence_q2(field, matrix):
    rep = check_kim_equivalence(matrix(2, "kim"), matrix(2, "p1l1"))
    assert rep.rank_kim == rep.rank_p1l1 == 6
    assert rep.iso_searched
    assert rep.row_perm is not None and rep.col_perm is not None


@pytest.mark.parametrize("q", [2, 4])
def test_kim_equivalence_explicit_permutation(matrix, q):
    kim = matrix(q, "kim")
    p1l1 = matrix(q, "p1l1")
    rep = check_kim_equivalence(kim, p1l1)
    assert rep.iso_searched
    rp, cp = rep.row_perm, rep.col_perm
    assert sorted(rp) == list(range(kim.n_rows))
    assert sorted(cp) == list(range(kim.n_cols))
    for i in range(kim.n_rows):
        for j in range(kim.n_cols):
            assert kim.bits.get(i, j) == p1l1.bits.get(rp[i], cp[j])


def test_kim_equivalence_q8_rank_only(matrix):
    rep = check_kim_equivalence(matrix(8, "kim"), matrix(8, "p1l1"))
    assert rep.ranks_equal
    assert not rep.iso_searched
    assert rep.row_perm is None


def test_build_incidence_rejects_unknown_system(quad):
    with pytest.raises(ValueError):
        build_incidence(quad(2), "nope")


def test_equivalence_report_type(matrix):
    rep = check_kim_equivalence(matrix(2, "kim"), matrix(2, "p1l1"))
    assert isinstance(rep, EquivalenceReport)
    assert rep.q == 2


@pytest.mark.parametrize("q", [2, 3, 4])
def test_constructed_matrix_rank_equals_transpose_rank(matrix, q):
    for system in ("pl", "p1l1", "kim"):
        m = matrix(q, system).bits
        assert rank2(m) == rank2(m.transpose())


def test_ell0_restricts_to_zero(quad):
    from lu3q.gf2 import restrict_vector

    for q in (2, 4):
        Q = quad(q)
        rs = Q.restricted_sets()
        assert restrict_vector(Q.chi_line(Q.ell0), rs.P1) == 0


@pytest.mark.parametrize("q", [2, 4, 8])
def test_difference_vectors_span_restricted_kernel(quad, q):
    # the q-1 sums chi_l + chi_l' over lines through p0 (l fixed, l'
    # varying, both != ell0) are independent, lie in the restricted
    # code, vanish off the perp, and therefore span the q-1 dimensional
    # kernel piece
    from lu3q.gf2 import Subspace, kernel_intersection_dim, restrict_vector

    Q = quad(q)
    rs = Q.restricted_sets()
    n = Q.n_points
    code_pl1 = Subspace.span([Q.chi_line(l) for l in rs.L1], n)
    through = [l for l in Q.point_to_lines[Q.p0] if l != Q.ell0]
    fixed = through[0]
    vecs = [Q.chi_line(fixed) ^ Q.chi_line(other) for other in through[1:]]
    assert len(vecs) == q - 1
    assert rank2(vecs) == q - 1
    for v in vecs:
        assert code_pl1.contains(v)
        assert restrict_vector(v, rs.P1) == 0
    assert kernel_intersection_dim(code_pl1, rs.P1) == q - 1


@pytest.mark.parametrize(
    "q, alt_irr",
    [
        (8, (1, 0, 1, 1)),  # x^3 + x^2 + 1 instead of x^3 + x + 1
        (9, (2, 2, 1)),  # x^2 + 2x + 2 instead of x^2 + 1
    ],
)
def test_ranks_independent_of_field_presentation(matrix, q, alt_irr):
    # GF(4) admits a single irreducible of degree 2, so the alternate
    # presentations are exercised at q = 8 and q = 9 instead
    from lu3q.fields import field_for_order
    from lu3q.geometry import enumerate_quadrangle

    F2 = field_for_order(q, alt_irr)
    Q2 = enumerate_quadrangle(F2)
    for system in ("pl", "p1l1", "kim"):
        base = rank2(matrix(q, system).bits)
        alt = rank2(build_incidence(Q2, system).bits)
        assert base == alt

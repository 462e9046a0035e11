import dataclasses
import itertools
import re

import numpy as np
import pytest

from gf2_oracle import (
    col_weights,
    kernel_intersection_basis,
    kernel_intersection_dim,
    line_code,
    restrict_rows,
    restrict_vector,
    transpose,
)
from lu3q.formulas import predict
from lu3q.gf2 import BitMatrix, ReducedEchelon, Subspace, rank2
from lu3q.incidence import (
    EquivalenceMismatchError,
    SpanMismatchError,
    build_incidence,
    build_kim_matrix,
    check_kim_equivalence,
    select_Z,
    selection_ranks,
    verify_spanning,
)
from test_acceptance import ALL_Q
from test_geometry import canonical


def reference_kim_rows(F):
    """The scalar definition, one field call per entry."""
    q = F.q
    rows = []
    for a, b, c in itertools.product(range(q), repeat=3):
        bits = 0
        for x in range(q):
            y = F.add(F.mul(a, x), b)
            z = F.add(F.mul(a, y), c)
            bits |= 1 << ((x * q + y) * q + z)
        rows.append(bits)
    return rows


@pytest.mark.parametrize("q", ALL_Q)
def test_kim_rows_equal_the_scalar_definition(field, q):
    m = build_kim_matrix(field(q))
    assert m.bits.rows == reference_kim_rows(field(q))
    assert m.bits.n_cols == q**3
    assert labels(m.row_labels) == labels(m.col_labels) == list(
        itertools.product(range(q), repeat=3)
    )


def labels(a):
    """An array of labels as a list of tuples, one per row."""
    return [tuple(v) for v in a.tolist()]


@pytest.mark.parametrize("q", ALL_Q)
def test_index_rows_ascend_without_padding(matrix, q):
    for system, n, weight in (
        ("pl", (q + 1) * (q * q + 1), q + 1), ("p1l1", q**3, q), ("kim", q**3, q)
    ):
        cols = matrix(q, system).cols
        assert cols.dtype == np.int32
        assert cols.shape == (n, weight)
        assert (np.diff(cols, axis=1) > 0).all()
        assert (cols >= 0).all()


@pytest.mark.parametrize("suffix, flags", [(".txt", []), (".json", ["--json"])])
def test_verify_q16_packs_no_incidence_bits(capsys, monkeypatch, suffix, flags):
    # every check at q=16 reads the index rows: the girth row is SKIP,
    # and each rank comes from the spans and the coordinate map
    from lu3q.cli import main
    from lu3q.incidence import IncidenceMatrix
    from test_cli import VERIFY_PINS

    def packing(self):
        raise AssertionError(f"{self.system} packed into bits")

    monkeypatch.setattr(IncidenceMatrix, "bits", property(packing))
    assert main(["verify", "--q", "16", "--checks", "all", *flags]) == 0
    assert capsys.readouterr().out == (VERIFY_PINS / f"q16{suffix}").read_text()


def test_kim_row_000_q2(field):
    m = build_kim_matrix(field(2))
    # a=b=c=0 forces y=0, z=0 with x free: columns [0,0,0] and [1,0,0]
    i000 = labels(m.row_labels).index((0, 0, 0))
    cols = [j for j in range(m.n_cols) if m.bits.get(i000, j)]
    assert [labels(m.col_labels)[j] for j in cols] == [(0, 0, 0), (1, 0, 0)]


def test_kim_two_rows_share_one_column_q2(field):
    m = build_kim_matrix(field(2))
    r1 = m.bits.rows[labels(m.row_labels).index((0, 0, 0))]
    r2 = m.bits.rows[labels(m.row_labels).index((1, 0, 0))]
    common = r1 & r2
    assert common.bit_count() == 1
    assert labels(m.col_labels)[common.bit_length() - 1] == (0, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_kim_weights(field, q):
    m = build_kim_matrix(field(q))
    assert m.bits.row_weights() == [q] * q**3
    assert col_weights(m.bits) == [q] * q**3


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
    assert col_weights(m.bits) == [3] * 15


def test_p1l1_shape_and_weights_q2(matrix):
    m = matrix(2, "p1l1")
    assert m.n_rows == m.n_cols == 8
    assert m.bits.row_weights() == [2] * 8
    assert col_weights(m.bits) == [2] * 8


def restricted_submatrix_check(Q) -> bool:
    """The restricted matrix really is the (P1, L1) submatrix of the full one."""
    rs = Q.restricted_sets
    pl = build_incidence(Q, "pl")
    p1l1 = build_incidence(Q, "p1l1")
    sub = restrict_rows([pl.bits.rows[p] for p in rs.P1], rs.L1)
    return sub == p1l1.bits.rows


@pytest.mark.parametrize("q", [2, 3, 4])
def test_p1l1_is_submatrix_of_pl(quad, q):
    assert restricted_submatrix_check(quad(q))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_l1_columns_lose_one_point_outside_p1(quad, matrix, q):
    # a line missing ell0 meets the perp of p0 in exactly one point
    Q = quad(q)
    rs = Q.restricted_sets
    pl = matrix(q, "pl")
    p1 = set(rs.P1)
    for l in rs.L1:
        outside = [p for p in Q.line_pts[l].tolist() if p not in p1]
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
    stacked = Q.chi_lines(sel.X0 + sel.Y + sel.Z)
    assert rank2(stacked) == 2 * q + len(sel.Z)


@pytest.mark.parametrize("q", [q for q in ALL_Q if q % 2 == 0])
def test_selection_ranks_equal_the_ranks_of_the_lines(quad, matrix, monkeypatch, q):
    # rank(X0 u Z) and rank(X0 u Z u Y) from the head and X0 alone,
    # against an elimination of the lines themselves
    Q = quad(q)
    sel = select_Z(matrix(q, "p1l1"), Q)
    calls = count_eliminations(monkeypatch)
    ranks = selection_ranks(Q, sel)
    assert calls == [(q, False)]
    assert ranks == (
        rank2(Q.chi_lines(sel.X0 + sel.Z)), rank2(Q.chi_lines(sel.X0 + sel.Z + sel.Y))
    )


@pytest.mark.parametrize("change, message", [
    # the last Z line swapped for the first L1 line outside Z, whose
    # restricted column lies in the span of the Z columns before it
    (lambda sel, out: dict(Z=sel.Z[:-1] + out[:1]), "span(Z u X0) differs from span(L1 u X0)"),
    # ... or for the last, which keeps the restricted columns a basis
    (lambda sel, out: dict(Z=sel.Z[:-1] + out[-1:]), None),
    (lambda sel, out: dict(Z=sel.Z[:-1] + sel.Z[:1]), "span(Z u X0) differs from span(L1 u X0)"),
    # X0's lines have points in P1
    (lambda sel, out: dict(X0=sel.Y, Y=sel.X0), "span(Z u X0) differs from span(L1 u X0)"),
])
def test_a_failed_premise_takes_the_exact_ranks(quad, matrix, monkeypatch, change, message):
    # the ranks then come from an elimination of X0, Z, Y, and the
    # outcome is what that elimination always gave
    Q = quad(4)
    sel = select_Z(matrix(4, "p1l1"), Q)
    out = tuple(l for l in Q.restricted_sets.L1 if l not in sel.Z)
    bad = dataclasses.replace(sel, **change(sel, out))
    calls = count_eliminations(monkeypatch)
    if message is None:
        rep = verify_spanning(Q, bad)
        assert (rep.dim_pl, rep.dim_p1l1, rep.ok) == (50, 42, True)
    else:
        with pytest.raises(SpanMismatchError) as exc:
            verify_spanning(Q, bad)
        assert (str(exc.value), exc.value.line) == (message, None)
    assert (8 + 42, False) in calls


def test_select_z_is_deterministic(quad, matrix):
    Q = quad(2)
    m = matrix(2, "p1l1")
    assert select_Z(m, Q) == select_Z(m, Q)


@pytest.mark.parametrize("q", ALL_Q)
def test_shared_elimination_selects_the_restricted_pivots(quad, matrix, q):
    # Z from the elimination of L1, X0 and Y is the set of pivot columns
    # of the restricted matrix eliminated on its own
    Q = quad(q)
    m = matrix(q, "p1l1")
    L1 = Q.restricted_sets.L1
    pivot_cols = ReducedEchelon(m.n_rows).add(transpose(m.bits).words)
    assert select_Z(m, Q).Z == tuple(L1[j] for j in pivot_cols)


def test_select_z_follows_the_matrix_passed_in(quad, matrix):
    # |Z| is the rank of the given matrix: with column 0 made a unit
    # vector the rank is 43, and 2q + 43 lines cannot be independent in
    # the 50-dimensional code
    Q = quad(4)
    p1l1 = matrix(4, "p1l1")
    bad = p1l1
    for row in range(p1l1.n_rows):
        if (row == 0) != (0 in p1l1.cols[row]):
            bad = flip(bad, row, 0)
    assert (bad.cols == 0).sum() == 1 and 0 in bad.cols[0]
    assert rank2(bad.bits) == rank2(p1l1.bits) + 1 == 43
    with pytest.raises(SpanMismatchError, match="X0 u Y u Z has rank 50, expected 51"):
        select_Z(bad, Q)


def flip(m, row, col):
    """m with entry (row, col) flipped in its index rows: a 1 becomes
    -1 padding, a 0 an extra column, the other rows padded with -1."""
    cols = m.cols.copy()
    hit = cols[row] == col
    if hit.any():
        cols[row, hit] = -1
    else:
        cols = np.concatenate([np.full((m.n_rows, 1), -1, cols.dtype), cols], axis=1)
        cols[row, 0] = col
    return dataclasses.replace(m, cols=np.sort(cols, axis=1))


def swap_columns_01(m):
    """m with its columns 0 and 1 swapped, as index rows."""
    swap = np.array([1, 0, *range(2, m.n_cols)], np.int32)
    return dataclasses.replace(m, cols=np.sort(swap[m.cols], axis=1))


def test_rows_from_another_matrix_take_the_exact_ranks(quad, matrix, monkeypatch):
    # with columns 0 and 1 swapped the L1 rows are not the lines' own,
    # so the independence rank comes from an elimination of X0, Z, Y
    Q = quad(4)
    p1l1 = matrix(4, "p1l1")
    swapped = swap_columns_01(p1l1)
    calls = count_eliminations(monkeypatch)
    sel = select_Z(swapped, Q)
    assert not sel.head.own_rows
    assert sel.Z == select_Z(p1l1, Q).Z
    assert (8 + 42, False) in calls


def test_spanning_from_rows_of_another_matrix_checks_the_lines(quad, matrix):
    # the swapped columns pick the true Z, so the spans are those of the
    # lines themselves; the selection's elimination of the swapped rows
    # is not theirs and is not reused
    Q = quad(4)
    p1l1 = matrix(4, "p1l1")
    swapped = swap_columns_01(p1l1)
    got = verify_spanning(Q, select_Z(swapped, Q))
    want = verify_spanning(Q, select_Z(p1l1, Q))
    assert (got.dim_pl, got.dim_p1l1, got.kernel, got.dim_ker_pl1) == (
        want.dim_pl, want.dim_p1l1, want.kernel, want.dim_ker_pl1
    )


def count_eliminations(monkeypatch):
    """Record (rows, continued) for every batch of rows eliminated in
    lu3q, each ``ReducedEchelon.add`` call: continued when the basis
    already has rows (a continuation, or a copy of one)."""
    calls = []
    original = ReducedEchelon.add

    def counting(self, words):
        calls.append((len(words), bool(self.cols)))
        return original(self, words)

    monkeypatch.setattr(ReducedEchelon, "add", counting)
    return calls


@pytest.mark.parametrize("rebuild, fresh", [
    (lambda sel: sel, [4]),
    (lambda sel: type(sel)(sel.X, sel.X0, sel.Y, sel.Z), [64 + 8, 4]),
    (lambda sel: dataclasses.replace(sel, Y=sel.Y[::-1]), [64 + 8, 4]),
    (lambda sel: dataclasses.replace(sel, X0=sel.X0[::-1]), [64 + 8, 4]),
])
def test_selection_without_matching_eliminations_is_eliminated_afresh(
    quad, matrix, monkeypatch, rebuild, fresh
):
    # the head is L1, X0, Y; the 4 rows are X0 alone, for rank(X0 u Z)
    Q = quad(4)
    sel = rebuild(select_Z(matrix(4, "p1l1"), Q))
    calls = count_eliminations(monkeypatch)
    rep = verify_spanning(Q, sel)
    assert (rep.dim_pl, rep.dim_p1l1, rep.ok) == (50, 42, True)
    assert [n for n, continued in calls if not continued] == fresh
    assert 8 + 42 not in fresh  # no elimination of X0, Z, Y
    # every line outside L1, X0 and Y continues the head, and the
    # all-ones vector and ell0 test membership
    assert [n for n, continued in calls if continued] == [85 - 8 - 64, 2]


@pytest.mark.parametrize("ones_out, ell0_out, message", [
    (True, True, "all-ones vector escapes"),
    (True, False, "all-ones vector escapes"),
    (False, True, "ell0 escapes"),
])
def test_membership_failure_names_the_first_vector_outside(
    quad, matrix, monkeypatch, ones_out, ell0_out, message
):
    # single points stand in for the all-ones vector and ell0, the two
    # rows of the membership continuation: no word of C(P,L) has weight
    # 1, so each is outside the span
    Q = quad(4)
    sel = select_Z(matrix(4, "p1l1"), Q)
    add = ReducedEchelon.add

    def standing_in(self, words):
        if len(words) == 2:
            words = words.copy()
            if ones_out:
                words[0] = BitMatrix([0b01], Q.n_points).words[0]
            if ell0_out:
                words[1] = BitMatrix([0b10], Q.n_points).words[0]
        return add(self, words)

    monkeypatch.setattr(ReducedEchelon, "add", standing_in)
    with pytest.raises(SpanMismatchError, match=message) as exc:
        verify_spanning(Q, sel)
    assert exc.value.line == (None if ones_out else Q.ell0)


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


@pytest.mark.parametrize("q", [2, 4, 8, pytest.param(16, marks=pytest.mark.slow)])
def test_spanning_kernel_equals_the_restriction_reference(quad, matrix, q):
    # the kernel read off the span elimination, against the canonical
    # basis of the line code projected onto P1 (about 6 s at q=16)
    Q = quad(q)
    rs = Q.restricted_sets
    rep = verify_spanning(Q, select_Z(matrix(q, "p1l1"), Q))
    code = line_code(Q)
    code_l1 = Subspace.span(Q.chi_lines(rs.L1))
    assert (rep.dim_ker_pl, rep.dim_ker_pl1) == (
        kernel_intersection_dim(code, rs.P1),
        kernel_intersection_dim(code_l1, rs.P1),
    ) == (q + 1, q - 1)
    reference = kernel_intersection_basis(code, rs.P1)
    assert Subspace.span(rep.kernel) == Subspace.span(reference)


@pytest.mark.parametrize("q", [2, 4])
def test_spanning_with_randomized_y(quad, matrix, q):
    # the choice of Y is free: rerun the span checks with a different
    # valid Y (largest-index rule instead of smallest)
    Q = quad(q)
    sel = select_Z(matrix(q, "p1l1"), Q)
    alt_y = []
    for p in sorted(Q.line_points(Q.ell0) - {Q.p0}):
        alt_y.append(max(l for l in Q.point_lines[p].tolist() if l != Q.ell0))
    alt = type(sel)(sel.X, sel.X0, tuple(alt_y), sel.Z)
    rep = verify_spanning(Q, alt)
    assert rep.ok


def test_spanning_without_y_reports_first_escaping_line(quad, matrix):
    Q = quad(4)
    sel = dataclasses.replace(select_Z(matrix(4, "p1l1"), Q), Y=())
    rs = Q.restricted_sets
    span = Subspace.span(Q.chi_lines(sel.X0 + rs.L1))
    first = next(l for l in range(Q.n_lines) if not span.contains(Q.chi_lines([l]).words[0]))
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


@pytest.mark.slow  # about 23 s
def test_kim_rank_q32(field):
    assert rank2(build_kim_matrix(field(32)).bits) == predict(32).rank_p1l1 == 12186


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_corollary_gap_equality(quad, matrix, q):
    # q^3 - rank(PL) + 2q == q^3 - rank(P1L1), i.e. the bound holds with
    # equality for even and odd q alike
    pl_rank = rank2(matrix(q, "pl").bits)
    p1l1_rank = rank2(matrix(q, "p1l1").bits)
    assert pl_rank - p1l1_rank == 2 * q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_kim_coordinate_map_is_an_exact_permutation(quad, matrix, q):
    Q = quad(q)
    kim, p1l1 = matrix(q, "kim"), matrix(q, "p1l1")
    rep = check_kim_equivalence(Q, kim, p1l1)
    rp, cp = rep.row_perm, rep.col_perm
    assert sorted(rp) == list(range(q**3))
    assert sorted(cp) == list(range(q**3))
    # the point map is the stated formula (a,b,c) -> <(c, b, -a, 1)>
    for (a, b, c), i in zip(kim.row_labels.tolist(), rp):
        assert tuple(p1l1.row_labels[i].tolist()) == canonical(Q.F, (c, b, Q.F.neg(a), 1))
    dense_kim, dense_p1l1 = kim.bits.to_numpy(), p1l1.bits.to_numpy()
    assert np.array_equal(dense_kim, dense_p1l1[np.ix_(rp, cp)])


@pytest.mark.parametrize("row, col", [(0, 0), (5, 3), (63, 63)])
def test_kim_coordinate_map_rejects_a_flipped_bit(quad, matrix, row, col):
    bad = flip(matrix(4, "p1l1"), row, col)
    with pytest.raises(EquivalenceMismatchError, match="does not map onto"):
        check_kim_equivalence(quad(4), matrix(4, "kim"), bad)


@pytest.mark.parametrize("q, row, col", [(4, 0, 0), (4, 5, 3), (4, 63, 63), (16, 3000, 7)])
def test_kim_coordinate_map_rejects_a_flipped_bit_in_kim(quad, matrix, q, row, col):
    # the flip changes the row's weight, which the row comparison must
    # report like any other difference
    kim = matrix(q, "kim")
    bad = flip(kim, row, col)
    label = re.escape(f"kim row {labels(kim.row_labels)[row]} does not map onto p1l1 row ")
    with pytest.raises(EquivalenceMismatchError, match=label):
        check_kim_equivalence(quad(q), bad, matrix(q, "p1l1"))


def test_kim_coordinate_map_names_a_row_whose_padding_would_wrap(quad, matrix):
    # with its last column, 63, cleared to -1 a kim row would map as
    # before if the -1 indexed the line map's last entry
    kim = matrix(4, "kim")
    row = int(np.flatnonzero((kim.cols == 63).any(axis=1))[0])
    bad = flip(kim, row, 63)
    assert bad.cols.shape == kim.cols.shape and -1 in bad.cols[row]
    rep = check_kim_equivalence(quad(4), kim, matrix(4, "p1l1"))
    message = (
        f"kim row {labels(kim.row_labels)[row]} does not map onto p1l1 row {rep.row_perm[row]}"
    )
    with pytest.raises(EquivalenceMismatchError) as exc:
        check_kim_equivalence(quad(4), bad, matrix(4, "p1l1"))
    assert str(exc.value) == message


def test_verify_ranks_come_from_one_elimination(monkeypatch):
    # rank(p1l1) = |Z|, rank(kim) by the verified map, rank(pl) from
    # verify_spanning: no rank2 call is left, and the spans group runs
    # one large elimination, L1, X0, Y (continued with the rest), and X0
    # alone in select_Z and in verify_spanning; no elimination of X0, Z, Y
    import sys

    import lu3q.gf2
    from lu3q.verify import run_checks

    calls = []
    original = lu3q.gf2.rank2

    def counting(m):
        calls.append(m)
        return original(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("lu3q") and getattr(mod, "rank2", None) is original:
            monkeypatch.setattr(mod, "rank2", counting)
    eliminations = count_eliminations(monkeypatch)
    outcomes = run_checks(8, {"spans", "iso", "rank"})
    assert [o.status for o in outcomes] == ["PASS"] * 6
    assert calls == []
    assert eliminations == [
        (512 + 16, False), (8, False), (585 - 16 - 512, True), (2, True), (8, False)
    ]
    assert (16 + 282, False) not in eliminations


def test_kernel_group_adds_no_elimination(monkeypatch):
    # the kernel comes from the spans group's elimination: with the
    # kernel group the run eliminates the same batches of rows, and
    # runs no rref or nullspace either
    from lu3q.verify import run_checks

    calls = count_eliminations(monkeypatch)
    run_checks(8, {"spans"})
    spans_only = list(calls)
    outcomes = run_checks(8, {"spans", "kernel"})
    assert [o.status for o in outcomes] == ["PASS"] * 3
    assert spans_only == [
        (512 + 16, False), (8, False), (585 - 16 - 512, True), (2, True), (8, False)
    ]
    assert calls[len(spans_only):] == spans_only


def test_failed_span_check_fails_the_kernel_rows(monkeypatch):
    import lu3q.verify

    def raising(*args):
        raise SpanMismatchError("forced failure")

    monkeypatch.setattr(lu3q.verify, "verify_spanning", raising)
    rows = [(o.group, o.status, o.detail)
            for o in lu3q.verify.run_checks(2, {"kernel", "poly"})]
    assert rows[0] == ("kernel", "FAIL", "forced failure")
    assert rows[-2:] == [("poly", "FAIL", "forced failure")] * 2
    assert [status for _, status, _ in rows[1:-2]] == ["PASS"] * 3


def test_verify_reports_failed_sources_as_rows(monkeypatch):
    # a failed selection or map gives FAIL rows, and the ranks fall back
    # to eliminating each matrix
    import lu3q.verify

    def fail(error):
        def raising(*args):
            raise error("forced failure")
        return raising

    monkeypatch.setattr(lu3q.verify, "select_Z", fail(SpanMismatchError))
    monkeypatch.setattr(lu3q.verify, "check_kim_equivalence", fail(EquivalenceMismatchError))
    rows = [(o.group, o.status, o.detail)
            for o in lu3q.verify.run_checks(4, {"spans", "iso", "rank"})]
    assert rows == [
        ("spans", "FAIL", "forced failure"),
        ("iso", "FAIL", "rank 42 vs 42; forced failure"),
        ("rank", "PASS", "rank 50, predicted 50"),
        ("rank", "PASS", "rank 42, predicted 42"),
        ("rank", "PASS", "rank 42, predicted 42"),
    ]


VERIFY_RANK_ROWS = {
    3: (
        "[    rank] computed rank of pl matches the closed form    PASS          "
        "the rank formulas  (rank 25, predicted 25)\n"
        "[    rank] computed rank of p1l1 matches the closed form  PASS          "
        "the rank formulas  (rank 19, predicted 19)\n"
        "[    rank] computed rank of kim matches the closed form   PASS          "
        "the rank formulas  (rank 19, predicted 19)\n"
        "verify q=3: OK\n"
    ),
    8: (
        "[    rank] computed rank of pl matches the closed form    PASS          "
        "the rank formulas  (rank 298, predicted 298)\n"
        "[    rank] computed rank of p1l1 matches the closed form  PASS          "
        "the rank formulas  (rank 282, predicted 282)\n"
        "[    rank] computed rank of kim matches the closed form   PASS          "
        "the rank formulas  (rank 282, predicted 282)\n"
        "verify q=8: OK\n"
    ),
}


@pytest.mark.parametrize("q", [3, 8])
def test_verify_rank_rows_alone(capsys, q):
    # the rank group on its own computes the selection, the spanning
    # report and the map itself; its rows stay byte for byte the same
    from lu3q.cli import main

    assert main(["verify", "--q", str(q), "--checks", "rank"]) == 0
    assert capsys.readouterr().out == VERIFY_RANK_ROWS[q]


def test_build_incidence_rejects_unknown_system(quad):
    with pytest.raises(ValueError):
        build_incidence(quad(2), "nope")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_constructed_matrix_rank_equals_transpose_rank(matrix, q):
    for system in ("pl", "p1l1", "kim"):
        m = matrix(q, system).bits
        assert rank2(m) == rank2(transpose(m))


def test_ell0_restricts_to_zero(quad):
    for q in (2, 4):
        Q = quad(q)
        rs = Q.restricted_sets
        assert restrict_vector(Q.chi_lines([Q.ell0]).rows[0], rs.P1) == 0


@pytest.mark.parametrize("q", [2, 4, 8])
def test_difference_vectors_span_restricted_kernel(quad, q):
    # the q-1 sums chi_l + chi_l' over lines through p0 (l fixed, l'
    # varying, both != ell0) are independent, lie in the restricted
    # code, vanish off the perp, and therefore span the q-1 dimensional
    # kernel piece
    Q = quad(q)
    rs = Q.restricted_sets
    n = Q.n_points
    code_pl1 = Subspace.span(Q.chi_lines(rs.L1))
    through = [l for l in Q.point_lines[Q.p0].tolist() if l != Q.ell0]
    fixed, *others = Q.chi_lines(through).rows
    vecs = [fixed ^ other for other in others]
    assert len(vecs) == q - 1
    assert rank2(BitMatrix(vecs, n)) == q - 1
    for v in vecs:
        assert code_pl1.contains(BitMatrix([v], n).words[0])
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

"""Incidence matrices of the three systems and the spanning machinery.

Three square 0/1 matrices are built here:

  * ``pl``   -- points of the quadrangle against all isotropic lines,
                side q^3+q^2+q+1, all weights q+1;
  * ``p1l1`` -- the submatrix on points off the distinguished perp and
                lines missing the distinguished line, side q^3, weights q;
  * ``kim``  -- the two-equation digitized system on triples (a,b,c)
                against triples [x,y,z], incident iff y = ax+b and
                z = ay+c, side q^3, weights q.

Each is stored as index rows, row i listing the columns of its 1s in
ascending order, from the quadrangle's index arrays (kim's from the
field tables); bits are packed only for an elimination.

The module also selects the line set Z mapping to a pivot basis of the
restricted code, verifies the span identities relating X0, Y, Z, L1 to
the full code, reads off the restriction kernel, and checks the
explicit coordinate map that carries the digitized system onto the
restricted one.  The span checks share one ``gf2.ReducedEchelon``
elimination over the points, ordered with p0's perp first and P1
after it: L1, X0 and Y, whose L1 rows with a pivot in P1 are Z, and a
copy of which ``verify_spanning`` continues with the remaining lines,
then the all-ones vector and ell0 to test their membership.  The ranks
of X0 u Z and X0 u Z u Y are read off it and a q-row elimination of X0
(``selection_ranks``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from lu3q.fields import GF
from lu3q.gf2 import BitMatrix, ReducedEchelon, pack_indices, pack_pairs
from lu3q.geometry import Quadrangle


class SpanMismatchError(AssertionError):
    """A span identity failed; carries the offending line index."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class EquivalenceMismatchError(RuntimeError):
    """The coordinate map fails to carry kim onto p1l1."""


@dataclass
class IncidenceMatrix:
    """Index rows: ``cols`` (n_rows, weight) int32, row i the ascending
    columns of its 1s, -1 padding a lighter row.  Labels are arrays, a
    row per object: (a,b,c) for kim, points and line bases for pl and
    p1l1.  ``bits`` packs the rows for the readers that need words."""

    cols: np.ndarray
    n_cols: int
    row_labels: np.ndarray
    col_labels: np.ndarray
    system: str  # "pl", "p1l1" or "kim"

    @property
    def n_rows(self) -> int:
        return len(self.cols)

    @cached_property
    def bits(self) -> BitMatrix:
        return BitMatrix(pack_indices(self.cols, self.n_cols), self.n_cols)


@dataclass(frozen=True)
class Elimination:
    """A highest-bit elimination of line vectors in which point p is
    bit col[p]: the elimination of ``lines`` and the indices of the
    lines it took, whose pivots are ``echelon.cols`` in the same order.
    ``own_rows`` is False when some rows were built from a matrix that
    is not the lines' incidence (``select_Z`` builds the L1 rows from
    the index rows of the matrix passed in)."""

    col: np.ndarray
    lines: tuple[int, ...]
    echelon: ReducedEchelon
    taken: list[int]
    own_rows: bool = True


@dataclass(frozen=True)
class LineSetSelection:
    """X0, Y and the selected Z, with the elimination ``select_Z`` ran
    (L1, X0, Y) for ``selection_ranks`` and ``verify_spanning`` to
    reuse.  A selection built by hand has none and is eliminated
    afresh."""

    X: tuple[int, ...]
    X0: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    head: Elimination | None = field(default=None, compare=False, repr=False)


@dataclass
class SpanningReport:
    """The span dimensions, and the restriction kernel: the vectors that
    vanish on P1, inside C(P,L) (``kernel`` is a basis, one row each,
    point p at bit p) and inside C(P,L1)."""

    q: int
    dim_pl: int
    dim_p1l1: int
    ones_sum_identity: bool
    kernel: BitMatrix
    dim_ker_pl1: int

    @property
    def dim_ker_pl(self) -> int:
        return self.kernel.n_rows

    @property
    def ok(self) -> bool:
        """Every identity holds; ``verify_spanning`` raises on the others."""
        return self.ones_sum_identity


@dataclass
class EquivalenceReport:
    """kim row i is p1l1 row row_perm[i]; kim column j is p1l1 column
    col_perm[j]."""

    row_perm: list[int]
    col_perm: list[int]


def build_kim_matrix(F: GF) -> IncidenceMatrix:
    """The q^3 x q^3 system: (a,b,c) ~ [x,y,z] iff y = ax+b, z = ay+c.

    Row (a,b,c) lists column (x*q + y)*q + z for each x, ascending with
    x, the columns coming from the field tables."""
    q = F.q
    T = F.tables
    labels = np.indices((q, q, q), np.int32).reshape(3, -1).T
    a, b, c = labels.T[..., None]
    x = np.arange(q, dtype=np.int32)
    y = T.add[T.mul[a, x], b]
    z = T.add[T.mul[a, y], c]
    return IncidenceMatrix((x * q + y) * q + z, q**3, labels, labels, "kim")


def build_incidence(Q: Quadrangle, system: str) -> IncidenceMatrix:
    """Point-by-line index rows for the full or the restricted system."""
    if system == "kim":
        return build_kim_matrix(Q.F)
    if system == "pl":
        points, lines = np.arange(Q.n_points), np.arange(Q.n_lines)
        cols = Q.point_lines
    elif system == "p1l1":
        points, lines = np.array(Q.restricted_sets.P1), np.array(Q.restricted_sets.L1)
        col_of = np.full(Q.n_lines, -1, np.int32)  # -1 marks the lines outside L1
        col_of[lines] = np.arange(len(lines))
        # one line through each point of P1 lies outside L1: its -1 sorts first
        cols = np.sort(col_of[Q.point_lines[points]], axis=1)[:, 1:]
    else:
        raise ValueError(f"unknown system {system!r}")
    return IncidenceMatrix(cols, len(lines), Q.points[points], Q.bases[lines], system)


def _point_columns(Q: Quadrangle, P1: tuple[int, ...]) -> np.ndarray:
    """The bit of each point in the span eliminations: the points of
    p0's perp in index order, then P1[i] at bit |perp| + i."""
    in_p1 = np.zeros(Q.n_points, dtype=bool)
    in_p1[list(P1)] = True
    col = np.empty(Q.n_points, dtype=np.intp)
    col[np.concatenate([np.flatnonzero(~in_p1), P1])] = np.arange(Q.n_points)
    return col


def _line_rows(Q: Quadrangle, col: np.ndarray, lines: Sequence[int]) -> np.ndarray:
    """The words of the characteristic vector of each line, point p at
    bit col[p]."""
    return pack_indices(col[Q.line_pts[np.asarray(lines, dtype=np.intp)]], Q.n_points)


def _eliminate(Q: Quadrangle, col: np.ndarray, lines: tuple[int, ...]) -> Elimination:
    echelon = ReducedEchelon(Q.n_points)
    return Elimination(col, lines, echelon, echelon.add(_line_rows(Q, col, lines)))


def _restricted_pivots(head: Elimination, n_l1: int, split: int) -> tuple[int, ...]:
    """The lines among the first n_l1 of ``head`` whose rows took a
    pivot at bit ``split`` or above, in P1."""
    return tuple(
        head.lines[i] for i, c in zip(head.taken, head.echelon.cols) if i < n_l1 and c >= split
    )


def select_Z(m_p1l1: IncidenceMatrix, Q: Quadrangle) -> LineSetSelection:
    """Z = lines of L1 whose restricted columns are elimination pivots.

    These are the columns of the restricted matrix outside the span of
    the columns before them.  One highest-bit elimination of L1, then
    X0 and Y, finds them: with p0's perp at the low bits, each L1 line
    has its q points of P1 in the high bits and one point of the perp,
    so an L1 row's P1 part reduces exactly as its restricted column
    would and takes a pivot iff that column is outside the span.  The
    P1 parts are the columns of ``m_p1l1``, so |Z| is its rank.  X0, Z
    and Y must then be linearly independent, which ``selection_ranks``
    reads off the same elimination when its L1 rows are the lines' own
    rows, as they are when ``m_p1l1`` is the restricted matrix of Q.
    """
    rs = Q.restricted_sets
    col = _point_columns(Q, rs.P1)
    split = Q.n_points - len(rs.P1)
    # L1 line j has the 1s of column j of m_p1l1 above P1's split, and
    # its perp point at the lowest bit; the X0 and Y rows follow
    n = len(rs.L1)
    p1, k = np.nonzero(m_p1l1.cols >= 0)
    l1 = m_p1l1.cols[p1, k]
    own = col[Q.line_pts[list(rs.L1)]]  # the bits of each L1 line
    r, c = np.concatenate([l1, np.arange(n)]), np.concatenate([split + p1, own.min(axis=1)])
    # the L1 rows are the lines' own rows iff they hold the same bits
    own_rows = np.array_equal(
        np.sort(r * Q.n_points + c), np.sort((np.arange(n)[:, None] * Q.n_points + own).ravel())
    )
    rows = pack_pairs(r, c, n + len(rs.X0) + len(rs.Y), Q.n_points)
    del p1, k, l1, own, r, c  # the index arrays are not held through the elimination
    rows[n:] = _line_rows(Q, col, rs.X0 + rs.Y)
    echelon = ReducedEchelon(Q.n_points)
    head = Elimination(col, rs.L1 + rs.X0 + rs.Y, echelon, echelon.add(rows), own_rows)
    Z = _restricted_pivots(head, n, split)
    sel = LineSetSelection(rs.X, rs.X0, rs.Y, Z, head)
    got = selection_ranks(Q, sel)[1]
    want = 2 * Q.q + len(Z)
    if got != want:
        raise SpanMismatchError(
            f"X0 u Y u Z has rank {got}, expected {want}"
        )
    return sel


def selection_ranks(Q: Quadrangle, sel: LineSetSelection) -> tuple[int, int]:
    """rank(X0 u Z) and rank(X0 u Z u Y), read off the selection's
    elimination of L1, X0, Y and an elimination of X0 alone.

    Every point of a line through p0 lies in p0's perp, so the X0 rows
    vanish on P1, the high bits.  Each row of Z took a pivot in P1, so
    the P1 parts of Z are independent.  The only vectors of
    span(X0 u Z) that vanish on P1 are then those of span(X0), and
    rank(X0 u Z) = rank(X0) + |Z|.  Z lies in L1, so span(X0 u Z) lies
    in span(L1 u X0), and the two are equal iff rank(X0) + |Z| is the
    prefix rank of L1 and X0.  Then rank(X0 u Z u Y) = rank(L1 u X0 u Y),
    the rank of the whole elimination.

    When a premise fails (no elimination of these L1, X0, Y from the
    lines' own rows; an X0 point in P1; Z not distinct lines whose rows
    took a pivot in P1; or the spans not equal) both ranks come from an
    elimination of X0, Z, Y.
    """
    rs = Q.restricted_sets
    n, split = len(rs.L1), Q.n_points - len(rs.P1)
    head = sel.head
    if head is None or head.lines != rs.L1 + sel.X0 + sel.Y:
        col = _point_columns(Q, rs.P1)
    else:
        col = head.col
        z = set(sel.Z)
        if (
            head.own_rows
            and len(z) == len(sel.Z)
            and z <= set(_restricted_pivots(head, n, split))
            and (col[Q.line_pts[list(sel.X0)]] < split).all()
        ):
            x0 = _line_rows(Q, col, sel.X0)
            rank_z_x0 = len(ReducedEchelon(Q.n_points).add(x0)) + len(z)
            if rank_z_x0 == bisect_left(head.taken, n + len(sel.X0)):
                return rank_z_x0, len(head.taken)
    exact = _eliminate(Q, col, sel.X0 + sel.Z + sel.Y)
    return bisect_left(exact.taken, len(sel.X0) + len(sel.Z)), len(exact.taken)


def verify_spanning(Q: Quadrangle, sel: LineSetSelection) -> SpanningReport:
    """Check every span identity tying X0, Y, Z, L1 to the full code.

    X0, Y, Z and L1 are sets of lines and Z lies in L1, so each identity
    is a containment, which holds iff two ranks are equal.  The ranks
    are prefix ranks of the elimination ``select_Z`` ran, L1, X0, Y,
    continued here with every other line, and the ranks of X0 u Z and
    X0 u Z u Y from ``selection_ranks``.  Ranks do not depend on the
    column order.  The selection's elimination is reused when it was run
    on its X0 and Y from the lines' own rows, and run afresh otherwise.

    The restriction kernel comes from the same elimination.  A vector's
    highest bit is the highest pivot of the basis rows it is made of,
    and P1 holds the high bits, so the kernel inside the span of the
    rows so far is spanned by the basis rows with a pivot below P1.
    After every line that gives the kernel inside C(P,L).  After L1 its
    dimension inside C(P,L1) is rank(L1) less the pivots in P1.

    Raises SpanMismatchError (with the first offending line) if any
    containment fails; returns the measured dimensions and the kernel
    otherwise.
    """
    rs = Q.restricted_sets
    if not set(sel.Z) <= set(rs.L1):
        raise SpanMismatchError("Z is not a subset of L1")
    head = sel.head
    if head is None or head.lines != rs.L1 + sel.X0 + sel.Y or not head.own_rows:
        head = _eliminate(Q, _point_columns(Q, rs.P1), rs.L1 + sel.X0 + sel.Y)
    col = head.col

    span = head.echelon.copy()  # the selection's elimination stays as it was
    rest = tuple(sorted(set(range(Q.n_lines)) - set(head.lines)))
    escaped = span.add(_line_rows(Q, col, rest))
    if escaped:
        # the lines before the first one taken after the head lie in
        # span(head), so it has the lowest escaping index
        l = rest[escaped[0]]
        raise SpanMismatchError(
            f"line {l} escapes the span of X0 u Y u L1", line=l
        )
    # no line after the head was taken: the basis spans exactly the head
    dim_pl = len(span.cols)
    # a vector lies in the span iff the elimination does not take it; once
    # the all-ones vector is inside, taking ell0 means ell0 is outside
    ones = pack_indices(np.arange(Q.n_points)[None], Q.n_points)
    outside = span.add(np.concatenate([ones, _line_rows(Q, col, (Q.ell0,))]))
    if 0 in outside:
        raise SpanMismatchError("all-ones vector escapes span of X0 u Y u L1")
    if outside:
        raise SpanMismatchError("ell0 escapes span of X0 u Y u L1", line=Q.ell0)

    # constructive all-ones identity: sum a line of L1 with every line
    # meeting it
    meeting = sorted(set(Q.point_lines[Q.line_pts[rs.L1[0]]].ravel().tolist()))
    total = np.bitwise_xor.reduce(_line_rows(Q, col, meeting))

    rank_z_x0, rank_all = selection_ranks(Q, replace(sel, head=head))
    if rank_z_x0 != bisect_left(head.taken, len(rs.L1) + len(sel.X0)):
        raise SpanMismatchError("span(Z u X0) differs from span(L1 u X0)")
    if rank_all != dim_pl:
        raise SpanMismatchError("Z u X0 u Y fails to span the full code")

    dim_p1l1 = len(sel.Z)
    if dim_pl != dim_p1l1 + 2 * Q.q:
        raise SpanMismatchError(
            f"dimension gap {dim_pl - dim_p1l1} is not 2q = {2 * Q.q}"
        )

    split = Q.n_points - len(rs.P1)
    low = span.basis[np.array(span.cols) < split].view(np.uint8)
    bits = np.unpackbits(low, axis=1, count=split, bitorder="little")
    perp = np.flatnonzero(col < split)  # the point of each bit below P1
    kernel = BitMatrix(pack_indices(np.where(bits, perp, -1), Q.n_points), Q.n_points)
    rank_l1 = bisect_left(head.taken, len(rs.L1))
    dim_ker_pl1 = rank_l1 - sum(c >= split for c in head.echelon.cols[:rank_l1])
    ones_sum = np.array_equal(total, ones[0])
    return SpanningReport(Q.q, dim_pl, dim_p1l1, ones_sum, kernel, dim_ker_pl1)


# -- permutation equivalence of the digitized and geometric systems --------


def check_kim_equivalence(
    Q: Quadrangle, kim: IncidenceMatrix, p1l1: IncidenceMatrix
) -> EquivalenceReport:
    """Carry kim onto p1l1 by the coordinate map and check every entry.

    With the form of ``lu3q.geometry`` and p0 = <(1,0,0,0)>, P1 is the
    set of points <(c, b, -a, 1)> and L1 the set of lines through
    <(y, x, 1, 0)> and <(z, y, 0, 1)>.  The point is -a(y,x,1,0) +
    (z,y,0,1) on that line iff y = ax + b and z = ay + c, which is the
    kim incidence of (a,b,c) and [x,y,z].  The check confirms that both
    maps are bijections onto P1 and L1 and that every kim row maps
    exactly onto its p1l1 row.

    Raises EquivalenceMismatchError on any failure.
    """
    rs = Q.restricted_sets
    n = len(rs.P1)
    if not (kim.n_rows, kim.n_cols) == (p1l1.n_rows, p1l1.n_cols) == (n, n):
        raise EquivalenceMismatchError("systems have different shapes")
    T = Q.F.tables
    a, b, c = kim.row_labels.T
    x, y, z = kim.col_labels.T
    one, zero = np.ones_like(a), np.zeros_like(a)
    row_of = np.full(Q.n_points, -1)  # -1 off P1, and off L1 below
    row_of[list(rs.P1)] = np.arange(n)
    col_of = np.full(Q.n_lines, -1)
    col_of[list(rs.L1)] = np.arange(n)
    row_perm = row_of[Q.point_of(np.stack([c, b, T.neg[a], one], axis=1))]
    try:
        lines = Q.line_through(
            Q.point_of(np.stack([y, x, one, zero], axis=1)),
            Q.point_of(np.stack([z, y, zero, one], axis=1)),
        )
    except ValueError as exc:
        raise EquivalenceMismatchError(f"coordinate map undefined: {exc}") from exc
    col_perm = col_of[lines]
    # n images, so covering all n indices makes each map a bijection
    if not np.array_equal(np.sort(row_perm), np.arange(n)):
        raise EquivalenceMismatchError("the point map is not a bijection onto P1")
    if not np.array_equal(np.sort(col_perm), np.arange(n)):
        raise EquivalenceMismatchError("the line map is not a bijection onto L1")
    # kim row i, its column j at col_perm[j], must equal p1l1 row
    # row_perm[i].  Sorted, the -1 padding (kept off col_perm's last
    # entry) comes first: rows of equal weight agree iff their last w do
    got = np.sort(np.where(kim.cols < 0, -1, col_perm[kim.cols]), axis=1)
    want = np.sort(p1l1.cols[row_perm], axis=1)
    w = min(got.shape[1], want.shape[1])
    differs = ((got >= 0).sum(axis=1) != (want >= 0).sum(axis=1)) | (
        got[:, got.shape[1] - w :] != want[:, want.shape[1] - w :]
    ).any(axis=1)
    if differs.any():
        i = int(np.argmax(differs))
        raise EquivalenceMismatchError(
            f"kim row {tuple(kim.row_labels[i].tolist())} does not map onto "
            f"p1l1 row {row_perm[i]}"
        )
    return EquivalenceReport(row_perm.tolist(), col_perm.tolist())

"""Incidence matrices of the three systems and the spanning machinery.

Three square bit matrices are built here:

  * ``pl``   -- points of the quadrangle against all isotropic lines,
                side q^3+q^2+q+1, all weights q+1;
  * ``p1l1`` -- the submatrix on points off the distinguished perp and
                lines missing the distinguished line, side q^3, weights q;
  * ``kim``  -- the two-equation digitized system on triples (a,b,c)
                against triples [x,y,z], incident iff y = ax+b and
                z = ay+c, side q^3, weights q.

kim is built from the field's lookup tables, one slab of fixed a at a
time.

The module also selects the line set Z mapping to a pivot basis of the
restricted code, verifies the span identities relating X0, Y, Z, L1 to
the full code, and checks the explicit coordinate map that carries the
digitized system onto the restricted one.  The span checks share two
eliminations over the points, ordered with p0's perp first and P1
after it: X0 then L1, whose rows with a pivot in P1 are Z and which
``verify_spanning`` continues with Y and the remaining lines; and X0,
Z, Y.  ``select_Z`` runs both and leaves them on the selection.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from lu3q.fields import GF
from lu3q.gf2 import (
    BitMatrix,
    echelon,
    in_echelon,
    ones_vector,
    restrict_rows,
)
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
    """Bit matrix plus label maps back to the indexed objects."""

    bits: BitMatrix
    row_labels: list
    col_labels: list
    system: str  # "pl", "p1l1" or "kim"

    @property
    def n_rows(self) -> int:
        return self.bits.n_rows

    @property
    def n_cols(self) -> int:
        return self.bits.n_cols


@dataclass(frozen=True)
class Elimination:
    """A highest-bit elimination of line vectors in which point p is
    bit col[p]: ``echelon``'s basis and taken rows for ``lines``."""

    col: list[int]
    lines: tuple[int, ...]
    pivots: dict[int, int]
    taken: list[int]


@dataclass(frozen=True)
class LineSetSelection:
    """X0, Y and the selected Z, with the eliminations ``select_Z`` ran
    (X0 then L1; X0, Z, Y) for ``verify_spanning`` to reuse.  A
    selection built by hand has none and is eliminated afresh."""

    X: tuple[int, ...]
    X0: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    head: Elimination | None = field(default=None, compare=False, repr=False)
    independent: Elimination | None = field(default=None, compare=False, repr=False)


@dataclass
class SpanningReport:
    q: int
    dim_pl: int
    dim_p1l1: int
    ones_sum_identity: bool

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

    Rows are built one slab of fixed a at a time from the field tables:
    row (a,b,c) sets column (x*q + y)*q + z for each x, packed into bytes
    and read back as an int."""
    q = F.q
    n = q**3
    labels = list(itertools.product(range(q), repeat=3))
    T = F.tables
    x = np.arange(q, dtype=np.int32)
    width = (n + 7) // 8
    slab_rows = np.repeat(np.arange(q * q, dtype=np.int32), q)  # row (b, c)
    rows: list[int] = []
    for a in range(q):
        y = T.add[T.mul[a, x][None, :], x[:, None]]  # y[b, x] = ax + b
        z = T.add[T.mul[a, y][:, None, :], x[None, :, None]]  # z[b, c, x] = ay + c
        col = ((x * q + y)[:, None, :] * q + z).reshape(-1)
        packed = np.zeros((q * q, width), dtype=np.uint8)
        np.bitwise_or.at(packed, (slab_rows, col >> 3), (1 << (col & 7)).astype(np.uint8))
        rows += [int.from_bytes(r.tobytes(), "little") for r in packed]
    return IncidenceMatrix(BitMatrix(rows, n), labels, list(labels), "kim")


def build_incidence(Q: Quadrangle, system: str) -> IncidenceMatrix:
    """Point-by-line bit matrix for the full or the restricted system."""
    if system == "kim":
        return build_kim_matrix(Q.F)
    if system == "pl":
        n = Q.n_points
        rows = [0] * n
        for l in Q.lines:
            for p in l.points:
                rows[p] |= 1 << l.index
        return IncidenceMatrix(
            BitMatrix(rows, Q.n_lines), list(Q.points),
            [l.basis for l in Q.lines], "pl",
        )
    if system == "p1l1":
        rs = Q.restricted_sets()
        col_of = {l: j for j, l in enumerate(rs.L1)}
        rows = [0] * len(rs.P1)
        for i, p in enumerate(rs.P1):
            bits = 0
            for l in Q.point_to_lines[p]:
                j = col_of.get(l)
                if j is not None:
                    bits |= 1 << j
            rows[i] = bits
        return IncidenceMatrix(
            BitMatrix(rows, len(rs.L1)),
            [Q.points[p] for p in rs.P1],
            [Q.lines[l].basis for l in rs.L1],
            "p1l1",
        )
    raise ValueError(f"unknown system {system!r}")


def _point_columns(Q: Quadrangle, P1: tuple[int, ...]) -> list[int]:
    """The bit of each point in the span eliminations: the points of
    p0's perp in index order, then P1[i] at bit |perp| + i."""
    in_p1 = set(P1)
    order = [p for p in range(Q.n_points) if p not in in_p1] + list(P1)
    col = [0] * len(order)
    for b, p in enumerate(order):
        col[p] = b
    return col


def _line_rows(Q: Quadrangle, col: list[int], lines: Iterable[int]) -> Iterator[int]:
    """The characteristic vector of each line, point p at bit col[p]."""
    for l in lines:
        v = 0
        for p in Q.lines[l].points:
            v |= 1 << col[p]
        yield v


def _eliminate(Q: Quadrangle, col: list[int], lines: tuple[int, ...]) -> Elimination:
    return Elimination(col, lines, *echelon(_line_rows(Q, col, lines)))


def select_Z(m_p1l1: IncidenceMatrix, Q: Quadrangle) -> LineSetSelection:
    """Z = lines of L1 whose restricted columns are elimination pivots.

    These are the columns of the restricted matrix outside the span of
    the columns before them.  One highest-bit elimination of X0, then
    L1, finds them: with p0's perp at the low bits, X0 has no P1 part
    and each L1 line has its q points of P1 in the high bits and one
    point of the perp, so an L1 row's P1 part reduces exactly as its
    restricted column would and takes a pivot iff that column is
    outside the span.  The P1 parts are the columns of ``m_p1l1``, so
    |Z| is its rank.  X0, Z and Y must then be linearly independent.
    """
    rs = Q.restricted_sets()
    col = _point_columns(Q, rs.P1)
    split = Q.n_points - len(rs.P1)
    perp_part = (1 << split) - 1
    l1_rows = (
        (c << split) | (v & perp_part)
        for c, v in zip(m_p1l1.bits.transpose().rows, _line_rows(Q, col, rs.L1))
    )
    head = Elimination(
        col, rs.X0 + rs.L1, *echelon(itertools.chain(_line_rows(Q, col, rs.X0), l1_rows))
    )
    # the basis lists its rows in the order they were taken
    Z = tuple(head.lines[i] for i, c in zip(head.taken, head.pivots) if c >= split)
    independent = _eliminate(Q, col, rs.X0 + Z + rs.Y)
    got = len(independent.taken)
    want = 2 * Q.q + len(Z)
    if got != want:
        raise SpanMismatchError(
            f"X0 u Y u Z has rank {got}, expected {want}"
        )
    return LineSetSelection(rs.X, rs.X0, rs.Y, Z, head, independent)


def verify_spanning(Q: Quadrangle, sel: LineSetSelection) -> SpanningReport:
    """Check every span identity tying X0, Y, Z, L1 to the full code.

    X0, Y, Z and L1 are sets of lines and Z lies in L1, so each identity
    is a containment, which holds iff two ranks are equal.  The ranks
    are prefix ranks of the two eliminations ``select_Z`` ran: X0, L1,
    continued here with Y and then every other line; and X0, Z, Y.
    Ranks do not depend on the column order.  The selection's
    eliminations are reused when they were run on its X0 (and Z, Y),
    and run afresh otherwise.

    Raises SpanMismatchError (with the first offending line) if any
    containment fails; returns the measured dimensions otherwise.
    """
    rs = Q.restricted_sets()
    if not set(sel.Z) <= set(rs.L1):
        raise SpanMismatchError("Z is not a subset of L1")
    head = sel.head
    if head is None or head.lines != sel.X0 + rs.L1:
        head = _eliminate(Q, _point_columns(Q, rs.P1), sel.X0 + rs.L1)
    col = head.col
    independent = sel.independent
    if independent is None or independent.lines != sel.X0 + sel.Z + sel.Y:
        independent = _eliminate(Q, col, sel.X0 + sel.Z + sel.Y)

    pivots = dict(head.pivots)  # the selection's basis stays as it was
    echelon(_line_rows(Q, col, sel.Y), pivots=pivots)
    rest = tuple(sorted(set(range(Q.n_lines)) - set(head.lines) - set(sel.Y)))
    _, escaped = echelon(_line_rows(Q, col, rest), pivots=pivots)
    if escaped:
        # the lines before the first one taken after the head lie in
        # span(head), so it has the lowest escaping index
        l = rest[escaped[0]]
        raise SpanMismatchError(
            f"line {l} escapes the span of X0 u Y u L1", line=l
        )
    # no line after the head was taken: pivots span exactly the head
    dim_pl = len(pivots)
    ones = ones_vector(Q.n_points)
    if not in_echelon(pivots, ones):
        raise SpanMismatchError("all-ones vector escapes span of X0 u Y u L1")
    if not in_echelon(pivots, next(_line_rows(Q, col, (Q.ell0,)))):
        raise SpanMismatchError("ell0 escapes span of X0 u Y u L1", line=Q.ell0)

    # constructive all-ones identity: sum a line of L1 with every line
    # meeting it
    l_star = rs.L1[0]
    star_pts = Q.line_points(l_star)
    total = 0
    for l in range(Q.n_lines):
        if Q.line_points(l) & star_pts:
            total ^= Q.chi_line(l)

    rank_z_x0 = bisect_left(independent.taken, len(sel.X0) + len(sel.Z))
    if rank_z_x0 != len(head.taken):
        raise SpanMismatchError("span(Z u X0) differs from span(L1 u X0)")
    if len(independent.taken) != dim_pl:
        raise SpanMismatchError("Z u X0 u Y fails to span the full code")

    dim_p1l1 = len(sel.Z)
    if dim_pl != dim_p1l1 + 2 * Q.q:
        raise SpanMismatchError(
            f"dimension gap {dim_pl - dim_p1l1} is not 2q = {2 * Q.q}"
        )
    return SpanningReport(Q.q, dim_pl, dim_p1l1, ones_sum_identity=total == ones)


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
    rs = Q.restricted_sets()
    n = len(rs.P1)
    if not (kim.n_rows, kim.n_cols) == (p1l1.n_rows, p1l1.n_cols) == (n, n):
        raise EquivalenceMismatchError("systems have different shapes")
    row_of = {p: i for i, p in enumerate(rs.P1)}
    col_of = {l: j for j, l in enumerate(rs.L1)}

    def point(v: tuple[int, int, int, int]) -> int:
        return Q.point_index[Q.canonicalize(v)]

    try:
        row_perm = [row_of.get(point((c, b, Q.F.neg(a), 1))) for a, b, c in kim.row_labels]
        col_perm = [
            col_of.get(Q.line_through(point((y, x, 1, 0)), point((z, y, 0, 1))))
            for x, y, z in kim.col_labels
        ]
    except ValueError as exc:
        raise EquivalenceMismatchError(f"coordinate map undefined: {exc}") from exc
    # n images, so covering all n indices makes each map a bijection
    if set(row_perm) != set(range(n)):
        raise EquivalenceMismatchError("the point map is not a bijection onto P1")
    if set(col_perm) != set(range(n)):
        raise EquivalenceMismatchError("the line map is not a bijection onto L1")
    for i, bits in enumerate(kim.bits.rows):
        image = 0
        while bits:
            low = bits & -bits
            image |= 1 << col_perm[low.bit_length() - 1]
            bits ^= low
        if image != p1l1.bits.rows[row_perm[i]]:
            raise EquivalenceMismatchError(
                f"kim row {kim.row_labels[i]} does not map onto p1l1 row {row_perm[i]}"
            )
    return EquivalenceReport(row_perm, col_perm)


def restricted_submatrix_check(Q: Quadrangle) -> bool:
    """The restricted matrix really is the (P1, L1) submatrix of the full one."""
    rs = Q.restricted_sets()
    pl = build_incidence(Q, "pl")
    p1l1 = build_incidence(Q, "p1l1")
    sub = restrict_rows([pl.bits.rows[p] for p in rs.P1], rs.L1)
    return sub == p1l1.bits.rows

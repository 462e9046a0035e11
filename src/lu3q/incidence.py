"""Incidence matrices of the three systems and the spanning machinery.

Three square bit matrices are built here:

  * ``pl``   -- points of the quadrangle against all isotropic lines,
                side q^3+q^2+q+1, all weights q+1;
  * ``p1l1`` -- the submatrix on points off the distinguished perp and
                lines missing the distinguished line, side q^3, weights q;
  * ``kim``  -- the two-equation digitized system on triples (a,b,c)
                against triples [x,y,z], incident iff y = ax+b and
                z = ay+c, side q^3, weights q.

The module also selects the line set Z mapping to a pivot basis of the
restricted code, verifies the span identities relating X0, Y, Z, L1 to
the full code, and checks the explicit coordinate map that carries the
digitized system onto the restricted one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from lu3q.fields import GF
from lu3q.gf2 import (
    BitMatrix,
    echelon,
    in_echelon,
    ones_vector,
    rank2,
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
class LineSetSelection:
    X: tuple[int, ...]
    X0: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]


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
    """The q^3 x q^3 system: (a,b,c) ~ [x,y,z] iff y = ax+b, z = ay+c."""
    q = F.q
    n = q**3
    rows = [0] * n
    row_labels = []
    col_labels = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                row_labels.append((a, b, c))
    for x in range(q):
        for y in range(q):
            for z in range(q):
                col_labels.append((x, y, z))
    for a in range(q):
        for b in range(q):
            for c in range(q):
                r = (a * q + b) * q + c
                bits = 0
                for x in range(q):
                    y = F.add(F.mul(a, x), b)
                    z = F.add(F.mul(a, y), c)
                    bits |= 1 << ((x * q + y) * q + z)
                rows[r] = bits
    return IncidenceMatrix(BitMatrix(rows, n), row_labels, col_labels, "kim")


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


def select_Z(m_p1l1: IncidenceMatrix, Q: Quadrangle) -> LineSetSelection:
    """Z = lines of L1 whose restricted columns are elimination pivots.

    The pivot columns of the restricted matrix's canonical RREF are the
    columns outside the span of the columns before them; the
    corresponding characteristic vectors, together with X0 and Y, must
    be linearly independent over GF(2).
    """
    rs = Q.restricted_sets()
    _, pivot_cols = echelon(m_p1l1.bits.transpose().rows)
    Z = tuple(rs.L1[j] for j in pivot_cols)
    sel = LineSetSelection(rs.X, rs.X0, rs.Y, Z)
    stacked = [Q.chi_line(l) for l in sel.X0 + sel.Y + sel.Z]
    got = rank2(stacked)
    want = 2 * Q.q + len(Z)
    if got != want:
        raise SpanMismatchError(
            f"X0 u Y u Z has rank {got}, expected {want}"
        )
    return sel


def verify_spanning(Q: Quadrangle, sel: LineSetSelection) -> SpanningReport:
    """Check every span identity tying X0, Y, Z, L1 to the full code.

    X0, Y, Z and L1 are sets of lines and Z lies in L1, so each identity
    is a containment, which holds iff two ranks are equal.  The ranks
    are prefix ranks of two eliminations: X0, L1, Y, then every other
    line; and X0, Z, Y.

    Raises SpanMismatchError (with the first offending line) if any
    containment fails; returns the measured dimensions otherwise.
    """
    rs = Q.restricted_sets()
    chi = Q.chi_line
    if not set(sel.Z) <= set(rs.L1):
        raise SpanMismatchError("Z is not a subset of L1")

    head = sel.X0 + rs.L1 + sel.Y
    order = head + tuple(sorted(set(range(Q.n_lines)) - set(head)))
    pivots, taken = echelon([chi(l) for l in order])
    dim_pl = len(taken)
    rank_head = bisect_left(taken, len(head))
    if rank_head != dim_pl:
        # the lines before the first one taken after the head lie in
        # span(head), so it has the lowest escaping index
        l = order[taken[rank_head]]
        raise SpanMismatchError(
            f"line {l} escapes the span of X0 u Y u L1", line=l
        )
    # no line after the head was taken: pivots span exactly the head
    ones = ones_vector(Q.n_points)
    if not in_echelon(pivots, ones):
        raise SpanMismatchError("all-ones vector escapes span of X0 u Y u L1")
    if not in_echelon(pivots, chi(Q.ell0)):
        raise SpanMismatchError("ell0 escapes span of X0 u Y u L1", line=Q.ell0)

    # constructive all-ones identity: sum a line of L1 with every line
    # meeting it
    l_star = rs.L1[0]
    star_pts = Q.line_points(l_star)
    total = 0
    for l in range(Q.n_lines):
        if Q.line_points(l) & star_pts:
            total ^= chi(l)

    _, taken_z = echelon([chi(l) for l in sel.X0 + sel.Z + sel.Y])
    rank_z_x0 = bisect_left(taken_z, len(sel.X0) + len(sel.Z))
    if rank_z_x0 != bisect_left(taken, len(sel.X0) + len(rs.L1)):
        raise SpanMismatchError("span(Z u X0) differs from span(L1 u X0)")
    if len(taken_z) != dim_pl:
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

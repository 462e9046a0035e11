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
the full code, and searches for an explicit permutation equivalence
between the digitized system and the geometric one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

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


class IsomorphismNotFoundError(RuntimeError):
    """The permutation search between two incidence systems exhausted."""


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

    @cached_property
    def rank(self) -> int:
        """GF(2) rank, computed once; the bits are never modified after
        construction."""
        return rank2(self.bits)


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
    q: int
    rank_kim: int
    rank_p1l1: int
    row_perm: list[int] | None
    col_perm: list[int] | None
    iso_searched: bool

    @property
    def ranks_equal(self) -> bool:
        return self.rank_kim == self.rank_p1l1


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


def _adjacency(m: IncidenceMatrix) -> tuple[list[set[int]], list[set[int]]]:
    radj: list[set[int]] = []
    for r in m.bits.rows:
        cols = set()
        while r:
            low = r & -r
            cols.add(low.bit_length() - 1)
            r ^= low
        radj.append(cols)
    cadj: list[set[int]] = [set() for _ in range(m.n_cols)]
    for i, cols in enumerate(radj):
        for j in cols:
            cadj[j].add(i)
    return radj, cadj


def bipartite_isomorphism(
    radj1: list[set[int]],
    cadj1: list[set[int]],
    radj2: list[set[int]],
    cadj2: list[set[int]],
) -> tuple[list[int], list[int]]:
    """Backtracking search for a side-preserving isomorphism.

    Vertices are assigned most-constrained-first; a candidate image must
    reproduce the adjacency pattern on everything already mapped.
    Degrees prune the initial pools.  Raises IsomorphismNotFoundError if
    the search space is exhausted.
    """
    nr, nc = len(radj1), len(cadj1)
    if len(radj2) != nr or len(cadj2) != nc:
        raise IsomorphismNotFoundError("side sizes differ")
    if sorted(map(len, radj1)) != sorted(map(len, radj2)) or sorted(
        map(len, cadj1)
    ) != sorted(map(len, cadj2)):
        raise IsomorphismNotFoundError("degree sequences differ")

    row_map = [-1] * nr
    col_map = [-1] * nc
    row_used = [False] * nr
    col_used = [False] * nc

    def mapped_neighbors(v: int, is_row: bool) -> list[int]:
        adj = radj1[v] if is_row else cadj1[v]
        mp = col_map if is_row else row_map
        return [w for w in adj if mp[w] >= 0]

    def pick() -> tuple[int, bool] | None:
        best, best_key = None, None
        for v in range(nr):
            if row_map[v] < 0:
                key = (-len(mapped_neighbors(v, True)), 0, v)
                if best_key is None or key < best_key:
                    best, best_key = (v, True), key
        for v in range(nc):
            if col_map[v] < 0:
                key = (-len(mapped_neighbors(v, False)), 1, v)
                if best_key is None or key < best_key:
                    best, best_key = (v, False), key
        return best

    def candidates(v: int, is_row: bool) -> list[int]:
        adj1 = radj1[v] if is_row else cadj1[v]
        adj2_all = radj2 if is_row else cadj2
        used = row_used if is_row else col_used
        mp_other = col_map if is_row else row_map
        n2 = nr if is_row else nc
        anchor_imgs = {mp_other[w] for w in adj1 if mp_other[w] >= 0}
        mapped_other_imgs = {m for m in mp_other if m >= 0}
        out = []
        for w in range(n2):
            if used[w] or len(adj2_all[w]) != len(adj1):
                continue
            inter = adj2_all[w] & mapped_other_imgs
            if inter == anchor_imgs:
                out.append(w)
        return out

    def backtrack() -> bool:
        nxt = pick()
        if nxt is None:
            return True
        v, is_row = nxt
        mp, used = (row_map, row_used) if is_row else (col_map, col_used)
        for w in candidates(v, is_row):
            mp[v] = w
            used[w] = True
            if backtrack():
                return True
            mp[v] = -1
            used[w] = False
        return False

    if not backtrack():
        raise IsomorphismNotFoundError("search exhausted without a match")
    return row_map, col_map


def check_kim_equivalence(
    kim: IncidenceMatrix, p1l1: IncidenceMatrix, iso_max_size: int = 64
) -> EquivalenceReport:
    """Rank equality always; explicit permutations up to iso_max_size.

    A found permutation pair is verified entry-by-entry before being
    reported.
    """
    if kim.n_rows != p1l1.n_rows or kim.n_cols != p1l1.n_cols:
        raise ValueError("systems have different shapes")
    n = kim.n_rows
    q = round(n ** (1 / 3))
    row_perm = col_perm = None
    searched = n <= iso_max_size
    if searched:
        radj1, cadj1 = _adjacency(kim)
        radj2, cadj2 = _adjacency(p1l1)
        row_perm, col_perm = bipartite_isomorphism(radj1, cadj1, radj2, cadj2)
        for i in range(n):
            for j in radj1[i]:
                if not p1l1.bits.get(row_perm[i], col_perm[j]):
                    raise IsomorphismNotFoundError(
                        "candidate permutation fails verification"
                    )  # pragma: no cover
            if len(radj1[i]) != len(radj2[row_perm[i]]):
                raise IsomorphismNotFoundError(
                    "candidate permutation fails verification"
                )  # pragma: no cover
    return EquivalenceReport(q, kim.rank, p1l1.rank, row_perm, col_perm, searched)


def restricted_submatrix_check(Q: Quadrangle) -> bool:
    """The restricted matrix really is the (P1, L1) submatrix of the full one."""
    rs = Q.restricted_sets()
    pl = build_incidence(Q, "pl")
    p1l1 = build_incidence(Q, "p1l1")
    sub = restrict_rows([pl.bits.rows[p] for p in rs.P1], rs.L1)
    return sub == p1l1.bits.rows

"""The symplectic generalized quadrangle on a 4-dimensional space.

Points are the 1-spaces of F_q^4, stored as canonical homogeneous
coordinate tuples (first nonzero coordinate scaled to 1) and indexed in
lexicographic order.  Lines are the 2-spaces on which the alternating
form vanishes identically, stored by their reduced row-echelon basis
and indexed in lexicographic order of the flattened basis.  Both
enumerations are fully determined by the field presentation, so every
derived matrix is byte-reproducible.

The form is fixed by (e_i, e_{3-i}) = 1 for i = 0, 1, i.e.

    (u, v) = u0*v3 + u1*v2 - u2*v1 - u3*v0

with the signs immaterial in characteristic 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from lu3q.fields import GF

Vec = tuple[int, int, int, int]


class PointOnLineError(ValueError):
    """A connector was requested for a point lying on the target line."""


class NoGridFoundError(RuntimeError):
    """No grid exists between the two lines (expected for odd q)."""

    def __init__(self, message: str, odd_q: bool = False):
        super().__init__(message)
        self.odd_q = odd_q


class SymplecticSpace:
    """F_q^4 with the fixed nonsingular alternating form."""

    def __init__(self, F: GF):
        self.F = F
        self.dim = 4

    def form(self, u: Vec, v: Vec) -> int:
        F = self.F
        pos = F.add(F.mul(u[0], v[3]), F.mul(u[1], v[2]))
        neg = F.add(F.mul(u[2], v[1]), F.mul(u[3], v[0]))
        return F.sub(pos, neg)

    def form_functional(self, u: Vec) -> Vec:
        """Coefficients c with (u, x) = sum c_i x_i."""
        F = self.F
        return (F.neg(u[3]), F.neg(u[2]), u[1], u[0])


@dataclass(frozen=True)
class IsoLine:
    """A totally isotropic 2-space: RREF basis plus its point indices."""

    basis: tuple[Vec, Vec]
    points: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class RestrictedSets:
    """The point/line subsets cut out by the flag (p0, ell0)."""

    P1: tuple[int, ...]
    L1: tuple[int, ...]
    X: tuple[int, ...]
    X0: tuple[int, ...]
    Y: tuple[int, ...]


@dataclass(frozen=True)
class GridPair:
    """A grid of 2q lines whose GF(2) sum is chi_l + chi_lp."""

    delta: tuple[int, ...]
    lam: tuple[int, ...]
    anchor: int
    line1: int
    line2: int
    z: int


class Quadrangle:
    """Points, isotropic lines and their incidence for one field."""

    def __init__(self, F: GF):
        self.F = F
        self.q = F.q
        self.space = SymplecticSpace(F)
        self.points: list[Vec] = _enumerate_points(F)
        self.point_index: dict[Vec, int] = {v: i for i, v in enumerate(self.points)}
        self.lines: list[IsoLine] = _enumerate_lines(self)
        self.line_index: dict[tuple[Vec, Vec], int] = {
            l.basis: l.index for l in self.lines
        }
        self.point_to_lines: list[list[int]] = [[] for _ in self.points]
        for l in self.lines:
            for p in l.points:
                self.point_to_lines[p].append(l.index)
        self.p0 = self.point_index[(1, 0, 0, 0)]
        self.ell0 = self.line_index[((1, 0, 0, 0), (0, 1, 0, 0))]
        self._line_point_sets = [frozenset(l.points) for l in self.lines]

    # -- elementary queries ----------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def canonicalize(self, v: Vec) -> Vec:
        F = self.F
        k = next((i for i, x in enumerate(v) if x), None)
        if k is None:
            raise ValueError("zero vector has no projective point")
        if v[k] == 1:
            return v
        ci = F.inv(v[k])
        return tuple(F.mul(ci, x) for x in v)  # type: ignore[return-value]

    def line_points(self, l: int) -> frozenset[int]:
        return self._line_point_sets[l]

    @cached_property
    def _point_array(self) -> np.ndarray:
        """The point coordinates as an n x 4 int32 array."""
        return np.array(self.points, dtype=np.int32)

    def perp(self, p: int) -> frozenset[int]:
        """All x with (p, x) = 0, by evaluating the form on every point
        at once through the field's lookup tables."""
        T = self.F.tables
        u, v = self.points[p], self._point_array.T
        pos = T.add[T.mul[u[0], v[3]], T.mul[u[1], v[2]]]
        neg = T.add[T.mul[u[2], v[1]], T.mul[u[3], v[0]]]
        return frozenset(np.flatnonzero(T.add[pos, T.neg[neg]] == 0).tolist())

    def collinear(self, p: int) -> frozenset[int]:
        """Union of the lines through p (equals perp(p) in the quadrangle)."""
        out: set[int] = set()
        for l in self.point_to_lines[p]:
            out.update(self.lines[l].points)
        return frozenset(out)

    def line_through(self, p1: int, p2: int) -> int:
        """The line joining two distinct collinear points."""
        for l in self.point_to_lines[p1]:
            if p2 in self._line_point_sets[l]:
                return l
        raise ValueError(f"points {p1} and {p2} are not collinear")

    def unique_connector(self, p: int, l: int) -> int:
        """The one line through p that meets l, for p not on l."""
        if p in self._line_point_sets[l]:
            raise PointOnLineError(f"point {p} lies on line {l}")
        target = self._line_point_sets[l]
        hits = [
            m for m in self.point_to_lines[p] if target & self._line_point_sets[m]
        ]
        if len(hits) != 1:
            raise RuntimeError(
                f"expected exactly one connector, found {len(hits)}"
            )  # pragma: no cover
        return hits[0]

    def chi_line(self, l: int) -> int:
        """Characteristic bit vector of a line over the point set."""
        v = 0
        for p in self.lines[l].points:
            v |= 1 << p
        return v

    # -- the distinguished subsets ----------------------------------------

    def restricted_sets(self) -> RestrictedSets:
        q = self.q
        perp_p0 = self.collinear(self.p0)
        P1 = tuple(i for i in range(self.n_points) if i not in perp_p0)
        ell0_pts = self._line_point_sets[self.ell0]
        L1 = tuple(
            l.index
            for l in self.lines
            if not (ell0_pts & self._line_point_sets[l.index])
        )
        X = tuple(self.point_to_lines[self.p0])
        X0 = tuple(l for l in X if l != self.ell0)
        Y = []
        for p in sorted(ell0_pts - {self.p0}):
            Y.append(min(l for l in self.point_to_lines[p] if l != self.ell0))
        if not (
            len(P1) == len(L1) == q**3 and len(X) == q + 1 and len(X0) == len(Y) == q
        ):
            raise RuntimeError(
                f"restricted sets have sizes |P1|={len(P1)}, |L1|={len(L1)}, "
                f"|X|={len(X)}, |X0|={len(X0)}, |Y|={len(Y)}"
            )
        return RestrictedSets(P1, L1, X, X0, tuple(Y))

    # -- grids -------------------------------------------------------------

    def grid_decompose(self, l: int, lp: int, p: int) -> GridPair:
        """Search for a grid of lines between two lines concurrent at p.

        Every candidate z is validated against the full grid contract;
        the first valid one (in point order) is returned.
        """
        if l == lp:
            raise ValueError("the two lines must be distinct")
        lpts, lppts = self._line_point_sets[l], self._line_point_sets[lp]
        if p not in lpts or p not in lppts:
            raise ValueError("anchor point must lie on both lines")
        u1 = min(lpts - {p})
        w1 = min(lppts - {p})
        for z in sorted((self.collinear(u1) & self.collinear(w1)) - {p}):
            pair = self._try_grid(l, lp, p, u1, w1, z)
            if pair is not None:
                return pair
        raise NoGridFoundError(
            f"no grid between lines {l} and {lp} through point {p}"
            + (" (odd characteristic: the grid hypothesis needs q even)"
               if self.F.p != 2 else ""),
            odd_q=self.F.p != 2,
        )

    def _try_grid(
        self, l: int, lp: int, p: int, u1: int, w1: int, z: int
    ) -> GridPair | None:
        try:
            lam1 = self.line_through(w1, z)
            del1 = self.line_through(u1, z)
            delta = tuple(
                sorted(self.unique_connector(u, lam1) for u in self._line_point_sets[l] - {p})
            )
            lam = tuple(
                sorted(self.unique_connector(w, del1) for w in self._line_point_sets[lp] - {p})
            )
        except (PointOnLineError, ValueError):
            return None
        q = self.q
        if len(set(delta)) != q or len(set(lam)) != q:
            return None
        if set(delta) & set(lam):
            return None
        if l in delta or lp in delta or l in lam or lp in lam:
            return None
        # each delta line meets l \ {p} in its own point; same for lam with lp
        hits_l = [self._line_point_sets[d] & self._line_point_sets[l] for d in delta]
        hits_lp = [self._line_point_sets[m] & self._line_point_sets[lp] for m in lam]
        if any(len(h) != 1 for h in hits_l + hits_lp):
            return None
        pts_l = set().union(*hits_l)
        pts_lp = set().union(*hits_lp)
        if len(pts_l) != q or p in pts_l or len(pts_lp) != q or p in pts_lp:
            return None
        for d in delta:
            dpts = self._line_point_sets[d]
            if any(len(dpts & self._line_point_sets[m]) != 1 for m in lam):
                return None
        total = 0
        for g in delta + lam:
            total ^= self.chi_line(g)
        if total != self.chi_line(l) ^ self.chi_line(lp):
            return None
        return GridPair(delta, lam, p, l, lp, z)


def _enumerate_points(F: GF) -> list[Vec]:
    """Canonical representatives in lexicographic coordinate order."""
    pts: list[Vec] = []
    q = F.q
    for lead in (3, 2, 1, 0):
        tail_len = 3 - lead
        for tail in itertools.product(range(q), repeat=tail_len):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def _enumerate_lines(Q: Quadrangle) -> list[IsoLine]:
    """All totally isotropic 2-spaces by RREF basis, in lexicographic order.

    On an RREF basis with pivot columns (j1, j2) the form is one linear
    condition on the free entries, so each pivot pair gives a family in
    closed form; the pairs (0, 3) and (1, 2) make the form 1 and give none.
    """
    F = Q.F
    q = F.q
    els = range(q)
    bases: list[tuple[Vec, Vec]] = [
        ((1, 0, a, b), (0, 1, c, a)) for a, b, c in itertools.product(els, repeat=3)
    ]
    bases += [((1, a, 0, b), (0, 0, 1, F.neg(a))) for a, b in itertools.product(els, repeat=2)]
    bases += [((0, 1, a, 0), (0, 0, 0, 1)) for a in els]
    bases.append(((0, 0, 1, 0), (0, 0, 0, 1)))
    bases.sort(key=lambda b: b[0] + b[1])
    lines = []
    for idx, (u, w) in enumerate(bases):
        pts = [Q.point_index[w]]
        for lam in range(q):
            vec = tuple(F.add(u[i], F.mul(lam, w[i])) for i in range(4))
            pts.append(Q.point_index[vec])
        lines.append(IsoLine((u, w), tuple(sorted(pts)), idx))
    return lines


def enumerate_quadrangle(F: GF) -> Quadrangle:
    """Build the full quadrangle for GF(q)."""
    return Quadrangle(F)

"""The symplectic generalized quadrangle on a 4-dimensional space.

Points are the 1-spaces of F_q^4, stored as canonical homogeneous
coordinates (first nonzero coordinate 1) in an n x 4 array, in
lexicographic order.  Their packed codes v0*q^3 + v1*q^2 + v2*q + v3
therefore ascend, and a point is found by binary search on them.
Lines are the 2-spaces on which the alternating form vanishes
identically, stored by their reduced row-echelon basis and indexed in
lexicographic order of the flattened basis.  The incidence is stored
once, as two index arrays: ``line_pts`` lists the points of each line
and ``point_lines`` the lines through each point, both ascending.  Both
enumerations are fully determined by the field presentation, so every
derived matrix is byte-reproducible.

The form is fixed by (e_i, e_{3-i}) = 1 for i = 0, 1, i.e.

    (u, v) = u0*v3 + u1*v2 - u2*v1 - u3*v0

with the signs immaterial in characteristic 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from lu3q.fields import GF
from lu3q.gf2 import BitMatrix, pack_indices

Vec = tuple[int, int, int, int]

E0, E1 = (1, 0, 0, 0), (0, 1, 0, 0)  # p0 = <E0> and ell0 = <E0, E1>


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
        self.q = q = F.q
        self.space = SymplecticSpace(F)
        # the canonical vectors (0, .., 0, 1, tail) have codes q^k + tail
        codes = np.concatenate([q**k + np.arange(q**k) for k in range(4)])
        self.points = codes[:, None] // q ** np.arange(3, -1, -1) % q
        flat = _line_bases(F)
        self.bases = flat.reshape(-1, 2, 4)
        self.line_pts = _line_points(F, self.bases, codes)
        # lines in index order within each point, as a stable sort keeps them
        self.point_lines = (
            np.argsort(self.line_pts, axis=None, kind="stable").astype(np.int32) // (q + 1)
        ).reshape(len(codes), q + 1)
        self.p0 = int(np.searchsorted(codes, _code(np.array(E0), q)))
        self.ell0 = int(np.searchsorted(_code(flat, q), _code(np.array(E0 + E1), q)))

    # -- elementary queries ----------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_lines(self) -> int:
        return len(self.bases)

    def point_of(self, v: np.ndarray) -> np.ndarray:
        """The index of the point each nonzero vector (a row of v) spans."""
        T = self.F.tables
        v = np.asarray(v)
        lead = np.take_along_axis(v, (v != 0).argmax(axis=-1)[..., None], axis=-1)
        return np.searchsorted(_code(self.points, self.q), _code(T.mul[T.inv[lead], v], self.q))

    def line_points(self, l: int) -> frozenset[int]:
        return frozenset(self.line_pts[l].tolist())

    def perps(self, p) -> np.ndarray:
        """Which points x have (p, x) = 0, elementwise for an array of
        points: the form of each p against every point, through the
        field's lookup tables, as a mask with a trailing n_points axis."""
        T = self.F.tables
        u, v = self.points[np.asarray(p)][..., None, :], self.points
        pos = T.add[T.mul[u[..., 0], v[:, 3]], T.mul[u[..., 1], v[:, 2]]]
        neg = T.add[T.mul[u[..., 2], v[:, 1]], T.mul[u[..., 3], v[:, 0]]]
        return T.add[pos, T.neg[neg]] == 0

    def perp(self, p: int) -> frozenset[int]:
        """All x with (p, x) = 0: the set view of ``perps``."""
        return frozenset(np.flatnonzero(self.perps(p)).tolist())

    def line_through(self, p1, p2) -> np.ndarray:
        """The line joining two distinct collinear points, elementwise for
        arrays of points: the one line both rows of ``point_lines`` list."""
        both = np.sort(
            np.concatenate([self.point_lines[p1], self.point_lines[p2]], axis=-1), axis=-1
        )
        same = both[..., 1:] == both[..., :-1]
        if (same.sum(axis=-1) != 1).any():
            raise ValueError("some point pair is not two distinct collinear points")
        return both[..., 1:][same].reshape(np.shape(p1))

    def map_lines(self, scale: Vec, order: Vec = (0, 1, 2, 3)) -> np.ndarray:
        """The line permutation of the monomial map x -> (scale[i] *
        x[order[i]])_i: each line goes to the line through the images of
        two of its points.  Raises ValueError on a map that is singular or
        sends some line off the quadrangle, i.e. is no similitude of the form."""
        if not all(0 < s < self.q for s in scale) or sorted(order) != [0, 1, 2, 3]:
            raise ValueError(f"scale {tuple(scale)} and order {tuple(order)} are no invertible map")
        two = self.points[self.line_pts[:, :2]]
        images = self.point_of(self.F.tables.mul[scale, two[..., order]])
        return self.line_through(images[:, 0], images[:, 1])

    def line_orbits(self, maps: Sequence[tuple[Vec, Vec]]) -> tuple[np.ndarray, np.ndarray]:
        """The least line and the size of every orbit of the group that the
        monomial maps (scale, order) of ``map_lines`` generate, by min-label
        propagation with pointer jumping."""
        perms = [self.map_lines(scale, order) for scale, order in maps]
        label = np.arange(self.n_lines)
        while True:
            new = functools.reduce(np.minimum, (label[p] for p in perms), label)
            while not np.array_equal(new[new], new):
                new = new[new]
            if np.array_equal(new, label):
                return np.unique(label, return_counts=True)
            label = new

    def connectors(self, p, l) -> np.ndarray:
        """Which lines through p meet l, elementwise for arrays of points
        and lines: entry [..., i] says whether line point_lines[p][..., i]
        meets l, from the points of those lines against the points of l
        in one broadcast."""
        p, l = np.broadcast_arrays(p, l)
        through = self.line_pts[self.point_lines[p]]  # (..., q+1 lines, q+1 points)
        target = self.line_pts[l][..., None, None, :]
        return (through[..., None] == target).any(axis=(-2, -1))

    def unique_connector(self, p, l) -> np.ndarray:
        """The one line through p that meets l, elementwise for arrays of
        points p not on lines l.  Raises PointOnLineError if some p lies
        on its l, and RuntimeError if some p has no or several connectors."""
        p, l = np.broadcast_arrays(p, l)
        on = (self.line_pts[l] == p[..., None]).any(axis=-1)
        if on.any():
            i = np.argwhere(on)[0]
            raise PointOnLineError(f"point {p[tuple(i)]} lies on line {l[tuple(i)]}")
        hit = self.connectors(p, l)
        count = hit.sum(axis=-1)
        if (count != 1).any():
            raise RuntimeError(
                f"expected exactly one connector, found {count[count != 1].flat[0]}"
            )  # pragma: no cover
        return self.point_lines[p][hit].reshape(p.shape)

    def chi_lines(self, lines: Sequence[int]) -> BitMatrix:
        """Characteristic bit vectors of lines over the point set, one row each."""
        pts = self.line_pts[np.asarray(lines, dtype=np.intp)]
        return BitMatrix(pack_indices(pts, self.n_points), self.n_points)

    # -- the distinguished subsets ----------------------------------------

    @cached_property
    def restricted_sets(self) -> RestrictedSets:
        """P1, L1, X, X0 and Y, computed once per quadrangle."""
        q = self.q
        X = self.point_lines[self.p0]
        ell0_pts = self.line_pts[self.ell0]
        in_perp = np.zeros(self.n_points, dtype=bool)
        in_perp[self.line_pts[X]] = True
        on_ell0 = np.zeros(self.n_points, dtype=bool)
        on_ell0[ell0_pts] = True
        P1 = np.flatnonzero(~in_perp)
        L1 = np.flatnonzero(~on_ell0[self.line_pts].any(axis=1))
        X0 = X[X != self.ell0]
        # the lowest line other than ell0 through each other point of ell0
        through = self.point_lines[ell0_pts[ell0_pts != self.p0]]
        Y = np.where(through[:, 0] == self.ell0, through[:, 1], through[:, 0])
        if not (
            len(P1) == len(L1) == q**3 and len(X) == q + 1 and len(X0) == len(Y) == q
        ):
            raise RuntimeError(
                f"restricted sets have sizes |P1|={len(P1)}, |L1|={len(L1)}, "
                f"|X|={len(X)}, |X0|={len(X0)}, |Y|={len(Y)}"
            )
        return RestrictedSets(*(tuple(s.tolist()) for s in (P1, L1, X, X0, Y)))

    # -- grids -------------------------------------------------------------

    def grid_decompose(self, l: int, lp: int, p: int) -> GridPair:
        """Search for a grid of lines between two lines concurrent at p.

        Every candidate z is validated against the full grid contract;
        the first valid one (in point order) is returned.
        """
        if l == lp:
            raise ValueError("the two lines must be distinct")
        lpts, lppts = self.line_pts[l], self.line_pts[lp]
        if p not in lpts or p not in lppts:
            raise ValueError("anchor point must lie on both lines")
        u1, w1 = int(lpts[lpts != p].min()), int(lppts[lppts != p].min())
        # the points collinear with both, ascending (np.intersect1d would
        # import numpy.ma on first use, 9 ms of a fresh process's start)
        seen = np.zeros((2, self.n_points), dtype=bool)
        seen[[[0], [1]], self.line_pts[self.point_lines[[u1, w1]]].reshape(2, -1)] = True
        seen[:, p] = False
        for z in np.flatnonzero(seen.all(axis=0)).tolist():
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
        """The grid through z, or None if it breaks the contract.

        delta are the connectors from the points of l other than p to the
        line lam1 = w1 z, and lam those from lp's other points to
        del1 = u1 z, each side from one ``unique_connector`` call.  The 2q
        lines must be distinct and other than l and lp; each delta line
        meets l, and each lam line lp, in one point, q distinct points
        other than p; each delta line meets each lam line in one point;
        and the 2q lines sum to chi_l + chi_lp.  Every count is a
        broadcast comparison of ``line_pts`` rows.
        """
        q = self.q
        ends = self.line_pts[[l, lp]]
        try:
            lam1, del1 = self.line_through([w1, u1], [z, z])
            delta = np.sort(self.unique_connector(ends[0][ends[0] != p], lam1))
            lam = np.sort(self.unique_connector(ends[1][ends[1] != p], del1))
        except ValueError:  # PointOnLineError is one
            return None
        grid = np.concatenate([delta, lam])
        if len(grid) != 2 * q:
            return None
        ordered = np.sort(grid)
        if (ordered[1:] == ordered[:-1]).any() or ((grid == l) | (grid == lp)).any():
            return None
        # each delta line meets l, and each lam line lp, in one point,
        # and together they meet every point of it but p once
        pts = self.line_pts[grid].reshape(2, q, q + 1)
        meet = pts[..., None] == ends[:, None, None, :]  # side, line, its point, end point
        if (meet.sum(axis=(2, 3)) != 1).any():
            return None
        if (meet.any(axis=2).sum(axis=1) != (ends != p)).any():
            return None
        # each delta line meets each lam line in one point
        if ((pts[0][:, None, :, None] == pts[1][None, :, None, :]).sum(axis=(2, 3)) != 1).any():
            return None
        # the 2q lines must sum to chi_l + chi_lp: every point an even number of times
        if (np.bincount(self.line_pts[np.append(grid, [l, lp])].ravel()) & 1).any():
            return None
        return GridPair(tuple(delta.tolist()), tuple(lam.tolist()), p, l, lp, z)


def torus_and_swap(F: GF) -> list[tuple[Vec, Vec]]:
    """Monomial maps, as ``map_lines`` takes them, generating a group of
    similitudes of the form: the torus diag(1, g, 1, g) and diag(1, 1, g, g)
    for the primitive element g, and the swap (x0 x1)(x2 x3)."""
    g, keep = F.primitive, (0, 1, 2, 3)
    return [((1, g, 1, g), keep), ((1, 1, g, g), keep), ((1, 1, 1, 1), (1, 0, 3, 2))]


def _code(v: np.ndarray, q: int) -> np.ndarray:
    """Coordinate rows (the last axis) packed as base-q numbers, first
    coordinate most significant, so lexicographic order is code order."""
    return v @ q ** np.arange(v.shape[-1] - 1, -1, -1)


def _line_bases(F: GF) -> np.ndarray:
    """All totally isotropic 2-spaces by flattened RREF basis, in
    lexicographic order.

    On an RREF basis with pivot columns (j1, j2) the form is one linear
    condition on the free entries, so each pivot pair gives a family in
    closed form; the pairs (0, 3) and (1, 2) make the form 1 and give none.
    """
    q, neg = F.q, F.tables.neg

    def family(*entries) -> np.ndarray:  # constant entries repeat on every basis
        return np.stack(np.broadcast_arrays(*entries), axis=1)

    a, b, c = np.indices((q, q, q)).reshape(3, -1)
    flat = [family(1, 0, a, b, 0, 1, c, a)]  # pivots (0, 1)
    a, b = np.indices((q, q)).reshape(2, -1)
    flat.append(family(1, a, 0, b, 0, 0, 1, neg[a]))  # pivots (0, 2)
    flat.append(family(0, 1, np.arange(q), 0, 0, 0, 0, 1))  # pivots (1, 3)
    flat.append(np.array([[0, 0, 1, 0, 0, 0, 0, 1]]))  # pivots (2, 3)
    flat = np.concatenate(flat)
    return flat[np.argsort(_code(flat, q))]


def _line_points(F: GF, bases: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The points of each line, ascending: u + lam*w for every lam, and w.
    Each is canonical as it stands, since on an RREF basis w is zero up
    to and at u's leading 1, so its index is its code's position.

    Lines go 256 at a time.  In one pass, the q=16 coordinates make a
    2.4 MB temporary, and repeated ``verify --q 16`` runs in one process
    then crept to a 4 MB higher peak RSS."""
    T, q = F.tables, F.q
    lam = np.arange(q)[:, None]
    pts = np.empty((len(bases), q + 1), dtype=np.int32)
    for s in range(0, len(bases), 256):
        u, w = bases[s : s + 256, 0, None], bases[s : s + 256, 1, None]
        on_line = np.concatenate([T.add[u, T.mul[lam, w]], w], axis=1)
        pts[s : s + 256] = np.sort(np.searchsorted(codes, _code(on_line, q)), axis=1)
    return pts


def enumerate_quadrangle(F: GF) -> Quadrangle:
    """Build the full quadrangle for GF(q)."""
    return Quadrangle(F)

"""References for the GF(2) elimination, on Python int bitsets.

``echelon`` is the plain elimination on int rows, and ``reduced``
back-substitutes its basis one pivot row at a time:
``lu3q.gf2.ReducedEchelon`` must give the same rows, pivots and taken
indices, in the same order, from its packed incremental reduction.
``rref_ints``, ``reduce_int``, ``nullspace_ints`` and ``mul_vec`` are the
int references for ``rref``, ``Subspace.reduce``, ``nullspace`` and a
matrix-vector product, which ``lu3q.gf2`` does on packed words.
``transpose`` and ``col_weights`` read a matrix's dense bits, and
``index_rows`` turns a ``BitMatrix`` into the index rows that the code
side takes, for the tests of ``transpose_indices``, alist, girth and
``LdpcCode``.

``lu3q.incidence.verify_spanning`` reads the restriction kernel (the
vectors that vanish on P1) straight off its highest-bit elimination of
the lines.  This module finds the same kernel the long way: it takes
the canonical basis of the line code, projects it onto the kept
coordinates, and ranks the projection or takes its nullspace, so the
tests can compare the two methods.
"""

from typing import Iterable, Sequence

import numpy as np

from lu3q.geometry import Quadrangle
from lu3q.gf2 import BitMatrix, Subspace, nullspace, pack_indices, rank2


def echelon(rows: Iterable[int], lowest: bool = False) -> tuple[dict[int, int], list[int]]:
    """(echelon basis {pivot column: row}, indices of the rows outside
    the span of the rows before them).  The pivot is the highest set
    bit, or the lowest with lowest=True; the basis lists its rows in the
    order they were taken."""
    pivots: dict[int, int] = {}
    taken: list[int] = []
    for i, cur in enumerate(rows):
        while cur:
            c = (cur & -cur if lowest else cur).bit_length() - 1
            p = pivots.get(c)
            if p is None:
                pivots[c] = cur
                taken.append(i)
                break
            cur ^= p
    return pivots, taken


def reduced(pivots: dict[int, int], lowest: bool) -> dict[int, int]:
    """Clear the other pivot columns from each echelon row, in place.
    Rows go in the order that has their other pivots done first, and a
    reduced row changes no pivot bit but its own."""
    mask = sum(1 << c for c in pivots)
    for c in sorted(pivots, reverse=lowest):
        row, rest = pivots[c], (pivots[c] & mask) ^ (1 << c)
        while rest:
            c2 = rest.bit_length() - 1
            row ^= pivots[c2]
            rest ^= 1 << c2
        pivots[c] = row
    return pivots


def rref_ints(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Canonical RREF: (rows in ascending lowest-bit pivot, pivots)."""
    pivots = reduced(echelon(rows, lowest=True)[0], lowest=True)
    cols = sorted(pivots)
    return [pivots[c] for c in cols], cols


def reduce_int(basis: Sequence[int], cols: Sequence[int], v: int) -> int:
    """v less each basis row whose pivot bit v has, one row at a time."""
    for c, row in zip(cols, basis):
        if (v >> c) & 1:
            v ^= row
    return v


def nullspace_ints(rows: Iterable[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Canonical basis of the kernel and its pivots, as ``rref_ints``
    gives them: with R the RREF, free column f gives e_f plus e_p for
    each pivot row R_p with bit f, and those vectors are reduced."""
    basis, cols = rref_ints(rows)
    free = [f for f in range(n_cols) if f not in cols]
    return rref_ints(
        (1 << f) | sum(1 << p for p, row in zip(cols, basis) if (row >> f) & 1) for f in free
    )


def mul_vec(m: BitMatrix, v: int) -> int:
    """M v over GF(2): bit i is the parity of row i and v."""
    return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(m.rows))


def transpose(m: BitMatrix) -> BitMatrix:
    """M^T, from the transpose of its dense bits."""
    dense = m.to_numpy().T
    return BitMatrix(pack_indices(np.where(dense, np.arange(m.n_rows), -1), m.n_rows), m.n_rows)


def col_weights(m: BitMatrix) -> list[int]:
    return m.to_numpy().sum(axis=0, dtype=np.intp).tolist()


def index_rows(m: BitMatrix) -> np.ndarray:
    """Row i lists the columns of the 1s of row i of m in ascending
    order, and -1 pads each lighter row at its end to the largest row
    weight."""
    dense = m.to_numpy()
    out = np.full((m.n_rows, int(dense.sum(axis=1).max(initial=0))), -1, np.intp)
    for i, row in enumerate(dense):
        listed = np.flatnonzero(row)
        out[i, : len(listed)] = listed
    return out


def line_code(Q: Quadrangle) -> Subspace:
    """C(P,L): the span of the characteristic vectors of all lines."""
    return Subspace.span(Q.chi_lines(range(Q.n_lines)))


def restrict_vector(v: int, cols: Sequence[int]) -> int:
    """Project a bit vector onto the listed coordinates, in their order."""
    return restrict_rows([v], cols)[0]


def restrict_rows(rows: Iterable[int], cols: Sequence[int]) -> list[int]:
    """Project each bit vector onto the listed coordinates, in their order."""
    rows = list(rows)
    cols = np.asarray(cols, dtype=np.intp)
    if not len(cols):
        return [0] * len(rows)
    bits = max(max((r.bit_length() for r in rows), default=0), int(cols.max()) + 1)
    picked = BitMatrix(rows, bits).to_numpy()[:, cols]
    words = pack_indices(np.where(picked, np.arange(len(cols)), -1), len(cols))
    return BitMatrix(words, len(cols)).rows


def kernel_intersection_dim(space: Subspace, kept_cols: Sequence[int]) -> int:
    """dim {c in space : c restricted to kept_cols is zero}."""
    restricted = restrict_rows(space.basis.rows, kept_cols)
    return space.dim - rank2(BitMatrix(restricted, len(kept_cols)))


def kernel_intersection_basis(space: Subspace, kept_cols: Sequence[int]) -> BitMatrix:
    """Basis of {c in space : c restricted to kept_cols is zero}.

    Coefficient vectors come from the nullspace of the restricted basis
    viewed column-wise, then get recombined into ambient vectors.
    """
    basis = space.basis.rows
    restricted = restrict_rows(basis, kept_cols)
    coeffs = nullspace(transpose(BitMatrix(restricted, len(kept_cols))))
    out = []
    for alpha in coeffs.basis.rows:
        v = 0
        a = alpha
        while a:
            low = a & -a
            v ^= basis[low.bit_length() - 1]
            a ^= low
        out.append(v)
    return BitMatrix(out, space.n_cols)

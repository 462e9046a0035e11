"""Exact GF(2) linear algebra on bit-packed matrices.

A row is a Python int used as a bitset: bit j of the row is the entry
in column j.  Machine words inside the int give word-packed XOR row
operations for free.  One elimination serves every rank, span test and
kernel: ``ReducedEchelon`` keeps a reduced basis of packed uint64 rows,
in which every basis row holds no pivot bit but its own, so an incoming
row is reduced by one XOR of the basis rows at its pivot bits.  It can
be copied and continued, and the indices of the rows it takes give
prefix ranks, pivot columns and span membership (a vector lies in the
span iff a continuation does not take it).  It pivots on the highest
set bit by default, which keeps fill-in low on the incidence matrices
here.  ``rref`` pivots on the lowest set bit: it gives the canonical
form in which ``Subspace`` keeps a span, so two spans are equal iff
their bases are.  ``nullspace`` returns that form too: with M reduced
on highest-bit pivots, free column f gives w_f = e_f + e_p for each
pivot row r_p with bit f.  Each such p exceeds f, so w_f has lowest bit
f and no other free bit, and the w_f in ascending f are the canonical
basis.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np


class BitMatrix:
    """Dense bit matrix with int-bitset rows."""

    __slots__ = ("rows", "n_cols")

    def __init__(self, rows: list[int], n_cols: int):
        self.rows = rows
        self.n_cols = n_cols

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls([0] * n_rows, n_cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_dense(cls, dense: Iterable[Iterable[int]], n_cols: int | None = None) -> "BitMatrix":
        rows = []
        width = n_cols
        for dr in dense:
            r = 0
            cells = list(dr)
            for j, v in enumerate(cells):
                if v & 1:
                    r |= 1 << j
            if width is None:
                width = len(cells)
            rows.append(r)
        return cls(rows, width or 0)

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_weights(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def col_weights(self) -> list[int]:
        return np.bincount(bit_indices(self)[1], minlength=self.n_cols).tolist()

    def transpose(self) -> "BitMatrix":
        r, c = bit_indices(self)
        order = np.argsort(c, kind="stable")  # ascending rows within a column
        return BitMatrix(_pack_pairs(c[order], r[order], self.n_cols, self.n_rows), self.n_rows)

    def mul_vec(self, v: int) -> int:
        """Matrix-vector product over GF(2); v and result are bitsets."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def to_numpy(self) -> np.ndarray:
        packed = _pack(self.rows, (self.n_cols + 7) // 8)
        return np.unpackbits(packed, axis=1, count=self.n_cols, bitorder="little")

    def to_dense(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n_cols)] for r in self.rows]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_rows}x{self.n_cols})"


class ReducedEchelon:
    """A reduced echelon basis, continued a batch of rows at a time.

    ``basis`` is a rank x ceil(n/64) uint64 array, bit j of a row at bit
    j % 64 of word j // 64, with its rows in the order taken and their
    pivot columns in ``cols``.  For each prefix of the rows the pivots
    are the leading bits of its span, and a reduced basis is unique for
    its pivots, so the basis does not depend on how the rows were split
    into batches."""

    __slots__ = ("lowest", "cols", "_store", "_row_of")

    def __init__(self, n_cols: int, lowest: bool = False):
        self.lowest = lowest
        self.cols: list[int] = []
        # basis row k is _store[k + 1]: _store[0] stays zero, and the
        # columns without a pivot map to it in _row_of; grown by doubling
        self._store = np.zeros((8, (n_cols + 63) // 64), "<u8")
        self._row_of = np.zeros(n_cols, np.intp)

    @property
    def basis(self) -> np.ndarray:
        return self._store[1 : len(self.cols) + 1]

    def copy(self) -> "ReducedEchelon":
        other = ReducedEchelon.__new__(ReducedEchelon)
        other.lowest, other.cols = self.lowest, list(self.cols)
        other._store, other._row_of = self._store.copy(), self._row_of.copy()
        return other

    def add(self, rows: Iterable[int]) -> list[int]:
        """Continue the elimination with ``rows``; returns the indices,
        counted from the first of them, of the rows outside the span of
        the basis and the rows before them.  The rows are drawn and
        packed a slice at a time."""
        lowest, row_of, cols, store = self.lowest, self._row_of, self.cols, self._store
        width = store.shape[1]
        taken: list[int] = []
        step = _slice_rows(8 * width, 2**18)  # the index temporaries are several times this
        rows, s = iter(rows), 0
        while len(packed := _pack(list(itertools.islice(rows, step)), 8 * width)):
            at, bit = _indices(packed)
            starts = np.searchsorted(at, np.arange(len(packed) + 1)).tolist()
            for i, x in enumerate(packed.view("<u8")):
                x = x ^ np.bitwise_xor.reduce(store[row_of[bit[starts[i] : starts[i + 1]]]])
                nz = x.nonzero()[0]
                if not len(nz):
                    continue
                w = int(nz[0] if lowest else nz[-1])
                v = int(x[w])
                c = 64 * w + ((v & -v) if lowest else v).bit_length() - 1
                k = len(cols) + 1
                # the rows with bit c have pivots above c and x has no bit above
                # c (below, if lowest), so only the words up to c's (from c's) change
                words = slice(w, None) if lowest else slice(0, w + 1)
                clear = (store[:k, w] & np.uint64(1 << (c & 63))).nonzero()[0]
                store[clear, words] ^= x[words]
                if k == len(store):  # np.zeros leaves the new rows unmapped until written
                    self._store = np.zeros((2 * k, width), "<u8")
                    self._store[:k] = store
                    store = self._store
                store[k] = x
                row_of[c] = k
                cols.append(c)
                taken.append(s + i)
            s += len(packed)
        return taken


def _rows_and_width(m: BitMatrix | Sequence[int]) -> tuple[Sequence[int], int]:
    """The rows of m and its width: n_cols, or the longest row's bits."""
    if isinstance(m, BitMatrix):
        return m.rows, m.n_cols
    rows = list(m)
    return rows, max(map(int.bit_length, rows), default=0)


def rank2(m: BitMatrix | Sequence[int]) -> int:
    """GF(2) rank; the input is not modified."""
    rows, n = _rows_and_width(m)
    return len(ReducedEchelon(n).add(rows))


def rref(m: BitMatrix | Sequence[int]) -> tuple[list[int], list[int]]:
    """Canonical RREF: (rows sorted by lowest-bit pivot, pivot columns)."""
    rows, n = _rows_and_width(m)
    e = ReducedEchelon(n, lowest=True)
    e.add(rows)
    return _unpack(e.basis[np.argsort(e.cols)]), sorted(e.cols)


class Subspace:
    """A subspace of GF(2)^n stored as an RREF basis."""

    __slots__ = ("basis", "pivot_cols", "n_cols")

    def __init__(self, basis: list[int], pivot_cols: list[int], n_cols: int):
        self.basis = basis
        self.pivot_cols = pivot_cols
        self.n_cols = n_cols

    @classmethod
    def span(cls, rows: Iterable[int], n_cols: int) -> "Subspace":
        basis, cols = rref(list(rows))
        return cls(basis, cols, n_cols)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        for c, row in zip(self.pivot_cols, self.basis):
            if (v >> c) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.n_cols == other.n_cols
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.n_cols})"


def _pack(rows: Sequence[int], width: int) -> np.ndarray:
    """Bitset rows as a len(rows) x width uint8 array, bit j of a row at
    bit j % 8 of byte j // 8."""
    packed = b"".join(r.to_bytes(width, "little") for r in rows)
    return np.frombuffer(packed, np.uint8).reshape(len(rows), width)


def _unpack(packed: np.ndarray) -> list[int]:
    """The rows of a uint8 array as bitsets; inverse of ``_pack``."""
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def _slice_rows(row_bytes: int, block: int = 2**20) -> int:
    """Rows per slice for a slice of about ``block`` bytes."""
    return max(8, block // max(row_bytes, 1))


def _pack_pairs(r: np.ndarray, c: np.ndarray, n_rows: int, n_cols: int) -> list[int]:
    """n_rows bitset rows, row r[k] with bit c[k] set, for r ascending.
    Packed a slice of rows at a time."""
    width = (n_cols + 7) // 8
    step = _slice_rows(width)
    out: list[int] = []
    for s in range(0, n_rows, step):
        lo, hi = np.searchsorted(r, (s, s + step))
        i, j = r[lo:hi] - s, c[lo:hi]
        packed = np.zeros((min(step, n_rows - s), width), dtype=np.uint8)
        np.bitwise_or.at(packed, (i, j >> 3), np.left_shift(1, j & 7).astype(np.uint8))
        out += _unpack(packed)
    return out


def pack_indices(cols: np.ndarray, n_cols: int) -> list[int]:
    """Bitset rows from rows of column indices: row i has bit c set for
    each entry c of cols[i].  Negative entries set no bit, so rows may
    have different weights.  Packed a slice of rows at a time."""
    cols = np.asarray(cols)
    out: list[int] = []
    step = _slice_rows((n_cols + 7) // 8, 2**18)  # the index temporaries are several times this
    for s in range(0, len(cols), step):
        block = cols[s : s + step]
        i, k = np.nonzero(block >= 0)
        out += _pack_pairs(i, block[i, k], len(block), n_cols)
    return out


def _indices(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the 1s of a uint8 array of packed rows,
    in row-major order: its nonzero bytes, unpacked."""
    width = packed.shape[1]
    flat = packed.ravel()
    at = np.flatnonzero(flat)
    k, b = np.nonzero(np.unpackbits(flat[at, None], axis=1, bitorder="little"))
    return at[k] // width, at[k] % width * 8 + b


def bit_indices(m: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the 1s of m, in row-major order, a slice
    of packed rows at a time."""
    width = (m.n_cols + 7) // 8
    step = _slice_rows(width, 2**18)
    rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for s in range(0, m.n_rows, step):
        r, c = _indices(_pack(m.rows[s : s + step], width))
        rows.append(s + r)
        cols.append(c)
    return np.concatenate(rows), np.concatenate(cols)


def _columns(packed: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bits ``cols`` of each packed row, as a rows x len(cols) 0/1 array."""
    return (packed[:, cols >> 3] >> (cols & 7).astype(np.uint8)) & 1


def nullspace(m: BitMatrix) -> Subspace:
    """Canonical basis of {v : M v = 0}, one vector w_f per free column
    (see the module docstring); dimension is n_cols - rank2(M).  The
    basis is built a slice of free columns at a time, with bit f of each
    pivot row read from the packed reduced rows."""
    n = m.n_cols
    e = ReducedEchelon(n)
    e.add(m.rows)
    pivot_cols = np.array(e.cols, np.intp)
    is_free = np.ones(n, dtype=bool)
    is_free[pivot_cols] = False
    free = np.flatnonzero(is_free)
    rows = e.basis.view(np.uint8)  # bit j at byte j // 8
    basis: list[int] = []
    step = _slice_rows(n)  # w below is step x n bytes
    for s in range(0, len(free), step):
        f = free[s : s + step]
        w = np.zeros((len(f), n), dtype=np.uint8)  # row k is w_{f[k]}
        w[:, pivot_cols] = _columns(rows, f).T
        w[np.arange(len(f)), f] = 1
        basis += _unpack(np.packbits(w, axis=1, bitorder="little"))
    return Subspace(basis, free.tolist(), n)


def vec_from_bits(bits: Iterable[int]) -> int:
    v = 0
    for j, b in enumerate(bits):
        if b & 1:
            v |= 1 << j
    return v


def vec_to_bits(v: int, n: int) -> np.ndarray:
    return np.unpackbits(_pack([v], (n + 7) // 8)[0], count=n, bitorder="little")


def ones_vector(n: int) -> int:
    return (1 << n) - 1

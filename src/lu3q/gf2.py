"""Exact GF(2) linear algebra on bit-packed matrices.

A bit matrix is an n_rows x ceil(n_cols/64) array of little-endian
uint64 words: bit j of a row is bit j % 64 of word j // 64, and the
bits past n_cols are zero.  ``pack_indices`` and ``pack_pairs`` pack
column indices straight into words; ``transpose_indices`` transposes
index rows without packing.  A vector is one row of words,
and a ``Subspace`` basis is a ``BitMatrix``.  Python ints used as
bitsets (bit j is column j) appear only at the boundary:
``BitMatrix(int_rows, n_cols)`` packs them and ``BitMatrix.rows``
unpacks them, for tests and benchmarks.

One elimination serves every rank, span test and kernel:
``ReducedEchelon`` keeps a reduced basis of words, in which every basis
row holds no pivot bit but its own, so an incoming row is reduced by
one XOR of the basis rows at its pivot bits.  It can be copied and
continued, and the indices of the rows it takes give prefix ranks,
pivot columns and span membership (a vector lies in the span iff a
continuation does not take it).  It pivots on the highest set bit by
default, which keeps fill-in low on the incidence matrices here.
``rref`` pivots on the lowest set bit: it gives the canonical form in
which ``Subspace`` keeps a span, so two spans are equal iff their bases
are.  ``nullspace`` returns that form too: with M reduced on
highest-bit pivots, free column f gives w_f = e_f + e_p for each pivot
row r_p with bit f.  Each such p exceeds f, so w_f has lowest bit f and
no other free bit, and the w_f in ascending f are the canonical basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class BitMatrix:
    """Dense bit matrix; ``words`` holds its packed rows."""

    __slots__ = ("words", "n_cols")

    def __init__(self, rows: np.ndarray | Sequence[int], n_cols: int):
        """``rows`` is the words array, or the rows as int bitsets; an int
        that is negative or has a bit at n_cols or above raises ValueError."""
        self.words = rows if isinstance(rows, np.ndarray) else _words(rows, n_cols)
        self.n_cols = n_cols

    @property
    def n_rows(self) -> int:
        return len(self.words)

    @property
    def rows(self) -> list[int]:
        """The rows as int bitsets, unpacked on each access."""
        return [int.from_bytes(r.tobytes(), "little") for r in self.words]

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls(np.zeros((n_rows, _width(n_cols)), "<u8"), n_cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(pack_indices(np.arange(n)[:, None], n), n)

    @classmethod
    def from_dense(cls, dense: Iterable[Iterable[int]], n_cols: int | None = None) -> "BitMatrix":
        cells = [list(r) for r in dense]
        width = len(cells[0]) if cells else 0
        i, j = np.nonzero(np.array(cells, np.int64).reshape(len(cells), width) & 1)
        n_cols = width if n_cols is None else n_cols
        return cls(pack_pairs(i, j, len(cells), n_cols), n_cols)

    def get(self, i: int, j: int) -> int:
        return (int(self.words[i, j >> 6]) >> (j & 63)) & 1

    def row_weights(self) -> list[int]:
        return np.bitwise_count(self.words).sum(axis=1, dtype=np.intp).tolist()

    def to_numpy(self) -> np.ndarray:
        return np.unpackbits(_bytes(self.words), axis=1, count=self.n_cols, bitorder="little")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.n_cols == other.n_cols
            and np.array_equal(self.words, other.words)
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_rows}x{self.n_cols})"


class ReducedEchelon:
    """A reduced echelon basis, continued a batch of rows at a time.

    ``basis`` holds the basis rows in the order taken, in the words
    layout, and ``cols`` their pivot columns in the same order.  For
    each prefix of the rows the pivots are the leading bits of its span,
    and a reduced basis is unique for its pivots, so the basis does not
    depend on how the rows were split into batches."""

    __slots__ = ("lowest", "cols", "_store", "_row_of")

    def __init__(self, n_cols: int, lowest: bool = False):
        self.lowest = lowest
        self.cols: list[int] = []
        # basis row k is _store[k + 1]: _store[0] stays zero, and the
        # columns without a pivot map to it in _row_of; grown by doubling
        self._store = np.zeros((8, _width(n_cols)), "<u8")
        self._row_of = np.zeros(n_cols, np.intp)

    @property
    def basis(self) -> np.ndarray:
        return self._store[1 : len(self.cols) + 1]

    def copy(self) -> "ReducedEchelon":
        other = ReducedEchelon.__new__(ReducedEchelon)
        other.lowest, other.cols = self.lowest, list(self.cols)
        other._store, other._row_of = self._store.copy(), self._row_of.copy()
        return other

    def add(self, words: np.ndarray) -> list[int]:
        """Continue the elimination with the rows of ``words``; returns
        the indices, counted from its first row, of the rows outside the
        span of the basis and the rows before them.  The rows' bits are
        indexed a slice at a time."""
        lowest, row_of, cols, store = self.lowest, self._row_of, self.cols, self._store
        width = store.shape[1]
        taken: list[int] = []
        step = _slice_rows(8 * width, 2**18)  # the index temporaries are several times this
        for s in range(0, len(words), step):
            block = words[s : s + step]
            at, bit = _indices(block)
            starts = np.searchsorted(at, np.arange(len(block) + 1)).tolist()
            for i, x in enumerate(block):
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
                part = slice(w, None) if lowest else slice(0, w + 1)
                clear = (store[:k, w] & np.uint64(1 << (c & 63))).nonzero()[0]
                store[clear, part] ^= x[part]
                if k == len(store):  # np.zeros leaves the new rows unmapped until written
                    self._store = np.zeros((2 * k, width), "<u8")
                    self._store[:k] = store
                    store = self._store
                store[k] = x
                row_of[c] = k
                cols.append(c)
                taken.append(s + i)
        return taken


def rank2(m: BitMatrix) -> int:
    """GF(2) rank; the input is not modified."""
    return len(ReducedEchelon(m.n_cols).add(m.words))


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Canonical RREF: (rows sorted by lowest-bit pivot, pivot columns)."""
    e = ReducedEchelon(m.n_cols, lowest=True)
    e.add(m.words)
    return BitMatrix(e.basis[np.argsort(e.cols)], m.n_cols), sorted(e.cols)


class Subspace:
    """A subspace of GF(2)^n stored as a canonical basis: each basis row
    has its own pivot bit and no other row's."""

    __slots__ = ("basis", "pivot_cols")

    def __init__(self, basis: BitMatrix, pivot_cols: list[int]):
        self.basis = basis
        self.pivot_cols = pivot_cols

    @classmethod
    def span(cls, rows: BitMatrix) -> "Subspace":
        return cls(*rref(rows))

    @property
    def n_cols(self) -> int:
        return self.basis.n_cols

    @property
    def dim(self) -> int:
        return self.basis.n_rows

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """v, a row of words, less the basis rows at its pivot bits."""
        cols = np.array(self.pivot_cols, np.intp)
        hit = (v[cols >> 6] >> (cols & 63).astype(np.uint64)) & np.uint64(1)
        return v ^ np.bitwise_xor.reduce(self.basis.words[hit != 0])

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.n_cols})"


def _width(n_cols: int) -> int:
    """Words per row."""
    return (n_cols + 63) // 64


def _words(rows: Sequence[int], n_cols: int) -> np.ndarray:
    """Int bitset rows in the words layout."""
    if len(rows) and (min(rows) < 0 or max(rows).bit_length() > n_cols):
        raise ValueError(f"a row is negative or has a bit past column {n_cols - 1}")
    size = 8 * _width(n_cols)
    packed = bytearray(b"".join(r.to_bytes(size, "little") for r in rows))
    return np.frombuffer(packed, "<u8").reshape(len(rows), size // 8)


def _bytes(words: np.ndarray) -> np.ndarray:
    """A words array as bytes, bit j of a row at bit j % 8 of byte j // 8."""
    return np.ascontiguousarray(words).view(np.uint8)


def _slice_rows(row_bytes: int, block: int = 2**20) -> int:
    """Rows per slice for a slice of about ``block`` bytes."""
    return max(8, block // max(row_bytes, 1))


def pack_pairs(r: Sequence[int], c: Sequence[int], n_rows: int, n_cols: int) -> np.ndarray:
    """The words of the n_rows x n_cols matrix with a 1 at each
    (r[k], c[k]); a pair may repeat.  The pairs are set 2^14 at a time,
    which keeps the temporaries small.  Raises ValueError on a pair
    outside the matrix."""
    words = np.zeros((n_rows, _width(n_cols)), "<u8")
    for s in range(0, len(r), 2**14):
        rs, cs = np.asarray(r[s : s + 2**14], np.intp), np.asarray(c[s : s + 2**14], np.intp)
        if min(rs.min(), cs.min()) < 0 or rs.max() >= n_rows or cs.max() >= n_cols:
            raise ValueError(f"an entry lies outside the {n_rows} x {n_cols} matrix")
        bits = np.left_shift(np.uint64(1), (cs & 63).astype(np.uint64))
        np.bitwise_or.at(words, (rs, cs >> 6), bits)
    return words


def pack_indices(cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Words of rows of column indices: row i has bit c set for each
    entry c of cols[i].  Negative entries set no bit, so rows may have
    different weights."""
    cols = np.asarray(cols)
    i, k = np.nonzero(cols >= 0)
    return pack_pairs(i, cols[i, k], len(cols), n_cols)


def _indices(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the 1s of a words array, in row-major
    order: its nonzero bytes, unpacked."""
    packed = _bytes(words)
    width = packed.shape[1]
    flat = packed.ravel()
    at = np.flatnonzero(flat != 0)  # nonzero is several times faster on bools
    k, b = np.nonzero(np.unpackbits(flat[at, None], axis=1, bitorder="little").view(bool))
    return at[k] // width, at[k] % width * 8 + b


def transpose_indices(cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Index rows of M^T, for M's rows listing the distinct columns in
    ``cols`` in any order, -1 setting no bit: row j lists the rows with
    an entry j, ascending, and -1 pads a lighter row at its end.  Raises
    ValueError on an entry at n_cols or above."""
    cols = np.asarray(cols)
    r, k = np.nonzero(cols >= 0)  # row-major, so r ascends
    c = cols[r, k]
    if c.size and c.max() >= n_cols:
        raise ValueError(f"an entry lies outside the {len(cols)} x {n_cols} matrix")
    order = np.argsort(c, kind="stable")  # ascending row within a column
    counts = np.bincount(c, minlength=n_cols)
    out = np.full((n_cols, counts.max(initial=0)), -1, np.intp)
    out[c[order], np.arange(len(c)) - np.repeat(np.cumsum(counts) - counts, counts)] = r[order]
    return out


def nullspace(m: BitMatrix) -> Subspace:
    """Canonical basis of {v : M v = 0}, one vector w_f per free column
    (see the module docstring); dimension is n_cols - rank2(M).  The
    basis is built a slice of free columns at a time, with bit f of each
    pivot row read from the packed reduced rows."""
    n = m.n_cols
    e = ReducedEchelon(n)
    e.add(m.words)
    pivot_cols = np.array(e.cols, np.intp)
    is_free = np.ones(n, dtype=bool)
    is_free[pivot_cols] = False
    free = np.flatnonzero(is_free)
    rows = _bytes(e.basis)
    basis = np.zeros((len(free), _width(n)), "<u8")
    step = _slice_rows(n)  # w below is about step x n bytes
    for s in range(0, len(free), step):
        f = free[s : s + step]
        w = np.zeros((len(f), 64 * basis.shape[1]), dtype=np.uint8)  # row k is w_{f[k]}
        w[:, pivot_cols] = ((rows[:, f >> 3] >> (f & 7).astype(np.uint8)) & 1).T  # bits f
        w[np.arange(len(f)), f] = 1
        basis[s : s + step] = np.packbits(w, axis=1, bitorder="little").view("<u8")
    return Subspace(BitMatrix(basis, n), free.tolist())

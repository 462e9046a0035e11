"""Reader/writer for the alist sparse-matrix interchange format.

Layout written (and expected back, byte for byte):

    line 1: "n m"                     (columns, rows)
    line 2: "max_col_wt max_row_wt"
    line 3: n column weights
    line 4: m row weights
    next n lines: 1-based row indices of each column, 0-padded to max_col_wt
    next m lines: 1-based column indices of each row, 0-padded to max_row_wt

Single spaces separate fields; every line ends with a newline.  The two
index sections are index rows, 1-based: the writer takes a matrix's
index rows (``IncidenceMatrix.cols``) and the reader returns them, and
the column section is the index rows of the transpose
(``gf2.transpose_indices``).  No bit is packed either way.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lu3q.gf2 import transpose_indices


def write_alist(cols: np.ndarray, n_cols: int, path: str | Path) -> None:
    Path(path).write_text(to_alist_text(cols, n_cols))


def to_alist_text(cols: np.ndarray, n_cols: int) -> str:
    """The alist text of the matrix whose rows list the distinct columns
    in ``cols``, in any order, -1 setting no bit."""
    by_col = transpose_indices(cols, n_cols)
    # the columns' rows, then the rows' columns, ascending: 1-based, and
    # the -1 padding at the end of a lighter list becomes its 0 padding
    sections = [by_col + 1, transpose_indices(by_col, len(cols)) + 1]
    lines = [
        [n_cols, len(cols)],
        [s.shape[1] for s in sections],
        *(np.count_nonzero(s, axis=1).tolist() for s in sections),
        *(row for s in sections for row in s.tolist()),
    ]
    return "".join(" ".join(map(str, line)) + "\n" for line in lines)


def read_alist(path: str | Path) -> tuple[np.ndarray, int]:
    return from_alist_text(Path(path).read_text())


def from_alist_text(text: str) -> tuple[np.ndarray, int]:
    """Parse alist text into (cols, n_cols): the index rows of the
    matrix, ascending, with -1 padding each lighter row at its end to
    the largest row weight.  Malformed input raises ValueError.

    Text that parses is the writer's output up to the spacing within
    lines: numbers are canonical, each column or row list ascends
    strictly before its 0 padding, and each line holds exactly one
    section or list.
    """
    words = text.split()
    numbers = [int(w) for w in words]
    if any(str(v) != w for v, w in zip(numbers, words)):
        raise ValueError("non-canonical number")
    tokens = iter(numbers)

    def index_list(length: int, bound: int) -> list[int]:
        """1-based indices up to bound, ascending, then 0 padding."""
        got = [next(tokens) for _ in range(length)]
        for v in got:
            if not 0 <= v <= bound:
                raise ValueError(f"index {v} outside 0..{bound}")
        listed = sorted(set(got) - {0})
        if got != listed + [0] * (length - len(listed)):
            raise ValueError("index list not strictly ascending before its 0 padding")
        return listed

    try:
        n_cols, n_rows, max_col, max_row = [next(tokens) for _ in range(4)]
        if min(n_cols, n_rows) < 0 or n_cols + n_rows > len(words):
            raise ValueError(f"impossible dimensions {n_rows}x{n_cols}")
        col_wts = [next(tokens) for _ in range(n_cols)]
        row_wts = [next(tokens) for _ in range(n_rows)]
        col_lists = [index_list(max_col, n_rows) for _ in range(n_cols)]
        width = max(map(len, col_lists), default=0)
        padded = [listed + [0] * (width - len(listed)) for listed in col_lists]
        cols = transpose_indices(np.array(padded, np.intp).reshape(n_cols, width) - 1, n_rows)
        # row sections are redundant given the column sections; consume
        # and cross-check them
        row_lists = [[j + 1 for j in row if j >= 0] for row in cols.tolist()]
        for i, want in enumerate(row_lists):
            if index_list(max_row, n_cols) != want:
                raise ValueError(f"row section disagrees with column section at row {i}")
    except StopIteration:
        raise ValueError("truncated alist data") from None
    if next(tokens, None) is not None:
        raise ValueError("data after the row section")
    if list(map(len, row_lists)) != row_wts or list(map(len, col_lists)) != col_wts:
        raise ValueError("declared weights disagree with matrix content")
    if max_col != max((w for w in col_wts), default=0) or max_row != max(
        (w for w in row_wts), default=0
    ):
        raise ValueError("declared maximum weights disagree with weight lists")
    layout = [2, 2, n_cols, n_rows] + [max_col] * n_cols + [max_row] * n_rows
    if [len(line.split()) for line in text.splitlines()] != layout:
        raise ValueError("line breaks do not separate the alist sections")
    return cols, n_cols

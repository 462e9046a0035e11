"""Reader/writer for the alist sparse-matrix interchange format.

Layout written (and expected back, byte for byte):

    line 1: "n m"                     (columns, rows)
    line 2: "max_col_wt max_row_wt"
    line 3: n column weights
    line 4: m row weights
    next n lines: 1-based row indices of each column, 0-padded to max_col_wt
    next m lines: 1-based column indices of each row, 0-padded to max_row_wt

Single spaces separate fields; every line ends with a newline.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lu3q.gf2 import BitMatrix, bit_indices, pack_pairs


def write_alist(m: BitMatrix, path: str | Path) -> None:
    Path(path).write_text(to_alist_text(m))


def to_alist_text(m: BitMatrix) -> str:
    n_rows, n_cols = m.n_rows, m.n_cols
    rows, cols = bit_indices(m)
    order = np.argsort(cols, kind="stable")  # ascending rows within a column
    row_lists = _split(cols.tolist(), rows, n_rows)
    col_lists = _split(rows[order].tolist(), cols, n_cols)
    max_col = max((len(c) for c in col_lists), default=0)
    max_row = max((len(r) for r in row_lists), default=0)
    lines = [
        f"{n_cols} {n_rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(c)) for c in col_lists),
        " ".join(str(len(r)) for r in row_lists),
    ]
    for c in col_lists:
        padded = [i + 1 for i in c] + [0] * (max_col - len(c))
        lines.append(" ".join(map(str, padded)))
    for r in row_lists:
        padded = [j + 1 for j in r] + [0] * (max_row - len(r))
        lines.append(" ".join(map(str, padded)))
    return "\n".join(lines) + "\n"


def _split(values: list[int], keys: np.ndarray, n: int) -> list[list[int]]:
    """values grouped into n consecutive lists, list k holding as many
    as keys has entries equal to k."""
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return [values[a:b] for a, b in zip([0] + ends, ends)]


def read_alist(path: str | Path) -> BitMatrix:
    return from_alist_text(Path(path).read_text())


def from_alist_text(text: str) -> BitMatrix:
    """Parse alist text; malformed input raises ValueError.

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
        r = [v - 1 for listed in col_lists for v in listed]
        c = [j for j, listed in enumerate(col_lists) for _ in listed]
        m = BitMatrix(pack_pairs(r, c, n_rows, n_cols), n_cols)
        # row sections are redundant given the column sections; consume
        # and cross-check them
        rows, cols = bit_indices(m)
        for i, want in enumerate(_split((cols + 1).tolist(), rows, n_rows)):
            if index_list(max_row, n_cols) != want:
                raise ValueError(f"row section disagrees with column section at row {i}")
    except StopIteration:
        raise ValueError("truncated alist data") from None
    if next(tokens, None) is not None:
        raise ValueError("data after the row section")
    if m.row_weights() != row_wts or m.col_weights() != col_wts:
        raise ValueError("declared weights disagree with matrix content")
    if max_col != max((w for w in col_wts), default=0) or max_row != max(
        (w for w in row_wts), default=0
    ):
        raise ValueError("declared maximum weights disagree with weight lists")
    layout = [2, 2, n_cols, n_rows] + [max_col] * n_cols + [max_row] * n_rows
    if [len(line.split()) for line in text.splitlines()] != layout:
        raise ValueError("line breaks do not separate the alist sections")
    return m

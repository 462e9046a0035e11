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

from lu3q.gf2 import BitMatrix


def write_alist(m: BitMatrix, path: str | Path) -> None:
    Path(path).write_text(to_alist_text(m))


def to_alist_text(m: BitMatrix) -> str:
    n_rows, n_cols = m.n_rows, m.n_cols
    col_lists: list[list[int]] = [[] for _ in range(n_cols)]
    row_lists: list[list[int]] = []
    for i, r in enumerate(m.rows):
        cols = []
        while r:
            low = r & -r
            j = low.bit_length() - 1
            cols.append(j)
            r ^= low
        row_lists.append(cols)
        for j in cols:
            col_lists[j].append(i)
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


def read_alist(path: str | Path) -> BitMatrix:
    return from_alist_text(Path(path).read_text())


def from_alist_text(text: str) -> BitMatrix:
    """Parse alist text; malformed input raises ValueError."""
    words = text.split()
    tokens = iter(words)

    def index(bound: int) -> int:
        """A 1-based index up to bound, or the 0 padding."""
        v = int(next(tokens))
        if not 0 <= v <= bound:
            raise ValueError(f"index {v} outside 0..{bound}")
        return v

    try:
        n_cols = int(next(tokens))
        n_rows = int(next(tokens))
        max_col = int(next(tokens))
        max_row = int(next(tokens))
        if min(n_cols, n_rows) < 0 or n_cols + n_rows > len(words):
            raise ValueError(f"impossible dimensions {n_rows}x{n_cols}")
        col_wts = [int(next(tokens)) for _ in range(n_cols)]
        row_wts = [int(next(tokens)) for _ in range(n_rows)]
        rows = [0] * n_rows
        for j in range(n_cols):
            for k in range(max_col):
                v = index(n_rows)
                if v:
                    rows[v - 1] |= 1 << j
        # row sections are redundant given the column sections; consume
        # and cross-check them
        for i in range(n_rows):
            seen = 0
            for k in range(max_row):
                v = index(n_cols)
                if v:
                    seen += 1
                    if not (rows[i] >> (v - 1)) & 1:
                        raise ValueError(
                            f"row section disagrees with column section at row {i}"
                        )
            if seen != row_wts[i]:
                raise ValueError(f"row {i} weight mismatch")
    except StopIteration:
        raise ValueError("truncated alist data") from None
    m = BitMatrix(rows, n_cols)
    if m.row_weights() != row_wts or m.col_weights() != col_wts:
        raise ValueError("declared weights disagree with matrix content")
    if max_col != max((w for w in col_wts), default=0) or max_row != max(
        (w for w in row_wts), default=0
    ):
        raise ValueError("declared maximum weights disagree with weight lists")
    return m

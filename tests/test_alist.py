import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gf2_oracle import index_rows
from lu3q.alist import from_alist_text, read_alist, to_alist_text, write_alist
from lu3q.gf2 import BitMatrix


def alist_of(m: BitMatrix) -> str:
    """The writer's text for m, from its index rows."""
    return to_alist_text(index_rows(m), m.n_cols)


def same(back: tuple[np.ndarray, int], m: BitMatrix) -> bool:
    """The reader's (cols, n_cols) are m's index rows."""
    cols, n_cols = back
    return n_cols == m.n_cols and np.array_equal(cols, index_rows(m))


def test_h32_alist_header(matrix):
    m = matrix(2, "kim")
    text = to_alist_text(m.cols, m.n_cols)
    lines = text.splitlines()
    assert lines[0] == "8 8"
    assert lines[1] == "2 2"
    assert lines[2] == " ".join(["2"] * 8)
    assert lines[3] == " ".join(["2"] * 8)


def test_pl_q4_alist_header(matrix):
    m = matrix(4, "pl")
    text = to_alist_text(m.cols, m.n_cols)
    lines = text.splitlines()
    assert lines[0] == "85 85"
    assert lines[1] == "5 5"


def test_roundtrip_bytes(matrix, tmp_path):
    m = matrix(2, "p1l1")
    path = tmp_path / "m.alist"
    write_alist(m.cols, m.n_cols, path)
    back = read_alist(path)
    assert same(back, m.bits)
    assert to_alist_text(*back) == path.read_text()


def test_roundtrip_non_square():
    m = BitMatrix.from_dense([[1, 0, 1, 1, 0], [0, 1, 0, 0, 1], [1, 1, 0, 0, 0]])
    assert same(from_alist_text(alist_of(m)), m)


def test_roundtrip_with_empty_row_and_column():
    m = BitMatrix.from_dense([[0, 1, 0], [0, 0, 0]])
    back = from_alist_text(alist_of(m))
    assert same(back, m)


def test_reader_rejects_truncated(matrix):
    text = alist_of(matrix(2, "kim").bits)
    with pytest.raises(ValueError):
        from_alist_text(text[: len(text) // 2])


def test_reader_rejects_inconsistent_weights(matrix):
    text = alist_of(matrix(2, "kim").bits)
    lines = text.splitlines()
    lines[2] = " ".join(["3"] + lines[2].split()[1:])
    with pytest.raises(ValueError):
        from_alist_text("\n".join(lines) + "\n")


def test_reader_rejects_disagreeing_row_section(matrix):
    text = alist_of(matrix(2, "kim").bits)
    lines = text.splitlines()
    # swap a 1-based index in the first row line to a column that is zero
    row_line = lines[4 + 8].split()
    target = set(row_line)
    swap = next(str(v) for v in range(1, 9) if str(v) not in target)
    row_line[0] = swap
    lines[4 + 8] = " ".join(row_line)
    with pytest.raises(ValueError):
        from_alist_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("section_line, bad", [(4, "3"), (4, "-1"), (6, "3"), (6, "-1")])
def test_reader_rejects_out_of_range_index(section_line, bad):
    # identity 2x2: lines 4-5 are the column section, 6-7 the row section
    lines = alist_of(BitMatrix.identity(2)).splitlines()
    lines[section_line] = bad
    with pytest.raises(ValueError, match="outside"):
        from_alist_text("\n".join(lines) + "\n")


def _edit_line(m, line, words):
    lines = alist_of(m).splitlines()
    lines[line] = words
    return "\n".join(lines) + "\n"


def test_reader_rejects_repeated_index():
    m = BitMatrix.from_dense([[1, 1], [0, 1]])
    assert alist_of(m).splitlines()[4] == "1 0"
    with pytest.raises(ValueError, match="not strictly ascending"):
        from_alist_text(_edit_line(m, 4, "1 1"))


@pytest.mark.parametrize("line, words, match", [
    (5, "2 1", "not strictly ascending"),  # column 1 lists rows 2, 1
    (6, "2 1", "not strictly ascending"),  # row 0 lists columns 2, 1
    (4, "0 1", "not strictly ascending"),
])
def test_reader_rejects_unsorted_or_padded_lists(line, words, match):
    m = BitMatrix.from_dense([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match=match):
        from_alist_text(_edit_line(m, line, words))


@pytest.mark.parametrize("edit", ["+1", "01", "-0", "1_0"])
def test_reader_rejects_non_canonical_numbers(edit):
    m = BitMatrix.from_dense([[1, 0], [0, 1]])
    assert alist_of(m).splitlines()[4] == "1"
    with pytest.raises(ValueError, match="non-canonical"):
        from_alist_text(_edit_line(m, 4, edit))


def test_reader_rejects_sections_on_the_wrong_lines():
    # the tokens of a 2x0 matrix, laid out on the lines of a 0x2 one
    assert alist_of(BitMatrix([], 2)) == "2 0\n0 0\n0 0\n\n\n\n"
    with pytest.raises(ValueError, match="line breaks"):
        from_alist_text("0 2\n0 0\n0 0\n\n\n\n")
    assert to_alist_text(*from_alist_text("0 2\n0 0\n\n0 0\n\n\n")).startswith("0 2\n")


def test_reader_rejects_trailing_data():
    text = alist_of(BitMatrix.identity(2))
    with pytest.raises(ValueError, match="after the row section"):
        from_alist_text(text + "0\n")


@st.composite
def bit_matrices(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(0, 6))
    rows = draw(
        st.lists(st.integers(0, (1 << n_cols) - 1), min_size=n_rows, max_size=n_rows)
    )
    return BitMatrix(rows, n_cols)


@given(bit_matrices())
def test_random_matrices_roundtrip_bytes(m):
    text = alist_of(m)
    back = from_alist_text(text)
    assert same(back, m)
    assert to_alist_text(*back) == text


def reference_alist_text(m):
    """The writer as a per-entry loop."""
    row_lists = [[j + 1 for j in range(m.n_cols) if m.get(i, j)] for i in range(m.n_rows)]
    col_lists = [[i + 1 for i in range(m.n_rows) if m.get(i, j)] for j in range(m.n_cols)]
    max_col = max(map(len, col_lists), default=0)
    max_row = max(map(len, row_lists), default=0)
    lines = [f"{m.n_cols} {m.n_rows}", f"{max_col} {max_row}",
             " ".join(str(len(c)) for c in col_lists), " ".join(str(len(r)) for r in row_lists)]
    lines += [" ".join(map(str, c + [0] * (max_col - len(c)))) for c in col_lists]
    lines += [" ".join(map(str, r + [0] * (max_row - len(r)))) for r in row_lists]
    return "\n".join(lines) + "\n"


@given(bit_matrices())
def test_writer_equals_the_per_entry_loop(m):
    assert alist_of(m) == reference_alist_text(m)


def test_writer_equals_the_per_entry_loop_on_p1l1_q4(matrix):
    m = matrix(4, "p1l1")
    assert to_alist_text(m.cols, m.n_cols) == reference_alist_text(m.bits)


@given(bit_matrices(), st.data())
def test_malformed_text_raises_only_value_error(m, data):
    tokens = alist_of(m).split()
    i = data.draw(st.integers(0, len(tokens) - 1))
    word = data.draw(st.integers(-10, 10).map(str) | st.sampled_from(["x", "1.5", "99999"]))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
    if edit == "replace":
        tokens[i] = word
    elif edit == "insert":
        tokens.insert(i, word)
    elif edit == "delete":
        del tokens[i]
    else:
        tokens = tokens[:i]
    try:
        from_alist_text(" ".join(tokens))
    except ValueError:
        pass


@given(st.text())
def test_arbitrary_text_raises_only_value_error(text):
    try:
        from_alist_text(text)
    except ValueError:
        pass


@given(bit_matrices(), st.data())
def test_canonically_spaced_text_that_parses_reserialises(m, data):
    """Replace tokens in place, keeping the line layout: whatever still
    parses must be the writer's output for what it parsed."""
    lines = [line.split() for line in alist_of(m).splitlines()]
    slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    words = st.integers(-2, 8).map(str) | st.sampled_from(["01", "+1", "-0", "1_0"])
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.sampled_from(slots))
        lines[i][j] = data.draw(words)
    text = "".join(" ".join(line) + "\n" for line in lines)
    try:
        back = from_alist_text(text)
    except ValueError:
        return
    assert to_alist_text(*back) == text

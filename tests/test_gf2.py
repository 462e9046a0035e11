import ast
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gf2_oracle import (
    echelon,
    index_rows,
    kernel_intersection_dim,
    mul_vec,
    nullspace_ints,
    reduce_int,
    reduced,
    restrict_rows,
    restrict_vector,
    rref_ints,
    transpose,
)
from lu3q.alist import from_alist_text, to_alist_text
from lu3q.gf2 import (
    BitMatrix,
    ReducedEchelon,
    Subspace,
    nullspace,
    pack_indices,
    pack_pairs,
    rank2,
    rref,
    transpose_indices,
)


def naive_rank(dense):
    """Oracle: plain list-of-lists elimination, no bit packing."""
    rows = [list(r) for r in dense]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[r])]
        rank += 1
        r += 1
    return rank


def random_bitmatrix(rng, n_rows, n_cols, density=0.4):
    dense = [[1 if rng.random() < density else 0 for _ in range(n_cols)] for _ in range(n_rows)]
    return BitMatrix.from_dense(dense, n_cols), dense


def test_rank_identity_and_zero():
    assert rank2(BitMatrix.identity(5)) == 5
    assert rank2(BitMatrix.zeros(4, 7)) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(40):
        m, dense = random_bitmatrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        assert rank2(m) == naive_rank(dense)


def test_rank_does_not_modify_input():
    m = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    before = list(m.rows)
    rank2(m)
    assert m.rows == before


def test_rank_invariant_under_permutation():
    rng = random.Random(11)
    m, dense = random_bitmatrix(rng, 10, 10)
    r = rank2(m)
    shuffled = list(dense)
    rng.shuffle(shuffled)
    cols = list(range(10))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled]
    assert rank2(BitMatrix.from_dense(permuted)) == r


def test_rank_equals_transpose_rank():
    rng = random.Random(13)
    for _ in range(20):
        m, _ = random_bitmatrix(rng, rng.randint(1, 15), rng.randint(1, 15))
        assert rank2(m) == rank2(transpose(m))


def naive_pivot_cols(dense):
    """Oracle: classic left-to-right column-scan elimination pivots."""
    rows = [list(r) for r in dense]
    if not rows:
        return []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def test_rref_pivots_match_classic_elimination():
    rng = random.Random(23)
    for _ in range(40):
        m, dense = random_bitmatrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        _, cols = rref(m)
        assert cols == naive_pivot_cols(dense)


def test_rref_is_reduced():
    rng = random.Random(3)
    for _ in range(30):
        m, _ = random_bitmatrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        basis, cols = rref(m)
        rows = basis.rows
        assert len(rows) == rank2(m)
        assert cols == sorted(cols)
        for i, c in enumerate(cols):
            for i2, r2 in enumerate(rows):
                assert ((r2 >> c) & 1) == (1 if i2 == i else 0)


def test_nullspace_definition():
    assert nullspace(BitMatrix.identity(4)).dim == 0
    rng = random.Random(5)
    for _ in range(25):
        m, _ = random_bitmatrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        ns = nullspace(m)
        assert ns.dim == m.n_cols - rank2(m)
        for v in ns.basis.rows:
            assert mul_vec(m, v) == 0


@st.composite
def bit_matrices(draw, max_side=12):
    n_rows = draw(st.integers(0, max_side))
    n_cols = draw(st.integers(0, max_side))
    rows = draw(
        st.lists(st.integers(0, (1 << n_cols) - 1), min_size=n_rows, max_size=n_rows)
    )
    return BitMatrix(rows, n_cols)


@given(bit_matrices())
def test_rank_equals_naive_rank(m):
    assert rank2(m) == naive_rank(m.to_numpy().tolist())


@given(bit_matrices())
def test_nullspace_equals_reference(m):
    got = nullspace(m)
    assert (got.basis.rows, got.pivot_cols) == nullspace_ints(m.rows, m.n_cols)
    assert got.n_cols == m.n_cols


@given(bit_matrices())
def test_column_greedy_pivots_equal_rref_pivots(m):
    taken = ReducedEchelon(m.n_rows).add(transpose(m).words)
    assert taken == rref(m)[1]


@given(bit_matrices(), st.data())
def test_a_continuation_tests_span_membership(m, data):
    # v lies in the span iff the continued elimination does not take it
    v = data.draw(st.integers(0, (1 << m.n_cols) - 1))
    e = ReducedEchelon(m.n_cols)
    taken = e.add(m.words)
    assert len(e.cols) == len(taken) == rank2(m)
    v = BitMatrix([v], m.n_cols).words
    assert (e.add(v) == []) == Subspace.span(m).contains(v[0])


def assert_reduced_echelon_equals_reference(m, lowest):
    pivots, taken = echelon(m.rows, lowest=lowest)
    want = reduced(pivots, lowest)
    e = ReducedEchelon(m.n_cols, lowest)
    got_taken = e.add(m.words)
    assert e.basis.shape == (len(want), (m.n_cols + 63) // 64)
    assert e.basis.dtype == np.uint64
    assert [int.from_bytes(r.tobytes(), "little") for r in e.basis] == list(want.values())
    assert e.cols == list(want)
    assert got_taken == taken


@st.composite
def word_matrices(draw):
    """Rows across word boundaries, with zero rows and repeated rows."""
    n_cols = draw(st.sampled_from([1, 2, 7, 63, 64, 65, 129]))
    row = st.integers(0, (1 << n_cols) - 1)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.one_of(row, st.just(0), st.sampled_from(pool)), max_size=24))
    return BitMatrix(rows, n_cols)


@given(st.one_of(word_matrices(), bit_matrices()), st.booleans())
def test_reduced_echelon_equals_the_back_substituted_echelon(m, lowest):
    assert_reduced_echelon_equals_reference(m, lowest)


@given(word_matrices(), st.data(), st.booleans())
def test_a_continued_elimination_equals_one_elimination(m, data, lowest):
    # A, then a copy continued with B: the basis, pivots and taken rows
    # (counted from B's first row) of one elimination of A + B
    k = data.draw(st.integers(0, m.n_rows))
    whole = ReducedEchelon(m.n_cols, lowest)
    taken = whole.add(m.words)
    e = ReducedEchelon(m.n_cols, lowest)
    head = e.add(m.words[:k])
    basis, cols = e.basis.copy(), list(e.cols)
    cont = e.copy()
    tail = cont.add(m.words[k:])
    assert head + [k + i for i in tail] == taken
    assert np.array_equal(cont.basis, whole.basis) and cont.cols == whole.cols
    # the copy leaves the original as it was
    assert np.array_equal(e.basis, basis) and e.cols == cols


@pytest.mark.parametrize("n_cols", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("lowest", [False, True])
def test_reduced_echelon_edge_cases(n_cols, lowest):
    rng = random.Random(n_cols)
    # full rank: unit rows with random bits below (above, if lowest) the
    # unit, shuffled, then every row again and a sum of two
    full = [
        (1 << i) | rng.getrandbits(n_cols) & (~((2 << i) - 1) if lowest else (1 << i) - 1)
        for i in range(n_cols)
    ]
    rng.shuffle(full)
    full += full + [full[0] ^ full[-1]]
    for rows in ([], [0], [0] * 3, full[:n_cols], full):
        assert_reduced_echelon_equals_reference(BitMatrix(rows, n_cols), lowest)
    e = ReducedEchelon(n_cols, lowest)
    taken = e.add(BitMatrix(full, n_cols).words)
    assert sorted(e.cols) == list(range(n_cols))
    assert taken == list(range(n_cols))


def vec(v, n_cols):
    """The int bitset v as one row of words."""
    return BitMatrix([v], n_cols).words[0]


def test_subspace_contains_and_equality():
    rows = [0b0111, 0b1100, 0b1011]
    s = Subspace.span(BitMatrix(rows, 4))
    for r in rows:
        assert s.contains(vec(r, 4))
    assert s.contains(vec(0, 4))
    assert s.contains(vec(rows[0] ^ rows[1], 4))
    # same span from a different generating set gives an identical basis
    s2 = Subspace.span(BitMatrix([rows[0] ^ rows[1], rows[1], rows[2] ^ rows[0]], 4))
    assert s == s2


def test_in_span_rejects_outside_vector():
    s = Subspace.span(BitMatrix([0b011, 0b110], 3))
    assert s.dim == 2
    assert not s.contains(vec(0b001, 3))


def test_restrict_vector_basics():
    v = 0b01101
    assert restrict_vector(v, [0, 1, 2]) == 0b101
    assert restrict_vector(v, [2, 3]) == 0b11
    assert restrict_vector(0b11111, [1, 3]) == 0b11
    assert restrict_vector(v, []) == 0


def test_kernel_intersection_dim_small():
    # subspace of GF(2)^4 spanned by e0+e1 and e2: restricting to {0,1}
    # kills exactly the e2 direction
    s = Subspace.span(BitMatrix([0b0011, 0b0100], 4))
    assert kernel_intersection_dim(s, [0, 1]) == 1
    assert kernel_intersection_dim(s, [0, 1, 2]) == 0
    assert kernel_intersection_dim(s, []) == 2


def test_restrict_rows_and_roundtrip_vecs():
    rows = [0b1010, 0b0110]
    assert restrict_rows(rows, [1, 3]) == [0b11, 0b01]
    v = 0b1011
    assert BitMatrix.from_dense(BitMatrix([v], 4).to_numpy()).rows == [v]


def reference_restrict_vector(v, cols):
    """The per-bit projection loop."""
    out = 0
    for k, c in enumerate(cols):
        if (v >> c) & 1:
            out |= 1 << k
    return out


@given(
    st.lists(st.integers(0, (1 << 70) - 1), max_size=6),
    st.lists(st.integers(0, 80), max_size=20),
)
def test_restrict_rows_equals_the_per_bit_loop(rows, cols):
    # columns may repeat, come in any order, or lie past every row's bits
    want = [reference_restrict_vector(r, cols) for r in rows]
    assert restrict_rows(rows, cols) == want
    assert [restrict_vector(r, cols) for r in rows] == want


def test_nullspace_peak_memory_q16(matrix):
    # the rows are packed and the kernel built a slice at a time, and the
    # reduced basis is packed words; the earlier full rank x n unpacking
    # peaked at 22.9 MB here
    kim = matrix(16, "kim").bits
    tracemalloc.start()
    try:
        ns = nullspace(kim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ns.dim == 2238
    assert peak < 22.9e6 / 3


def scatter(cols: np.ndarray, width: int, rng) -> np.ndarray:
    """Index rows spread over ``width`` slots each, in a random order
    within the row, with -1 in the other slots."""
    out = np.full((len(cols), width), -1)
    for i, row in enumerate(cols):
        row = row[row >= 0]
        out[i, rng.sample(range(width), len(row))] = row
    return out


@given(bit_matrices(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_transpose_equals_the_dense_transpose(m, extra, rng):
    # rows in any order and padded with -1 anywhere; the transpose's rows
    # ascend, with their padding at the end, as index_rows lists them
    cols = index_rows(m)
    t = transpose_indices(scatter(cols, cols.shape[1] + extra, rng), m.n_cols)
    assert t.dtype == np.intp
    assert np.array_equal(t, index_rows(transpose(m)))
    assert np.array_equal(transpose_indices(t, m.n_rows), cols)


def test_transpose_and_weights():
    m = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    assert transpose_indices([[0, 1], [1, 2]], 3).tolist() == [[0, -1], [0, 1], [1, -1]]
    assert transpose_indices([[2, -1, 0], [-1, -1, -1]], 4).tolist() == [[0], [-1], [0], [-1]]
    assert transpose_indices(np.zeros((0, 2), int), 2).shape == (2, 0)
    with pytest.raises(ValueError, match="outside"):
        transpose_indices([[0, 3]], 3)
    assert m.row_weights() == [2, 2]
    assert (m.to_numpy() == [[1, 1, 0], [0, 1, 1]]).all()


@st.composite
def boundary_rows(draw):
    """Int rows at and across the word boundaries, with zero rows and
    repeated rows."""
    n_cols = draw(st.sampled_from([1, 63, 64, 65, 129]))
    row = st.integers(0, (1 << n_cols) - 1)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.one_of(row, st.just(0), st.sampled_from(pool)), max_size=12))
    return rows, n_cols


@given(boundary_rows(), st.randoms(use_true_random=False))
def test_every_builder_packs_the_words_of_the_int_rows(case, rng):
    rows, n_cols = case
    m = BitMatrix(rows, n_cols)
    # bit j of row i at bit j % 64 of word j // 64
    width = (n_cols + 63) // 64
    assert m.words.shape == (len(rows), width) and m.words.dtype == np.dtype("<u8")
    assert m.words.tolist() == [[r >> 64 * k & (2**64 - 1) for k in range(width)] for r in rows]
    assert m.rows == rows
    # rows of column indices, in any order, padded with -1 anywhere
    cols = scatter(index_rows(m), n_cols + 2, rng)
    assert np.array_equal(pack_indices(cols, n_cols), m.words)
    transposed = [sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(n_cols)]
    t = transpose_indices(cols, n_cols)
    assert np.array_equal(pack_indices(t, len(rows)), BitMatrix(transposed, len(rows)).words)
    back, n = from_alist_text(to_alist_text(cols, n_cols))
    assert n == n_cols and np.array_equal(pack_indices(back, n_cols), m.words)


def test_no_other_module_imports_a_private_gf2_name():
    # the words layout stays inside gf2.py: the other modules use its
    # public builders and readers
    src = Path(__file__).resolve().parents[1] / "src" / "lu3q"
    private = []
    for path in sorted(src.glob("*.py")):
        if path.name == "gf2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("lu3q.gf2", "gf2"):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


@given(boundary_rows(), st.data())
def test_words_subspace_equals_the_int_references(case, data):
    rows, n_cols = case
    m = BitMatrix(rows, n_cols)
    basis, cols = rref(m)
    assert (basis.rows, cols) == rref_ints(rows)
    assert basis.n_cols == n_cols
    ns = nullspace(m)
    assert (ns.basis.rows, ns.pivot_cols) == nullspace_ints(rows, n_cols)
    assert ns.n_cols == n_cols
    # a vector drawn at random, and one inside the span
    picks = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    inside = 0
    for r, pick in zip(rows, picks):
        inside ^= r if pick else 0
    s = Subspace.span(m)
    for v in (data.draw(st.integers(0, (1 << n_cols) - 1)), inside):
        want = reduce_int(*rref_ints(rows), v)
        assert BitMatrix(s.reduce(vec(v, n_cols))[None], n_cols).rows == [want]
        assert s.contains(vec(v, n_cols)) == (want == 0)
    assert s.contains(vec(inside, n_cols))
    v = data.draw(st.integers(0, (1 << n_cols) - 1))
    want = reduce_int(*nullspace_ints(rows, n_cols), v)
    assert BitMatrix(ns.reduce(vec(v, n_cols))[None], n_cols).rows == [want]
    assert ns.contains(vec(v, n_cols)) == (want == 0) == (mul_vec(m, v) == 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BitMatrix([1 << 100, 3], 85),  # a bit past the last column
        lambda: BitMatrix([1 << 85], 85),
        lambda: BitMatrix([-1], 85),
        lambda: pack_pairs([0], [85], 1, 85),  # column n_cols
        lambda: pack_pairs([0], [-1], 1, 85),
        lambda: pack_pairs([-1], [3], 1, 85),
        lambda: pack_pairs([1], [3], 1, 85),  # row n_rows
    ],
    ids=["int-past-width", "int-at-width", "negative-int", "column-n_cols",
         "negative-column", "negative-row", "row-n_rows"],
)
def test_an_entry_outside_the_matrix_is_refused(build):
    with pytest.raises(ValueError):
        build()


def _mentions_words(node: ast.AST) -> bool:
    """The expression reads a ``.words`` array or calls a pack_* builder."""
    return any(
        isinstance(n, ast.Attribute) and n.attr == "words"
        or isinstance(n, ast.Name) and n.id in ("pack_pairs", "pack_indices")
        for n in ast.walk(node)
    )


def test_only_gf2_converts_int_bitsets():
    # Python ints are bitsets only at BitMatrix's boundary: no other module
    # reads BitMatrix.rows, and each builds a BitMatrix from words, passed
    # directly or through a name assigned only words in the same function
    src = Path(__file__).resolve().parents[1] / "src" / "lu3q"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "gf2.py":
            continue
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.Module)):
                continue
            assigned: dict[str, list[ast.AST]] = {}
            for n in ast.walk(func):
                if isinstance(n, ast.Assign):
                    for t in n.targets:
                        if isinstance(t, ast.Name):
                            assigned.setdefault(t.id, []).append(n.value)
            for n in ast.walk(func):
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "BitMatrix":
                    arg = n.args[0]
                    values = assigned.get(arg.id, []) if isinstance(arg, ast.Name) else [arg]
                    if not values or not all(map(_mentions_words, values)):
                        found.append(f"{path.name}:{n.lineno}: {ast.unparse(n)}")
        for n in ast.walk(tree):
            # GirthReport.rows is a pair of row indices, not a BitMatrix
            if isinstance(n, ast.Attribute) and n.attr == "rows" and ast.unparse(n) != "rep.rows":
                found.append(f"{path.name}:{n.lineno}: {ast.unparse(n)}")
    assert sorted(set(found)) == []

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lu3q.verify
from gf2_oracle import kernel_intersection_basis, line_code, restrict_vector
from gfq_oracle import GFqLinAlg, beta_reference
from lu3q.gf2 import BitMatrix
from lu3q.polyfn import (
    NormalFormViolationError,
    NotInKernelError,
    build_beta,
    code_coefficients,
    compose_digits,
    compose_exponents,
    delta_line,
    digitize_exponents,
    digitize_monomial,
    evaluate,
    in_span_beta,
    indicator_of_zero_set,
    interpolate_tables,
    kernel_normal_form,
    linear_form,
    mono_index,
    p_add,
    p_mul,
    poly_to_vec,
    reduce_against_beta,
    reduce_mod_I,
    vec_to_poly,
)
from lu3q.geometry import torus_and_swap
from lu3q.verify import kernel_forms, line_orbit_escapes, line_span_residuals, run_checks
from test_acceptance import LINE_ESCAPES

ONE = {(0, 0, 0, 0): 1}


def delta_point(p, Q):
    """Reference point indicator by polynomial products: (1 + form^(q-1))
    over three linear forms that vanish exactly on the point's span."""
    v = Q.points[p].tolist()
    F = Q.F
    k = next(i for i, x in enumerate(v) if x)
    forms = []
    for j in range(4):
        if j == k:
            continue
        coeffs = [0, 0, 0, 0]
        coeffs[j] = 1
        coeffs[k] = F.neg(v[j])
        forms.append(linear_form(tuple(coeffs)))
    return indicator_of_zero_set(forms, F)


def lines_of(Q, lines):
    return code_coefficients(Q, Q.chi_lines(lines))


def interpolate_code_vector(c, Q):
    return vec_to_poly(code_coefficients(Q, BitMatrix([c], Q.n_points))[0], Q.q)


def point_bits(c, Q):
    """The int bitset c as a 0/1 array over the points."""
    return BitMatrix([c], Q.n_points).to_numpy()[0]


def random_poly(rng, q, n_terms=6):
    f = {}
    for _ in range(n_terms):
        exps = tuple(rng.randrange(q) for _ in range(4))
        coeff = rng.randrange(1, q)
        f[exps] = coeff
    return f


def test_reduce_x3_squared_q2(field):
    F = field(2)
    assert reduce_mod_I({(0, 0, 0, 2): 1}, F) == {(0, 0, 0, 1): 1}


def test_reduce_keeps_exponent_zero(field):
    F = field(4)
    assert reduce_mod_I(ONE, F) == ONE


def test_reduce_x1_seventh_power_q4(field):
    F = field(4)
    reduced = reduce_mod_I({(0, 7, 0, 0): 1}, F)
    assert reduced == {(0, 1, 0, 0): 1}
    # oracle: both sides agree as functions at every field element
    for x in F.elements():
        assert F.pow(x, 7) == F.pow(x, 1)


@pytest.mark.parametrize("q", [2, 4])
def test_reduce_preserves_evaluation(field, q):
    F = field(q)
    rng = random.Random(31 + q)
    for _ in range(5):
        f = {
            tuple(rng.randrange(2 * q) for _ in range(4)): rng.randrange(1, q)
            for _ in range(5)
        }
        g = reduce_mod_I(f, F)
        for v in itertools.product(range(q), repeat=4):
            assert evaluate(f, v, F) == evaluate(g, v, F)


def test_evaluate_constant(field):
    F = field(4)
    for v in [(0, 0, 0, 0), (1, 2, 3, 0), (3, 3, 3, 3)]:
        assert evaluate(ONE, v, F) == 1


def test_delta_ell0_closed_form(quad):
    for q in (2, 4):
        Q = quad(q)
        expected = {
            (0, 0, 0, 0): 1,
            (0, 0, q - 1, 0): 1,
            (0, 0, 0, q - 1): 1,
            (0, 0, q - 1, q - 1): 1,
        }
        assert delta_line(Q.ell0, Q) == expected


def test_delta_ell0_evaluations(quad):
    Q = quad(2)
    d = delta_line(Q.ell0, Q)
    assert evaluate(d, (1, 0, 0, 0), Q.F) == 1
    assert evaluate(d, (0, 0, 1, 0), Q.F) == 0


@pytest.mark.parametrize("q", [2, 4])
def test_delta_line_profile_matches_adjacency(quad, q):
    Q = quad(q)
    F = Q.F
    for l in range(Q.n_lines):
        d = delta_line(l, Q)
        pts = Q.line_points(l)
        for i, v in enumerate(Q.points.tolist()):
            assert evaluate(d, v, F) == (1 if i in pts else 0)
        # scale invariance on a couple of non-canonical representatives
        for lam in range(2, q):
            v = Q.points[min(pts)].tolist()
            scaled = tuple(F.mul(lam, x) for x in v)
            assert evaluate(d, scaled, F) == 1


@pytest.mark.parametrize("q", [2, 4])
def test_delta_point_profile(quad, q):
    # interpolating a single point equals the product of its three forms
    Q = quad(q)
    F = Q.F
    for p in range(Q.n_points):
        assert interpolate_code_vector(1 << p, Q) == delta_point(p, Q)
    rng = random.Random(17)
    for p in rng.sample(range(Q.n_points), 6):
        d = interpolate_code_vector(1 << p, Q)
        for i, v in enumerate(Q.points.tolist()):
            assert evaluate(d, v, F) == (1 if i == p else 0)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_delta_term_degrees(quad, q):
    # line classes carry degrees 0, q-1, 2(q-1); every point class is
    # graded in multiples of q-1 (trivial at q = 2)
    Q = quad(q)
    allowed_line = {0, q - 1, 2 * (q - 1)}
    for l in range(Q.n_lines):
        d = delta_line(l, Q)
        assert {sum(e) for e in d} <= allowed_line
    for v in code_coefficients(Q, BitMatrix.identity(Q.n_points)):
        d = vec_to_poly(v, q)
        if q > 2:
            assert all(sum(e) % (q - 1) == 0 for e in d)
        assert all(max(e) <= q - 1 for e in d)


def test_digitize_worked_examples_q8(field):
    F = field(8)
    assert digitize_monomial((3, 1, 0, 6), F) == [
        (1, 1, 0, 0),  # x0*x1
        (1, 0, 0, 1),  # x0*x3
        (0, 0, 0, 1),  # x3
    ]
    assert digitize_monomial((1, 3, 2, 4), F) == [
        (1, 1, 0, 0),  # x0*x1
        (0, 1, 1, 0),  # x1*x2
        (0, 0, 0, 1),  # x3
    ]


def test_digitize_constant(field):
    F = field(8)
    assert digitize_monomial((0, 0, 0, 0), F) == [(0, 0, 0, 0)] * 3


def test_digitize_q4_example(field):
    F = field(4)
    digits = digitize_monomial((3, 2, 0, 0), F)
    assert digits == [(1, 0, 0, 0), (1, 1, 0, 0)]
    assert compose_digits(digits) == (3, 2, 0, 0)


def reference_digits(m, t):
    """Bit j of each exponent, one tuple per digit, by shifts of Python ints."""
    return [tuple((e >> j) & 1 for e in m) for j in range(t)]


def reference_compose(digits):
    return tuple(sum(d[i] << j for j, d in enumerate(digits)) for i in range(4))


@pytest.mark.parametrize("q", [2, 4, 8])
def test_digitize_roundtrip_all_monomials(field, q):
    # the array forms against the scalar reference, on every monomial
    F = field(q)
    monomials = list(itertools.product(range(q), repeat=4))
    digits = digitize_exponents(np.array(monomials), F)
    assert digits.shape == (q**4, F.t, 4)
    want = [reference_digits(m, F.t) for m in monomials]
    assert [list(map(tuple, d)) for d in digits.tolist()] == want
    assert [digitize_monomial(m, F) for m in monomials] == want
    assert list(map(tuple, compose_exponents(digits).tolist())) == monomials
    assert [compose_digits(d) for d in want] == list(map(reference_compose, want)) == monomials
    # any leading shape
    batch = np.array(monomials).reshape(-1, q, 4)
    assert np.array_equal(compose_exponents(digitize_exponents(batch, F)), batch)


def test_digitize_rejects_large_exponent(field):
    with pytest.raises(ValueError):
        digitize_monomial((8, 0, 0, 0), field(8))
    with pytest.raises(ValueError):
        digitize_monomial((0, 2, 0, 0), field(2))
    # a batch names its first row out of range
    exps = np.zeros((5, 4), dtype=int)
    exps[3] = (1, 8, 0, 2)
    with pytest.raises(ValueError, match=r"\(1, 8, 0, 2\)"):
        digitize_exponents(exps, field(8))
    with pytest.raises(ValueError, match=r"2\^t"):
        digitize_exponents(exps, field(3))


@pytest.mark.parametrize("q", [2, 4, 8])
def test_beta_size(field, q):
    beta = build_beta(field(q))
    t = field(q).t
    assert len(beta.polys) == len(beta.tuples) == 10**t
    # the tuples are independent: their span is W^(x)t, of dimension 10^t
    assert len(beta_reference(field(q)).pivots) == 10**t


def test_beta_paper_tuple_expansion(field):
    F = field(8)
    beta = build_beta(F)
    # digits (x0x1, x0x3 + x1x2, x3) expand to the two-term polynomial
    idx = beta.tuples.index((5, 9, 4))
    assert beta.polys[idx] == {(3, 1, 0, 6): 1, (1, 3, 2, 4): 1}


def test_zero_in_beta_span(field):
    assert in_span_beta({}, field(4))


def test_all_line_deltas_in_beta_span_q2(quad):
    Q = quad(2)
    vecs = np.zeros((Q.n_lines, 2**4), dtype=np.uint8)
    for l in range(Q.n_lines):
        vecs[l] = poly_to_vec(delta_line(l, Q), 2)
    residual = reduce_against_beta(vecs, Q.F)
    assert not residual.any()


def test_beta_span_counterexample_exists_q4(quad):
    # measured behavior: some line classes escape the digit-tuple span
    # once q > 2 (reduction x^q = x creates monomials with degree-3
    # digits, e.g. x1*x2*x3); the escape is confirmed by an independent
    # rank comparison, and the membership claim survives only on the
    # kernel (checked below) and at q = 2 (checked above)
    Q = quad(4)
    F = Q.F
    ref = beta_reference(F)
    base_rank = ref.ops.rank(ref.matrix)
    escapes = []
    for l in range(Q.n_lines):
        d = delta_line(l, Q)
        if not in_span_beta(d, F):
            vec = poly_to_vec(d, 4)
            stacked = np.vstack([ref.matrix, vec[None, :]])
            assert ref.ops.rank(stacked) == base_rank + 1
            escapes.append(l)
    assert escapes, "every line class fell in the span; counterexample vanished"
    d = delta_line(escapes[0], Q)
    big_digits = [
        digit
        for exps in d
        for digit in digitize_monomial(exps, F)
        if sum(digit) > 2
    ]
    assert big_digits, "escape without a degree-3 digit would need a new explanation"


@pytest.mark.parametrize("q", [2, 4, 8])
def test_kernel_elements_in_beta_span(quad, q):
    # the span argument is applied to kernel elements only; membership
    # holds there
    Q = quad(q)
    code = line_code(Q)
    p1 = Q.restricted_sets.P1
    for c in kernel_intersection_basis(code, p1).rows:
        r_star = interpolate_code_vector(c, Q)
        assert in_span_beta(r_star, Q.F)


def test_x_line_deltas_in_beta_span(quad):
    # lines through p0 factor through coordinate forms and stay in the span
    for q in (2, 4, 8):
        Q = quad(q)
        for l in Q.point_lines[Q.p0].tolist():
            assert in_span_beta(delta_line(l, Q), Q.F)


def test_in_span_beta_against_rank_oracle(field):
    F = field(4)
    ref = beta_reference(F)
    beta = ref.beta
    base_rank = ref.ops.rank(ref.matrix)
    rng = random.Random(99)
    polys = [random_poly(rng, 4) for _ in range(6)]
    # add two guaranteed members: combinations of expanded elements
    member = p_add(beta.polys[3], beta.polys[17], F)
    polys.append(member)
    polys.append(p_mul(member, ONE, F))
    for f in polys:
        f = reduce_mod_I(f, F)
        vec = poly_to_vec(f, 4)
        stacked = np.vstack([ref.matrix, vec[None, :]])
        oracle = ref.ops.rank(stacked) == base_rank
        assert in_span_beta(f, F) == oracle


def test_interpolation_matches_line_delta(quad):
    # chi_l as a sum of point indicators equals the two-form expansion
    for q in (2, 4):
        Q = quad(q)
        for l in (Q.ell0, Q.n_lines // 2):
            assert interpolate_code_vector(Q.chi_lines([l]).rows[0], Q) == delta_line(l, Q)


def test_kernel_normal_form_of_ell0(quad):
    for q in (2, 4):
        Q = quad(q)
        c = Q.chi_lines([Q.ell0]).rows[0]
        h = kernel_normal_form(point_bits(c, Q), interpolate_code_vector(c, Q), Q)
        assert h == {(0, 0, 0, 0): 1, (0, 0, q - 1, 0): 1}


@pytest.mark.parametrize("q", [2, 4, 8])
def test_kernel_basis_all_pass_and_h_space_small(quad, q):
    Q = quad(q)
    code = line_code(Q)
    p1 = Q.restricted_sets.P1
    kernel = kernel_intersection_basis(code, p1).rows
    assert len(kernel) == q + 1
    ops = GFqLinAlg(Q.F)
    h_vecs = []
    for c in kernel:
        assert restrict_vector(c, p1) == 0
        h = kernel_normal_form(point_bits(c, Q), interpolate_code_vector(c, Q), Q, p1)
        h_vecs.append(poly_to_vec(h, q))
    assert ops.rank(np.array(h_vecs)) <= q + 1


def test_kernel_rejects_vector_with_p1_support(quad):
    Q = quad(2)
    p1 = Q.restricted_sets.P1
    with pytest.raises(NotInKernelError):
        c = 1 << p1[0]
        kernel_normal_form(point_bits(c, Q), interpolate_code_vector(c, Q), Q)


def test_normal_form_violation_for_noncode_vector(quad):
    # a single point of the perp is in the kernel but not in the line
    # code; its digit structure breaks the degree-1 constraint
    Q = quad(4)
    with pytest.raises(NormalFormViolationError):
        c = 1 << Q.p0
        kernel_normal_form(point_bits(c, Q), interpolate_code_vector(c, Q), Q)


# -- the interpolation transform and the tensor-product span test -------------


@pytest.mark.parametrize("q", [2, 4, 8])
def test_line_coefficients_equal_delta_line(quad, q):
    Q = quad(q)
    vecs = lines_of(Q, range(Q.n_lines))
    for l in range(Q.n_lines):
        assert np.array_equal(vecs[l], poly_to_vec(delta_line(l, Q), q))


def test_line_coefficients_equal_delta_line_q16(quad):
    Q = quad(16)
    lines = random.Random(16).sample(range(Q.n_lines), 20)
    vecs = lines_of(Q, lines)
    for row, l in zip(vecs, lines):
        assert np.array_equal(row, poly_to_vec(delta_line(l, Q), 16))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=4**4, max_size=4**4))
def test_interpolation_reproduces_value_table_q4(field, values):
    F = field(4)
    table = np.array(values, dtype=np.uint8)
    f = vec_to_poly(interpolate_tables(table[None, :], F)[0], 4)
    for x in itertools.product(range(4), repeat=4):
        assert evaluate(f, x, F) == table[mono_index(x, 4)]


@pytest.mark.parametrize("q", [2, 4, 8])
def test_tensor_span_test_matches_elimination(quad, q):
    # the slice-by-slice test against reduction on the RREF of the
    # expanded tuples, on the line indicators, on span members and on
    # sparse random vectors
    Q = quad(q)
    F = Q.F
    ref = beta_reference(F)
    mul = ref.ops.mul_table
    rng = np.random.default_rng(q)

    def tensor_escapes(vecs):
        return reduce_against_beta(vecs, F).any(axis=1)

    lines = lines_of(Q, range(Q.n_lines))
    escaped = tensor_escapes(lines)
    assert np.array_equal(escaped, ref.escapes(lines))
    assert escaped.sum() == LINE_ESCAPES[q]

    members = np.zeros((50, q**4), dtype=np.uint8)
    for row in members:
        for k in rng.choice(len(ref.matrix), size=rng.integers(1, 6), replace=False):
            row ^= mul[rng.integers(1, q), ref.matrix[k]]
    assert members.any(axis=1).all()
    assert not tensor_escapes(members).any()
    assert not ref.escapes(members).any()

    sparse = np.zeros((200, q**4), dtype=np.uint8)
    for row in sparse:
        at = rng.choice(q**4, size=rng.integers(1, 9), replace=False)
        row[at] = rng.integers(1, q, size=len(at))
    escaped = tensor_escapes(sparse)
    assert 0 < escaped.sum() < len(sparse)
    assert np.array_equal(escaped, ref.escapes(sparse))


def test_kernel_forms_interpolate_each_vector_once(quad, monkeypatch):
    Q = quad(4)
    interpolated = []

    def counting(Q, vectors, original=code_coefficients):
        interpolated.extend(vectors.rows)
        return original(Q, vectors)

    monkeypatch.setattr(lu3q.verify, "code_coefficients", counting)
    k = kernel_forms(Q, kernel_intersection_basis(line_code(Q), Q.restricted_sets.P1))
    assert k == (5, 0, 0)
    assert len(interpolated) == k.size


@pytest.mark.parametrize("q", [2, 4, 8])
def test_digit_span_escape_is_constant_on_line_orbits(quad, q):
    # the full per-line scan against one line per orbit of the torus and
    # the swap: a generator never moves a line across the verdict
    Q = quad(q)
    _, residual = line_span_residuals(Q)
    escaped = residual.any(axis=1)
    for scale, order in torus_and_swap(Q.F):
        assert np.array_equal(escaped[Q.map_lines(scale, order)], escaped)
    assert line_orbit_escapes(Q) == escaped.sum() == LINE_ESCAPES[q]


def test_line_orbit_escapes_q16(quad):
    # the full scan of all 4369 lines is the slow gate
    # test_criterion_7_line_escapes_q16
    assert line_orbit_escapes(quad(16)) == LINE_ESCAPES[16]


def test_poly_group_interpolates_one_line_per_orbit(quad, monkeypatch):
    interpolated = []

    def counting(Q, vectors, original=code_coefficients):
        interpolated.extend(vectors.rows)
        return original(Q, vectors)

    monkeypatch.setattr(lu3q.verify, "code_coefficients", counting)
    rows = run_checks(8, ["poly"])
    assert "490 of 585 line classes escape" in rows[1].detail
    assert rows[2].detail == "9 kernel basis vectors"
    assert len(interpolated) == 17 + 9


def test_a_group_that_is_no_similitude_gives_no_escape_count(quad, monkeypatch):
    Q = quad(8)
    g = Q.F.primitive
    monkeypatch.setattr(lu3q.verify, "torus_and_swap", lambda F: [((1, g, 1, 1), (0, 1, 2, 3))])
    with pytest.raises(ValueError, match="collinear"):
        line_orbit_escapes(Q)

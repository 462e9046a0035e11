"""Functions on F_q^4 as reduced polynomial classes, even characteristic.

A polynomial function is a dict mapping exponent 4-tuples (e0..e3,
each in [0, q-1]) to nonzero coefficients in GF(q).  Reduction uses
x^q = x, so an exponent e >= q collapses to ((e-1) mod (q-1)) + 1 and
exponent 0 stays 0.

The characteristic function of a line is the product of
(1 + linear^(q-1)) over the form functionals of its basis.

The 2-adic digit decomposition splits a monomial with exponents
m_i = sum_j n_{i,j} 2^j into square-free digits f_j = prod_i x_i^{n_{i,j}},
so that the monomial is f_0 * f_1^2 * ... * f_{t-1}^(2^(t-1)).

Coefficient vectors are numpy uint8 arrays indexed by ``mono_index``,
whose field elements add by XOR.  ``code_coefficients`` interpolates GF(2)
vectors on the points by one q x q transform along each axis, and
``value_tables`` evaluates by the same pass with another matrix;
``reduce_against_beta`` tests digit-span membership as a tensor product,
with no elimination, and ``kernel_normal_form`` checks coefficient arrays.
``lu3q verify`` works on these arrays alone.  The dict polynomials
(``delta_line``, ``build_beta``, ``in_span_beta`` and their products)
stay because the benchmark in ``perfbench/`` calls them by name; the
tests use them as references.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from lu3q.fields import GF
from lu3q.geometry import Quadrangle
from lu3q.gf2 import BitMatrix, nullspace, pack_pairs

Mono = tuple[int, int, int, int]
PolyFn = dict[Mono, int]


def reduce_mod_I(f: PolyFn, F: GF) -> PolyFn:
    """Reduce all exponents with x^q = x and merge like terms."""
    q = F.q
    out: PolyFn = {}
    for exps, coeff in f.items():
        red = tuple(
            e if e < q else ((e - 1) % (q - 1)) + 1 for e in exps
        )
        acc = F.add(out.get(red, 0), coeff)
        if acc:
            out[red] = acc
        else:
            out.pop(red, None)
    return out


def p_add(f: PolyFn, g: PolyFn, F: GF) -> PolyFn:
    out = dict(f)
    for exps, coeff in g.items():
        acc = F.add(out.get(exps, 0), coeff)
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


def p_mul(f: PolyFn, g: PolyFn, F: GF) -> PolyFn:
    raw: PolyFn = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            c = F.mul(c1, c2)
            acc = F.add(raw.get(exps, 0), c)
            if acc:
                raw[exps] = acc
            else:
                raw.pop(exps, None)
    return reduce_mod_I(raw, F)


def p_pow(f: PolyFn, n: int, F: GF) -> PolyFn:
    result: PolyFn = {(0, 0, 0, 0): 1}
    base = f
    while n:
        if n & 1:
            result = p_mul(result, base, F)
        base = p_mul(base, base, F)
        n >>= 1
    return result


def linear_form(coeffs: tuple[int, int, int, int]) -> PolyFn:
    out: PolyFn = {}
    for i, c in enumerate(coeffs):
        if c:
            exps = tuple(1 if j == i else 0 for j in range(4))
            out[exps] = c
    return out


def indicator_of_zero_set(forms: list[PolyFn], F: GF) -> PolyFn:
    """Product of (1 + form^(q-1)): 1 where all forms vanish, else 0."""
    one: PolyFn = {(0, 0, 0, 0): 1}
    out = one
    for form in forms:
        factor = p_add(one, p_pow(form, F.q - 1, F), F)
        out = p_mul(out, factor, F)
    return out


def delta_line(l: int, Q: Quadrangle) -> PolyFn:
    """Reduced polynomial whose values realize the line's indicator."""
    u, w = Q.bases[l].tolist()
    forms = [
        linear_form(Q.space.form_functional(u)),
        linear_form(Q.space.form_functional(w)),
    ]
    return indicator_of_zero_set(forms, Q.F)


# -- 2-adic digits -----------------------------------------------------------


def digitize_exponents(exps, F: GF) -> np.ndarray:
    """Square-free digits from the binary exponent expansions, for an
    array of exponent rows: shape (..., 4) gives (..., t, 4), whose entry
    [..., j, i] is bit j of exponent i, in the exponents' dtype."""
    if F.p != 2:
        raise ValueError("digitization needs q = 2^t")
    exps = np.asarray(exps)
    rows = exps.reshape(-1, 4)
    bad = ((rows > F.q - 1) | (rows < 0)).any(axis=1)
    if bad.any():
        row = rows[bad][0]
        raise ValueError(
            f"exponent out of range in {tuple(row.tolist())}: each must be <= {F.q - 1}"
        )
    return exps[..., None, :] >> np.arange(F.t, dtype=exps.dtype)[:, None] & 1


def compose_exponents(digits) -> np.ndarray:
    """Inverse of ``digitize_exponents``: digits of shape (..., t, 4) give
    the exponents of f_0 * f_1^2 * ... * f_{t-1}^(2^(t-1)), shape (..., 4),
    in the digits' dtype."""
    digits = np.asarray(digits)
    shifts = np.arange(digits.shape[-2], dtype=digits.dtype)[:, None]
    return (digits << shifts).sum(axis=-2, dtype=digits.dtype)


_BETA_DIGIT_CHOICES: list[PolyFn] = [
    {(0, 0, 0, 0): 1},
    {(1, 0, 0, 0): 1},
    {(0, 1, 0, 0): 1},
    {(0, 0, 1, 0): 1},
    {(0, 0, 0, 1): 1},
    {(1, 1, 0, 0): 1},
    {(1, 0, 1, 0): 1},
    {(0, 1, 0, 1): 1},
    {(0, 0, 1, 1): 1},
    {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1},
]


def poly_frobenius_power(f: PolyFn, e: int, F: GF) -> PolyFn:
    """f^e for e a power of the characteristic: term-wise."""
    return {
        tuple(x * e for x in exps): F.pow(c, e) for exps, c in f.items()  # type: ignore[misc]
    }


class BetaBasis(NamedTuple):
    """The expanded digit tuples: each choice of t digits and its polynomial."""

    tuples: list[tuple[int, ...]]
    polys: list[PolyFn]


def mono_index(m: Mono, q: int) -> int:
    return ((m[0] * q + m[1]) * q + m[2]) * q + m[3]


def poly_to_vec(f: PolyFn, q: int) -> np.ndarray:
    v = np.zeros(q**4, dtype=np.uint8)
    for exps, coeff in f.items():
        v[mono_index(exps, q)] = coeff
    return v


def build_beta(F: GF) -> BetaBasis:
    """Expand every digit tuple over the ten admissible digit choices."""
    if F.p != 2:
        raise ValueError("the digit basis needs q = 2^t")
    tuples = list(itertools.product(range(len(_BETA_DIGIT_CHOICES)), repeat=F.t))
    polys = []
    for choice in tuples:
        prod: PolyFn = {(0, 0, 0, 0): 1}
        for j, idx in enumerate(choice):
            prod = p_mul(prod, poly_frobenius_power(_BETA_DIGIT_CHOICES[idx], 1 << j, F), F)
        polys.append(prod)
    return BetaBasis(tuples, polys)


@functools.lru_cache(maxsize=None)
def _digit_checks() -> list[np.ndarray]:
    """Parity checks of W, the span of the ten digit choices, with digit n
    indexed 8*n0 + 4*n1 + 2*n2 + n3: the five digits of degree >= 3, and
    x0*x3 + x1*x2.  The choices are 0/1, so checks over GF(2) hold over GF(q)."""
    r, c = zip(
        *((i, 8 * m[0] + 4 * m[1] + 2 * m[2] + m[3])
          for i, choice in enumerate(_BETA_DIGIT_CHOICES) for m in choice)
    )
    choices = BitMatrix(pack_pairs(r, c, len(_BETA_DIGIT_CHOICES), 16), 16)
    return [np.flatnonzero(h) for h in nullspace(choices).basis.to_numpy()]


def reduce_against_beta(vecs: np.ndarray, F: GF) -> np.ndarray:
    """Digit-span syndromes of coefficient vectors, one row each: a row is
    zero iff its vector is a GF(q)-combination of the expanded digit tuples.

    Digit j of prod_j f_j^(2^j) sits in bit j of every exponent, so nothing
    carries and, indexed by digits, its coefficients are f_0 (x) ... (x)
    f_{t-1}.  The span is W^(x)t: a vector lies in it iff every 16-entry
    slice along every digit mode passes the parity checks of W.
    """
    if F.p != 2:
        raise ValueError("the digit basis needs q = 2^t")
    n, t = len(vecs), F.t
    # axis 1 + i*t + (t-1-j) of the bit reshape is bit j of exponent i
    order = [0] + [1 + i * t + t - 1 - j for j in range(t) for i in range(4)]
    a = vecs.reshape((n,) + (2,) * (4 * t)).transpose(order).reshape((n,) + (16,) * t)
    parts = []
    for j in range(1, t + 1):
        s = np.moveaxis(a, j, 1)
        parts += [np.bitwise_xor.reduce(s[:, c], axis=1) for c in _digit_checks()]
    return np.concatenate([p.reshape(n, -1) for p in parts], axis=1)


def in_span_beta(f: PolyFn, F: GF) -> bool:
    """True iff f is a GF(q)-combination of the expanded digit tuples."""
    return not reduce_against_beta(poly_to_vec(f, F.q)[None, :], F).any()


# -- coefficient vectors and value tables ------------------------------------


@functools.lru_cache(maxsize=None)
def _field_tables(F: GF) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multiplication table of GF(q), and the interpolation and
    evaluation matrices packed for ``_per_axis``."""
    q = F.q
    mul = F.tables.mul.astype(np.uint8)
    K = np.zeros((q, q), dtype=np.uint8)
    K[0, 0] = K[q - 1] = 1
    for x in range(1, q):
        K[1 : q - 1, x] = [F.pow(F.inv(x), e) for e in range(1, q - 1)]
    V = np.array([[F.pow(x, e) for e in range(q)] for x in range(q)], dtype=np.uint8)  # 0^0 = 1

    def packed(M: np.ndarray) -> np.ndarray:
        # row (j, v) packs M[i, j] * v for i = 0..q-1 into uint64 words
        out = np.zeros((q, q, max(q, 8)), dtype=np.uint8)
        out[:, :, :q] = mul[M.T[:, None, :], np.arange(q)[:, None]]
        return out.view(np.uint64)

    return mul, packed(K), packed(V)


def _per_axis(arrays: np.ndarray, packed: np.ndarray, q: int) -> np.ndarray:
    """A q x q matrix M, packed by ``_field_tables``, applied along each of
    the four axes of every row: out[i] = sum_j M[i, j] * in[j] per axis."""
    out = np.empty(arrays.shape, dtype=np.uint8)
    step = max(1, 2**16 // q**3)  # rows per pass: transients stay near 1 MB
    for s in range(0, len(arrays), step):
        # axes 0..3, row; each pass contracts the leading axis and appends
        # its transformed axis, so four passes give row, 0..3
        a = np.ascontiguousarray(arrays[s : s + step].T).reshape(q, -1)
        for _ in range(4):
            acc = np.zeros((a.shape[1], packed.shape[2]), dtype=np.uint64)
            for j in range(q):
                acc ^= packed[j][a[j]]
            a = acc.view(np.uint8)[:, :q].reshape(q, -1)
        out[s : s + step] = a.reshape(-1, q**4)
    return out


def interpolate_tables(tables: np.ndarray, F: GF) -> np.ndarray:
    """Coefficient vectors of the reduced polynomials with the given value
    tables (entry ``mono_index(x)`` is the value at x), one row each.

    The coefficients are the table with a q x q matrix K applied along each
    axis, one-variable interpolation with its signs dropped in
    characteristic 2: K[0, x] = [x = 0], K[q-1, x] = 1, and
    K[e, x] = x^(-e) for 1 <= e <= q-2 and x != 0 (K[e, 0] = 0).
    """
    if F.p != 2:
        raise ValueError("the interpolation transform needs q = 2^t")
    return _per_axis(tables, _field_tables(F)[1], F.q)


def value_tables(coeffs: np.ndarray, F: GF) -> np.ndarray:
    """Value tables of the reduced polynomials with the given coefficient
    vectors, one row each: the inverse of ``interpolate_tables``, by the
    same pass with V[x, e] = x^e (0^0 = 1) in place of K."""
    if F.p != 2:
        raise ValueError("the evaluation transform needs q = 2^t")
    return _per_axis(coeffs, _field_tables(F)[2], F.q)


def code_coefficients(Q: Quadrangle, vectors: BitMatrix) -> np.ndarray:
    """Coefficient vectors of the polynomials interpolating GF(2) vectors on
    the points, one per row of ``vectors``: the sum of the point indicators
    over the support, which is c[p] at each nonzero multiple of point p and
    the parity of the weight at 0.  A line's vector gives ``delta_line``."""
    mul = _field_tables(Q.F)[0]
    q, n = Q.q, Q.n_points
    multiples = mul[np.arange(1, q)[:, None, None], Q.points]
    point_of = np.full(q**4, n)
    point_of[multiples.astype(np.intp) @ q ** np.arange(3, -1, -1)] = np.arange(n)
    bits = np.zeros((vectors.n_rows, n + 1), dtype=np.uint8)
    bits[:, :n] = vectors.to_numpy()
    bits[:, n] = bits.sum(axis=1) & 1
    return interpolate_tables(bits[:, point_of], Q.F)


# -- the kernel normal form ---------------------------------------------------


def kernel_normal_form(
    rows: np.ndarray, coeffs: np.ndarray, Q: Quadrangle
) -> tuple[np.ndarray, np.ndarray]:
    """Check kernel code vectors against the normal form (1 + x3^(q-1)) * h
    with h free of x3, and split off h.

    ``rows`` holds the vectors as 0/1 arrays over the points and ``coeffs``
    their interpolations (from ``code_coefficients``), one row each.
    Returns a mask of the rows that violate the form, and h as a
    (k, q, q, q) array indexed by e0, e1, e2.  A row violates it if it has
    support on P1 (outside the perp of p0), a term with x3-exponent in
    1..q-2, differing x3^0 and x3^(q-1) parts, or a monomial of h other
    than 1 outside the span of the x1/x2 digit tuples: a digit that is not
    x1 or x2.  That is e0 != 0, e1 + e2 != q-1 or a digit of degree != 1;
    any two of these imply the third.
    """
    q, k = Q.q, len(rows)
    a = coeffs.reshape(k, q, q, q, q)
    h = a[..., 0]
    digits = digitize_exponents(np.indices((q, q, q, 1)).reshape(4, -1).T, Q.F)
    x1, x2 = (digits == (0, 1, 0, 0)).all(axis=2), (digits == (0, 0, 1, 0)).all(axis=2)
    in_span = (x1 | x2).all(axis=1)
    in_span[0] = True  # the constant 1
    bad = rows[:, np.asarray(Q.restricted_sets.P1, np.intp)].any(axis=1)
    bad |= a[..., 1 : q - 1].reshape(k, -1).any(axis=1)
    bad |= (a[..., q - 1] != h).reshape(k, -1).any(axis=1)
    bad |= h.reshape(k, -1)[:, ~in_span].any(axis=1)
    return bad, h

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
``reduce_against_beta`` tests digit-span membership as a tensor product,
with no elimination; ``delta_line`` and ``build_beta`` stay as the
references built by polynomial products.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Sequence

import numpy as np

from lu3q.fields import GF
from lu3q.geometry import Quadrangle
from lu3q.gf2 import BitMatrix, nullspace, vec_to_bits

Mono = tuple[int, int, int, int]
PolyFn = dict[Mono, int]


class NotInKernelError(ValueError):
    """The vector does not vanish on the restricted point set."""


class NormalFormViolationError(AssertionError):
    """A kernel element fails the (1 + x3^(q-1)) * h normal form."""


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


def evaluate(f: PolyFn, v: tuple[int, int, int, int], F: GF) -> int:
    """Value at a vector, with the 0^0 = 1 convention."""
    total = 0
    for exps, coeff in f.items():
        term = coeff
        for x, e in zip(v, exps):
            term = F.mul(term, F.pow(x, e))
        total = F.add(total, term)
    return total


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
    u, w = Q.lines[l].basis
    forms = [
        linear_form(Q.space.form_functional(u)),
        linear_form(Q.space.form_functional(w)),
    ]
    return indicator_of_zero_set(forms, Q.F)


# -- 2-adic digits -----------------------------------------------------------


def digitize_monomial(m: Mono, F: GF) -> list[Mono]:
    """Square-free digit monomials from the binary exponent expansions."""
    if F.p != 2:
        raise ValueError("digitization needs q = 2^t")
    q, t = F.q, F.t
    if any(e > q - 1 or e < 0 for e in m):
        raise ValueError(f"exponent out of range in {m}: each must be <= {q - 1}")
    return [
        tuple((e >> j) & 1 for e in m)  # type: ignore[misc]
        for j in range(t)
    ]


def compose_digits(digits: list[Mono]) -> Mono:
    """Inverse of digitization: f_0 * f_1^2 * ... * f_{t-1}^(2^(t-1))."""
    out = [0, 0, 0, 0]
    for j, d in enumerate(digits):
        for i in range(4):
            out[i] += d[i] << j
    return tuple(out)  # type: ignore[return-value]


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


def vec_to_poly(v: np.ndarray, q: int) -> PolyFn:
    return {
        tuple(int(e) for e in np.unravel_index(i, (q,) * 4)): int(v[i])  # type: ignore[misc]
        for i in np.flatnonzero(v)
    }


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
    rows = [
        sum(1 << (8 * m[0] + 4 * m[1] + 2 * m[2] + m[3]) for m in choice)
        for choice in _BETA_DIGIT_CHOICES
    ]
    return [np.flatnonzero(vec_to_bits(h, 16)) for h in nullspace(BitMatrix(rows, 16)).basis]


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


# -- coefficient vectors from value tables -------------------------------------


@functools.lru_cache(maxsize=None)
def _field_tables(F: GF) -> tuple[np.ndarray, np.ndarray]:
    """The multiplication table of GF(q), and the interpolation table whose
    row (x, v) packs K[e, x] * v for e = 0..q-1 into uint64 words."""
    q = F.q
    mul = np.array([[F.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.uint8)
    K = np.zeros((q, q), dtype=np.uint8)
    K[0, 0] = K[q - 1] = 1
    for x in range(1, q):
        K[1 : q - 1, x] = [F.pow(F.inv(x), e) for e in range(1, q - 1)]
    packed = np.zeros((q, q, max(q, 8)), dtype=np.uint8)
    packed[:, :, :q] = mul[K.T[:, None, :], np.arange(q)[:, None]]
    return mul, packed.view(np.uint64)


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
    q = F.q
    _, packed = _field_tables(F)
    out = np.empty(tables.shape, dtype=np.uint8)
    step = max(1, 2**16 // q**3)  # tables per pass: transients stay near 1 MB
    for s in range(0, len(tables), step):
        # axes x0, x1, x2, x3, table; each pass contracts the leading axis
        # and appends its exponent axis, so four passes give table, e0..e3
        a = np.ascontiguousarray(tables[s : s + step].T).reshape(q, -1)
        for _ in range(4):
            acc = np.zeros((a.shape[1], packed.shape[2]), dtype=np.uint64)
            for x in range(q):
                acc ^= packed[x][a[x]]
            a = acc.view(np.uint8)[:, :q].reshape(q, -1)
        out[s : s + step] = a.reshape(-1, q**4)
    return out


def code_coefficients(Q: Quadrangle, vectors: Sequence[int]) -> np.ndarray:
    """Coefficient vectors of the polynomials interpolating GF(2) vectors on
    the points, one row each: the sum of the point indicators over the
    support, which is c[p] at each nonzero multiple of point p and the
    parity of the weight at 0.  A line's vector gives ``delta_line``."""
    mul, _ = _field_tables(Q.F)
    q, n = Q.q, Q.n_points
    multiples = mul[np.arange(1, q)[:, None, None], np.array(Q.points)]
    point_of = np.full(q**4, n)
    point_of[multiples.astype(np.intp) @ q ** np.arange(3, -1, -1)] = np.arange(n)
    bits = np.zeros((len(vectors), n + 1), dtype=np.uint8)
    for row, c in zip(bits, vectors):
        row[:n] = vec_to_bits(c, n)
    bits[:, n] = bits.sum(axis=1) & 1
    return interpolate_tables(bits[:, point_of], Q.F)


# -- the kernel normal form ---------------------------------------------------


def kernel_normal_form(
    c_bits: int, r_star: PolyFn, Q: Quadrangle, p1: tuple[int, ...] | None = None
) -> PolyFn:
    """Factor a kernel code vector as (1 + x3^(q-1)) * h, x3-free h.

    The vector's interpolation ``r_star`` (from ``code_coefficients``) is
    split by its x3-exponent and checked against the digit-degree and
    variable constraints a kernel element of the line code must satisfy.
    Raises NotInKernelError if the vector does not vanish off the perp of
    p0, NormalFormViolationError if the structural claims fail.
    """
    F = Q.F
    q = F.q
    if p1 is None:
        p1 = Q.restricted_sets().P1
    p1_mask = 0
    for p in p1:
        p1_mask |= 1 << p
    if c_bits & p1_mask:
        raise NotInKernelError("vector has support outside the perp of p0")

    h0: PolyFn = {}
    h1: PolyFn = {}
    for exps, coeff in r_star.items():
        e3 = exps[3]
        reduced = (exps[0], exps[1], exps[2], 0)
        if e3 == 0:
            h0[reduced] = coeff
        elif e3 == q - 1:
            h1[reduced] = coeff
        else:
            raise NormalFormViolationError(
                f"term {exps} has x3-exponent {e3}, expected 0 or {q - 1}"
            )
    if h0 != h1:
        raise NormalFormViolationError(
            "x3-free part differs from the x3^(q-1) part"
        )

    for exps in h0:
        if exps == (0, 0, 0, 0):
            continue
        digits = digitize_monomial(exps, F)
        if any(sum(d) != 1 for d in digits):
            raise NormalFormViolationError(
                f"monomial {exps} has a digit of degree != 1"
            )
        if exps[0] != 0 or exps[3] != 0 or exps[1] + exps[2] != q - 1:
            raise NormalFormViolationError(
                f"monomial {exps} escapes the span of x1/x2 digit tuples"
            )
    return h0

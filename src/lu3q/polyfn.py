"""Functions on F_q^4 as reduced polynomial classes, even characteristic.

A polynomial function is a dict mapping exponent 4-tuples (e0..e3,
each in [0, q-1]) to nonzero coefficients in GF(q).  Reduction uses
x^q = x, so an exponent e >= q collapses to ((e-1) mod (q-1)) + 1 and
exponent 0 stays 0.

Characteristic functions of points and lines are realized as products
of (1 + linear^(q-1)) factors; a line needs two linear forms (the form
functionals of its basis), a point three.

The 2-adic digit decomposition splits a monomial with exponents
m_i = sum_j n_{i,j} 2^j into square-free digits f_j = prod_i x_i^{n_{i,j}},
so that the monomial is f_0 * f_1^2 * ... * f_{t-1}^(2^(t-1)).

Dense linear algebra over GF(q) (span membership, ranks of coefficient
matrices) runs on numpy uint8 arrays with a multiplication table;
addition of encoded field elements in characteristic 2 is XOR.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from lu3q.fields import GF
from lu3q.geometry import Quadrangle

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


def delta_point(p: int, Q: Quadrangle) -> PolyFn:
    """Reduced polynomial realizing the point's indicator."""
    v = Q.points[p]
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


@dataclass
class BetaBasis:
    """The digit-tuple generating set and its expanded coefficient matrix,
    with the field's elimination tables that reduce vectors against it."""

    F: GF
    tuples: list[tuple[int, ...]]
    polys: list[PolyFn]
    matrix: np.ndarray
    rref_rows: np.ndarray
    rref_pivots: list[int]
    ops: GFqLinAlg

    @property
    def rank(self) -> int:
        return len(self.rref_pivots)

    @property
    def size(self) -> int:
        return len(self.polys)


class GFqLinAlg:
    """Dense elimination over GF(2^t) on numpy uint8 arrays."""

    def __init__(self, F: GF):
        if F.p != 2:
            raise ValueError("this solver XORs encodings: characteristic 2 only")
        q = F.q
        self.F = F
        self.mul_table = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                self.mul_table[a, b] = F.mul(a, b)
        self.inv_table = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            self.inv_table[a] = F.inv(a)

    def rref(self, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
        A = mat.astype(np.uint8, copy=True)
        m, n = A.shape
        pivots: list[int] = []
        r = 0
        for c in range(n):
            if r >= m:
                break
            nz = np.nonzero(A[r:, c])[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                A[[r, p]] = A[[p, r]]
            if A[r, c] != 1:
                A[r] = self.mul_table[self.inv_table[A[r, c]], A[r]]
            rows = np.nonzero(A[:, c])[0]
            rows = rows[rows != r]
            if rows.size:
                A[rows] ^= self.mul_table[A[rows, c][:, None], A[r][None, :]]
            pivots.append(c)
            r += 1
        return A[: len(pivots)], pivots

    def rank(self, mat: np.ndarray) -> int:
        return len(self.rref(mat)[1])

    def reduce_rows(
        self, vecs: np.ndarray, rref_rows: np.ndarray, pivots: list[int]
    ) -> np.ndarray:
        V = vecs.astype(np.uint8, copy=True)
        for i, c in enumerate(pivots):
            coeffs = V[:, c]
            nz = np.nonzero(coeffs)[0]
            if nz.size:
                V[nz] ^= self.mul_table[coeffs[nz][:, None], rref_rows[i][None, :]]
        return V


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
    t = F.t
    tuples = []
    polys = []
    for choice in itertools.product(range(len(_BETA_DIGIT_CHOICES)), repeat=t):
        prod: PolyFn = {(0, 0, 0, 0): 1}
        for j, idx in enumerate(choice):
            prod = p_mul(
                prod, poly_frobenius_power(_BETA_DIGIT_CHOICES[idx], 1 << j, F), F
            )
        tuples.append(choice)
        polys.append(prod)
    mat = np.zeros((len(polys), F.q**4), dtype=np.uint8)
    for i, poly in enumerate(polys):
        mat[i] = poly_to_vec(poly, F.q)
    ops = GFqLinAlg(F)
    rows, pivots = ops.rref(mat)
    return BetaBasis(F, tuples, polys, mat, rows, pivots, ops)


def in_span_beta(f: PolyFn, beta: BetaBasis) -> bool:
    """True iff f is a GF(q)-combination of the expanded digit tuples."""
    return not reduce_against_beta(poly_to_vec(f, beta.F.q)[None, :], beta).any()


def reduce_against_beta(vecs: np.ndarray, beta: BetaBasis) -> np.ndarray:
    """Batch residuals of coefficient vectors against the beta span."""
    return beta.ops.reduce_rows(vecs, beta.rref_rows, beta.rref_pivots)


# -- the kernel normal form ---------------------------------------------------


def interpolate_code_vector(c_bits: int, Q: Quadrangle) -> PolyFn:
    """Sum of point indicators over the support of a GF(2) vector."""
    F = Q.F
    out: PolyFn = {}
    v = c_bits
    while v:
        low = v & -v
        p = low.bit_length() - 1
        out = p_add(out, delta_point(p, Q), F)
        v ^= low
    return out


def kernel_normal_form(c_bits: int, Q: Quadrangle, p1: tuple[int, ...] | None = None) -> PolyFn:
    """Factor a kernel code vector as (1 + x3^(q-1)) * h, x3-free h.

    The vector is interpolated through point indicators, split by its
    x3-exponent, and checked against the digit-degree and variable
    constraints a kernel element of the line code must satisfy.  Raises
    NotInKernelError if the vector does not vanish off the perp of p0,
    NormalFormViolationError if the structural claims fail.
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

    r_star = interpolate_code_vector(c_bits, Q)
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

"""Dict-polynomial helpers: the scalar references for the array code.

``lu3q.polyfn`` evaluates, digitizes and checks normal forms on numpy
coefficient arrays.  The tests compare those passes against the plain
reading below, one polynomial, vector or monomial at a time.  A
polynomial here is a dict from exponent 4-tuples to GF(q) coefficients,
as ``lu3q.polyfn.PolyFn``.
"""

import numpy as np

from lu3q.fields import GF
from lu3q.polyfn import Mono, PolyFn, compose_exponents, digitize_exponents


def evaluate(f: PolyFn, v: tuple[int, int, int, int], F: GF) -> int:
    """Value at a vector, with the 0^0 = 1 convention."""
    total = 0
    for exps, coeff in f.items():
        term = coeff
        for x, e in zip(v, exps):
            term = F.mul(term, F.pow(x, e))
        total = F.add(total, term)
    return total


def vec_to_poly(v: np.ndarray, q: int) -> PolyFn:
    """The dict polynomial of a coefficient vector indexed by ``mono_index``."""
    return {
        tuple(int(e) for e in np.unravel_index(i, (q,) * 4)): int(v[i])
        for i in np.flatnonzero(v)
    }


def digitize_monomial(m: Mono, F: GF) -> list[Mono]:
    """One monomial's digits as tuples: the scalar view of
    ``digitize_exponents``."""
    return [tuple(d) for d in digitize_exponents(m, F).tolist()]


def compose_digits(digits: list[Mono]) -> Mono:
    """One monomial from its digit tuples: the scalar view of
    ``compose_exponents``."""
    digits = np.asarray(digits, dtype=np.int64).reshape(-1, 4)
    return tuple(compose_exponents(digits).tolist())

"""Dense elimination over GF(2^t): the reference for digit-span membership.

``lu3q.polyfn.reduce_against_beta`` tests membership in the span of the
expanded digit tuples slice by slice, as a tensor product.  This module
decides the same question the long way, by reducing vectors against the
reduced row-echelon form of the tuples' coefficient matrix one pivot at
a time, so the tests can compare the two methods.
"""

import functools

import numpy as np

from lu3q.fields import GF
from lu3q.polyfn import build_beta, poly_to_vec


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


class BetaReference:
    """The expanded digit tuples, their coefficient matrix and its RREF."""

    def __init__(self, F: GF):
        self.beta = build_beta(F)
        self.ops = GFqLinAlg(F)
        self.matrix = np.array([poly_to_vec(p, F.q) for p in self.beta.polys])
        self.rows, self.pivots = self.ops.rref(self.matrix)

    def escapes(self, vecs: np.ndarray) -> np.ndarray:
        """True for each row of vecs outside the span."""
        return self.ops.reduce_rows(vecs, self.rows, self.pivots).any(axis=1)


@functools.lru_cache(maxsize=None)
def beta_reference(F: GF) -> BetaReference:
    return BetaReference(F)

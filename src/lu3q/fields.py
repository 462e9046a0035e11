"""Arithmetic in GF(p^t) under a fixed polynomial-basis presentation.

An element is an integer in [0, p^t): its base-p digits are the
coefficients of the element in the polynomial basis, least significant
digit = constant term.  Element enumeration is therefore always the
integer order 0, 1, ..., q-1, which keeps matrix indexing and file
output canonical.

For p = 2, multiplication/inversion/powers run on log/antilog tables
built from a primitive element.  Odd characteristic uses coefficient
arithmetic modulo the defining polynomial, with dense lookup tables
for small fields.

Built-in defining polynomials (minimal integer encoding, LSB-first):
    p=2: t=2: x^2+x+1   t=3: x^3+x+1   t=4: x^4+x+1   t=5: x^5+x^2+1
    p in {3,5,7}: the analogous minimal choices, found by search.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np


class ReduciblePolynomialError(ValueError):
    """The supplied defining polynomial is not irreducible over GF(p)."""


class NoDefaultIrreducibleError(ValueError):
    """No built-in defining polynomial for this (p, t)."""


_DEFAULT_PRIMES = (2, 3, 5, 7)
_DEFAULT_MAX_T = 5


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _trim(poly: tuple[int, ...]) -> tuple[int, ...]:
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(tuple(out))


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a by monic m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _trim(tuple(a))


def _int_to_poly(n: int, p: int) -> tuple[int, ...]:
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


def _poly_to_int(poly: Sequence[int], p: int) -> int:
    n = 0
    for c in reversed(poly):
        n = n * p + c
    return n


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    poly = _trim(tuple(c % p for c in poly))
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        # monic divisor x^d + (lower part encoded by k)
        for k in range(p**d):
            low = _int_to_poly(k, p)
            divisor = low + (0,) * (d - len(low)) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def default_irreducible(p: int, t: int) -> tuple[int, ...]:
    """Monic irreducible of degree t over GF(p) with minimal integer encoding."""
    if t == 1:
        # prime fields need no presentation choice: reduce mod x
        return (0, 1)
    if p not in _DEFAULT_PRIMES or t > _DEFAULT_MAX_T:
        raise NoDefaultIrreducibleError(
            f"no built-in irreducible for p={p}, t={t}; pass one explicitly"
        )
    for k in range(p**t):
        low = _int_to_poly(k, p)
        cand = low + (0,) * (t - len(low)) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise NoDefaultIrreducibleError(f"search exhausted for p={p}, t={t}")  # pragma: no cover


class FieldTables(NamedTuple):
    """The field operations as int32 lookup arrays indexed by elements."""

    add: np.ndarray  # add[a, b] = a + b, shape (q, q)
    mul: np.ndarray  # mul[a, b] = a * b, shape (q, q)
    neg: np.ndarray  # neg[a] = -a, shape (q,)


class GF:
    """The field GF(p^t) with elements 0..q-1 in the polynomial basis."""

    def __init__(self, p: int, t: int, irreducible: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if t < 1:
            raise ValueError(f"t={t} must be >= 1")
        if irreducible is None:
            irreducible = default_irreducible(p, t)
        irreducible = tuple(c % p for c in irreducible)
        if len(_trim(irreducible)) != t + 1 or irreducible[t] != 1:
            raise ValueError(f"defining polynomial must be monic of degree exactly {t}")
        if not is_irreducible(irreducible, p):
            raise ReduciblePolynomialError(
                f"{list(irreducible)} is reducible over GF({p})"
            )
        self.p = p
        self.t = t
        self.q = p**t
        self.irreducible = irreducible

        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._mul_table: list[list[int]] | None = None
        self._add_table: list[list[int]] | None = None
        if p == 2 and t > 1:
            self._build_log_tables()
        elif t > 1 and self.q <= 128:
            self._build_dense_tables()

    # -- construction helpers ------------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """Multiplication through coefficient polynomials (no tables)."""
        pa = _int_to_poly(a, self.p)
        pb = _int_to_poly(b, self.p)
        return _poly_to_int(_poly_mod(_poly_mul(pa, pb, self.p), self.irreducible, self.p), self.p)

    def _build_log_tables(self) -> None:
        q = self.q
        for g in range(2, q):
            val, powers = 1, []
            for _ in range(q - 1):
                powers.append(val)
                val = self._mul_poly(val, g)
            if len(set(powers)) == q - 1:
                self._exp = powers + powers  # doubled to skip a mod in mul
                log = [0] * q
                for i, v in enumerate(powers):
                    log[v] = i
                self._log = log
                return
        raise ValueError("no primitive element found")  # pragma: no cover

    def _build_dense_tables(self) -> None:
        q = self.q
        self._mul_table = [[self._mul_poly(a, b) for b in range(q)] for a in range(q)]
        self._add_table = [[self._add_poly(a, b) for b in range(q)] for a in range(q)]

    def _add_poly(self, a: int, b: int) -> int:
        p = self.p
        out, mult = 0, 1
        for _ in range(self.t):
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * mult
            mult *= p
        return out

    # -- field operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.t == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_poly(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.t == 1:
            return (-a) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.t):
            a, d = divmod(a, p)
            out += ((-d) % p) * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.t == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._exp is not None:
            return self._exp[(self.q - 1) - self._log[a]]
        if self.t == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        """a**n with the convention 0**0 = 1."""
        if n == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] * n) % (self.q - 1)]
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    @functools.cached_property
    def tables(self) -> FieldTables:
        """Addition, multiplication and negation as arrays, for evaluating
        one operation on many elements at once."""
        q = self.q
        els = range(q)
        return FieldTables(
            np.array([[self.add(a, b) for b in els] for a in els], dtype=np.int32),
            np.array([[self.mul(a, b) for b in els] for a in els], dtype=np.int32),
            np.array([self.neg(a) for a in els], dtype=np.int32),
        )

    def elements(self) -> range:
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of an element, constant term first."""
        out = []
        for _ in range(self.t):
            a, d = divmod(a, self.p)
            out.append(d)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF)
            and (self.p, self.t, self.irreducible) == (other.p, other.t, other.irreducible)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.t, self.irreducible))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.t}, irreducible={list(self.irreducible)})"


def build_field(p: int, t: int, irreducible: Sequence[int] | None = None) -> GF:
    """Construct GF(p^t), using the built-in defining polynomial if none given."""
    return GF(p, t, irreducible)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, t) with q = p^t, or raise ValueError if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # the least prime factor; a q with none up to isqrt(q) is prime
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    t, m = 0, q
    while m % p == 0:
        m //= p
        t += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, t


def field_for_order(q: int, irreducible: Sequence[int] | None = None) -> GF:
    """GF(q) for a prime power q."""
    p, t = factor_prime_power(q)
    return GF(p, t, irreducible)

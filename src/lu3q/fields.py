"""Arithmetic in GF(p^t) under a fixed polynomial-basis presentation.

An element is an integer in [0, p^t): its base-p digits are the
coefficients of the element in the polynomial basis, least significant
digit = constant term.  Element enumeration is therefore always the
integer order 0, 1, ..., q-1, which keeps matrix indexing and file
output canonical.

The field has one representation, ``GF.tables``: int32 lookup arrays
for addition, multiplication, negation and inversion, built on first
use from the base-p digits of all q^2 pairs at once.  The scalar
operations index the same arrays, so constructing a field costs only
the checks of p and of its defining polynomial.

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


def _trim(poly: tuple[int, ...]) -> tuple[int, ...]:
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


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
    """The field operations as int32 lookup arrays indexed by elements.

    0 has no inverse: ``inv[0] = 0`` is a placeholder, which the scalar
    ``GF.inv`` refuses."""

    add: np.ndarray  # add[a, b] = a + b, shape (q, q)
    mul: np.ndarray  # mul[a, b] = a * b, shape (q, q)
    neg: np.ndarray  # neg[a] = -a, shape (q,)
    inv: np.ndarray  # inv[a] = 1/a for a != 0, shape (q,)


def _build_tables(p: int, t: int, irreducible: tuple[int, ...]) -> FieldTables:
    """The tables of GF(p^t) under a monic ``irreducible`` of degree t,
    from the base-p digits of all q^2 pairs at once: addition is
    digit-wise mod p, and a product is the convolution of the digit
    vectors reduced by the defining polynomial."""
    q = p**t
    place = p ** np.arange(t, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // place % p  # constant term first
    a, b = digits[:, None, :], digits[None, :, :]
    prod = np.zeros((q, q, 2 * t - 1), dtype=np.int64)
    for i in range(t):
        prod[..., i : i + t] += a[..., i : i + 1] * b
    # x^t = -(m_0 + m_1 x + ... + m_{t-1} x^(t-1)): fold degrees 2t-2 .. t down
    low = np.array(irreducible[:t], dtype=np.int64)
    for d in range(2 * t - 2, t - 1, -1):
        prod[..., d - t : d] -= prod[..., d : d + 1] % p * low
    mul = prod[..., :t] % p @ place
    return FieldTables(
        ((a + b) % p @ place).astype(np.int32),
        mul.astype(np.int32),
        (-digits % p @ place).astype(np.int32),
        (mul == 1).argmax(axis=1).astype(np.int32),  # row 0 has no 1: inv[0] = 0
    )


class GF:
    """The field GF(p^t) with elements 0..q-1 in the polynomial basis."""

    def __init__(self, p: int, t: int, irreducible: Sequence[int] | None = None):
        if factor_prime_power(p)[1] != 1:
            raise ValueError(f"p={p} is not prime")
        if t < 1:
            raise ValueError(f"t={t} must be >= 1")
        if irreducible is None:
            irreducible = default_irreducible(p, t)
        irreducible = _trim(tuple(c % p for c in irreducible))
        if len(irreducible) != t + 1 or irreducible[t] != 1:
            raise ValueError(f"defining polynomial must be monic of degree exactly {t}")
        if not is_irreducible(irreducible, p):
            raise ReduciblePolynomialError(
                f"{list(irreducible)} is reducible over GF({p})"
            )
        self.p = p
        self.t = t
        self.q = p**t
        self.irreducible = irreducible

    @functools.cached_property
    def tables(self) -> FieldTables:
        """Addition, multiplication, negation and inversion as arrays, built
        on first use, for evaluating one operation on many elements at once."""
        return _build_tables(self.p, self.t, self.irreducible)

    @functools.cached_property
    def _lists(self) -> FieldTables:
        """``tables`` as nested lists, which the scalar operations index:
        a list read is cheaper than a numpy scalar read."""
        return FieldTables(*(a.tolist() for a in self.tables))

    # -- field operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._lists.add[a][b]

    def neg(self, a: int) -> int:
        return self._lists.neg[a]

    def sub(self, a: int, b: int) -> int:
        L = self._lists
        return L.add[a][L.neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._lists.mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._lists.inv[a]

    def pow(self, a: int, n: int) -> int:
        """a**n for any integer n, with 0**0 = 1 and a**n = a**(n mod (q-1))
        for a != 0; 0 to a negative power raises ZeroDivisionError."""
        if n == 0:
            return 1
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        mul, result, n = self._lists.mul, 1, n % (self.q - 1)
        while n:
            if n & 1:
                result = mul[result][a]
            a = mul[a][a]
            n >>= 1
        return result

    @functools.cached_property
    def primitive(self) -> int:
        """The least element whose powers run through every nonzero element."""
        mul = self._lists.mul

        def order(g: int) -> int:
            val, k = g, 1
            while val != 1:
                val, k = mul[val][g], k + 1
            return k

        return next(g for g in range(1, self.q) if order(g) == self.q - 1)

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


# factor_prime_power trial-divides up to isqrt(q): 2^20 steps at the bound
MAX_ORDER = 2**40


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, t) with q = p^t, or raise ValueError if q is not a prime
    power or exceeds ``MAX_ORDER``."""
    if q > MAX_ORDER:
        raise ValueError(f"{q} exceeds the largest supported order 2^40")
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

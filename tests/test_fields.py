import numpy as np
import pytest

from lu3q.fields import (
    NoDefaultIrreducibleError,
    ReduciblePolynomialError,
    build_field,
    default_irreducible,
    factor_prime_power,
    field_for_order,
    is_irreducible,
)


def naive_mul(a, b, F):
    """Oracle: schoolbook coefficient multiplication + long division.

    Independent of the digit convolution that builds ``GF.tables``.
    """
    pa, pb = list(F.coeffs(a)), list(F.coeffs(b))
    prod = [0] * (len(pa) + len(pb) - 1)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            prod[i + j] = (prod[i + j] + x * y) % F.p
    m = list(F.irreducible)
    while len(prod) >= len(m):
        lead = prod[-1]
        shift = len(prod) - len(m)
        for i, c in enumerate(m):
            prod[shift + i] = (prod[shift + i] - lead * c) % F.p
        prod.pop()
    val = 0
    for c in reversed(prod):
        val = val * F.p + c
    return val


def test_gf2_prime_field():
    F = build_field(2, 1)
    assert F.q == 2
    assert list(F.elements()) == [0, 1]
    assert F.mul(1, 1) == 1
    assert F.add(1, 1) == 0


def test_gf4_x_times_x():
    # x * x reduces to x + 1 under x^2 + x + 1
    F = build_field(2, 2, (1, 1, 1))
    assert F.mul(2, 2) == 3
    assert F.mul(2, 2) == naive_mul(2, 2, F)


def test_reducible_polynomial_rejected():
    with pytest.raises(ReduciblePolynomialError):
        build_field(2, 2, (0, 1, 1))  # x^2 + x = x(x+1)


def test_non_prime_p_rejected():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(6, 2)


def test_no_default_irreducible_outside_table():
    with pytest.raises(NoDefaultIrreducibleError):
        build_field(11, 2)
    with pytest.raises(NoDefaultIrreducibleError):
        build_field(2, 6)
    # explicit override still works outside the table: x^2 + 1 over GF(11)
    F = build_field(11, 2, (1, 0, 1))
    assert F.q == 121
    assert F.mul(F.q - 1, F.q - 1) != 0


def test_default_irreducibles_match_fixed_table():
    assert default_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert default_irreducible(2, 3) == (1, 1, 0, 1)
    assert default_irreducible(2, 4) == (1, 1, 0, 0, 1)
    assert default_irreducible(2, 5) == (1, 0, 1, 0, 0, 1)


def test_mul_identity_and_inverse_gf4():
    F = build_field(2, 2)
    assert F.mul(1, 2) == 2
    # exhaustive: x * (x+1) = 1, so inv(x) = x+1
    assert [b for b in F.elements() if F.mul(2, b) == 1] == [3]
    assert F.inv(2) == 3


def test_inverse_of_zero_raises():
    F = build_field(2, 3)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_field_axioms_exhaustive(q):
    F = field_for_order(q)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(a, b) == naive_mul(a, b, F)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_fermat_and_group_order(q):
    F = field_for_order(q)
    for a in F.elements():
        assert F.pow(a, q) == a
        if a:
            assert F.pow(a, q - 1) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 32])
def test_primitive_element_generates_every_nonzero_element(q):
    F = field_for_order(q)
    g, val, powers = F.primitive, 1, set()
    for _ in range(q - 1):
        powers.add(val)
        val = naive_mul(val, g, F)
    assert val == 1
    assert powers == set(range(1, q))
    # and the least such element
    assert all(len({F.pow(h, k) for k in range(q - 1)}) < q - 1 for h in range(1, g))


@pytest.mark.parametrize("q, irr", [
    (2, None), (3, None), (4, None), (8, None), (8, (1, 0, 1, 1)),
    (9, None), (9, (2, 2, 1)), (16, None), (25, None), (27, None), (32, None),
    (81, None), (121, (1, 0, 1)), (243, None), (343, None), (1009, None),
])
def test_tables_equal_the_scalar_operations(q, irr):
    """The scalar operations read ``tables``; the tables are checked here
    against references that share no code with them: schoolbook
    multiplication, digit-wise addition and negation, and the schoolbook
    product of each element with its tabled inverse."""
    F = field_for_order(q, irr)
    T = F.tables
    assert T.add.dtype == T.mul.dtype == T.neg.dtype == T.inv.dtype == "int32"
    p, digits = F.p, [F.coeffs(a) for a in F.elements()]
    element = {d: a for a, d in enumerate(digits)}
    # both operations commute, so the pairs a <= b cover the tables
    assert (T.add == T.add.T).all() and (T.mul == T.mul.T).all()
    A, B = (x.tolist() for x in np.triu_indices(q))
    assert T.mul[A, B].tolist() == [naive_mul(a, b, F) for a, b in zip(A, B)]
    assert T.add[A, B].tolist() == [
        element[tuple([(x + y) % p for x, y in zip(digits[a], digits[b])])] for a, b in zip(A, B)
    ]
    assert T.neg.tolist() == [element[tuple([-x % p for x in d])] for d in digits]
    inv = T.inv.tolist()
    assert inv[0] == 0 and all(naive_mul(a, inv[a], F) == 1 for a in range(1, q))


def test_pow_conventions():
    F = build_field(2, 2)
    for a in F.elements():
        assert F.pow(a, 0) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(2, 3) == 1  # x^3 = x * x^2 = x * (x+1) = 1 in GF(4)


@pytest.mark.parametrize("q", [2, 4, 7, 9, 1009])
def test_negative_powers_are_powers_of_the_inverse(q):
    F = field_for_order(q)
    for a in range(1, q):
        assert naive_mul(a, F.pow(a, -1), F) == 1
        assert F.pow(a, -5) == F.pow(F.pow(a, -1), 5)
        assert F.pow(a, 1 - q) == 1
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_trailing_zeros_in_the_defining_polynomial_give_the_same_field():
    F, G = build_field(3, 2, (2, 2, 1, 0)), build_field(3, 2, (2, 2, 1))
    assert F.irreducible == (2, 2, 1)
    assert F == G and hash(F) == hash(G)
    assert F.mul(3, 3) == naive_mul(3, 3, G) < 9


def test_fields_are_built_without_their_tables():
    for F in (build_field(1_000_003, 1), field_for_order(16)):
        assert "tables" not in vars(F)


def test_odd_extension_field_gf9():
    F = build_field(3, 2)
    # char-3 behavior: 1+1+1 = 0
    assert F.add(F.add(1, 1), 1) == 0
    assert F.sub(0, 1) == F.neg(1)
    for a in F.elements():
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(13) == (13, 1)
    for bad in (1, 6, 10, 12, 15):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def _factor_by_every_divisor(q):
    """Reference: the least divisor of q, found by trial division up to q."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    t, m = 0, q
    while m % p == 0:
        m //= p
        t += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, t


def test_factor_prime_power_refuses_orders_past_the_bound():
    assert factor_prime_power(2**32) == (2, 32)
    assert factor_prime_power(2**40) == (2, 40)
    for big in (2**40 + 1, 2**61 - 1, 3**30):
        with pytest.raises(ValueError, match=r"exceeds the largest supported order 2\^40"):
            factor_prime_power(big)


def test_factor_prime_power_equals_reference_below_5000():
    def outcome(factor, q):
        try:
            return factor(q)
        except ValueError as exc:
            return str(exc)

    for q in range(-2, 5000):
        assert outcome(factor_prime_power, q) == outcome(_factor_by_every_divisor, q), q


def test_is_irreducible_small_cases():
    assert is_irreducible((1, 1, 1), 2)
    assert not is_irreducible((1, 0, 1), 2)  # x^2+1 = (x+1)^2
    assert is_irreducible((1, 0, 1), 3)  # x^2+1 has no root mod 3
    assert not is_irreducible((2, 0, 1), 3)  # x^2+2 = (x+1)(x+2)


def test_enumeration_order_is_stable():
    F1 = build_field(2, 3)
    F2 = build_field(2, 3)
    assert list(F1.elements()) == list(range(8)) == list(F2.elements())
    assert F1 == F2 and hash(F1) == hash(F2)

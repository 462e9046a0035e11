import math

import pytest

from lu3q.formulas import RankPrediction, lucas17, predict, predict_even, predict_odd
from lu3q.verify import _prime_powers


def test_recurrence_base_cases():
    assert lucas17(0) == 2
    assert lucas17(1) == 1


def test_recurrence_small_values():
    assert lucas17(2) == 9
    assert lucas17(4) == 49
    assert lucas17(6) == 297
    assert lucas17(8) == 1889


def test_recurrence_against_float_surd():
    # oracle: direct floating-point evaluation of the two root powers
    r1 = (1 + math.sqrt(17)) / 2
    r2 = (1 - math.sqrt(17)) / 2
    for n in range(21):
        assert abs(lucas17(n) - (r1**n + r2**n)) < 0.5


@pytest.mark.parametrize(
    "t, rank_p1l1, rank_pl, dim_lu",
    [(1, 6, 10, 2), (2, 42, 50, 22), (3, 282, 298, 230), (4, 1858, 1890, 2238)],
)
def test_even_predictions(t, rank_p1l1, rank_pl, dim_lu):
    pred = predict_even(t)
    assert pred.q == 2**t
    assert pred.rank_p1l1 == rank_p1l1
    assert pred.rank_pl == rank_pl
    assert pred.dim_lu == dim_lu


@pytest.mark.parametrize(
    "q, rank_pl, rank_p1l1, dim_lu",
    [(3, 25, 19, 8), (5, 91, 81, 44), (7, 225, 211, 132), (9, 451, 433, 296)],
)
def test_odd_predictions(q, rank_pl, rank_p1l1, dim_lu):
    pred = predict_odd(q)
    assert pred.rank_pl == rank_pl
    assert pred.rank_p1l1 == rank_p1l1
    assert pred.dim_lu == dim_lu


def test_odd_rejects_even_q():
    with pytest.raises(ValueError):
        predict_odd(8)


def test_even_case_dimension_identity():
    # dim_lu(t) = 2^{3t} - rank_p1l1(t)
    for t in range(1, 11):
        pred = predict_even(t)
        assert pred.dim_lu == 2 ** (3 * t) - pred.rank_p1l1


def test_odd_case_dimension_identity():
    for q in (3, 5, 7, 9):
        pred = predict_odd(q)
        assert pred.dim_lu == q**3 - pred.rank_p1l1


def test_gap_identity_all_q():
    qs = [q for q in range(2, 1025) if _is_prime_power(q)]
    for q in qs:
        pred = predict(q)
        assert pred.rank_pl - pred.rank_p1l1 == 2 * q


def test_verify_sieve_lists_the_prime_powers():
    assert _prime_powers(1024) == [q for q in range(2, 1025) if _is_prime_power(q)]
    assert _prime_powers(1) == [] and _prime_powers(16) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_no_overflow_large_t():
    # Python ints are unbounded; just confirm the values keep growing
    vals = [predict_even(t).rank_pl for t in range(1, 11)]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)
    assert predict_even(10).rank_pl == 1 + lucas17(20)


def test_dispatch():
    assert predict(8).parity == "even"
    assert predict(9).parity == "odd"
    assert isinstance(predict(4), RankPrediction)
    with pytest.raises(ValueError):
        predict(6)


def _is_prime_power(q):
    try:
        predict(q)
        return True
    except ValueError:
        return False

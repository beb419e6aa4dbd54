"""Exact-arithmetic kernel: canonical forms, square roots, sign analysis."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycone.errors import DomainError, MixedRadicalError
from cycone.exactnum import (
    QuadValue,
    format_rational,
    is_perfect_square,
    quad_over,
    quad_sign,
    sqrt_to_quad,
    squarefree_decompose,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_fraction_addition_is_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_anticanonical_quartic_arithmetic():
    # 27*3 + 486 = 567 and 81*(c1^2 - c2) = 81*7 agree for (c1, c2) = (3, 2)
    assert 27 * 3 + 486 == 567
    assert 81 * (9 - 2) == Fraction(567, 1)


def test_multiplication_absorbs_zero():
    assert Fraction(7, 3) * 0 == Fraction(0, 1)


def test_division_by_zero_is_a_domain_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


@given(rationals, rationals)
def test_field_results_stay_canonical(x, y):
    for value in (x + y, x - y, x * y) + ((x / y,) if y else ()):
        assert value == Fraction(value.numerator, value.denominator)
        assert value.denominator >= 1
        import math

        assert math.gcd(abs(value.numerator), value.denominator) == 1


def test_format_rational():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(4)) == "4/1"


@pytest.mark.parametrize(
    "m, expected",
    [(1, (1, 1)), (4, (2, 1)), (45, (3, 5)), (180, (6, 5)), (117, (3, 13)), (97, (1, 97))],
)
def test_squarefree_decompose(m, expected):
    assert squarefree_decompose(m) == expected


def test_sqrt_perfect_square_is_rational():
    v = sqrt_to_quad(Fraction(9, 4))
    assert v.is_rational and v == Fraction(3, 2)


def test_sqrt_of_45_over_4():
    # 9/4 - (-9) = 45/4, whose root is (3/2) sqrt(5)
    v = sqrt_to_quad(Fraction(45, 4))
    assert v == QuadValue.make(0, Fraction(3, 2), 5)
    assert not v.is_rational


def test_sqrt_of_quarter():
    # 9/4 - 2 = 1/4: 9 - 4*gamma is a perfect square for gamma = 2
    assert sqrt_to_quad(Fraction(1, 4)) == Fraction(1, 2)


def test_sqrt_rejects_negatives():
    with pytest.raises(DomainError):
        sqrt_to_quad(Fraction(-1, 4))


@given(st.fractions(min_value=0, max_value=120, max_denominator=30))
def test_sqrt_squares_back(q):
    v = sqrt_to_quad(q)
    assert v * v == q


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=40))
def test_rational_squares_have_rational_roots(p, q):
    assert sqrt_to_quad(Fraction(p * p, q * q)).is_rational


def test_quad_is_rational_examples():
    assert QuadValue.make(Fraction(3, 2)).is_rational
    assert not QuadValue.make(Fraction(9, 2), Fraction(-3, 2), 5).is_rational
    assert QuadValue.rational(0).is_rational


def test_make_normalizes_square_factors():
    assert QuadValue.make(0, 1, 12) == QuadValue.make(0, 2, 3)
    assert QuadValue.make(1, 2, 9) == Fraction(7)  # 1 + 2*sqrt(9) = 7
    assert QuadValue.make(5, 0, 7) == Fraction(5)


def test_constructor_rejects_non_canonical():
    with pytest.raises(DomainError):
        QuadValue(Fraction(0), Fraction(1), 12)  # 12 is not squarefree
    with pytest.raises(DomainError):
        QuadValue(Fraction(0), Fraction(0), 5)  # b = 0 forces n = 0


def test_arithmetic_same_radicand():
    x = QuadValue.make(1, 2, 5)
    y = QuadValue.make(3, -1, 5)
    assert x + y == QuadValue.make(4, 1, 5)
    assert x - y == QuadValue.make(-2, 3, 5)
    assert x * y == QuadValue.make(3 - 10, 5, 5)  # (1+2r5)(3-r5), r5^2 = 5
    assert (x * y) * 0 == 0


def test_arithmetic_with_rationals():
    x = QuadValue.make(1, 2, 5)
    assert 1 + x == QuadValue.make(2, 2, 5)
    assert x - Fraction(1, 2) == QuadValue.make(Fraction(1, 2), 2, 5)
    assert 3 * x == QuadValue.make(3, 6, 5)


def test_mixed_radicals_rejected():
    with pytest.raises(MixedRadicalError):
        QuadValue.make(0, 1, 2) + QuadValue.make(0, 1, 3)
    with pytest.raises(MixedRadicalError):
        QuadValue.make(0, 1, 2) * QuadValue.make(0, 1, 7)


def test_quad_sign_examples():
    # k = 9/2 - (3/2) sqrt(5), about 1.146, as (9 - 3 sqrt(5)) / 2
    assert quad_sign(9 - 2, -3, 5) > 0  # k > 1
    assert quad_sign(9 - 3, -3, 5) < 0  # k < 3/2
    assert quad_sign(-36, 18, 13) > 0  # boundary c2-value at gamma = -27
    assert quad_sign(0, 1, 2) > 0 and quad_sign(0, -1, 2) < 0
    assert quad_sign(0, 0, 7) == 0 and quad_sign(-3, 0, 7) < 0
    assert quad_sign(3, -3, 1) == 0 and quad_sign(-2, 3, 1) > 0  # n = 1 is rational


@given(st.integers(-400, 400), st.integers(-400, 400), st.sampled_from([1, 2, 3, 5, 7, 13]))
def test_quad_sign_matches_float(a, b, n):
    approx = a + b * n**0.5
    if abs(approx) > 1e-9:
        assert quad_sign(a, b, n) == (1 if approx > 0 else -1)
    else:
        assert quad_sign(a, b, n) == 0


def test_quad_over_is_the_canonical_quotient():
    assert quad_over(9, -3, 5, 2) == QuadValue.make(Fraction(9, 2), Fraction(-3, 2), 5)
    assert quad_over(9, -3, 5, 6) == QuadValue.make(Fraction(3, 2), Fraction(-1, 2), 5)
    assert quad_over(5, 3, 1, 2) == Fraction(4) and quad_over(5, 3, 1, 2).n == 0
    assert quad_over(4, 0, 5, 2) == Fraction(2) and quad_over(4, 0, 5, 2).n == 0


@given(rationals, st.fractions(min_value=-10, max_value=10, max_denominator=12),
       st.integers(min_value=0, max_value=60),
       rationals, st.fractions(min_value=-10, max_value=10, max_denominator=12))
def test_quad_arithmetic_stays_canonical(a, b, n, a2, b2):
    x = QuadValue.make(a, b, n)
    y = QuadValue.make(a2, b2, x.n)  # same radicand, so everything combines
    for value in (x + y, x - y, x * y, -x, x * Fraction(3, 7)):
        # re-canonicalizing must be the identity on results
        assert QuadValue.make(value.a, value.b, value.n) == value


def test_is_perfect_square():
    squares = {m * m for m in range(0, 15)} | {10**400, (10**200 + 1) ** 2}
    for m in [*range(-5, 130), 10**400, (10**200 + 1) ** 2, 10**400 + 1]:
        assert is_perfect_square(m) == (m in squares)


def test_radicands_are_decomposed_once_where_they_enter(monkeypatch):
    from cycone import exactnum

    calls = []
    original = exactnum.squarefree_decompose

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(exactnum, "squarefree_decompose", counting)
    root = sqrt_to_quad(Fraction(45, 4))  # sqrt(45 * 4) / 4
    values = (root + 1, root - root, root * root, -root, 2 * root * Fraction(1, 5))
    assert QuadValue.make(1, 2, 12) == QuadValue.make(1, 4, 3)
    assert calls == [180, 12, 3]
    for value in values:
        assert QuadValue(value.a, value.b, value.n) == value  # the validating constructor

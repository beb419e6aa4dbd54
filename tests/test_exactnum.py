"""Exact-arithmetic kernel: canonical forms, square roots, sign analysis."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycone import report
from cycone.errors import DomainError
from cycone.exactnum import (
    format_rational,
    is_perfect_square,
    quad_parts,
    quad_sign,
    quad_text,
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
@settings(deadline=None)
def test_field_results_stay_canonical(x, y):
    for value in (x + y, x - y, x * y) + ((x / y,) if y else ()):
        assert value == Fraction(value.numerator, value.denominator)
        assert value.denominator >= 1
        import math

        assert math.gcd(abs(value.numerator), value.denominator) == 1


def test_format_rational():
    assert format_rational(4) == "4/1"
    assert format_rational(-5) == "-5/1"
    # every rational the engine writes is an int: anything else is refused
    for q in (0.5, Fraction(-3, 7), Fraction(4), True):
        with pytest.raises(DomainError):
            format_rational(q)


@pytest.mark.parametrize(
    "m, expected",
    [(1, (1, 1)), (4, (2, 1)), (45, (3, 5)), (180, (6, 5)), (117, (3, 13)), (97, (1, 97))],
)
def test_squarefree_decompose(m, expected):
    assert squarefree_decompose(m) == expected


def _sqrt_parts(q: Fraction):
    """The canonical form of sqrt(q) = sqrt(p r) / r = s sqrt(n) / r, for q = p/r."""
    if q == 0:
        return quad_parts(0, 0, 1, 1)
    s, n = squarefree_decompose(q.numerator * q.denominator)
    return quad_parts(0, s, n, q.denominator)


def test_sqrt_perfect_square_is_rational():
    assert _sqrt_parts(Fraction(9, 4)) == ((3, 2), (0, 1), 0)


def test_sqrt_of_45_over_4():
    # 9/4 - (-9) = 45/4, whose root is (3/2) sqrt(5)
    assert _sqrt_parts(Fraction(45, 4)) == ((0, 1), (3, 2), 5)


def test_sqrt_of_quarter():
    # 9/4 - 2 = 1/4: 9 - 4*gamma is a perfect square for gamma = 2
    assert _sqrt_parts(Fraction(1, 4)) == ((1, 2), (0, 1), 0)


def test_sqrt_rejects_negatives():
    with pytest.raises(DomainError):
        _sqrt_parts(Fraction(-1, 4))


@given(st.fractions(min_value=0, max_value=120, max_denominator=30))
@settings(deadline=None)
def test_sqrt_squares_back(q):
    (p, r), (u, t), n = _sqrt_parts(q)
    a, b = Fraction(p, r), Fraction(u, t)
    assert a * b == 0 and a * a + b * b * n == q


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=40))
@settings(deadline=None)
def test_rational_squares_have_rational_roots(p, q):
    assert _sqrt_parts(Fraction(p * p, q * q))[2] == 0


def test_quad_is_rational_examples():
    # a canonical value is rational exactly when its radicand is written 0
    assert quad_parts(3, 0, 5, 2)[2] == 0
    assert quad_parts(9, -3, 5, 2)[2] == 5
    assert quad_parts(0, 0, 1, 1)[2] == 0


def _with_radicand(a, b, m):
    """a + b sqrt(m) for any m >= 1: the square part of m moves into b."""
    s, n = squarefree_decompose(m)
    return quad_parts(a, b * s, n, 1)


def test_make_normalizes_square_factors():
    assert _with_radicand(0, 1, 12) == _with_radicand(0, 2, 3) == ((0, 1), (2, 1), 3)
    assert _with_radicand(1, 2, 9) == ((7, 1), (0, 1), 0)  # 1 + 2*sqrt(9) = 7
    assert _with_radicand(5, 0, 7) == ((5, 1), (0, 1), 0)


def test_quad_sign_examples():
    # k = 9/2 - (3/2) sqrt(5), about 1.146, as (9 - 3 sqrt(5)) / 2
    assert quad_sign(9 - 2, -3, 5) > 0  # k > 1
    assert quad_sign(9 - 3, -3, 5) < 0  # k < 3/2
    assert quad_sign(-36, 18, 13) > 0  # boundary c2-value at gamma = -27
    assert quad_sign(0, 1, 2) > 0 and quad_sign(0, -1, 2) < 0
    assert quad_sign(0, 0, 7) == 0 and quad_sign(-3, 0, 7) < 0
    assert quad_sign(3, -3, 1) == 0 and quad_sign(-2, 3, 1) > 0  # n = 1 is rational


@given(st.integers(-400, 400), st.integers(-400, 400), st.sampled_from([1, 2, 3, 5, 7, 13]))
@settings(deadline=None)
def test_quad_sign_matches_float(a, b, n):
    approx = a + b * n**0.5
    if abs(approx) > 1e-9:
        assert quad_sign(a, b, n) == (1 if approx > 0 else -1)
    else:
        assert quad_sign(a, b, n) == 0


def test_quad_parts_is_the_canonical_quotient():
    assert quad_parts(9, -3, 5, 2) == ((9, 2), (-3, 2), 5)
    assert quad_parts(9, -3, 5, 6) == ((3, 2), (-1, 2), 5)
    assert quad_parts(9, -3, 5, -2) == ((-9, 2), (3, 2), 5)  # the sign goes on p
    assert quad_parts(5, 3, 1, 2) == ((4, 1), (0, 1), 0)  # n = 1 folds b into a
    assert quad_parts(4, 0, 5, 2) == ((2, 1), (0, 1), 0)  # b = 0 writes n = 0
    assert quad_parts(0, 36, 5, 2) == ((0, 1), (18, 1), 5)


def test_quad_text_examples():
    assert quad_text(9, -3, 5, 2) == "9/2 - 3/2*sqrt(5)"
    assert quad_text(0, 36, 5, 2) == "0 + 18*sqrt(5)"
    assert quad_text(-72, 36, 13, 2) == "-36 + 18*sqrt(13)"
    assert quad_text(5, 1, 1, 2) == "3"
    assert quad_text(-3, 0, 7, 6) == "-1/2"


def _parse_text(text):
    """The (a, b, n) of "a", or of "a + b*sqrt(n)" and "a - b*sqrt(n)"."""
    head, _, tail = text.partition(" ")
    if not tail:
        return Fraction(head), Fraction(0), 0
    sign, coef = tail[0], tail[2:]
    b, n = coef.removesuffix(")").split("*sqrt(")
    return Fraction(head), Fraction(b) * (-1 if sign == "-" else 1), int(n)


@given(st.integers(-500, 500), st.integers(-500, 500), st.sampled_from([1, 2, 3, 5, 13]),
       st.integers(-60, 60).filter(bool))
@settings(deadline=None)
def test_quad_parts_matches_fractions(a, b, n, den):
    (p, q), (r, t), m = parts = quad_parts(a, b, n, den)
    folded = (a + b, 0) if n == 1 else (a, b)  # sqrt(1) = 1
    expected_a, expected_b = (Fraction(v, den) for v in folded)
    assert (p, q) == (expected_a.numerator, expected_a.denominator)
    assert (r, t) == (expected_b.numerator, expected_b.denominator)
    assert m == (n if expected_b else 0)
    # canonical parts are a fixed point
    assert quad_parts(p * t, r * q, m or 1, q * t) == parts
    # the JSON and the text carry the same parts
    d = json.loads(report._quad(a, b, n, den, 2))
    assert (d["a"], d["b"], d["n"]) == (f"{p}/{q}", f"{r}/{t}", m)
    assert _parse_text(quad_text(a, b, n, den)) == (expected_a, expected_b, m)


def test_is_perfect_square():
    squares = {m * m for m in range(0, 15)} | {10**400, (10**200 + 1) ** 2}
    for m in [*range(-5, 130), 10**400, (10**200 + 1) ** 2, 10**400 + 1]:
        assert is_perfect_square(m) == (m in squares)

"""Exact scalars on integers: square-free parts and quadratic numbers.

Every rational value the engine computes is an ``int`` (chi on X and the
section bounds included), and a report writes it as a JSON integer.  A
proper ratio appears only inside a quadratic number, as the reduced integer
pair (p, q) of ``quad_parts``, which the JSON report writes as "p/q".

The one irrational number this problem meets is the Kahler-cone boundary
root and what is computed from it.  Every such number is
(a + b*sqrt(n)) / den with integers a, b, den and a squarefree n >= 1,
where 9 - 4 gamma = s^2 n, and it is held as those four integers: no number
class is built for it.  ``quad_sign`` gives its sign by squaring integers,
and ``quad_parts`` is its one canonical form, which the JSON report, the
text report (through ``quad_text``) and the c2 cross-check's error message
all write.

No floating point is used anywhere: signs are decided by exact integer
comparison.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import DomainError


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m >= 1 as s^2 * n with n squarefree; returns (s, n).

    Trial division, about sqrt(m) steps.  The spec bound
    ``errors.MAX_SPEC_VALUE`` keeps the one radicand a report decomposes,
    9 - 4 gamma, below 120,010: at most about 350 steps.
    """
    if m < 1:
        raise DomainError(f"squarefree decomposition needs m >= 1, got {m}")
    s, n, d = 1, 1, 2
    while d * d <= m:
        if m % d == 0:
            mult = 0
            while m % d == 0:
                m //= d
                mult += 1
            s *= d ** (mult // 2)
            if mult % 2:
                n *= d
        d += 1
    return s, n * m


def is_perfect_square(m: int) -> bool:
    return m >= 0 and isqrt(m) ** 2 == m


def _ratio(p: int, q: int) -> tuple[int, int]:
    """p/q reduced, with q > 0 and the sign on p."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def quad_parts(a: int, b: int, n: int, den: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """The canonical form of (a + b*sqrt(n)) / den, for integers a, b,
    den != 0 and a squarefree n >= 1: the reduced pairs (p, q) of a / den
    and b / den, each with q > 0, and the radicand.  n = 1 folds b into a,
    and b = 0 writes n = 0.

    >>> quad_parts(9, -3, 5, 2)
    ((9, 2), (-3, 2), 5)
    >>> quad_parts(6, 2, 1, -4)
    ((-2, 1), (0, 1), 0)
    """
    if n == 1:
        a, b = a + b, 0
    return _ratio(a, den), _ratio(b, den), n if b else 0


def quad_text(a: int, b: int, n: int, den: int) -> str:
    """``quad_parts`` of (a + b*sqrt(n)) / den as text: the rational part
    alone when b = 0, and otherwise with the coefficient of sqrt(n).

    >>> quad_text(9, -3, 5, 2), quad_text(0, 36, 5, 2), quad_text(5, 1, 1, 2)
    ('9/2 - 3/2*sqrt(5)', '0 + 18*sqrt(5)', '3')
    """
    (p, q), (r, t), n = quad_parts(a, b, n, den)
    text = f"{p}" if q == 1 else f"{p}/{q}"
    if not r:
        return text
    coef = f"{abs(r)}" if t == 1 else f"{abs(r)}/{t}"
    return f"{text} {'-' if r < 0 else '+'} {coef}*sqrt({n})"


def quad_sign(a: int, b: int, n: int) -> int:
    """The sign of a + b*sqrt(n) for integers a, b and n >= 1, by squaring.

    >>> quad_sign(-36, 18, 13), quad_sign(3, -2, 1), quad_sign(2, -1, 5)
    (1, 1, -1)
    """
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    gap = a * a - b * b * n
    return sa if gap > 0 else sb if gap < 0 else 0

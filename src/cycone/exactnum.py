"""Exact scalars: arbitrary-precision rationals and quadratic irrationals.

Rationals are ``fractions.Fraction``, which is already canonical (reduced,
positive denominator), so rational arithmetic is plain operator use.
``QuadValue`` adds exact real values a + b*sqrt(n) with rational a, b and a
squarefree integer radicand n; this is the smallest number field that holds
every Kahler-cone boundary root produced downstream.  Sums of distinct
radicals never occur in this problem and are rejected.

The boundary itself is decided on integers: every number there is
(a + b*sqrt(n)) / den with integers a, b, den, where 9 - 4 gamma = s^2 n.
``quad_sign`` gives the sign of such a number by squaring integers, and
``quad_over`` turns one into a ``QuadValue`` only where it is read as one:
the text report, the c2 cross-check's error message, the selftest and the
demos.  The JSON report writes these numbers from their integers.

All values are immutable, arithmetic is referentially transparent, and no
floating point is used anywhere (signs are decided by exact integer
comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, MixedRadicalError

_RATIONAL_TYPES = (int, Fraction)


def as_rational(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats (no rounding)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise DomainError(f"not an exact rational: {x!r}")


def format_rational(q) -> str:
    """Serialize a rational as the canonical 'p/q' string (always with /q)."""
    q = as_rational(q)
    return f"{q.numerator}/{q.denominator}"


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m >= 1 as s^2 * n with n squarefree; returns (s, n).

    Trial division, about sqrt(m) steps.  The spec constructors bound every
    Chern number by ``errors.MAX_SPEC_VALUE``, so the one radicand a report
    decomposes, 9 - 4 gamma, stays below 120,010: at most about 350 steps.
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


@dataclass(frozen=True)
class QuadValue:
    """Exact real number a + b*sqrt(n), stored in canonical form.

    Canonical form: if b == 0 then n == 0; otherwise n is squarefree and
    n >= 2.  Use :meth:`make` (or the arithmetic operators) so values are
    always canonical; the constructor validates but does not normalize.
    Each radicand is decomposed once, where it enters: arithmetic keeps the
    radicand of a canonical operand and skips the check.
    """

    a: Fraction
    b: Fraction
    n: int

    def __post_init__(self):
        if not isinstance(self.a, Fraction) or not isinstance(self.b, Fraction):
            raise DomainError("QuadValue parts must be Fractions")
        if self.b == 0:
            if self.n != 0:
                raise DomainError("canonical form requires n = 0 when b = 0")
        else:
            if self.n < 2:
                raise DomainError("canonical form requires a squarefree n >= 2")
            s, nf = squarefree_decompose(self.n)
            if s != 1 or nf != self.n:
                raise DomainError(f"radicand {self.n} is not squarefree")

    @classmethod
    def make(cls, a, b=0, n: int = 0) -> "QuadValue":
        """Build a + b*sqrt(n), normalizing into canonical form."""
        a, b = as_rational(a), as_rational(b)
        if b == 0 or n == 0:
            return cls(a, Fraction(0), 0)
        if n < 0:
            raise DomainError("radicand must be nonnegative")
        s, nf = squarefree_decompose(n)
        return cls._canonical(a, b * s, nf)

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, n: int) -> "QuadValue":
        """a + b*sqrt(n) for a radicand n already known to be squarefree.

        ``n`` is the radicand of a canonical value or one just decomposed,
        so ``__post_init__``'s decomposition is skipped.  n = 1 folds b into
        a, and b == 0 drops the radicand.
        """
        if n == 1:
            a, b = a + b, Fraction(0)
        value = object.__new__(cls)
        object.__setattr__(value, "a", a)
        object.__setattr__(value, "b", b)
        object.__setattr__(value, "n", n if b else 0)
        return value

    @classmethod
    def rational(cls, q) -> "QuadValue":
        return cls(as_rational(q), Fraction(0), 0)

    # --- structure -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __repr__(self) -> str:
        return f"QuadValue({self})"

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.n})"

    # --- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadValue":
        if isinstance(x, QuadValue):
            return x
        return QuadValue.rational(as_rational(x))

    def _join_radicand(self, other: "QuadValue") -> int:
        if self.b == 0:
            return other.n
        if other.b == 0:
            return self.n
        if self.n != other.n:
            raise MixedRadicalError(
                f"cannot combine sqrt({self.n}) with sqrt({other.n})"
            )
        return self.n

    def __add__(self, other):
        if not isinstance(other, (QuadValue, *_RATIONAL_TYPES)):
            return NotImplemented
        other = self._coerce(other)
        n = self._join_radicand(other)
        return QuadValue._canonical(self.a + other.a, self.b + other.b, n)

    __radd__ = __add__

    def __neg__(self):
        return QuadValue._canonical(-self.a, -self.b, self.n)

    def __sub__(self, other):
        if not isinstance(other, (QuadValue, *_RATIONAL_TYPES)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, (QuadValue, *_RATIONAL_TYPES)):
            return NotImplemented
        other = self._coerce(other)
        n = self._join_radicand(other)
        a = self.a * other.a + self.b * other.b * n
        b = self.a * other.b + self.b * other.a
        return QuadValue._canonical(a, b, n)

    __rmul__ = __mul__

    # --- equality ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadValue):
            return (self.a, self.b, self.n) == (other.a, other.b, other.n)
        if isinstance(other, _RATIONAL_TYPES):
            return self.is_rational and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.n))


def sqrt_to_quad(q) -> QuadValue:
    """Exact square root of a nonnegative rational, as s*sqrt(n).

    The result squares back to q exactly; it is rational iff the
    canonicalized radicand collapses to n = 0.

    >>> sqrt_to_quad(Fraction(45, 4))
    QuadValue(0 + 3/2*sqrt(5))
    >>> sqrt_to_quad(Fraction(9, 4))
    QuadValue(3/2)
    """
    q = as_rational(q)
    if q < 0:
        raise DomainError(f"sqrt of negative rational {q}")
    if q == 0:
        return QuadValue.rational(0)
    p, r = q.numerator, q.denominator
    s, n = squarefree_decompose(p * r)  # sqrt(p/r) = sqrt(p*r)/r
    return QuadValue._canonical(Fraction(0), Fraction(s, r), n)


def quad_over(a: int, b: int, n: int, den: int) -> QuadValue:
    """(a + b*sqrt(n)) / den as a ``QuadValue``, for integers a, b, den != 0
    and a squarefree n >= 1 (n = 1 gives a rational value).

    >>> quad_over(9, -3, 5, 2)
    QuadValue(9/2 - 3/2*sqrt(5))
    >>> quad_over(6, 2, 1, 4)
    QuadValue(2)
    """
    return QuadValue._canonical(Fraction(a, den), Fraction(b, den), n)


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

"""Chow ring of the projectivized bundle Z = P(E) over P2, with E of rank 3.

Generators are xi = c1(O_Z(1)) and h = the pulled-back hyperplane class
(written H below); F = H^2 is the fiber class.  Two relations cut the ring
down: H^3 = 0 (the base is a surface) and the tautological relation

    xi^3 = c1 * xi^2 H  -  c2 * xi H^2

where (c1, c2) are the Chern numbers of E.  A class has one
representation, an expansion: its coefficients on the twelve monomials
xi^i H^j with j <= 2 and i + j <= 4 (``_REDUCIBLE``), as a tuple or list
that a factor of ``expand`` may cut short (missing slots are 0).  There is
one product, ``expand``, in the truncated ring Z[xi, H]/(H^3, deg > 4),
and one number, ``integral``, which weights the degree-4 part of an
expansion by the point integrals ``ChernPair.point_integrals``.  The
relation enters only there, so no class is ever reduced: (-K_Z)^4, the
Euler number, the Gram matrix and the pairings of X are all integrals.

The ring is integral: expansions of ints keep plain ``int`` coefficients,
and every caller in the package builds its classes from ints.  The engine
touches coefficients only through ``+``, ``*``, ``**`` and truthiness, so
other exact coefficients (``Fraction`` in the tests, or polynomials in c1
and c2) pass through as given; integrality of geometric quantities is
asserted, never assumed.

The engine reads tables built at import, so no term of a product computes
a slot, a binomial or a test of whether it survives: ``_PRODUCTS[a]``
lists the (b, slot) pairs whose product with monomial a survives, and
``_power_sum`` and ``tangent_total`` read their (slot, exponent, binomial)
terms from ``_POWER_TERMS`` and ``_TWISTED_TERMS``.  Adjunction on X in
|-K_Z| is one product too: ``cy_chern_pushforward`` expands c(T_Z) by
-K_Z (1 + K + K^2 + K^3), whose degree-2 part c1(X) . [X] must vanish.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvariantViolationError

# The basis of the ring, as (xi-exponent, H-exponent), grouped by total degree.
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2))

# Every xi^i H^j a product can give with j <= 2 and i + j <= 4 (anything
# else dies by H^3 = 0 or by degree): the basis, then xi^3, xi^3 H and xi^4
# in slots 9-11.  Slot k of an expansion holds the coefficient of
# _REDUCIBLE[k].
_REDUCIBLE = MONOMIALS + ((3, 0), (3, 1), (4, 0))
_SLOT = {m: k for k, m in enumerate(_REDUCIBLE)}
# _PRODUCTS[a]: the (b, slot) pairs for which monomial a times monomial b
# survives (H^3 = 0 and degree above 4 kill the rest), with its slot
_PRODUCTS = tuple(
    tuple(
        (b, _SLOT[i1 + i2, j1 + j2])
        for b, (i2, j2) in enumerate(_REDUCIBLE)
        if (i1 + i2, j1 + j2) in _SLOT
    )
    for (i1, j1) in _REDUCIBLE
)
# _OF_DEGREE[d]: (slot, xi-exponent) of every monomial of degree d
_OF_DEGREE = tuple(
    tuple((k, i) for k, (i, j) in enumerate(_REDUCIBLE) if i + j == d) for d in range(5)
)
# _POWER_TERMS[k]: (slot, m, C(k, m)) of each term C(k, m) xi^m H^(k-m) of
# (xi + H)^k that survives H^3 = 0, for k = 0..4
_POWER_TERMS = tuple(
    tuple((_SLOT[m, k - m], m, math.comb(k, m)) for m in range(max(0, k - 2), k + 1))
    for k in range(5)
)
# (slot, i, C(3 - i, m)) of each term of sum_i c_i(E-dual) (1 + xi)^(3 - i),
# the twisted factor of c(T_Z): c_i(E-dual) H^i times C(3 - i, m) xi^m
_TWISTED_TERMS = tuple(
    (_SLOT[m, i], i, math.comb(3 - i, m)) for i in range(3) for m in range(4 - i)
)
_ZEROS = (0,) * len(_REDUCIBLE)


class ChernPair(namedtuple("ChernPair", "c1 c2")):
    """Chern numbers (c1(E).h, c2(E)) of a rank-3 bundle on P2."""

    __slots__ = ()

    @property
    def gamma(self) -> int:
        """The twist-invariant c1^2 - 3*c2; it is c1^2 mod 3, so never 2 mod 3."""
        return self.c1 * self.c1 - 3 * self.c2

    def twist(self, t: int) -> "ChernPair":
        """Chern numbers of E tensored with O(t)."""
        return ChernPair(self.c1 + 3 * t, self.c2 + 2 * t * self.c1 + 3 * t * t)

    @property
    def point_integrals(self) -> tuple[int, int, int, int, int]:
        """s_i = the integral of xi^i H^(4-i), for i = 0..4.

        H^3 = 0 kills i = 0, 1; xi^2 H^2 is the point class; the relation
        gives xi^3 H = c1 xi^2 H^2 and xi^4 = c1 xi^3 H - c2 xi^2 H^2.
        """
        return (0, 0, 1, self.c1, self.c1 * self.c1 - self.c2)


def as_integer(q) -> int:
    """Assert a coefficient is an ``int`` and return it; any other type, a
    whole ``Fraction`` included, is refused."""
    if isinstance(q, int):
        return q
    raise InvariantViolationError(f"expected an integer, got {q!r}")


def expand(x, y) -> list:
    """The product x * y of two expansions, on all twelve slots, with no
    relation applied.  The loop runs over the nonzero entries of x, so the
    sparser factor goes first."""
    if len(y) < len(_REDUCIBLE):
        y = (*y, *_ZEROS[len(y):])
    out = [0] * len(_REDUCIBLE)
    for xa, row in zip(x, _PRODUCTS):
        if xa:
            for b, slot in row:
                yb = y[b]
                if yb:
                    out[slot] += xa * yb
    return out


def integral(p, c: ChernPair, monomial: tuple[int, int] = (0, 0)):
    """The integral over Z of xi^i H^j times the expansion ``p`` (all twelve
    slots), for ``monomial`` = (i, j): each xi^k H^l of degree 4 - i - j in
    ``p`` is weighted by the point integral s_(k+i) of ``c``."""
    i, j = monomial
    s = c.point_integrals
    total = 0
    for slot, k in _OF_DEGREE[4 - i - j] if i + j <= 4 else ():
        total += p[slot] * s[k + i]
    return total


def anticanonical(c: ChernPair) -> tuple[int, int, int]:
    """-K_Z = 3*xi + (3 - c1)*H, as the slots (1, xi, H)."""
    return (0, 3, 3 - c.c1)


def _power_sum(a, b, powers) -> list:
    """The sum of d^k over ``powers`` for the degree-1 class d = a xi + b H,
    written binomially as an expansion (H^3 = 0 drops the rest)."""
    a2 = a * a
    a_pow, b_pow = (1, a, a2, a2 * a, a2 * a2), (1, b, b * b)
    out = [0] * len(_REDUCIBLE)
    for k in powers:
        for slot, m, binomial in _POWER_TERMS[k]:
            out[slot] += binomial * a_pow[m] * b_pow[k - m]
    return out


def minus_k_quartic(c: ChernPair) -> int:
    """(-K_Z)^4, which evaluates to 27*gamma + 486."""
    _, a, b = anticanonical(c)
    return as_integer(integral(_power_sum(a, b, (4,)), c))


def tangent_total(c: ChernPair) -> list:
    """c(T_Z) = c(p^* T_P2) * c(p^* E-dual (x) O_Z(1)), in one expansion.

    The twisted factor is written from the Chern roots as sum_i c_i(E-dual)
    (1 + xi)^(3 - i), with c_i(E-dual) = 1, -c1 H, c2 H^2 (c3 dies with H^3).
    """
    dual = (1, -c.c1, c.c2)
    twisted = [0] * len(_REDUCIBLE)
    for slot, i, binomial in _TWISTED_TERMS:
        twisted[slot] = dual[i] * binomial
    return expand((1, 0, 3, 0, 0, 3), twisted)  # c(p^* T_P2) = 1 + 3H + 3H^2


def euler_number(c: ChernPair) -> int:
    """Integral of c4(T_Z); the topological Euler number of Z (always 9)."""
    return as_integer(integral(tangent_total(c), c))


def cy_chern_pushforward(c: ChernPair) -> list:
    """c(T_X) . [X] on Z as an expansion: by adjunction on X in |-K_Z|, the
    product of -K_Z (1 + K + K^2 + K^3), K = K_Z, and c(T_Z), whose degree-5
    term ``expand`` drops.  Its ``integral`` against xi^i H^j integrates
    xi^i H^j c_(3-i-j)(X) over X.  Its degree-2 part c1(X) . [X] must cancel
    exactly (X is Calabi-Yau); that cancellation is asserted.
    """
    _, a, b = anticanonical(c)  # d = -K_Z = a xi + b H
    # d - d^2 + d^3 - d^4, the negated power sum of -d = K; it has no degree-0
    # term, so it is the sparser factor
    x = expand([-v for v in _power_sum(-a, -b, range(1, 5))], tangent_total(c))
    if x[3] or x[4] or x[5]:
        raise InvariantViolationError("adjunction did not cancel c1 on the hypersurface")
    return x


class GramMatrix(namedtuple("GramMatrix", "entries det")):
    """Pairing matrix of the degree-4 basis (F, xi*H, xi^2), with determinant."""

    __slots__ = ()


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def gram_matrix(c: ChernPair) -> GramMatrix:
    # F = H^2, xi*H and xi^2 as expansions
    basis = ((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 1))
    entries = tuple(tuple(as_integer(integral(expand(u, v), c)) for v in basis) for u in basis)
    return GramMatrix(entries, _det3(entries))


class ExceptionalSurfaceClass(
    namedtuple("ExceptionalSurfaceClass", "coeffs mu_candidates reduced")
):
    """Numerical class data of a potential anticanonically-contracted surface.

    ``coeffs`` are the (xi^2, xi*H, F) coefficients of the mu-multiplied
    class.  ``mu_candidates`` lists the positive integers mu compatible with
    integrality of the class over the unimodular degree-4 basis together
    with the forced fiber degree (mu * G.F = 9 with G.F a positive integer
    at most xi^2.F = 1, so mu = 9 must be admissible); an empty tuple means
    no such surface class can exist.  ``reduced`` is the integral class for
    mu = 9 when admissible.
    """

    __slots__ = ()


def exceptional_surface_class(c: ChernPair) -> ExceptionalSurfaceClass:
    coeffs = (
        9,
        -(6 * c.c1 + 9),
        9 * c.c2 + 3 * c.c1 + 9 - 2 * c.c1 * c.c1,
    )
    g = math.gcd(math.gcd(9, abs(coeffs[1])), abs(coeffs[2]))
    if g % 9 == 0:
        candidates = tuple(d for d in (1, 3, 9) if g % d == 0)
        reduced = tuple(v // 9 for v in coeffs)
    else:
        candidates, reduced = (), None
    return ExceptionalSurfaceClass(coeffs, candidates, reduced)


def chern_pair_of_split(e1: int, e2: int, e3: int) -> ChernPair:
    return ChernPair(e1 + e2 + e3, e1 * e2 + e1 * e3 + e2 * e3)


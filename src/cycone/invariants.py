"""Numerical invariants of the Calabi-Yau hypersurface X in |-K_Z|.

Every pairing on X is computed twice: through the ambient Chow engine and
through closed forms; the two routes must agree exactly or an
InvariantViolationError is raised.  The engine route takes each pairing
as a point integral (``chow.integral``) of c(T_X) . [X], the one unreduced
product of c(T_Z) and -K_Z (1 + K + K^2 + K^3) that adjunction gives
(``chow.cy_chern_pushforward``), with no reduction table.  The closed
forms are, with gamma = c1^2 - 3 c2:

    O_X(1)^3          = gamma + c1^2 + 3 c1
    O_X(1)^2 . pi*h   = 2 c1 + 3
    O_X(1) . F        = 3
    O_X(1) . c2(X)    = 36 + 12 c1 + 2 gamma
    pi*h . c2(X)      = 36
    c3(X)             = -6 gamma - 162      (so rho = 2 forces gamma >= -27)

Riemann-Roch on X is written once, in ``chi_on_cy``: chi(m D|X) =
(2 m^3 D^3 + m D.c2(X)) / 12 from these pairings, an ``int`` whose
divisibility by 12 is checked on every call; ``section_bounds`` takes its
chi(O_X(1)) from there.  Every value here is an integer.
"""

from __future__ import annotations

from collections import namedtuple

import cycone.chow as chow
from .bundles import BundleSpec
from .chow import ChernPair, as_integer
from .cohom import cohom_atoms, end_atoms
from .errors import InvariantViolationError


class XPairings(namedtuple("XPairings", "o1_cubed o1_sq_h o1_fiber o1_c2 h_c2 c3")):
    """The six intersection pairings on X (all integers)."""

    __slots__ = ()


def closed_form_pairings(c: ChernPair) -> XPairings:
    g = c.gamma
    return XPairings(
        o1_cubed=g + c.c1 * c.c1 + 3 * c.c1,
        o1_sq_h=2 * c.c1 + 3,
        o1_fiber=3,
        o1_c2=36 + 12 * c.c1 + 2 * g,
        h_c2=36,
        c3=-6 * g - 162,
    )


def engine_pairings(c: ChernPair) -> XPairings:
    """The pairings as point integrals of c(T_X) . [X], left unreduced:
    against O_X(1)^i (pi*h)^j the grading reads off c_(3-i-j)(X), so c2(X)
    for one divisor and c3(X) for none."""
    x = chow.cy_chern_pushforward(c)

    def on_x(i: int, j: int) -> int:
        return as_integer(chow.integral(x, c, (i, j)))

    return XPairings(
        o1_cubed=on_x(3, 0), o1_sq_h=on_x(2, 1), o1_fiber=on_x(1, 2),
        o1_c2=on_x(1, 0), h_c2=on_x(0, 1), c3=on_x(0, 0),
    )


def cy_invariants(c: ChernPair) -> XPairings:
    """The pairings of X, c3(X) among them, checked engine against closed forms.

    Raises InvariantViolationError when the two routes disagree.
    """
    closed = closed_form_pairings(c)
    engine = engine_pairings(c)
    if closed != engine:
        raise InvariantViolationError(
            f"pairing tables disagree for {c}: closed {closed} vs engine {engine}"
        )
    return closed


def chi_on_cy(p: XPairings, d: tuple[int, int], m: int) -> int:
    """Riemann-Roch on X: chi(m D|X) = (2 m^3 D^3 + m D.c2(X)) / 12 for
    D = alpha O_X(1) + beta pi*h, from the pairings ``p`` of X; no
    quadratic or constant term since K_X = 0.

    Equals h^0 when D|X is ample (Kodaira vanishing, K_X = 0); knowing
    ampleness is the caller's business.  Raises InvariantViolationError
    when 12 does not divide the numerator, which the pairings of X rule out.
    """
    alpha, beta = d
    cube = alpha * (
        alpha * alpha * p.o1_cubed + 3 * alpha * beta * p.o1_sq_h + 3 * beta * beta * p.o1_fiber
    )
    chi, rest = divmod(2 * m**3 * cube + m * (alpha * p.o1_c2 + beta * p.h_c2), 12)
    if rest:
        raise InvariantViolationError(
            f"Riemann-Roch on X produced a non-integer chi for D = {d}, m = {m}"
        )
    return chi


class SectionBounds(
    namedtuple(
        "SectionBounds",
        [
            "lower_bound_o1_minus_h",  # h^0(O_X(1) - pi*h) is at least this
            "chi_o1",                  # chi(O_X(1)) = h^0 under ampleness
            "normal_bound",            # h^0(N_{X|Z}) >= 5*gamma + 91
            "c1_ge_minus_1",           # necessary once the hypotheses hold
            "positive_bound_forces_c1_ge_1",
            "assumes",
        ],
        defaults=(("O_X(1) ample", "-K_Z nef"),),
    )
):
    """Section-count bounds, all conditional on O_X(1) ample and -K_Z nef."""

    __slots__ = ()


def section_bounds(c: ChernPair, p: XPairings) -> SectionBounds:
    """The section bounds of ``c``, given its pairings ``p``: the lower
    bound gamma/3 + c1^2/6 + c1/2 is lb/6 with lb = 6 ((c1^2 + c1)/2 - c2),
    an integer, and chi(O_X(1)) is ``chi_on_cy`` at D = O_X(1), m = 1."""
    g = c.gamma
    lb = 2 * g + c.c1 * c.c1 + 3 * c.c1
    return SectionBounds(
        lower_bound_o1_minus_h=lb // 6,
        chi_o1=chi_on_cy(p, (1, 0), 1),
        normal_bound=5 * g + 91,
        c1_ge_minus_1=c.c1 >= -1,
        positive_bound_forces_c1_ge_1=lb > 0,
    )


class RhoResult(namedtuple("RhoResult", "value reason")):
    """rho(X), or None when it is not known, and the reason for it."""

    __slots__ = ()


def rho_of_x(spec: BundleSpec, minus_k) -> RhoResult:
    """Picard number of X: 2 + h^2(End E) when -K_Z is big and nef.

    ``minus_k`` is the spec's -K_Z status (a ``cone.MinusKStatus``).
    h^2(End E) is read off End of the spec's atoms by ``cohom``, one route
    for every spec that has them; a Chern-only spec has none, and nef unknown.
    """
    if spec.atoms is None or not (minus_k.nef is True and minus_k.big is True):
        return RhoResult(None, "anticanonical-not-known-big-nef")
    return RhoResult(2 + cohom_atoms(end_atoms(spec.atoms)).h2, "end-cohomology")

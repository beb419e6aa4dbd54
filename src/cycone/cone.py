"""Kahler-cone analysis for X in |-K_Z|, Z = P(E) over P2, rho(X) = 2.

The pieces, all in exact arithmetic:

* status of -K_Z (nef / ample / big), decided by the line test 3 e1 + 3 - c1
  for uniform splitting types and by (-K_Z)^4 = 27 gamma + 486 for bigness,
  each value kept as an integer witness;
* the boundary root of {D^3 = 0} along the ray through O_X(3) and pi*h,
  k = c1 + 3/2 - sqrt(9/4 - gamma), held as the integers of
  k = (2 c1 + 3 - s sqrt(n)) / 2 with 9 - 4 gamma = s^2 n, n squarefree,
  and rational exactly when n = 1; no number class is built for it, and
  the selftest checks it against the Chow ring's quadratic D^3 . (-K_Z);
* positivity of c2(X) on the closed cone, whose boundary value
  18 + 2 gamma + 6 sqrt(9 - 4 gamma) is found by two routes on integers;
* the admissible splitting-type table for -1 <= c1 <= 4;
* the restriction case of K(X) = K(Z)|X: equality where -K_Z is ample
  (Kollar), an exceptional-surface candidate whose class is pinned
  numerically where it is nef, big and not ample, else ``not_determined``;
* the rationality verdict, h^0(-K_Z) > 1 or open, with a trail.

Each is a function of the facts it decides from, and no result relays
another: the -K_Z status reads the spec alone, and the verdict carries no
caveats.  ``report.build_report`` calls each once per spec, keeps the
results side by side, and writes every caveat itself, the flag on a spec
that contradicts the rho(X) = 2 hypothesis among them.
"""

from __future__ import annotations

from collections import namedtuple

import cycone.chow as chow
import cycone.exactnum as exactnum
import cycone.invariants as invariants
from .bundles import BundleSpec, H0Anticanonical
from .chow import ChernPair
from .errors import DomainError, InvariantViolationError
from .exactnum import quad_sign, quad_text

RATIONAL, UNKNOWN = "Rational", "Unknown"
EQUALITY, EXCEPTIONAL_CANDIDATE, NOT_DETERMINED = (
    "equality",
    "exceptional_candidate",
    "not_determined",
)


class MinusKStatus(namedtuple("MinusKStatus", "nef ample big witnesses", defaults=((),))):
    """Tri-state positivity record for -K_Z (None means unknown); the
    witnesses are (name, int) pairs."""

    __slots__ = ()

    def __new__(cls, nef, ample, big, witnesses=()):
        if ample is True and nef is False:
            raise DomainError("ample implies nef")
        return tuple.__new__(cls, (nef, ample, big, witnesses))

    @classmethod
    def _make(cls, values):  # so that _replace checks too
        return cls(*values)


def anticanonical_status(spec: BundleSpec) -> MinusKStatus:
    """Positivity of -K_Z, read off the spec alone.

    A spec with atoms has a uniform splitting type, and the line test on it
    is exact: -K_Z is nef iff E (x) O((3 - c1)/3) is, and with Q = T(-1) a
    quotient of O^3 an atom S^a T(b) = S^a Q(a + b) is nef iff its
    smallest line degree a + b is >= 0 (so also after a rational twist).
    Chern-only specs leave nef and ample undecided, and bigness undecided
    too since the top self-intersection alone proves nothing without
    nefness.
    """
    c = spec.chern
    quartic = chow.minus_k_quartic(c)
    witnesses = [("minus_k_quartic", quartic)]
    nef = ample = big = None
    stype = spec.splitting_type
    if stype is not None:
        line_value = 3 * stype[0] + 3 - c.c1
        witnesses.append(("line_test_min_summand", line_value))
        nef = line_value >= 0
        ample = line_value > 0
        if nef:
            big = quartic > 0
        # without nefness the top self-intersection proves nothing; big stays unknown
    return MinusKStatus(nef, ample, big, tuple(witnesses))


class BoundaryRoot(namedtuple("BoundaryRoot", "exists center s n den", defaults=(0, 0, 0, 2))):
    """Roots of D^3 = 0 on D = O_X(3) - k pi*h, as integers: the smaller
    branch is k = (center - s sqrt(n)) / den and the larger k_other =
    (center + s sqrt(n)) / den, with n squarefree.  No real root leaves
    s = 0."""

    __slots__ = ()

    @property
    def is_rational(self) -> bool:
        return self.n == 1


def boundary_root(c: ChernPair) -> BoundaryRoot:
    """Solve D^3 = 0 for D = O_X(3) - k pi*h.

    k = (2 c1 + 3 -+ sqrt(9 - 4 gamma)) / 2, with the integer 9 - 4 gamma
    decomposed once; no real root exists once gamma exceeds 9/4.

    >>> boundary_root(ChernPair(3, 6))  # k = (9 - 3 sqrt(5)) / 2
    BoundaryRoot(exists=True, center=9, s=3, n=5, den=2)
    >>> boundary_root(ChernPair(3, 2)).exists
    False
    """
    disc = 9 - 4 * c.gamma
    if disc < 0:
        return BoundaryRoot(False)
    s, n = exactnum.squarefree_decompose(disc)
    return BoundaryRoot(True, 2 * c.c1 + 3, s, n)


class C2Positivity(namedtuple("C2Positivity", "boundary minus_k_ray positive")):
    """c2(X)-values on the boundary rays of the (candidate) nef cone; the
    root's ray is O_X(1) - (k/3) pi*h.  ``boundary`` is (a, b, n, den) with
    D.c2(X) = (a + b sqrt(n))/den, or None, and ``minus_k_ray`` is -K_Z|X .
    c2(X) = 6*gamma + 216.  The pi*h ray's value, always 36, is
    ``XPairings.h_c2`` and is not held here."""

    __slots__ = ()


def c2_positivity(
    c: ChernPair, root: BoundaryRoot, pairings: invariants.XPairings
) -> C2Positivity:
    """Evaluate D.c2(X) at the cone-boundary data of the given bundle.

    ``root`` is the bundle's boundary root and ``pairings`` are the
    pairings of X.  When the root exists the boundary value is computed
    twice, each as the integer pair (a, b) of den * value = a + b sqrt(n):
    through the pairing D.c2(X) = O_X(1).c2(X) - 12 k, and by the
    gamma-only closed form 18 + 2 gamma + 6 sqrt(9 - 4 gamma), whose square
    root is the branch gap k_other - k = 2 s sqrt(n) / den; the two must
    agree.  Its sign is decided by squaring integers.
    """
    g = c.gamma
    boundary = None
    positive = True  # the h ray gives 36
    if root.exists:
        den, s, n = root.den, root.s, root.n
        # den (O_X(1).c2(X) - 12 k), with k = (center - s sqrt(n)) / den
        via_pairing = (den * pairings.o1_c2 - 12 * root.center, 12 * s)
        # den (18 + 2 gamma + 6 (k_other - k)), with k_other - k = 2 s sqrt(n) / den
        closed = (den * (18 + 2 * g), 6 * 2 * s)
        if via_pairing != closed:
            raise InvariantViolationError(
                f"boundary c2-value mismatch for {c}: {quad_text(*via_pairing, n, den)}"
                f" vs {quad_text(*closed, n, den)}"
            )
        boundary = (*via_pairing, n, den)
        positive = quad_sign(*via_pairing, n) > 0
    minus_k_ray = 6 * g + 216
    return C2Positivity(boundary, minus_k_ray, positive and minus_k_ray > 0)


def allowed_splitting_types(c1: int) -> list[tuple[int, int, int]]:
    """The types (a <= b <= c) with a + b + c = c1 that pass
    ``is_allowed_splitting_type``, sorted; its bounds keep a in [-1, 1] and
    b in [a, 2], so only those are tried (none outside -1 <= c1 <= 4)."""
    return [
        (a, b, c1 - a - b)
        for a in range(-1, 2)
        for b in range(a, 3)
        if is_allowed_splitting_type(a, b, c1 - a - b)
    ]


# The c1 of every admissible splitting type: -1 <= c1 <= 4.
ADMISSIBLE_C1 = range(-1, 5)


def is_allowed_splitting_type(a: int, b: int, c: int) -> bool:
    """Whether (a, b, c) is admissible: c1 = a + b + c in ``ADMISSIBLE_C1``,
    a <= b <= c, the nef line test 3a + 3 - c1 >= 0 and the strict test
    3b + 3 - c1 > 0."""
    c1 = a + b + c
    return c1 in ADMISSIBLE_C1 and a <= b <= c and 3 * a >= c1 - 3 and 3 * b + 3 - c1 > 0


class ConeRestriction(namedtuple("ConeRestriction", "case via surface", defaults=(None, None))):
    """Whether K(X) = K(Z)|X, and through which mechanism; ``surface`` is
    the ``ExceptionalSurfaceClass`` of an exceptional candidate, else None."""

    __slots__ = ()


def cone_restriction_case(spec: BundleSpec, minus_k: MinusKStatus) -> ConeRestriction:
    """Classify the restriction equality K(X) = K(Z)|X.

    Ample -K_Z gives equality outright; big and nef but not ample is the one
    exceptional pattern, which carries (and alone computes) the
    contracted-surface class of ``spec``.  Anything else, a non-nef -K_Z
    included, is not determined.  Where a split X is smooth along
    S = P(O(e1)) and the S determinant -(3 gamma - c1^2 - 3 c1 - 9), c1 at
    e1 = 0, is nonzero, rho(X) >= 3 and K(Z)|X spans at most two of rho(X)
    dimensions, so equality is false; elsewhere X is reducible, singular or
    of open rho(X), and no argument decides it.  The strict case waits for a
    stage that settles smoothness and rho(X).

    No spec reaches two further cases, so they have no branch.  A nef,
    non-ample spec with a splitting type has 3 e1 + 3 = c1, so 3 | c1; then
    9 divides every coefficient of the surface class and its mu candidates
    are (1, 3, 9), never empty.  Nef and not big needs (-K_Z)^4 = 27 gamma
    + 486 <= 0, that is gamma <= -18, below the floor gamma >= -9 of every
    atom spec.  A hand-built status in either case (say big, nef, not ample
    on chern (2, 5), where the candidates are empty) gets ``not_determined``.
    """
    if minus_k.ample is True:
        return ConeRestriction(EQUALITY, "ample-anticanonical")
    if minus_k.nef is True and minus_k.big is True and minus_k.ample is False:
        surface = chow.exceptional_surface_class(spec.chern)
        if surface.mu_candidates:
            return ConeRestriction(EXCEPTIONAL_CANDIDATE, None, surface)
    return ConeRestriction(NOT_DETERMINED)


class RationalityResult(namedtuple("RationalityResult", "verdict trail")):
    """The verdict, ``RATIONAL`` or ``UNKNOWN``, and the names of the steps
    that decided it."""

    __slots__ = ()

    def __new__(cls, verdict: str, trail: tuple[str, ...]):
        if verdict == RATIONAL and not trail:
            raise DomainError("a Rational verdict needs a nonempty trail")
        return tuple.__new__(cls, (verdict, trail))

    @classmethod
    def _make(cls, values):  # so that _replace checks too
        return cls(*values)


def rationality_verdict(h0: H0Anticanonical) -> RationalityResult:
    """Is the boundary of the Kahler cone of X spanned by rational classes?

    Under the standing rho(X) = 2 hypothesis (``report.build_report`` flags
    a spec that contradicts it), h^0(-K_Z) > 1 makes the boundary rational;
    ``h0_anticanonical`` answers it on every spec with gamma >= -18
    (c3(X) <= -54).  Otherwise the verdict is open: this is exactly the
    h^0(-K_Z) = 1 territory.

    No clause reads the boundary root, by the root lemma: the root is
    rational only when 9 - 4 gamma is a square, and for an attainable gamma
    (gamma = c1^2 mod 3, so never 2 mod 3) that is gamma = -9 j (j + 1).
    j = 0 and j = 1 give gamma = 0 and -18, which h^0(-K_Z) > 1 decides;
    every other such gamma is at most -54, where c3(X) = -6 gamma - 162 > 4,
    while rho(X) = 2 forces c3(X) = 2 (2 - h12) <= 4.
    """
    if h0.gt1 is True:
        # the trail records how the section bound was established
        if h0.reason == "exact":
            return RationalityResult(RATIONAL, ("h0-minus-k-gt-1",))
        return RationalityResult(RATIONAL, ("gamma-ge-minus-18", "h0-minus-k-gt-1"))
    return RationalityResult(UNKNOWN, ())

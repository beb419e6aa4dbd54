"""Correctness oracles for the benchmark, written from the paper's closed forms.

Nothing here imports cycone: each fact is derived again from first
principles, so that a wrong engine cannot agree with itself.

* gamma = c1^2 - 3 c2, c3(X) = -6 gamma - 162, h12 = 3 gamma + 83 when rho = 2;
* the six pairings on X as closed forms in (c1, gamma);
* -K_Z = 3 xi + (3 - c1) h: nef iff 3 e_min + 3 - c1 >= 0 on a split type,
  ample iff > 0, and (-K_Z)^4 = 27 gamma + 486 decides bigness once nef;
* rho(X) = 2 + sum_{i,j} h0(O(-3 - (e_j - e_i))) for split nef-big specs;
* the cubic D^3 = 0 along the O_X(3) ray has a real root iff 9 - 4 gamma >= 0,
  a rational one iff 9 - 4 gamma is a perfect square;
* sheaf cohomology on P2: line-bundle tables from binomials and Serre duality,
  and chi of S^a T(b) from the Euler sequence, chi of a dual by Serre duality.
"""

from __future__ import annotations

from math import comb, isqrt

# The named catalog: (c1, c2) before any twist, the generic splitting type
# on lines, and the exponents when the bundle is a sum of line bundles.
CATALOG = {
    "O+O(1)+O(2)": ((3, 2), (0, 1, 2), (0, 1, 2)),
    "2O+O(3)": ((3, 0), (0, 0, 3), (0, 0, 3)),
    "TP2+O": ((3, 3), (0, 1, 2), None),
    "TP2(-1)+O(2)": ((3, 3), (0, 1, 2), None),
    "S2TP2(-1)": ((3, 6), (0, 1, 2), None),
    "TP3restP2": ((4, 6), (1, 1, 2), None),
}


class OracleError(AssertionError):
    """An output disagreed with the closed forms."""


def expect(cond: bool, what: str):
    if not cond:
        raise OracleError(what)


def twist_chern(c1: int, c2: int, t: int) -> tuple[int, int]:
    """Chern pair of E (x) O(t) for rank 3."""
    return c1 + 3 * t, c2 + 2 * t * c1 + 3 * t * t


def split_chern(exps) -> tuple[int, int]:
    e1, e2, e3 = exps
    return e1 + e2 + e3, e1 * e2 + e1 * e3 + e2 * e3


def gamma(c1: int, c2: int) -> int:
    return c1 * c1 - 3 * c2


def c3_of_x(g: int) -> int:
    return -6 * g - 162


def h12_rho2(g: int) -> int:
    return 3 * g + 83


def pairings(c1: int, g: int) -> dict:
    return {
        "o1_cubed": g + c1 * c1 + 3 * c1,
        "o1_sq_h": 2 * c1 + 3,
        "o1_fiber": 3,
        "o1_c2": 36 + 12 * c1 + 2 * g,
        "h_c2": 36,
        "c3": c3_of_x(g),
    }


def h0_line(k: int) -> int:
    return comb(k + 2, 2) if k >= 0 else 0


def minus_k_status(stype, c1: int, g: int):
    """(nef, ample, big) of -K_Z for a uniform splitting type; None = unknown."""
    if stype is None:
        return None, None, None
    line = 3 * min(stype) + 3 - c1
    nef = line >= 0
    big = (27 * g + 486 > 0) if nef else None
    return nef, line > 0, big


def rho_split(exps, nef, big):
    """rho(X) = 2 + h^2(End E) for split nef-big specs, else None (unknown)."""
    if not (nef and big):
        return None
    return 2 + sum(h0_line(-3 - (ej - ei)) for ei in exps for ej in exps)


def root_exists(g: int) -> bool:
    return 9 - 4 * g >= 0


def root_rational(g: int) -> bool:
    d = 9 - 4 * g
    return d >= 0 and isqrt(d) ** 2 == d


def tab_admissible(exps) -> bool:
    """Whether a sorted split type lies in the admissible table (-1 <= c1 <= 4)."""
    a, b, c = exps
    c1 = a + b + c
    return -1 <= c1 <= 4 and 3 * a + 3 - c1 >= 0 and 3 * b + 3 - c1 > 0


# --- sheaf cohomology on P2 ----------------------------------------------------


def chi_line(k: int) -> int:
    """chi(O(k)) = (k+1)(k+2)/2, a polynomial valid for every k."""
    return (k + 1) * (k + 2) // 2


def line_table(k: int) -> tuple[int, int, int]:
    """h^i(O(k)): h0 from monomials, h1 = 0, h2 by Serre duality with O(-3)."""
    return h0_line(k), 0, h0_line(-3 - k)


def chi_sym_tangent(a: int, b: int) -> int:
    """chi(S^a T(b)) from 0 -> S^{a-1}(O(1)^3)(b) -> S^a(O(1)^3)(b) -> S^a T(b) -> 0."""
    if a == 0:
        return chi_line(b)
    return comb(a + 2, 2) * chi_line(a + b) - comb(a + 1, 2) * chi_line(a + b - 1)


def chi_pleth(t: int) -> int:
    """chi(S^2 S^2 T (t)) from 0 -> O(6+t) -> S^2 S^2 T(t) -> S^4 T(t) -> 0."""
    return chi_line(6 + t) + chi_sym_tangent(4, t)


class Atom:
    """A summand (A^eps)(b): A = O, S^a T or S^2 S^2 T, eps = +1 or -1 (dual).

    Twisting adds to b; dualizing flips eps and negates b.  chi of a dual
    comes from Serre duality, chi(F^v) = chi(F(-3)), never from the
    engine's rule for dualizing S^a T.
    """

    __slots__ = ("kind", "a", "b", "eps")

    def __init__(self, kind: str, a: int, b: int, eps: int = 1):
        self.kind, self.a, self.b, self.eps = kind, a, b, eps

    def twist(self, k: int) -> "Atom":
        return Atom(self.kind, self.a, self.b + k, self.eps)

    def dual(self) -> "Atom":
        return Atom(self.kind, self.a, -self.b, -self.eps)

    def chi(self) -> int:
        # (A^v)(b) = (A(-b))^v, so chi = chi(A(-b - 3))
        shift = self.b if self.eps == 1 else -self.b - 3
        if self.kind == "O":
            return chi_line(self.a + shift)
        if self.kind == "S":
            return chi_sym_tangent(self.a, shift)
        return chi_pleth(shift)


def line(k: int) -> Atom:
    """O(k), stored as O(0) twisted by k so that duals stay lines."""
    return Atom("O", 0, k)


def atoms_table(atoms) -> tuple[int, int, int] | None:
    """The full h^i table when every atom is a line bundle, else None."""
    if not all(a.kind == "O" for a in atoms):
        return None
    h0 = h1 = h2 = 0
    for a in atoms:
        t = line_table(a.b)  # O^v = O, so (O^eps)(b) = O(b)
        h0, h1, h2 = h0 + t[0], h1 + t[1], h2 + t[2]
    return h0, h1, h2

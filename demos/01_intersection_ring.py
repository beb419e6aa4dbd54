"""Tour of the ambient intersection ring.

Z = P(E) is a P2-bundle over P2 built from a rank-3 bundle E.  Its
intersection ring is generated by the relative hyperplane class xi and the
pulled-back line class h, subject to h^3 = 0 and the rank-3 relation
xi^3 = c1 xi^2 h - c2 xi h^2.  Everything below is exact integer/rational
arithmetic; no floats anywhere.
"""

from cycone import chow, invariants
from cycone.chow import ChernPair

# The workhorse example: E = O + O(1) + O(2), so (c1, c2) = (3, 2).
c = ChernPair(3, 2)
print(f"Chern pair {c}, gamma = c1^2 - 3 c2 = {c.gamma}")

# The library multiplies expansions (coefficients on xi^i h^j, h^3 = 0)
# and integrates them; it never reduces a class.  This tour reduces its
# own, to print classes in the basis: slots 9-11 of an expansion hold
# xi^3, xi^3 h and xi^4, which the relation rewrites in the basis.
NAMES = ("1", "xi", "h", "xi2", "xi_h", "h2", "xi2_h", "xi_h2", "xi2_h2")


def show(p, degree=None):
    """The reduced class of the expansion ``p``, or its part of one degree."""
    out = [*p[:9], *[0] * (9 - len(p[:9]))]
    xi3, xi3_h, xi4 = (*p[9:], 0, 0, 0)[:3]
    out[6] += c.c1 * xi3
    out[7] -= c.c2 * xi3
    out[8] += c.c1 * xi3_h + (c.c1 * c.c1 - c.c2) * xi4
    terms = [
        f"{v}*{n}" if n != "1" else str(v)
        for (i, j), n, v in zip(chow.MONOMIALS, NAMES, out)
        if v != 0 and degree in (None, i + j)
    ]
    return " + ".join(terms) if terms else "0"


xi, h = (0, 1), (0, 0, 1)
xi2, h2 = chow.expand(xi, xi), chow.expand(h, h)

# Reduction in action: xi^3 and xi^4 rewritten in the monomial basis.
print("xi^3  ->", show(chow.expand(xi, xi2)))
print("xi^4  ->", show(chow.expand(xi2, xi2)), "(the point class, scaled by c1^2 - c2)")
print("h^3   ->", show(chow.expand(h, h2)), "(the base is a surface)")

# The anticanonical class and its top self-intersection.
a = chow.anticanonical(c)
a2 = chow.expand(a, a)
print("-K_Z =", show(a))
print("(-K_Z)^4 =", chow.integral(chow.expand(a2, a2), c), "= 27*gamma + 486")

# Chern classes of the tangent bundle; the degree-1 part must be -K_Z and
# the top one integrates to the Euler number 3 x 3 = 9 of the bundle.
tz = chow.tangent_total(c)
print("c1(T_Z) =", show(tz, 1))
print("c2(T_Z) =", show(tz, 2))
print("integral of c4(T_Z) =", chow.integral(tz, c))

# The degree-4 lattice (F, xi h, xi^2) is unimodular: det = -1 always.
gram = chow.gram_matrix(c)
print("Gram matrix:", gram.entries, "det =", gram.det)

# Hypersurface data: c2(X) pairings and the Euler number c3(X), as point
# integrals of c(T_X) . [X] = c(T_Z) times -K_Z (1 + K + K^2 + K^3).
x = invariants.engine_pairings(c)
print("O_X(1) . c2(X) =", x.o1_c2)
print("pi*h   . c2(X) =", x.h_c2, "(36 for every bundle)")
print("c3(X) =", x.c3, "= -6*gamma - 162")

# The numerically-pinned class of a surface contracted by |-K_Z|.  For the
# split bundle the section P(O) realizes it: (xi - h)(xi - 2h).
surface = chow.exceptional_surface_class(c)
print("contracted-surface class (times mu):", surface.coeffs)
print("admissible mu:", surface.mu_candidates)
print("reduced class:", show((0, 0, 0, *surface.reduced)))
print("section oracle:", show(chow.expand((0, 1, -1), (0, 1, -2))))

# For c1 = 2 the integrality constraints are unsatisfiable: no such surface.
print("c1 = 2 example:", chow.exceptional_surface_class(ChernPair(2, 5)))

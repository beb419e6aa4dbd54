"""Tour of the ambient intersection ring.

Z = P(E) is a P2-bundle over P2 built from a rank-3 bundle E.  Its
intersection ring is generated by the relative hyperplane class xi and the
pulled-back line class h, subject to h^3 = 0 and the rank-3 relation
xi^3 = c1 xi^2 h - c2 xi h^2.  Everything below is exact integer/rational
arithmetic; no floats anywhere.
"""

from cycone import chow
from cycone.chow import ChernPair, ChowClass

# The workhorse example: E = O + O(1) + O(2), so (c1, c2) = (3, 2).
c = ChernPair(3, 2)
print(f"Chern pair {c}, gamma = c1^2 - 3 c2 = {c.gamma}")

xi = ChowClass.monomial(1, 0)
h = ChowClass.monomial(0, 1)

# Reduction in action: xi^3 and xi^4 rewritten in the monomial basis.
print("xi^3  ->", chow.reduce_monomial(3, 0, c))
print("xi^4  ->", chow.reduce_monomial(4, 0, c), "(the point class, scaled by c1^2 - c2)")
print("h^3   ->", chow.reduce_monomial(0, 3, c), "(the base is a surface)")

# The anticanonical class and its top self-intersection.
a = chow.anticanonical(c)
print("-K_Z =", a)
print("(-K_Z)^4 =", chow.intersect4(a, a, a, a, c), "= 27*gamma + 486")

# Chern classes of the tangent bundle; the degree-1 part must be -K_Z and
# the top one integrates to the Euler number 3 x 3 = 9 of the bundle.
c1z, c2z, c3z, c4z = chow.tangent_chern_classes(c)
print("c1(T_Z) =", c1z)
print("c2(T_Z) =", c2z)
print("integral of c4(T_Z) =", c4z.point_coefficient)

# The degree-4 lattice (F, xi h, xi^2) is unimodular: det = -1 always.
gram = chow.gram_matrix(c)
print("Gram matrix:", gram.entries, "det =", gram.det)

# Hypersurface data: c2(X) pairings and the Euler number c3(X).
# Adjunction lifts c2(X) and c3(X) to classes on Z; c3(X) integrates
# against -K_Z to the Euler number of X.
c2x, c3x = chow.cy_chern_lifts(c)
print("O_X(1) . c2(X) =", chow.pair_on_cy(xi, c2x, c))
print("pi*h   . c2(X) =", chow.pair_on_cy(h, c2x, c), "(36 for every bundle)")
print("c3(X) =", chow.mul(c3x, a, c).point_coefficient, "= -6*gamma - 162")

# The numerically-pinned class of a surface contracted by |-K_Z|.  For the
# split bundle the section P(O) realizes it: (xi - h)(xi - 2h).
surface = chow.exceptional_surface_class(c)
print("contracted-surface class (times mu):", surface.coeffs)
print("admissible mu:", surface.mu_candidates)
print("reduced class:", surface.reduced_class())
print("section oracle:", chow.split_section_product(1, 2, c))

# For c1 = 2 the integrality constraints are unsatisfiable: no such surface.
print("c1 = 2 example:", chow.exceptional_surface_class(ChernPair(2, 5)))

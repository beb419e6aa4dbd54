"""Kahler-cone boundary data and rationality verdicts.

For a Calabi-Yau hypersurface X with Picard number 2, the nef cone has two
boundary rays.  One is the fibration ray pi*h; the interesting one meets
the cubic {D^3 = 0} at

    k = c1 + 3/2 - sqrt(9/4 - gamma)        (along O_X(3) - k pi*h)

which is kept as the integers of k = (2 c1 + 3 - s sqrt(n)) / 2, where
9 - 4 gamma = s^2 n, and read as an exact quadratic number.  The verdict
machinery then combines section counts, the gamma threshold, and root
rationality.
"""

from cycone import chow, cone, invariants
from cycone.bundles import BundleSpec, catalog_entries, h0_anticanonical
from cycone.chow import ChernPair, ChowClass
from cycone.exactnum import QuadValue
from cycone.report import build_report

# The boundary root for E = S^2(T(-1)) (gamma = -9): irrational.
c = ChernPair(3, 6)
root = cone.boundary_root(c)
print("k =", root.k, " (second branch:", root.k_other, ")")
print("rational?", root.k.is_rational)

# Plug the root back in: D = O_X(3) - k pi*h must cube to exactly zero.
d = ChowClass.degree1(QuadValue.rational(3), -root.k)
print("D^3 on X =", chow.intersect4(d, d, d, chow.anticanonical(c), c))

# Rationality of k is a perfect-square question on 9 - 4 gamma.  Since
# gamma = c1^2 - 3 c2 is c1^2 mod 3, the pairs with c1 in {0, 1} reach
# every attainable gamma; in [-27, 2] the rational cases are gamma in {-18, 0}.
pairs = [ChernPair(c1, c2) for c1 in (0, 1) for c2 in range(10)]
rational_gammas = sorted(c.gamma for c in pairs if cone.boundary_root(c).is_rational)
print("gamma with rational root:", rational_gammas)

# c2(X) stays positive on the closed cone: the boundary value is exactly
# 18 + 2 gamma + 6 sqrt(9 - 4 gamma), and the pi*h ray gives exactly 36.
for c in (ChernPair(0, 9), ChernPair(3, 6), ChernPair(0, 0), ChernPair(3, 2), ChernPair(0, -9)):
    rep = cone.c2_positivity(c, cone.boundary_root(c), invariants.closed_form_pairings(c))
    val = rep.boundary_value if rep.boundary_value is not None else rep.minus_k_ray
    print(f"gamma {c.gamma:>3}: boundary value {val}, positive: {rep.positive}")

# Full verdicts across the named catalog.
print()
print("catalog verdicts:")
for entry in catalog_entries():
    spec = BundleSpec.named(entry.name)
    report = build_report(spec)
    k_desc = str(report.k_root.k) if report.k_root.exists else "none"
    print(
        f"  {entry.name:<14} gamma {spec.gamma:>3}  verdict {report.verdict:<9}"
        f" trail {'/'.join(report.trail) or '-':<36} root {k_desc}"
    )

# The restriction question K(X) = K(Z)|X: ample bundles go through
# directly, the big-nef-not-ample ones carry a contracted-surface
# candidate, and c1 = 2 kills the candidate by integrality.
for spec in (BundleSpec.split(0, 0, 1), BundleSpec.split(0, 1, 2)):
    status = cone.anticanonical_status(spec, h0_anticanonical(spec))
    res = cone.cone_restriction_case(status, chow.exceptional_surface_class(spec.chern))
    print(spec.describe(), "->", res.case, res.via or "")
asserted = cone.MinusKStatus(nef=True, ample=False, big=True, h0_gt_1=None)
res = cone.cone_restriction_case(asserted, chow.exceptional_surface_class(ChernPair(2, 5)))
print("chern (2, 5) with big-nef-not-ample asserted ->", res.case, res.via)

"""Kahler-cone boundary data and rationality verdicts.

For a Calabi-Yau hypersurface X with Picard number 2, the nef cone has two
boundary rays.  One is the fibration ray pi*h; the interesting one meets
the cubic {D^3 = 0} at

    k = c1 + 3/2 - sqrt(9/4 - gamma)        (along O_X(3) - k pi*h)

which is kept as the integers of k = (2 c1 + 3 - s sqrt(n)) / 2, where
9 - 4 gamma = s^2 n, and written in one canonical form by
``exactnum.quad_text``.  The verdict machinery then combines section
counts, the gamma threshold, and root rationality.
"""

from cycone import chow, cone, invariants
from cycone.exactnum import quad_text
from cycone.bundles import BundleSpec, catalog_entries
from cycone.chow import ChernPair
from cycone.report import build_report

# The boundary root for E = S^2(T(-1)) (gamma = -9): irrational.
c = ChernPair(3, 6)
root = cone.boundary_root(c)
center, s, n, den = root.center, root.s, root.n, root.den
print("k =", quad_text(center, -s, n, den), " (second branch:", quad_text(center, s, n, den), ")")
print("rational?", root.is_rational)

# Plug the root back in: D = O_X(3) - k pi*h must cube to exactly zero.
# H^3 = 0, so D^3 on X is a quadratic A k^2 + B k + C in k, read off the
# Chow ring at k = -1, 0, 1 on integer classes.  With u = den k =
# center - s sqrt(n), den^2 D^3 = A u^2 + B den u + C den^2 in Z[sqrt(n)].
q_minus, q_zero, q_plus = (
    chow.integral(chow.expand(chow.expand(d, d), chow.expand(d, chow.anticanonical(c))), c)
    for d in ((0, 3, -k) for k in (-1, 0, 1))
)
a, b, const = (q_plus + q_minus) // 2 - q_zero, (q_plus - q_minus) // 2, q_zero
rational_part = a * (center**2 + s**2 * n) + b * den * center + const * den**2
sqrt_part = -(2 * a * center + b * den) * s
print("D^3 on X =", quad_text(rational_part, sqrt_part, n, den**2))

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
    val = quad_text(*rep.boundary) if rep.boundary is not None else rep.minus_k_ray
    print(f"gamma {c.gamma:>3}: boundary value {val}, positive: {rep.positive}")

# Full verdicts across the named catalog.
print()
print("catalog verdicts:")
for spec in catalog_entries():
    report = build_report(spec)
    r = report.k_root
    k_desc = quad_text(r.center, -r.s, r.n, r.den) if r.exists else "none"
    print(
        f"  {spec.name:<14} gamma {spec.gamma:>3}  verdict {report.verdict:<9}"
        f" trail {'/'.join(report.trail) or '-':<36} root {k_desc}"
    )

# The restriction question K(X) = K(Z)|X: ample bundles go through
# directly, and the big-nef-not-ample ones carry a contracted-surface
# candidate.  No spec is big, nef and not ample with c1 = 2, where
# integrality kills the candidate; asserted by hand, it is not determined.
for spec in (BundleSpec.split(0, 0, 1), BundleSpec.split(0, 1, 2)):
    res = cone.cone_restriction_case(spec, cone.anticanonical_status(spec))
    print(spec.describe(), "->", res.case, res.via or "")
asserted = cone.MinusKStatus(nef=True, ample=False, big=True)
res = cone.cone_restriction_case(BundleSpec.chern_only(2, 5), asserted)
print("chern (2, 5) with big-nef-not-ample asserted ->", res.case, res.via)

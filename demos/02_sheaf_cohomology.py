"""Exact sheaf cohomology on the projective plane.

The engine computes h^0, h^1, h^2 for every bundle built from line bundles
and twisted symmetric powers S^a T(b) of the tangent bundle by sums,
twists, duals, symmetric powers and End.  Because T has rank 2, each such
bundle is a sum of S^a T(b): Clebsch-Gordan splits tensor products and
Cayley-Sylvester splits symmetric powers.  By Bott's theorem each
S^a T(b) has its cohomology in one degree, given by a closed form (the
Weyl dimension); the tables never use Riemann-Roch, which computes chi
by a second, independent route and is checked against them below.
"""

from cycone import DomainError
from cycone.cohom import (
    DirectSum,
    EndOf,
    LineBundle,
    SymPower,
    SymTangent,
    TwistBy,
    chi_rr,
    cohom_expr,
    cohom_line,
    cohom_sym_tangent,
    parse_sheaf_expr,
)

# Line bundles first.
for k in (0, 1, -3):
    t = cohom_line(k)
    print(f"O({k}): h = ({t.h0}, {t.h1}, {t.h2}), chi = {t.chi}")

# The tangent bundle has 8 sections (dim PGL_3); its Serre dual twist
# T(-3) is the cotangent bundle with h^1 = 1.
print("T      :", cohom_sym_tangent(1, 0))
print("T(-3)  :", cohom_sym_tangent(1, -3))
print("S4T(-5):", cohom_sym_tangent(4, -5), "(no sections)")

# End of a split bundle: 2O + O(3) gives h^2 = 2, the Picard-rank-4 case.
end = EndOf(DirectSum(LineBundle(0), LineBundle(0), LineBundle(3)))
print("End(2O + O(3)):", cohom_expr(end))

# chi(End E) = 2*gamma + 9 is visible already on O + O(1) + O(2).
end012 = EndOf(DirectSum(LineBundle(0), LineBundle(1), LineBundle(2)))
print("chi End(O+O(1)+O(2)) =", cohom_expr(end012).chi, "= 2*3 + 9")

# A plethysm: for E = S^2(T(-1)), Cayley-Sylvester splits S^2 E(-1) as
# S^4 T(-5) + O(1), so it has exactly the three sections of O(1).
pleth = TwistBy(SymPower(SymPower(SymTangent(1, -1), 2), 2), -1)
print("S^2(S^2 T(-1))(-1):", cohom_expr(pleth))

# Every evaluable expression agrees with Riemann-Roch.
for expr in (end, end012, pleth, SymTangent(3, -2)):
    assert chi_rr(expr) == cohom_expr(expr).chi
print("Riemann-Roch cross-checks passed.")

# The same expressions are reachable through the textual grammar.
for text in ("O(1)+2O(-3)", "end(O+O(1)+O(2))", "twist(sym(sym(SymT(1,-1),2),2),-1)"):
    expr = parse_sheaf_expr(text)
    print(f"{text!r} -> {cohom_expr(expr)}")

# An expression of rank 64 or more is refused before anything is expanded.
try:
    cohom_expr(SymPower(SymTangent(13, 0), 13))
except DomainError as exc:
    print("too large, as intended:", exc)

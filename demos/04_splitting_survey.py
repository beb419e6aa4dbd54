"""Survey of split bundles: positivity, Picard rank, verdicts.

Sweeps every monotone exponent triple in a range and writes the rows of
the CLI's ``cycone survey`` (which adds TSV/JSON output and filters) from
full reports, as the first 12 cells of ``analyze --tsv``.  Two structural
facts appear in the data:

* whenever -K_Z is nef, gamma >= -18, and the verdict is Rational;
* the admissible splitting types for -1 <= c1 <= 4 form a short table.
"""

from collections import Counter
from itertools import combinations_with_replacement

from cycone import cone
from cycone.bundles import BundleSpec
from cycone.report import SURVEY_COLUMNS, analyze_row_cells, build_report

# every monotone exponent triple with entries in [-4, 4]
types = combinations_with_replacement(range(-4, 5), 3)
reports = [build_report(BundleSpec.split(*t)) for t in types]
print(f"{len(reports)} split types with exponents in [-4, 4]")

nef_rows = [r for r in reports if r.minus_k.nef]
gammas = [r.spec.gamma for r in nef_rows]
print(f"{len(nef_rows)} of them have nef -K_Z; gamma range:", (min(gammas), max(gammas)))
assert all(g >= -18 for g in gammas)
assert all(r.verdict == "Rational" for r in nef_rows)
print("every nef case is Rational, and nef forces gamma >= -18")

print()
print("verdict and rank distribution over the nef rows:")
print("  rho:", dict(Counter(r.rho.value for r in nef_rows)))
print("  ample:", dict(Counter(r.minus_k.ample for r in nef_rows)))

# The nef non-ample rows are where the anticanonical map contracts a
# surface; their types normalize into the admissible table.
print()
print("nef-but-not-ample rows:")
header = "  " + "\t".join(SURVEY_COLUMNS)
print(header)
for r in nef_rows:
    if not r.minus_k.ample:
        print("  " + "\t".join(analyze_row_cells(r)[:12]))

print()
print("admissible splitting types by c1:")
for c1 in range(-1, 5):
    print(f"  c1 = {c1:>2}: {cone.allowed_splitting_types(c1)}")

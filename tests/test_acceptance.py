"""Acceptance suite: the exact-value regressions and property grids.

Every criterion runs in exact arithmetic with zero tolerance.  The checks
themselves are ``cycone.selftest.CHECKS`` (what ``cycone selftest`` runs);
this suite runs the ones that are acceptance criteria under their AC ids
and prints one PASS or FAIL line per criterion (run with ``pytest -s`` to
watch them).
"""

import pytest

from cycone import selftest

# AC id of each acceptance criterion -> name of the selftest check behind it.
AC_CHECKS = {
    "AC-01 anticanonical-contraction-regression": "split-012-regression",
    "AC-02 picard-rank-four-regression": "split-003-regression",
    "AC-03 gamma-catalog": "gamma-catalog",
    "AC-04 closed-form-engine-equivalence": "pairing-closed-forms-grid",
    "AC-05 chi-end-formula": "chi-end-grid",
    "AC-06 splitting-type-table": "splitting-type-table",
    "AC-07 riemann-roch-on-x": "riemann-roch-on-x",
    "AC-08 plethysm-check": "plethysm-h0",
    "AC-09 boundary-root-exactness": "boundary-root-exactness",
    "AC-10 gram-unimodularity": "gram-unimodularity",
    "AC-11 c2-positivity-sweep": "c2-positivity-sweep",
    "AC-12 nef-survey": "nef-gamma-survey",
    "AC-13 mu-contradiction": "mu-candidates-empty-c1-2",
}

CHECKS = dict(selftest.CHECKS)
CRITERIA = [(name, CHECKS[check]) for name, check in AC_CHECKS.items()]


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=list(AC_CHECKS))
def test_acceptance(name, criterion):
    try:
        criterion()
    except AssertionError:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")

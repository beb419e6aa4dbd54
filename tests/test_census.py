"""Census of rank-3 twist classes: the 91 split classes of width at most 12
and the five homogeneous classes whose -K_Z is nef and big.

Twisting E by O(t) leaves Z = P(E) alone, so a class is analyzed at one
representative.  Each class pins nef, ample and big of -K_Z, rho(X),
h^0(-K_Z), the verdict and the restriction case.  Wherever -K_Z is nef and
big, Kawamata-Viehweg kills the higher cohomology of -K_Z, so h^0(-K_Z)
must equal chi(Z, -K_Z) = 5 gamma + 100, which every report and the
selftest also check.

Below the census, the tests pin where the verdict stays open under
rho(X) = 2 (six values of gamma in [-27, -19]), the gamma floor of each
atom shape, and how often each (verdict, trail) and (restriction case, via)
comes out of the 689 atom specs and of two grids of Chern pairs, so that no
change to the engine moves a verdict unseen.  Equality is claimed only where
-K_Z is ample, and README.md names every case and trail tag a report writes.
"""

import json
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import isqrt
from pathlib import Path

import pytest

from cycone import cohom, selftest
from cycone.bundles import BundleSpec, catalog_entries
from cycone.report import build_report, report_to_dict

R, EQ, EXC, ND = "Rational", "equality", "exceptional_candidate", "not_determined"

# The split classes (0, d2, d3) with -K_Z nef: exactly those with d2 + d3 <= 3.
NEF_SPLIT = {
    (0, 0, 0): (True, True, True, 2, 100, R, EQ),
    (0, 0, 1): (True, True, True, 2, 105, R, EQ),
    (0, 0, 2): (True, True, True, 2, 120, R, EQ),
    (0, 0, 3): (True, False, True, 4, 145, R, EXC),
    (0, 1, 1): (True, True, True, 2, 105, R, EQ),
    (0, 1, 2): (True, False, True, 2, 115, R, EXC),
}

# h^0(-K_Z) of the other split classes: row d2 lists d3 = max(d2, 4 - d2), ..., 12.
NON_NEF_H0 = (
    (180, 225, 276, 333, 396, 465, 540, 621, 708),
    (135, 165, 204, 251, 305, 365, 431, 503, 581, 665),
    (120, 135, 159, 192, 233, 282, 338, 401, 470, 545, 626),
    (144, 162, 189, 224, 267, 318, 376, 441, 513, 591),
    (174, 195, 224, 261, 306, 359, 419, 486, 560),
    (210, 233, 264, 303, 350, 405, 467, 536),
    (250, 275, 308, 349, 398, 455, 519),
    (294, 321, 356, 399, 450, 509),
    (342, 371, 408, 453, 506),
    (394, 425, 464, 511),
    (450, 483, 524),
    (510, 545),
    (574,),
)


def _split_census() -> dict:
    census = dict(NEF_SPLIT)
    for d2, row in enumerate(NON_NEF_H0):
        for d3, h0 in enumerate(row, start=max(d2, 4 - d2)):
            census[(0, d2, d3)] = (False, False, None, None, h0, R, ND)
    return census


SPLIT_CENSUS = _split_census()

# T(b) + O(c) for d = b - c in {-3, -2, -1, 0}, at b = 0, and S^2 T; the
# gamma is d^2 + 3d for T(b) + O(c) and -9 for S^2 T.
HOMOGENEOUS = {
    "SymT(1,0)+O(3)": (0, (True, False, True, 2, 100, R, EXC)),
    "SymT(1,0)+O(2)": (-2, (True, True, True, 2, 90, R, EQ)),
    "SymT(1,0)+O(1)": (-2, (True, True, True, 2, 90, R, EQ)),
    "SymT(1,0)+O": (0, (True, False, True, 2, 100, R, EXC)),
    "SymT(2,0)": (-9, (True, False, True, 2, 55, R, EXC)),
}


def facts(spec: BundleSpec) -> tuple:
    """(nef, ample, big, rho, h0, verdict, restriction case) of the spec."""
    r = build_report(spec)
    mk = r.minus_k
    return (
        mk.nef, mk.ample, mk.big, r.rho.value, r.h0_minus_k.value,
        r.verdict, r.restriction.case,
    )


def _check_kawamata_viehweg(spec: BundleSpec, f: tuple):
    nef, _, big, _, h0 = f[:5]
    if nef and big:
        assert h0 == 5 * spec.gamma + 100, spec


def test_split_census_covers_the_91_classes():
    classes = [(0, d2, d3) for d2 in range(13) for d3 in range(d2, 13)]
    assert sorted(SPLIT_CENSUS) == classes and len(classes) == 91


def test_split_census():
    for triple, expected in SPLIT_CENSUS.items():
        spec = BundleSpec.split(*triple)
        got = facts(spec)
        assert got == expected, triple
        _check_kawamata_viehweg(spec, got)


@pytest.mark.parametrize("text", HOMOGENEOUS)
def test_homogeneous_census(text):
    gamma, expected = HOMOGENEOUS[text]
    spec = BundleSpec.named(text)
    assert spec.gamma == gamma
    got = facts(spec)
    assert got == expected
    _check_kawamata_viehweg(spec, got)
    for t in (-2, 1):
        assert facts(spec.twist(t)) == expected


@pytest.mark.parametrize(
    "name, text",
    [
        ("TP2(-1)+O(2)", "SymT(1,0)+O(3)"),
        ("TP2+O", "SymT(1,0)+O"),
        ("TP3restP2", "SymT(1,0)+O(1)"),
        ("S2TP2(-1)", "SymT(2,0)"),
    ],
)
def test_catalog_ids_fall_in_their_homogeneous_class(name, text):
    assert facts(BundleSpec.named(name)) == HOMOGENEOUS[text][1]


def test_no_other_tangent_plus_line_class_is_nef_and_big():
    for d in range(-8, 9):
        f = facts(BundleSpec.named(f"SymT(1,0)+O({-d})"))
        assert (f[0] is True and f[2] is True) == (-3 <= d <= 0), d


# --- where the verdict stays open, and the gamma floor of each atom shape ---

# gamma = c1^2 - 3 c2 is c1^2 mod 3, never 2 mod 3; c1 in [-3, 3] reaches
# every residue, and c2 in [-20, 20] every value of gamma in [-27, -19]
CHERN_GRID = [(c1, c2) for c1 in range(-3, 4) for c2 in range(-20, 21)]
OPEN_GAMMAS = (-27, -26, -24, -23, -21, -20)


def test_gamma_is_never_2_mod_3():
    gammas = {BundleSpec.chern_only(c1, c2).gamma for c1, c2 in CHERN_GRID}
    assert {g % 3 for g in gammas} == {0, 1}
    assert sorted(g for g in gammas if -27 <= g <= -19) == list(OPEN_GAMMAS)


def test_open_gammas_have_irrational_roots_and_unknown_verdicts():
    seen = set()
    for c1, c2 in CHERN_GRID:
        spec = BundleSpec.chern_only(c1, c2)
        if spec.gamma not in OPEN_GAMMAS:
            continue
        seen.add(spec.gamma)
        disc = 9 - 4 * spec.gamma
        assert isqrt(disc) ** 2 != disc, spec
        assert build_report(spec).verdict == "Unknown", spec
    assert seen == set(OPEN_GAMMAS)


def test_gamma_floor_of_split_sums():
    # gamma = ((e1 - e2)^2 + (e1 - e3)^2 + (e2 - e3)^2) / 2 >= 0, 0 on O^3
    gammas = set()
    for e in product(range(-4, 5), repeat=3):
        gamma = BundleSpec.split(*e).gamma
        assert 2 * gamma == sum((x - y) ** 2 for x, y in combinations(e, 2)), e
        gammas.add(gamma)
    assert min(gammas) == 0


def test_gamma_floor_of_tangent_plus_line():
    # gamma of T(b) + O(c) is d^2 + 3 d for d = b - c, least (-2) at d = -1, -2
    gammas = set()
    for b, c in product(range(-5, 6), repeat=2):
        gamma = BundleSpec.named(f"SymT(1,{b})+O({c})").gamma
        assert gamma == (b - c) ** 2 + 3 * (b - c), (b, c)
        gammas.add(gamma)
    assert min(gammas) == -2


def test_gamma_of_s2_tangent_is_minus_9():
    assert {BundleSpec.named(f"SymT(2,{b})").gamma for b in range(-6, 7)} == {-9}


# --- every (verdict, trail) and (case, via) that build_report reaches ---


def _atom_specs() -> list:
    """The 455 split triples in [-6, 6]^3, T(b) + O(c) for b in [-6, 6] and
    c in [-8, 8], and S^2 T(b) for b in [-6, 6]."""
    return (
        [BundleSpec.split(*e) for e in combinations_with_replacement(range(-6, 7), 3)]
        + [BundleSpec.named(f"SymT(1,{b})+O({c})") for b in range(-6, 7) for c in range(-8, 9)]
        + [BundleSpec.named(f"SymT(2,{b})") for b in range(-6, 7)]
    )


def _outcomes(specs) -> tuple[Counter, Counter]:
    reports = [build_report(spec) for spec in specs]
    return (
        Counter((r.restriction.case, r.restriction.via) for r in reports),
        Counter((r.verdict, r.trail) for r in reports),
    )


def test_outcomes_of_the_atom_specs():
    specs = _atom_specs()
    assert len(specs) == 689
    cases, verdicts = _outcomes(specs)
    assert cases == {
        (ND, None): 556,
        (EQ, "ample-anticanonical"): 74,
        (EXC, None): 59,
    }
    assert verdicts == {(R, ("h0-minus-k-gt-1",)): 689}


def _argued_specs() -> list:
    """The atom specs, the catalog ids at twists -3..3 and the selftest's Chern grid."""
    return (
        _atom_specs()
        + [spec.twist(t) for spec in catalog_entries() for t in range(-3, 4)]
        + [BundleSpec.chern_only(c.c1, c.c2) for c in selftest.CHERN_GRID]
    )


def test_equality_only_where_minus_k_is_ample():
    # ample -K_Z is the one argued route to K(X) = K(Z)|X
    for spec in _argued_specs():
        r = build_report(spec)
        assert (r.restriction.case == EQ) == (r.minus_k.ample is True), spec


# The split classes (0, d1, d2) with d2 <= 12 whose X is smooth and -K_Z not nef:
# 3 in {d1, d2}, d1 + d2 > 3 and no fixed divisor (d2 < 2 d1 + 4).  The value is
# the S determinant, o1_sq_h^2 - o1_fiber * o1_cubed at e1 = 0.
SMOOTH_NON_NEF_SPLIT = {
    (0, 1, 3): 16, (0, 2, 3): 28, (0, 3, 3): 36, (0, 3, 4): 40, (0, 3, 5): 40,
    (0, 3, 6): 36, (0, 3, 7): 28, (0, 3, 8): 16, (0, 3, 9): 0,
}


def test_smooth_non_nef_split_classes_are_not_determined():
    smooth = {
        (0, d1, d2)
        for d1, d2 in combinations_with_replacement(range(13), 2)
        if 3 in (d1, d2) and d1 + d2 > 3 and d2 < 2 * d1 + 4
    }
    assert smooth == set(SMOOTH_NON_NEF_SPLIT)
    for triple, det in SMOOTH_NON_NEF_SPLIT.items():
        r = build_report(BundleSpec.split(*triple))
        p, c1, g = r.pairings, sum(triple), r.spec.gamma
        assert p.o1_sq_h**2 - p.o1_fiber * p.o1_cubed == -(3 * g - c1 * c1 - 3 * c1 - 9) == det
        # a nonzero determinant puts [S] outside K(Z)|X, so rho(X) >= 3 and
        # equality fails; at (0, 3, 9) rho(X) is open
        assert r.minus_k.nef is False and r.restriction == (ND, None, None), triple


def _has_fixed_divisor(d1: int, d2: int) -> bool:
    """Whether some N = a xi - b H, a in {1, 2} and b in [-5, a d2], is a
    fixed component of |-K_Z| for E = O + O(d1) + O(d2), by cohomology on
    P2 alone: h^0(S^a E(-b)) > 0 and h^0(S^(3-a) E(3 - c1 + b)) equals
    h^0(S^3 E(3 - c1))."""
    atoms, c1 = [(0, 0), (0, d1), (0, d2)], d1 + d2

    def h0(p: int, t: int) -> int:
        return cohom.cohom_atoms([(x, y + t) for x, y in cohom.sym_atoms(atoms, p)]).h0

    sections = h0(3, 3 - c1)
    return any(
        h0(a, -b) > 0 and h0(3 - a, 3 - c1 + b) == sections
        for a in (1, 2)
        for b in range(-5, a * d2 + 1)
    )


def test_fixed_divisor_rule_of_the_split_census_against_cohomology():
    # the rule d2 >= 2 d1 + 4 holds exactly where the sections of -K_Z have a
    # fixed component; the census splits into nef classes, those with a
    # fixed divisor, singular ones and smooth ones whose -K_Z is not nef,
    # and the four counts sum to 91, so no class is in two parts
    classes = {(0, d1, d2) for d1, d2 in combinations_with_replacement(range(13), 2)}
    fixed = {t for t in classes if _has_fixed_divisor(*t[1:])}
    assert fixed == {(0, d1, d2) for _, d1, d2 in classes if d2 >= 2 * d1 + 4}
    nef = {(0, d1, d2) for _, d1, d2 in classes if d1 + d2 <= 3}
    assert nef == set(NEF_SPLIT)
    singular = classes - nef - fixed - set(SMOOTH_NON_NEF_SPLIT)
    assert (len(nef), len(fixed), len(singular), len(SMOOTH_NON_NEF_SPLIT)) == (6, 25, 51, 9)
    assert len(classes) == 91


README = Path(__file__).parent.parent / "README.md"


def test_readme_names_every_restriction_case_and_trail_tag():
    text = README.read_text(encoding="utf-8")
    reports = [build_report(spec) for spec in _argued_specs()]
    cases = {(r.restriction.case, r.restriction.via) for r in reports}
    tags = {tag for r in reports for tag in r.trail}
    # not vacuous: the specs reach every outcome known today
    assert {(EQ, "ample-anticanonical"), (EXC, None), (ND, None)} <= cases
    assert {"h0-minus-k-gt-1", "gamma-ge-minus-18"} <= tags
    for case, via in cases:
        assert f"`{case}`" + (f" via `{via}`" if via else "") in text, (case, via)
    for tag in tags:
        assert f"`{tag}`" in text, tag


def test_surface_block_only_on_exceptional_candidates():
    for spec in _atom_specs():
        kollar = report_to_dict(build_report(spec))["cone"]["kollar_case"]
        assert (kollar["surface"] is not None) == (kollar["case"] == EXC), spec


def _dict_blocks(value, path=()):
    """(path, block) of every dict in a report's JSON but the quadratic values."""
    if isinstance(value, dict):
        if set(value) != {"a", "b", "n"}:
            yield path, value
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, x in items:
        yield from _dict_blocks(x, (*path, key))


def test_no_block_of_a_report_is_written_twice():
    for spec in _atom_specs():
        seen = {}
        for path, block in _dict_blocks(report_to_dict(build_report(spec))):
            text = json.dumps(block, sort_keys=True)
            assert text not in seen, (spec, seen[text], path)
            seen[text] = path


def test_restriction_case_of_chern_only_specs():
    specs = [BundleSpec.chern_only(c1, c2) for c1 in range(-3, 4) for c2 in range(-30, 40)]
    assert _outcomes(specs)[0] == {("not_determined", None): 490}


def test_verdicts_of_chern_only_specs_on_both_sides_of_gamma_minus_27():
    specs = [BundleSpec.chern_only(c1, c2) for c1 in range(-3, 4) for c2 in range(-40, 60)]
    at_or_above = [spec for spec in specs if spec.gamma >= -27]
    below = [spec for spec in specs if spec.gamma < -27]
    assert _outcomes(at_or_above)[1] == {
        (R, ("gamma-ge-minus-18", "h0-minus-k-gt-1")): 337,
        ("Unknown", ()): 21,
    }
    assert _outcomes(below)[1] == {("Unknown", ()): 342}

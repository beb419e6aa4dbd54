"""Cone analysis: anticanonical status, boundary roots, c2, verdicts."""

from itertools import product

import pytest

from cycone import chow, invariants, selftest
from cycone.bundles import BundleSpec, H0Anticanonical, h0_anticanonical
from cycone.chow import ChernPair, exceptional_surface_class
from cycone.cone import (
    EQUALITY,
    EXCEPTIONAL_CANDIDATE,
    NOT_DETERMINED,
    RATIONAL,
    UNKNOWN,
    MinusKStatus,
    RationalityResult,
    allowed_splitting_types,
    anticanonical_status,
    boundary_root,
    c2_positivity,
    cone_restriction_case,
    is_allowed_splitting_type,
    rationality_verdict,
)
from cycone.errors import DomainError, InvariantViolationError
from cycone.exactnum import is_perfect_square, quad_parts, quad_sign, quad_text, squarefree_decompose
from cycone.report import build_report, report_to_dict


def status_of(spec):
    return anticanonical_status(spec)


# gamma = c1^2 - 3 c2 is c1^2 mod 3, so c1 in {0, 1} reaches every
# attainable gamma: here each one in [-27, 27], and 28
PAIRS_BY_GAMMA = [ChernPair(c1, c2) for c1 in (0, 1) for c2 in range(-9, 10)]


def c2_of(c, root=None):
    root = boundary_root(c) if root is None else root
    return c2_positivity(c, root, invariants.closed_form_pairings(c))


def verdict_of(spec):
    return rationality_verdict(h0_anticanonical(spec))


def restriction_of(spec):
    return cone_restriction_case(spec, status_of(spec))


# --- anticanonical status ------------------------------------------------------


def test_status_split_012():
    spec = BundleSpec.split(0, 1, 2)
    s = status_of(spec)
    assert (s.nef, s.ample, s.big) == (True, False, True)
    assert h0_anticanonical(spec).gt1 is True
    assert ("minus_k_quartic", 567) in s.witnesses


def test_status_split_001_is_ample():
    s = status_of(BundleSpec.split(0, 0, 1))
    assert (s.nef, s.ample) == (True, True)


def test_status_split_003():
    s = status_of(BundleSpec.split(0, 0, 3))
    assert (s.nef, s.ample, s.big) == (True, False, True)
    assert ("minus_k_quartic", 729) in s.witnesses


def test_status_chern_only_is_unknown():
    spec = BundleSpec.chern_only(3, 2)
    s = status_of(spec)
    assert (s.nef, s.ample, s.big) == (None, None, None)
    assert h0_anticanonical(spec).gt1 is True  # gamma = 3 >= -18


def test_status_non_nef_split():
    s = status_of(BundleSpec.split(-2, 2, 3))
    assert s.nef is False and s.ample is False
    assert s.big is None  # top power alone decides nothing without nefness


def test_status_rejects_inconsistent_construction():
    with pytest.raises(DomainError):
        MinusKStatus(nef=False, ample=True, big=None)


# --- boundary roots --------------------------------------------------------------


def test_root_example_gamma_minus_nine():
    c = ChernPair(3, 6)  # gamma = -9
    root = boundary_root(c)
    assert root.exists and (root.center, root.s, root.n, root.den) == (9, 3, 5, 2)
    assert not root.is_rational
    assert quad_text(root.center, -root.s, root.n, root.den) == "9/2 - 3/2*sqrt(5)"
    assert quad_text(root.center, root.s, root.n, root.den) == "9/2 + 3/2*sqrt(5)"


def test_root_gamma_zero_c1_zero_is_rational_zero():
    root = boundary_root(ChernPair(0, 0))
    assert root.exists and quad_parts(root.center, -root.s, root.n, root.den) == ((0, 1), (0, 1), 0)
    assert root.is_rational


def test_root_absent_for_gamma_three():
    root = boundary_root(ChernPair(3, 2))
    assert not root.exists and (root.s, root.n) == (0, 0)


def test_root_plugs_back_to_zero():
    for c in (ChernPair(3, 6), ChernPair(0, 0), ChernPair(-1, 3), ChernPair(2, 4)):
        root = boundary_root(c)
        if not root.exists:
            continue
        assert selftest.solves_cube(root, c)
        assert not selftest.solves_cube(root._replace(s=root.s + 1), c)


def test_root_rationality_is_perfect_square_condition():
    pairs = [c for c in PAIRS_BY_GAMMA if c.gamma <= 2]
    assert {c.gamma for c in pairs} == {g for g in range(-27, 3) if g % 3 != 2}
    for c in pairs:
        assert boundary_root(c).is_rational == is_perfect_square(9 - 4 * c.gamma)
    assert sorted(c.gamma for c in pairs if boundary_root(c).is_rational) == [-18, 0]


# --- the integer boundary against Chow-ring oracles ------------------------------

# Every Chern pair with |c1| <= 40 and -400 <= gamma <= 2, so a real root exists.
ROOT_PAIRS = [
    ChernPair(c1, c2)
    for c1 in range(-40, 41)
    for c2 in range(-((2 - c1 * c1) // 3), (c1 * c1 + 400) // 3 + 1)
]


def _oracle_sign(a: int, b: int, n: int) -> int:
    """The sign of a + b sqrt(n), by case split and squaring."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > b * b * n else sb if a * a < b * b * n else 0


def test_integer_boundary_matches_the_chow_ring_oracles():
    # gamma = c1^2 - 3 c2 is never 2 mod 3; every other value in range occurs
    assert {c.gamma for c in ROOT_PAIRS} == {g for g in range(-400, 3) if g % 3 != 2}
    for c in ROOT_PAIRS:
        g = c.gamma
        root = boundary_root(c)
        center, s, n, den = root.center, root.s, root.n, root.den
        assert root.exists
        # k and k_other are the zeros of D^3 . (-K_Z), with k < k_other
        assert selftest.solves_cube(root, c), c
        assert s > 0 and den > 0
        assert s * s * n == 9 - 4 * g and squarefree_decompose(n) == (1, n)
        assert root.is_rational == (n == 1)

        # D.c2(X) on the ray O_X(1) - (k/3) pi*h is linear in k, with the
        # pairings read off the pushforward of c(T_X) . [X]:
        # 3 den D.c2(X) = 3 den o1_c2 - h_c2 (center - s sqrt(n))
        x = chow.cy_chern_pushforward(c)
        o1_c2, h_c2 = chow.integral(x, c, (1, 0)), chow.integral(x, c, (0, 1))
        rep = c2_of(c, root)
        a, b, bn, bden = rep.boundary
        assert (bn, bden) == (n, den)
        assert (3 * a, 3 * b) == (3 * den * o1_c2 - h_c2 * center, h_c2 * s)
        assert rep.positive == (6 * g + 216 > 0 and _oracle_sign(a, b, n) > 0)


# --- c2 positivity ----------------------------------------------------------------


def test_c2_boundary_value_at_gamma_minus_27():
    rep = c2_of(ChernPair(0, 9))  # gamma = -27
    assert quad_text(*rep.boundary) == "-36 + 18*sqrt(13)"
    assert rep.boundary == (-72, 36, 13, 2) and quad_sign(-72, 36, 13) > 0
    assert rep.positive
    # gamma = -27 gives c3(X) = 0: the edge of the rho(X) = 2 range, not past it
    warnings = build_report(BundleSpec.chern_only(0, 9)).warnings
    assert "gamma = -27 is the validity edge for rho(X) = 2 (c3(X) = 0)" in warnings
    assert not any("inconsistent with rho(X) = 2" in w for w in warnings)


def test_c2_above_gamma_two_uses_nef_rays():
    rep = c2_of(ChernPair(3, 2))  # gamma = 3
    assert rep.boundary is None
    assert rep.minus_k_ray == 6 * 3 + 216
    assert rep.positive


def test_c2_h_ray_is_36_everywhere():
    assert {c.gamma for c in PAIRS_BY_GAMMA} >= {g for g in range(-27, 28) if g % 3 != 2}
    for c in PAIRS_BY_GAMMA:
        assert invariants.cy_invariants(c).h_c2 == 36


def test_c2_engine_route_matches_closed_bound():
    # pairing route (36 + 12 c1 + 2 gamma) - 12 k against the gamma-only bound,
    # with its square root taken here afresh
    for c in (ChernPair(3, 6), ChernPair(0, 0), ChernPair(-1, 1), ChernPair(4, 8)):
        s, n = squarefree_decompose(9 - 4 * c.gamma)
        assert quad_parts(*c2_of(c).boundary) == quad_parts(18 + 2 * c.gamma, 6 * s, n, 1)


@pytest.mark.parametrize("c", [ChernPair(3, 6), ChernPair(0, 9)], ids=str)
def test_c2_cross_check_fires_on_a_wrong_root(c):
    # the closed form reads its square root off the root, so the two routes
    # share it; they still disagree on a root that is off by 1 in k (both
    # branches shifted, so the gap stays), or divided by 3 (the k / 3 of the
    # ray through O_X(1))
    root = boundary_root(c)
    shifted = root._replace(center=root.center + root.den)
    for wrong in (shifted, root._replace(den=3 * root.den)):
        with pytest.raises(InvariantViolationError, match="boundary c2-value mismatch") as err:
            c2_of(c, wrong)
        # the message gives both values in the canonical text form
        closed = quad_text(wrong.den * (18 + 2 * c.gamma), 12 * root.s, root.n, wrong.den)
        assert str(err.value).endswith(f" vs {closed}")


# --- admissible splitting types ------------------------------------------------------


def test_is_allowed_splitting_type_agrees_with_the_table():
    for t in product(range(-8, 9), repeat=3):
        assert is_allowed_splitting_type(*t) == (t in allowed_splitting_types(sum(t))), t


def test_splitting_table_entries_are_consistent():
    for c1 in range(-1, 5):
        for a, b, c in allowed_splitting_types(c1):
            assert a <= b <= c and a + b + c == c1
            assert 3 * b + 3 - c1 > 0
            assert 3 * a + 3 - c1 >= 0


# --- restriction classification --------------------------------------------------------


def test_restriction_exceptional_candidate_012():
    res = restriction_of(BundleSpec.split(0, 1, 2))
    assert res.case == EXCEPTIONAL_CANDIDATE
    assert res.surface.coeffs == (9, -27, 18)
    assert res.surface.mu_candidates == (1, 3, 9)


def test_restriction_equality_for_ample():
    res = restriction_of(BundleSpec.split(0, 0, 1))
    assert (res.case, res.via) == (EQUALITY, "ample-anticanonical")


def test_restriction_of_non_nef_is_not_determined():
    res = restriction_of(BundleSpec.split(-2, 2, 3))
    assert (res.case, res.via, res.surface) == (NOT_DETERMINED, None, None)


def test_restriction_c1_2_asserted_status_is_not_determined():
    # statuses asserted externally: big and nef, not ample, at c1 = 2, where
    # no spec lands (3 | c1 there) and the surface class admits no mu
    asserted = MinusKStatus(nef=True, ample=False, big=True)
    surface = exceptional_surface_class(ChernPair(2, 5))
    assert surface.mu_candidates == ()
    res = cone_restriction_case(BundleSpec.chern_only(2, 5), asserted)
    assert (res.case, res.via, res.surface) == (NOT_DETERMINED, None, None)


def test_restriction_nef_not_big_asserted_status_is_not_determined():
    # nef and not big needs gamma <= -18, below every atom spec's gamma
    asserted = MinusKStatus(nef=True, ample=False, big=False)
    res = cone_restriction_case(BundleSpec.chern_only(3, 2), asserted)
    assert (res.case, res.via) == (NOT_DETERMINED, None)


def test_restriction_not_determined_without_status():
    res = restriction_of(BundleSpec.chern_only(3, 2))
    assert res.case == NOT_DETERMINED


@pytest.mark.parametrize(
    ("spec", "calls"),
    [
        (BundleSpec.split(0, 0, 1), 0),  # ample -K_Z
        (BundleSpec.split(-2, 2, 3), 0),  # -K_Z not nef
        (BundleSpec.chern_only(3, 6), 0),  # status unknown
        (BundleSpec.split(0, 1, 2), 1),  # the exceptional candidate
    ],
    ids=["split-001", "split-m2_2_3", "chern-3_6", "split-012"],
)
def test_surface_class_is_computed_only_where_it_decides(monkeypatch, spec, calls):
    seen = []
    original = chow.exceptional_surface_class
    monkeypatch.setattr(chow, "exceptional_surface_class", lambda c: seen.append(c) or original(c))
    build_report(spec)
    assert seen == [spec.chern] * calls


# --- rationality verdict -----------------------------------------------------------------


def test_verdict_split_012():
    v = verdict_of(BundleSpec.split(0, 1, 2))
    assert v.verdict == RATIONAL
    assert v.trail == ("h0-minus-k-gt-1",)


def test_verdict_gamma_minus_20_is_open():
    v = verdict_of(BundleSpec.chern_only(1, 7))  # gamma = -20
    assert v.verdict == UNKNOWN
    assert v.trail == ()


def test_verdict_gamma_minus_18_boundary():
    spec = BundleSpec.chern_only(0, 6)  # gamma = -18, c3 = -54
    v = verdict_of(spec)
    assert v.verdict == RATIONAL
    assert v.trail == ("gamma-ge-minus-18", "h0-minus-k-gt-1")
    assert invariants.cy_invariants(spec.chern).c3 == -54


def test_verdict_flags_rho_contradiction():
    spec = BundleSpec.split(0, 0, 3)
    assert verdict_of(spec).verdict == RATIONAL
    # the verdict decides; the report flags the rho(X) = 2 hypothesis, first
    assert build_report(spec).warnings[0] == "rho(X) = 4 contradicts the rho(X) = 2 hypothesis"


@pytest.mark.parametrize(
    "spec, warnings",
    [
        (BundleSpec.chern_only(0, 18), (  # gamma = -54: rational root, open verdict
            "h0(-K_Z) may equal 1; open territory",
            "h12 assumes rho(X) = 2, which is not established for this spec",
            "gamma < -27 is inconsistent with rho(X) = 2",
            "h12 = -79 is negative, so it is not a Hodge number of X",
        )),
        (BundleSpec.chern_only(1, 7), (  # gamma = -20: open
            "h0(-K_Z) may equal 1; open territory",
            "h12 assumes rho(X) = 2, which is not established for this spec",
        )),
        (BundleSpec.named("2O+O(3)"), ("rho(X) = 4 contradicts the rho(X) = 2 hypothesis",)),
    ],
    ids=["chern-0-18", "chern-1-7", "2O+O(3)"],
)
def test_report_warnings_in_order(spec, warnings):
    assert build_report(spec).warnings == warnings


def test_verdict_rational_root_clause():
    # gamma = -22 < -18 with no h0 information, root exists and is irrational
    v = verdict_of(BundleSpec.chern_only(2, 2 + 8))  # gamma = 4 - 30 = -26
    assert v.verdict == UNKNOWN
    # the verdict reads h0 alone, so a record with unknown h0 is open at
    # every gamma, whatever the root there: none at 3, rational at -18 and
    # -54, irrational at -20
    blank = H0Anticanonical(value=None, gt1=None, reason="test")
    assert rationality_verdict(blank) == RationalityResult(UNKNOWN, ())


def test_root_lemma_no_rational_root_survives_rho_2():
    """Why the verdict has no root clause: for every attainable gamma
    (gamma = c1^2 mod 3, never 2 mod 3), 9 - 4 gamma is a square exactly
    when gamma = -9 j (j + 1).  j = 0, 1 give gamma = 0 and -18, which
    h^0(-K_Z) > 1 decides; every other such gamma has c3(X) > 4, while
    rho(X) = 2 forces c3(X) = 2 (2 - h12) <= 4."""
    lemma = {-9 * j * (j + 1) for j in range(40)}
    squares = set()
    for g in range(-10**4, 3):
        if g % 3 == 2:
            continue
        if is_perfect_square(9 - 4 * g):
            squares.add(g)
            c3 = -6 * g - 162
            assert g in (0, -18) or c3 > 4, g
    assert squares == {g for g in lemma if g >= -10**4}
    for g in (0, -18):
        spec = BundleSpec.chern_only(0, -g // 3)
        assert spec.gamma == g and verdict_of(spec).verdict == RATIONAL


def test_a_rational_verdict_needs_a_trail():
    with pytest.raises(DomainError, match="nonempty trail"):
        RationalityResult(RATIONAL, ())


def test_report_reaches_the_rational_root_clause():
    # gamma = -54: 9 - 4 gamma = 225 = 15^2, so the root is rational, and the
    # c2 boundary value 18 + 2 gamma + 6 sqrt(9 - 4 gamma) is exactly 0; the
    # verdict stays open there, since c3(X) = 162 rules out rho(X) = 2
    r = build_report(BundleSpec.chern_only(0, 18))
    assert r.spec.gamma == -54
    assert r.k_root.is_rational
    assert r.verdict == UNKNOWN
    assert r.trail == ()
    assert quad_parts(*r.c2.boundary) == ((0, 1), (0, 1), 0)


def test_verdict_monotone_in_h0():
    # h0 > 1 dominates even when the root is irrational
    spec = BundleSpec.named("S2TP2(-1)")  # gamma = -9, root irrational
    assert not boundary_root(spec.chern).is_rational
    v = verdict_of(spec)
    assert v.verdict == RATIONAL and "h0-minus-k-gt-1" in v.trail


# --- aggregate report ---------------------------------------------------------------------


def test_cone_report_aggregates():
    spec = BundleSpec.split(0, 1, 2)
    rep = build_report(spec)
    assert rep.minus_k == status_of(spec)
    assert rep.verdict == RATIONAL
    assert rep.restriction.case == EXCEPTIONAL_CANDIDATE
    assert rep.restriction.surface == exceptional_surface_class(spec.chern)
    assert rep.c2.positive
    assert report_to_dict(rep)["cone"]["w_contains_boundary"] == "unknown"


def test_cone_data_is_twist_equivariant():
    # twisting E leaves Z alone: statuses and verdicts are unchanged, and
    # the boundary root just shifts by 3t along the relabeled ray
    for exps in ((0, 1, 2), (0, 0, 3), (-1, 0, 2)):
        spec = BundleSpec.split(*exps)
        base_status = status_of(spec)
        base_verdict = verdict_of(spec)
        base_root = boundary_root(spec.chern)
        for t in (-2, 1, 3):
            twisted = spec.twist(t)
            status = status_of(twisted)
            assert (status.nef, status.ample, status.big) == (
                base_status.nef, base_status.ample, base_status.big
            )
            verdict = verdict_of(twisted)
            assert (verdict.verdict, verdict.trail) == (
                base_verdict.verdict, base_verdict.trail
            )
            root = boundary_root(twisted.chern)
            assert root.exists == base_root.exists
            if root.exists:
                assert root.k == base_root.k + 3 * t

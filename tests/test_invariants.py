"""Hypersurface invariants: gamma, pairing tables, Riemann-Roch, bounds, rho."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycone import cone, invariants, selftest
from cycone.bundles import BundleSpec
from cycone.chow import ChernPair
from cycone.cohom import h0_line
from cycone.errors import InvariantViolationError
from cycone.report import build_report

chern_pairs = st.builds(
    ChernPair, st.integers(min_value=-6, max_value=6), st.integers(min_value=-10, max_value=10)
)


@pytest.mark.parametrize(
    "c, expected", [(ChernPair(3, 2), 3), (ChernPair(3, 6), -9), (ChernPair(3, 3), 0)]
)
def test_gamma_examples(c, expected):
    assert c.gamma == expected


@given(chern_pairs, st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_gamma_twist_invariance(c, t):
    assert c.twist(t).gamma == c.gamma


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-500, max_value=500))
def test_pairing_tables_agree_on_a_wide_grid(c1, c2):
    c = ChernPair(c1, c2)
    assert invariants.closed_form_pairings(c) == invariants.engine_pairings(c)


def test_engine_route_calls_no_closed_form(monkeypatch):
    def forbidden(c):
        raise AssertionError("the engine route reached a closed form")

    monkeypatch.setattr(invariants, "closed_form_pairings", forbidden)
    engine = invariants.engine_pairings(ChernPair(3, 2))
    assert engine == invariants.XPairings(21, 9, 3, 78, 36, -180)


def test_cy_invariants_012():
    c = ChernPair(3, 2)
    pairings = invariants.cy_invariants(c)
    assert (c.gamma, pairings.c3) == (3, -180)
    assert pairings == invariants.XPairings(21, 9, 3, 78, 36, -180)
    assert c.gamma >= -27  # forced by c3(X) <= 4 once rho(X) = 2
    rep = build_report(BundleSpec.split(0, 1, 2))  # the bundle of (3, 2)
    assert (rep.spec.chern, rep.rho.value, rep.h12) == (c, 2, 92)
    assert rep.pairings == pairings


H12_WARNING = "h12 assumes rho(X) = 2, which is not established for this spec"


def test_h12_only_with_rho_two():
    rep = build_report(BundleSpec.split(0, 0, 3))  # rho(X) = 4
    assert rep.rho.value == 4 and rep.h12 is None
    rep = build_report(BundleSpec.split(0, 1, 2))  # rho(X) = 2
    assert rep.rho.value == 2 and rep.h12 == 3 * rep.spec.gamma + 83
    assert H12_WARNING not in rep.warnings
    # unknown rho: shown under the rho(X) = 2 assumption, with a warning
    rep = build_report(BundleSpec.chern_only(3, 0))
    assert rep.rho.value is None and rep.h12 == 3 * 9 + 83
    assert H12_WARNING in rep.warnings


def test_h12_consistency_identity():
    # with rho = 2: c3 = 2 (rho - h12) reproduces the closed form
    for c in selftest.CHERN_GRID[:: 17]:
        rep = build_report(BundleSpec.chern_only(c.c1, c.c2))
        assert rep.pairings.c3 == 2 * (2 - rep.h12)


def cubic_coefficients(p, d):
    """(a, b) with chi(m D|X) = a m^3 + b m, read off ``chi_on_cy`` at
    m = 1 and m = 2: chi(1) = a + b and chi(2) = 8 a + 2 b."""
    one, two = invariants.chi_on_cy(p, d, 1), invariants.chi_on_cy(p, d, 2)
    a = Fraction(two - 2 * one, 6)
    return a, one - a


def test_chi_of_trivial_divisor_vanishes():
    for c in selftest.CHERN_GRID[:: 19]:
        assert invariants.chi_on_cy(invariants.closed_form_pairings(c), (0, 0), 1) == 0


def test_chi_on_cy_is_integral_by_residues():
    """The numerator of ``chi_on_cy`` is an integer polynomial in (c1, c2,
    alpha, beta, m), the closed-form pairings included, so its residue mod
    12 depends only on theirs: no raise on all 12^5 residues proves that 12
    divides it for every integral D and m."""
    for c1, c2 in product(range(12), repeat=2):
        p = invariants.closed_form_pairings(ChernPair(c1, c2))
        for alpha, beta, m in product(range(12), repeat=3):
            invariants.chi_on_cy(p, (alpha, beta), m)


def test_chi_on_cy_refuses_a_non_integral_value():
    p = invariants.closed_form_pairings(ChernPair(3, 2))
    tampered = p._replace(o1_c2=p.o1_c2 + 1)
    with pytest.raises(InvariantViolationError, match="non-integer chi"):
        invariants.chi_on_cy(tampered, (1, 0), 1)


def test_chi_and_section_bounds_are_ints():
    for c in selftest.CHERN_GRID:
        p = invariants.closed_form_pairings(c)
        sb = invariants.section_bounds(c, p)
        assert type(invariants.chi_on_cy(p, (1, 0), 1)) is int
        assert type(sb.chi_o1) is int and type(sb.lower_bound_o1_minus_h) is int
        assert 6 * sb.lower_bound_o1_minus_h == 2 * c.gamma + c.c1 * c.c1 + 3 * c.c1


@given(chern_pairs, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60, deadline=None)
def test_chi_is_an_odd_polynomial(c, alpha, beta, m):
    d = (alpha, beta)
    assert invariants.chi_on_cy(invariants.closed_form_pairings(c), d, m) == -invariants.chi_on_cy(invariants.closed_form_pairings(c), d, -m)
    a, b = cubic_coefficients(invariants.closed_form_pairings(c), d)
    assert invariants.chi_on_cy(invariants.closed_form_pairings(c), d, m) == a * m**3 + b * m


def test_section_bounds_012():
    c = ChernPair(3, 2)
    sb = invariants.section_bounds(c, invariants.closed_form_pairings(c))
    assert sb.lower_bound_o1_minus_h == 4
    assert sb.chi_o1 == 10
    assert sb.normal_bound == 106
    assert sb.c1_ge_minus_1
    assert sb.positive_bound_forces_c1_ge_1
    assert "O_X(1) ample" in sb.assumes


def test_normal_bound_at_gamma_edge():
    # gamma = -18 leaves exactly one section's worth of room
    c = ChernPair(0, 6)
    assert c.gamma == -18
    assert invariants.section_bounds(c, invariants.closed_form_pairings(c)).normal_bound == 1


def test_large_c1_has_positive_lower_bound():
    # c1 = 5 with -18 < gamma <= 1 forces the bound positive
    for c2 in range(8, 15):
        c = ChernPair(5, c2)
        if -18 < c.gamma <= 1:
            assert invariants.section_bounds(c, invariants.closed_form_pairings(c)).lower_bound_o1_minus_h > 0


def rho_of(spec):
    return invariants.rho_of_x(spec, cone.anticanonical_status(spec))


def test_rho_examples():
    assert rho_of(BundleSpec.split(0, 0, 3)).value == 4
    assert rho_of(BundleSpec.split(0, 1, 2)).value == 2
    res = rho_of(BundleSpec.named("TP3restP2"))
    assert (res.value, res.reason) == (2, "end-cohomology")


def test_rho_by_end_cohomology_for_catalog_bundles():
    for name in ("TP2+O", "TP2(-1)+O(2)", "S2TP2(-1)", "SymT(1,0)+O(2)"):
        res = rho_of(BundleSpec.named(name))
        assert (res.value, res.reason) == (2, "end-cohomology")


def test_rho_unknown_without_positivity():
    res = rho_of(BundleSpec.chern_only(3, 2))
    assert res.value is None
    assert res.reason == "anticanonical-not-known-big-nef"
    # nor does a hand-built nef and big status give a spec without atoms a rho
    status = cone.MinusKStatus(nef=True, ample=False, big=True)
    res = invariants.rho_of_x(BundleSpec.chern_only(3, 6), status)
    assert (res.value, res.reason) == (None, "anticanonical-not-known-big-nef")
    # non-nef split: formula hypotheses fail as well
    assert rho_of(BundleSpec.split(-1, 2, 2)).value is None


def test_rho_matches_end_cohomology_on_nef_splits():
    for exps in combinations_with_replacement(range(-2, 4), 3):
        spec = BundleSpec.split(*exps)
        status = cone.anticanonical_status(spec)
        res = invariants.rho_of_x(spec, status)
        if status.nef and status.big:
            # the Serre route per summand: h^2(O(d)) = h^0(O(-3 - d))
            h2 = sum(h0_line(-3 - (ej - ei)) for ei in exps for ej in exps)
            assert res.value == 2 + h2 and res.value >= 2
        else:
            assert res.value is None


def test_mismatched_tables_raise(monkeypatch):
    from cycone.invariants import XPairings

    def broken(c):
        return XPairings(0, 0, 0, 0, 0, 0)

    monkeypatch.setattr(invariants, "closed_form_pairings", broken)
    with pytest.raises(InvariantViolationError):
        invariants.cy_invariants(ChernPair(3, 2))

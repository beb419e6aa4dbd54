"""Built-in regression checks, runnable via ``cycone selftest``.

Each check recomputes a pinned exact value or sweeps a property grid; any
mismatch raises with a diagnostic.  Where the engine has a cross-check of
its own, such as ``invariants.cy_invariants`` (engine pairings against the
closed forms) or ``report.stages`` (h^0(-K_Z) against 5 gamma + 100 on nef
and big -K_Z), the check calls it and lets it raise instead of comparing
the two routes again.  Checks call through module attributes so a tampered
implementation is caught by name.  ``CHECKS`` is the one list of these
checks and the one copy of each sweep: the acceptance suite runs every
entry, and no test sweeps a property again on the same grid.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

import cycone.bundles as bundles
import cycone.chow as chow
import cycone.cohom as cohom
import cycone.cone as cone
import cycone.invariants as invariants
import cycone.report as report
from .bundles import BundleSpec
from .chow import ChernPair
from .exactnum import is_perfect_square, quad_text

CHERN_GRID = [ChernPair(c1, c2) for c1 in range(-6, 7) for c2 in range(-10, 11)]
SPLIT_GRID = list(combinations_with_replacement(range(-4, 5), 3))


class CheckFailure(AssertionError):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def check_anticanonical_contraction_example():
    """Split (0,1,2): (-K_Z)^4 = 567, big and nef but not ample, and the
    contracted-surface class is xi^2 - 3 xi*H + 2 F, the product
    (xi - H)(xi - 2H) of the section P(O) (degree 2 needs no relation)."""
    spec = BundleSpec.split(0, 1, 2)
    _require(chow.minus_k_quartic(spec.chern) == 567, "(-K_Z)^4 != 567 for split (0,1,2)")
    status = cone.anticanonical_status(spec)
    _require(
        (status.nef, status.ample, status.big) == (True, False, True),
        f"unexpected -K_Z status for split (0,1,2): {status}",
    )
    restriction = cone.cone_restriction_case(spec, status)
    _require(
        restriction.case == cone.EXCEPTIONAL_CANDIDATE,
        f"expected an exceptional candidate, got {restriction.case}",
    )
    surface = restriction.surface
    _require(surface.coeffs == (9, -27, 18), f"surface coeffs {surface.coeffs}")
    _require(surface.mu_candidates == (1, 3, 9), f"mu candidates {surface.mu_candidates}")
    section = tuple(chow.expand((0, 1, -1), (0, 1, -2))[3:6])  # (xi^2, xi*H, F)
    _require(
        surface.reduced == section == (1, -3, 2),
        f"reduced class {surface.reduced} and section product {section} != xi^2 - 3 xi*H + 2 F",
    )


def check_picard_rank_four_example():
    """Split (0,0,3): (-K_Z)^4 = 729, h^2(End E) = 2, rho(X) = 4."""
    spec = BundleSpec.split(0, 0, 3)
    _require(chow.minus_k_quartic(spec.chern) == 729, "(-K_Z)^4 != 729")
    end = cohom.EndOf(cohom.DirectSum(*[cohom.LineBundle(e) for e in (0, 0, 3)]))
    _require(cohom.cohom_expr(end).h2 == 2, "h^2(End E) != 2 for 2O+O(3)")
    rho = invariants.rho_of_x(spec, cone.anticanonical_status(spec))
    _require(rho.value == 4, f"rho(X) = {rho.value}, expected 4")


def _rho_by_splitting_type(stype) -> int | None:
    """The splitting-type criterion: a uniform type, twisted so that c1 lies
    in {1, 2, 3}, other than (0, 0, 3) forces rho(X) = 2; else it is silent."""
    c1 = sum(stype)
    t = ((c1 - 1) % 3 + 1 - c1) // 3
    return None if tuple(e + t for e in stype) == (0, 0, 3) else 2


def check_gamma_catalog():
    """The four uniform (0,1,2) bundles carry gamma = 3, 0, 0, -9; their
    Chern pairs and splitting types, read off the sheaf expressions, match
    the hand-typed ones, rho by End cohomology matches the splitting-type
    criterion, and ``report.stages`` finds h^0(-K_Z) = 5 gamma + 100."""
    hand_typed = ((3, 2), (3, 3), (3, 3), (3, 6))
    for name, pair, g in zip(bundles.UNIFORM_012_NAMES, hand_typed, (3, 0, 0, -9)):
        spec = BundleSpec.named(name)
        _require(spec.gamma == g, f"gamma({name}) = {spec.gamma}, expected {g}")
        _require(spec.chern == ChernPair(*pair), f"chern({name}) = {spec.chern}, expected {pair}")
        _require(spec.splitting_type == (0, 1, 2), f"{name} splitting type")
        rho = report.stages(spec)[2].value
        criterion = _rho_by_splitting_type(spec.splitting_type)
        _require(rho == criterion, f"rho({name}) = {rho}, the criterion gives {criterion}")


def check_pairing_closed_forms():
    """Engine pairings equal the closed forms on the whole Chern grid:
    ``invariants.cy_invariants`` raises, naming both tables, where they differ."""
    for c in CHERN_GRID:
        invariants.cy_invariants(c)


def check_chi_end_formula():
    """chi(End E) = 2*gamma + 9 for split E, by cohomology and Riemann-Roch."""
    for exps in SPLIT_GRID:
        c = chow.chern_pair_of_split(*exps)
        end = cohom.EndOf(cohom.DirectSum(*[cohom.LineBundle(e) for e in exps]))
        expected = 2 * c.gamma + 9
        via_table = cohom.cohom_expr(end).chi
        via_rr = cohom.chi_rr(end)
        _require(
            via_table == via_rr == expected,
            f"chi(End) at {exps}: table {via_table}, rr {via_rr}, expected {expected}",
        )


def check_splitting_type_table():
    """The admissible-type table for c1 in [-1, 4] is exactly the known one."""
    expected = {
        -1: [(-1, -1, 1), (-1, 0, 0)],
        0: [(-1, 0, 1), (0, 0, 0)],
        1: [(0, 0, 1)],
        2: [(0, 0, 2), (0, 1, 1)],
        3: [(0, 1, 2), (1, 1, 1)],
        4: [(1, 1, 2)],
    }
    for c1, rows in expected.items():
        got = cone.allowed_splitting_types(c1)
        _require(got == rows, f"splitting table row {c1}: {got} != {rows}")
    _require(cone.allowed_splitting_types(-2) == [], "row below range not empty")
    _require(cone.allowed_splitting_types(5) == [], "row above range not empty")
    total = sum(len(v) for v in expected.values())
    _require(total == 10, "table should hold 10 types across 6 rows")


def check_riemann_roch_on_x():
    """chi(O_X(1)) closed forms for c1 = 2 and 3 (3 chi = gamma + 20 and
    gamma + 27), and the c1 = -1 cubic 2 chi = (9 gamma - 18) m^3 +
    (gamma + 12) m, all as integer identities."""
    for c2 in range(-8, 9):
        c = ChernPair(2, c2)
        _require(
            3 * invariants.chi_on_cy(invariants.closed_form_pairings(c), (1, 0), 1) == c.gamma + 20,
            f"chi(O_X(1)) broken for {c}",
        )
        c = ChernPair(3, c2)
        _require(
            3 * invariants.chi_on_cy(invariants.closed_form_pairings(c), (1, 0), 1) == c.gamma + 27,
            f"chi(O_X(1)) broken for {c}",
        )
        c = ChernPair(-1, c2)
        g = c.gamma
        for m in range(-5, 6):
            _require(
                2 * invariants.chi_on_cy(invariants.closed_form_pairings(c), (3, 0), m)
                == (9 * g - 18) * m**3 + (g + 12) * m,
                f"cubic chi broken for {c}, m = {m}",
            )


def check_plethysm_sections():
    """h^0(S^2 E(-1)) = 3 for E = S^2(T(-1)), since S^2 E(-1) = S^4 T(-5) + O(1);
    each S^a T(b) with a <= 12 and |b| <= 30 has its cohomology in one degree
    and the chi of Riemann-Roch."""
    expr = cohom.TwistBy(
        cohom.SymPower(cohom.SymPower(cohom.SymTangent(1, -1), 2), 2), -1
    )
    _require(cohom.cohom_expr(expr).h0 == 3, "plethysm h^0 != 3")
    _require(cohom.cohom_sym_tangent(4, -5).h0 == 0, "h^0(S^4 T(-5)) != 0")
    _require(cohom.h0_line(1) == 3, "h^0(O(1)) != 3")
    _require(cohom.cohom_line(1).h0 == 3, "cohomology table of O(1) has h^0 != 3")
    for a, b in product(range(13), range(-30, 31)):
        t, rr = cohom.cohom_sym_tangent(a, b), cohom.chi_rr(cohom.SymTangent(a, b))
        _require(t.chi == rr and (t.h0, t.h1, t.h2).count(0) >= 2, f"S^{a}T({b}): {t}, chi_rr {rr}")


def _pairs_by_gamma(lo: int, hi: int) -> list[ChernPair]:
    """The grid pairs with lo <= gamma <= hi, which reach every attainable
    gamma there (gamma = c1^2 - 3 c2 is c1^2 mod 3, so never 2 mod 3)."""
    pairs = [c for c in CHERN_GRID if lo <= c.gamma <= hi]
    attainable = {g for g in range(lo, hi + 1) if g % 3 != 2}
    _require({c.gamma for c in pairs} == attainable, f"grid misses a gamma in [{lo}, {hi}]")
    return pairs


def _doubled_cube_quadratic(c: ChernPair) -> tuple[int, int, int]:
    """The coefficients of 2 q(k) = 2 D^3 . (-K_Z) for D = 3 xi - k H, with
    q read off the Chow ring at k = -1, 0, 1 on int classes; H^3 = 0 makes
    q quadratic in k."""
    minus_k = chow.anticanonical(c)
    q_minus, q_zero, q_plus = (
        chow.integral(chow.expand(chow.expand(d, d), chow.expand(d, minus_k)), c)
        for d in ((0, 3, -k) for k in (-1, 0, 1))
    )
    return q_plus + q_minus - 2 * q_zero, q_plus - q_minus, 2 * q_zero


def solves_cube(root, c: ChernPair) -> bool:
    """Whether 2 D^3 . (-K_Z), read off the Chow ring, is a nonzero multiple
    of (den k - center)^2 - s^2 n, the polynomial whose zeros are the two
    branches of ``root``."""
    a, b, const = _doubled_cube_quadratic(c)
    pa, pb, pc = root.den**2, -2 * root.center * root.den, root.center**2 - root.s**2 * root.n
    return a != 0 and a * pb == b * pa and a * pc == const * pa


def check_boundary_root_exactness():
    """k = 9/2 - (3/2) sqrt(5) at (c1, c2) = (3, 6); D^3 vanishes at both
    branches of every root for gamma in [-27, 2], since its quadratic
    D^3 . (-K_Z) in k from the Chow ring is a nonzero multiple of the root's
    minimal polynomial; rationality of the root is exactly the
    perfect-square condition."""
    root = cone.boundary_root(ChernPair(3, 6))  # gamma = -9
    k = quad_text(root.center, -root.s, root.n, root.den) if root.exists else None
    _require(k == "9/2 - 3/2*sqrt(5)", f"root {k} != 9/2 - 3/2*sqrt(5)")
    _require(not root.is_rational, "root should be irrational")
    for c in _pairs_by_gamma(-27, 2):
        root = cone.boundary_root(c)
        _require(root.exists and solves_cube(root, c), f"{root} does not solve D^3 = 0 at {c}")
        _require(root.is_rational == is_perfect_square(9 - 4 * c.gamma), f"rationality mismatch at {c}")


def check_gram_unimodularity():
    """det of the degree-4 pairing matrix is -1 on the whole Chern grid."""
    for c in CHERN_GRID:
        gram = chow.gram_matrix(c)
        _require(gram.det == -1, f"Gram determinant {gram.det} at {c}")


def check_c2_positivity_sweep():
    """All boundary values of D.c2(X) are positive for every attainable
    gamma in [-27, 27], where the pairing route meets the closed form."""
    for c in _pairs_by_gamma(-27, 27):
        g = c.gamma
        rep = cone.c2_positivity(c, cone.boundary_root(c), invariants.closed_form_pairings(c))
        _require(rep.positive, f"c2 positivity fails at {c}")
        if g <= 2:
            _require(rep.boundary is not None, f"no boundary value at {c}")
        else:
            _require(rep.boundary is None, "no root expected above gamma = 2")
            _require(rep.minus_k_ray == 6 * g + 216 > 0, "anticanonical-ray value broken")


def check_nef_gamma_survey():
    """Nef -K_Z forces gamma >= -18 over split types in [-4, 4]; every nef
    case gets a Rational verdict and, where also big, h^0 = 5 gamma + 100."""
    nef_count = 0
    for exps in SPLIT_GRID:
        spec = BundleSpec.split(*exps)
        if cone.anticanonical_status(spec).nef:
            nef_count += 1
            _require(spec.gamma >= -18, f"nef split {exps} with gamma {spec.gamma}")
            verdict = report.stages(spec)[3]  # ``stages`` checks h^0 on nef and big -K_Z
            _require(verdict.verdict == cone.RATIONAL, f"verdict not Rational at {exps}")
    _require(nef_count > 0, "no nef split type in the grid")


def check_mu_candidates_empty_for_c1_2():
    """c1 = 2 admits no integral multiple of the contracted-surface class."""
    for c2 in range(-10, 11):
        surface = chow.exceptional_surface_class(ChernPair(2, c2))
        _require(
            surface.mu_candidates == (),
            f"mu candidates {surface.mu_candidates} at c2 = {c2}, expected none",
        )


def check_euler_number():
    """Integral of c4(T_Z) is the Euler number 9 of a P2-bundle over P2."""
    for c in (ChernPair(0, 0), ChernPair(3, 2), ChernPair(-4, 7), ChernPair(5, -9), ChernPair(1, 1)):
        _require(chow.euler_number(c) == 9, f"Euler number != 9 at {c}")


def check_adjunction_degree_one():
    """Degree-1 part of c(T_Z) equals -K_Z for every Chern pair (no relation
    acts in degree 1)."""
    for c in CHERN_GRID[:: 7]:
        c1z = chow.tangent_total(c)[1:3]
        _require(c1z == list(chow.anticanonical(c)[1:3]), f"c1(T_Z) != -K_Z at {c}")


def check_twist_invariance():
    """gamma is invariant under E -> E(t)."""
    for c in (ChernPair(3, 2), ChernPair(-1, 4), ChernPair(2, -5)):
        for t in range(-3, 4):
            _require(c.twist(t).gamma == c.gamma, f"gamma moved under twist at {c}, t={t}")


CHECKS = (
    ("split-012-regression", check_anticanonical_contraction_example),
    ("split-003-regression", check_picard_rank_four_example),
    ("gamma-catalog", check_gamma_catalog),
    ("pairing-closed-forms-grid", check_pairing_closed_forms),
    ("chi-end-grid", check_chi_end_formula),
    ("splitting-type-table", check_splitting_type_table),
    ("riemann-roch-on-x", check_riemann_roch_on_x),
    ("plethysm-h0", check_plethysm_sections),
    ("boundary-root-exactness", check_boundary_root_exactness),
    ("gram-unimodularity", check_gram_unimodularity),
    ("c2-positivity-sweep", check_c2_positivity_sweep),
    ("nef-gamma-survey", check_nef_gamma_survey),
    ("mu-candidates-empty-c1-2", check_mu_candidates_empty_for_c1_2),
    ("euler-number-9", check_euler_number),
    ("adjunction-degree-1", check_adjunction_degree_one),
    ("twist-invariance", check_twist_invariance),
)


def run_selftest(emit=print) -> list[str]:
    """Run every check; returns the names of the failing ones."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # a failing check must not stop the rest
            failures.append(name)
            emit(f"FAIL {name}: {exc}")
        else:
            emit(f"PASS {name}")
    if failures:
        emit(f"{len(failures)} of {len(CHECKS)} checks failed")
    else:
        emit(f"all {len(CHECKS)} checks passed")
    return failures

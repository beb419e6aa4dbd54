"""Ambient intersection ring: expansions, point integrals, Chern calculus, pairings."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycone import chow, invariants
from cycone.chow import (
    MONOMIALS,
    ChernPair,
    anticanonical,
    as_integer,
    chern_pair_of_split,
    exceptional_surface_class,
    expand,
    gram_matrix,
    integral,
    minus_k_quartic,
    tangent_total,
)
from cycone.cone import boundary_root
from cycone.errors import InvariantViolationError
from cycone.selftest import CHERN_GRID

XI, H = (0, 1), (0, 0, 1)
SLOTS = chow._REDUCIBLE  # the monomial of each slot of an expansion


def slots(*coeffs):
    """An expansion on all twelve slots from a prefix of them."""
    return [*coeffs, *[0] * (len(SLOTS) - len(coeffs))]


def monomial(i, j):
    """xi^i H^j as an expansion, from repeated products."""
    p = [1]
    for factor, n in ((XI, i), (H, j)):
        for _ in range(n):
            p = expand(p, factor)
    return slots(*p)


def degree_part(p, d):
    return [v if i + j == d else 0 for (i, j), v in zip(SLOTS, p)]


def intersect4(f1, f2, f3, f4, c):
    """The intersection number of four degree-1 classes on Z."""
    return integral(expand(expand(f1, f2), expand(f3, f4)), c)


def coeffs_strategy():
    frac = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.tuples(*[frac] * 9)


def expansion_strategy():
    frac = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.lists(frac, min_size=len(SLOTS), max_size=len(SLOTS))


FRACTION_PAIRS = [ChernPair(Fraction(p, 3), Fraction(q, 2)) for p in (-7, 1, 5) for q in (-3, 0, 9)]

chern_pairs = st.builds(
    ChernPair, st.integers(min_value=-5, max_value=5), st.integers(min_value=-8, max_value=8)
)


def _reference_reduce(i, j, c):
    # the defining relation applied recursively, as {(i, j): coeff}; kept
    # apart from the engine's tables and point integrals on purpose
    if j >= 3 or i + j > 4:
        return {}
    if i <= 2:
        return {(i, j): 1}
    out = {}
    for scale, (li, lj) in ((c.c1, (i - 1, j + 1)), (-c.c2, (i - 2, j + 2))):
        for m, v in _reference_reduce(li, lj, c).items():
            out[m] = out.get(m, 0) + scale * v
    return out


def _reference_mul(x, y, c):
    # the reduced product of two classes given on (a prefix of) MONOMIALS
    out = dict.fromkeys(MONOMIALS, 0)
    for (i1, j1), a in zip(MONOMIALS, x):
        for (i2, j2), b in zip(MONOMIALS, y):
            for m, v in _reference_reduce(i1 + i2, j1 + j2, c).items():
                out[m] += a * b * v
    return tuple(out[m] for m in MONOMIALS)


def _reference_integral(cls, monomial, c):
    # the integral of a reduced class times xi^i H^j, by the relation alone
    i, j = monomial
    return sum(
        v * _reference_reduce(k + i, l + j, c).get((2, 2), 0) for (k, l), v in zip(MONOMIALS, cls)
    )


def _integrals(p, c):
    """The integrals of ``p`` against every basis monomial, which fix its class."""
    return [integral(p, c, m) for m in MONOMIALS]


# --- the relation, seen through integrals --------------------------------------


def test_reduce_xi_cubed():
    # xi^3 = 3 xi^2 H - 2 xi H^2 at (c1, c2) = (3, 2)
    c = ChernPair(3, 2)
    assert _integrals(monomial(3, 0), c) == _integrals(slots(0, 0, 0, 0, 0, 0, 3, -2), c)


def test_reduce_h_cubed_vanishes():
    assert monomial(0, 3) == slots()


def test_reduce_xi_fourth_is_top_form():
    c = ChernPair(3, 2)
    assert monomial(4, 0) == slots(*[0] * 11, 1)
    assert integral(monomial(4, 0), c) == 7  # c1^2 - c2
    assert 81 * 7 == minus_k_quartic(c)  # -K_Z = 3 xi here


@settings(max_examples=60, deadline=None)
@given(chern_pairs)
def test_reduction_confluence(c):
    # xi and H times the reduced xi^3 integrate like xi^4 and xi^3 H
    xi3 = _reference_mul(XI, _reference_mul(XI, XI, c), c)
    assert integral(expand(XI, xi3), c) == integral(monomial(4, 0), c)
    assert integral(expand(H, xi3), c) == integral(monomial(3, 1), c)


def test_reduce_monomial_matches_recursive_reference():
    for c in CHERN_GRID[::5]:
        for i in range(7):
            for j in range(5):
                ref = _reference_reduce(i, j, c)
                cls = tuple(ref.get(m, 0) for m in MONOMIALS)
                assert _integrals(monomial(i, j), c) == [
                    _reference_integral(cls, m, c) for m in MONOMIALS
                ], (c, i, j)


# --- products ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(coeffs_strategy(), coeffs_strategy(), chern_pairs)
def test_table_mul_matches_recursive_reference(x, y, c):
    ref = _reference_mul(x, y, c)
    assert _integrals(expand(x, y), c) == [_reference_integral(ref, m, c) for m in MONOMIALS]


def test_basis_monomial_product():
    assert expand(XI, slots(0, 0, 0, 0, 1)) == slots(*[0] * 6, 1)  # xi * xi H = xi^2 H


def test_fiber_hyperplane_point():
    assert expand(slots(0, 0, 0, 1), slots(0, 0, 0, 0, 0, 1)) == slots(*[0] * 8, 1)


def test_xi_cubed_times_h():
    c = ChernPair(3, 2)
    assert integral(expand(monomial(3, 0), H), c) == 3  # equals c1


@settings(max_examples=40, deadline=None)
@given(expansion_strategy(), expansion_strategy())
def test_ring_commutativity(x, y):
    assert expand(x, y) == expand(y, x)


@settings(max_examples=30, deadline=None)
@given(expansion_strategy(), expansion_strategy(), expansion_strategy())
def test_ring_associativity(x, y, z):
    assert expand(expand(x, y), z) == expand(x, expand(y, z))


@settings(max_examples=30, deadline=None)
@given(expansion_strategy(), expansion_strategy(), expansion_strategy())
def test_ring_distributivity(x, y, z):
    total = expand(x, [a + b for a, b in zip(y, z)])
    assert total == [a + b for a, b in zip(expand(x, y), expand(x, z))]


@settings(max_examples=30, deadline=None)
@given(expansion_strategy(), expansion_strategy(), st.integers(min_value=0, max_value=12))
def test_expand_reads_a_short_factor_as_zero_padded(x, y, n):
    # a factor may stop early: the slots it leaves out are 0
    short = y[:n]
    assert expand(x, short) == expand(x, slots(*short)) == expand(short, x)


# --- intersection numbers ----------------------------------------------------


def test_intersect4_xi_only():
    assert intersect4(XI, XI, XI, XI, ChernPair(3, 0)) == 9


def test_intersect4_anticanonical_quartic():
    c = ChernPair(3, 2)
    a = anticanonical(c)
    assert intersect4(a, a, a, a, c) == 567


def test_intersect4_h_cubed():
    assert intersect4(H, H, H, XI, ChernPair(2, 5)) == 0


def test_closed_forms_on_grid():
    for c in CHERN_GRID:
        assert intersect4(XI, XI, XI, XI, c) == c.c1 * c.c1 - c.c2
        assert intersect4(XI, XI, XI, H, c) == c.c1


def _intersect4_oracle(factors, c):
    # expand (a_i xi + b_i H) symbolically; only xi^4, xi^3 H, xi^2 H^2 survive,
    # with integrals c1^2 - c2, c1, 1.  Independent of the engine.
    from itertools import combinations

    a = [f[1] for f in factors]
    b = [f[2] for f in factors]
    q = c.c1 * c.c1 - c.c2
    total = a[0] * a[1] * a[2] * a[3] * q
    for i in range(4):
        total += b[i] * (a[(i + 1) % 4] * a[(i + 2) % 4] * a[(i + 3) % 4]) * c.c1
    for i, j in combinations(range(4), 2):
        rest = [k for k in range(4) if k not in (i, j)]
        total += b[i] * b[j] * a[rest[0]] * a[rest[1]]
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
        ),
        min_size=4,
        max_size=4,
    ),
    chern_pairs,
)
def test_intersect4_matches_symbolic_oracle(coeff_pairs, c):
    factors = [(0, a, b) for a, b in coeff_pairs]
    assert intersect4(*factors, c) == _intersect4_oracle(factors, c)


def _intersect4_by_ring(factors, c):
    # the ring route: three reduced products by the reference relation, then
    # the point coefficient; independent of the point integrals
    f1, f2, f3, f4 = factors
    return _reference_mul(_reference_mul(_reference_mul(f1, f2, c), f3, c), f4, c)[8]


_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_COEFFS = {
    "int": st.integers(min_value=-9, max_value=9),
    "Fraction": _FRACTIONS,
}


@pytest.mark.parametrize("kind", sorted(_COEFFS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), c=chern_pairs)
def test_intersect4_matches_ring_route(kind, data, c):
    coeff = _COEFFS[kind]
    factors = [(0, data.draw(coeff), data.draw(coeff)) for _ in range(4)]
    value = intersect4(*factors, c)
    assert value == _intersect4_by_ring(factors, c)
    if kind == "int":
        assert type(value) is int


def test_point_integrals_match_reduced_monomials():
    for c in CHERN_GRID:
        ring = tuple(_reference_reduce(i, 4 - i, c).get((2, 2), 0) for i in range(5))
        assert c.point_integrals == ring


def test_minus_k_quartic_at_3_2():
    assert minus_k_quartic(ChernPair(3, 2)) == 567


# --- one expansion: numbers from the point integrals -----------------------------


@settings(max_examples=60, deadline=None)
@given(coeffs_strategy(), coeffs_strategy(), st.sampled_from(MONOMIALS), chern_pairs)
def test_integral_of_expansion_matches_reduced_product(x, y, m, c):
    # integrating against xi^i H^j is integrating the product with it
    assert integral(expand(x, y), c, m) == integral(expand(expand(x, y), monomial(*m)), c)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), c=chern_pairs)
def test_mul_matches_recursive_reference_for_int_coefficients(data, c):
    # Fraction coefficients: see test_table_mul_matches_recursive_reference
    x, y = (tuple(data.draw(_COEFFS["int"]) for _ in MONOMIALS) for _ in range(2))
    values = _integrals(expand(x, y), c)
    ref = _reference_mul(x, y, c)
    assert values == [_reference_integral(ref, m, c) for m in MONOMIALS]
    assert all(type(v) is int for v in values)


def test_as_integer_refuses_every_non_int():
    assert as_integer(-7) == -7
    for q in (Fraction(2), Fraction(1, 2), 2.0):
        with pytest.raises(InvariantViolationError, match="expected an integer"):
            as_integer(q)


def test_broken_adjunction_raises(monkeypatch):
    # with -K_Z off by one H, K_Z no longer cancels c1(T_Z) in the lift
    monkeypatch.setattr(chow, "anticanonical", lambda c: (0, 3, 4 - c.c1))
    c = ChernPair(3, 2)
    for route in (chow.cy_chern_pushforward, invariants.engine_pairings):
        with pytest.raises(InvariantViolationError, match="adjunction"):
            route(c)


def _uncut_lift(c):
    """c(T_Z) * (1 + K + ... + K^4), every degree, the powers of K = K_Z
    taken as repeated products (no binomial table)."""
    k = [-v for v in anticanonical(c)]
    power = total = slots(1)
    for _ in range(4):
        power = expand(power, k)
        total = [t + p for t, p in zip(total, power)]
    return expand(tangent_total(c), total)


def test_pushforward_is_minus_k_times_the_uncut_lift():
    # slot for slot, on int and Fraction pairs: the binomial powers of K and
    # the degree-5 term that the product drops change no slot
    for c in CHERN_GRID + FRACTION_PAIRS:
        x = chow.cy_chern_pushforward(c)
        assert x == expand(anticanonical(c), _uncut_lift(c)), c
        assert degree_part(x, 2) == slots()  # c1(X) . [X] cancels
    # the uncut lift has a degree-4 part, which the product drops
    assert any(degree_part(_uncut_lift(c), 4) != slots() for c in CHERN_GRID)


@pytest.mark.parametrize("slot", [1, 2], ids=["xi", "H"])
def test_a_tampered_c1_of_tz_breaks_adjunction(slot, monkeypatch):
    # c1(T_Z) off by one xi or one H, all else unchanged: c1(X) . [X] is no
    # longer 0, so the product's degree-2 part does not cancel
    true_total = chow.tangent_total

    def tampered(c):
        total = true_total(c)
        total[slot] += 1
        return total

    monkeypatch.setattr(chow, "tangent_total", tampered)
    c = ChernPair(3, 2)
    for route in (chow.cy_chern_pushforward, invariants.engine_pairings):
        with pytest.raises(InvariantViolationError, match="adjunction"):
            route(c)


def test_pairings_read_off_matches_six_integrals():
    # the import-time read-off of the pairings against one integral per
    # monomial, and both against each slot of the degree that xi^i H^j
    # completes to 4, weighted by the point integral s_(l+i) of xi^l H^m
    monomials = ((3, 0), (2, 1), (1, 2), (1, 0), (0, 1), (0, 0))
    for c in CHERN_GRID + FRACTION_PAIRS:
        x = chow.cy_chern_pushforward(c)
        s = c.point_integrals
        by_slot = [
            sum(v * s[l + i] for (l, m), v in zip(SLOTS, x) if l + m + i + j == 4) for i, j in monomials
        ]
        read = chow.integrals(x, c, invariants._PAIRINGS_READ_OFF)
        assert read == [integral(x, c, m) for m in monomials] == by_slot, c


def test_pushforward_integrals_are_the_pairings_on_x():
    # xi^i H^j against c(T_X).[X] picks c_(3-i-j)(X) by degree; the second
    # route multiplies the uncut lift by -K_Z
    for c in CHERN_GRID[:: 19]:
        x = chow.cy_chern_pushforward(c)
        uncut = expand(anticanonical(c), _uncut_lift(c))
        assert _integrals(x, c) == _integrals(uncut, c)
        assert integral(x, c, (0, 0)) == _c3_of_x(c)
        assert integral(x, c, (1, 0)) == _pair_on_x(XI, _c2_of_x(c), c)
        assert integral(x, c, (0, 1)) == _pair_on_x(H, _c2_of_x(c), c)
        assert integral(x, c, (2, 1)) == intersect4(XI, XI, H, anticanonical(c), c)


# --- anticanonical and tangent Chern classes ---------------------------------


@pytest.mark.parametrize(
    "c, xi_coef, h_coef",
    [(ChernPair(3, 2), 3, 0), (ChernPair(0, 0), 3, 3), (ChernPair(-1, 4), 3, 4)],
)
def test_anticanonical_coefficients(c, xi_coef, h_coef):
    assert anticanonical(c) == (0, xi_coef, h_coef)


def test_tangent_chern_closed_forms():
    # expanding the two defining sequences by hand gives
    #   c2(T_Z) = 3 xi^2 + (9 - 2c1) xi h + (c2 - 3c1 + 3) h^2
    #   c3(T_Z) = 9 xi^2 h + (9 - 6c1) xi h^2, after the relation
    for c in CHERN_GRID[:: 9]:
        total = tangent_total(c)
        assert total[3:6] == [3, 9 - 2 * c.c1, c.c2 - 3 * c.c1 + 3]
        c3z = slots(0, 0, 0, 0, 0, 0, 9, 9 - 6 * c.c1)
        for m in ((1, 0), (0, 1)):
            assert integral(total, c, m) == integral(c3z, c, m)


def test_tangent_total_matches_the_twisted_product():
    # the per-call route: c(p^* T_P2) = 1 + 3H + 3H^2 times the twisted factor
    # (1 + xi)^3 - c1 H (1 + xi)^2 + c2 H^2 (1 + xi), written slot by slot
    for c in CHERN_GRID + FRACTION_PAIRS:
        c1, c2 = c
        twisted = slots(1, 3, -c1, 3, -2 * c1, c2, -c1, c2, 0, 1)
        assert tangent_total(c) == expand((1, 0, 3, 0, 0, 3), twisted), c


def _c2_of_x(c):
    """The degree-2 part of the adjunction lift, whose restriction to X is c2(X)."""
    return degree_part(_uncut_lift(c), 2)


def _pair_on_x(u, v, c):
    """u . v restricted to X, i.e. u . v . (-K_Z) on Z."""
    return integral(expand(expand(u, v), anticanonical(c)), c)


def _c3_of_x(c):
    """The Euler number of X, integrated through the ambient ring."""
    c3_lift = degree_part(_uncut_lift(c), 3)
    return as_integer(integral(expand(anticanonical(c), c3_lift), c))


def test_cy_c2_lift_collapses_to_ambient_c2():
    # adjunction: the c1(Z).K_Z term cancels K_Z^2 exactly, leaving c2(Z)
    for c in CHERN_GRID[:: 23]:
        assert _c2_of_x(c) == degree_part(tangent_total(c), 2)


@given(chern_pairs)
@settings(max_examples=25, deadline=None)
def test_euler_number_is_nine(c):
    assert chow.euler_number(c) == 9


def test_integer_input_keeps_int_coefficients():
    for c in CHERN_GRID[::7]:
        for p in (tangent_total(c), _uncut_lift(c), chow.cy_chern_pushforward(c)):
            assert all(type(v) is int for v in p), p


def test_intersect4_boundary_root_class_cubes_to_zero():
    # D = 3 xi - k H with the irrational boundary root k at gamma = -9.
    # H^3 = 0, so D^3 . (-K_Z) = A k^2 + B k + C; read it off at k = -1, 0, 1
    # on int classes and evaluate it exactly at k = (center -+ s sqrt(n)) / den
    c = ChernPair(3, 6)
    assert c.gamma == -9
    root = boundary_root(c)
    center, s, n, den = root.center, root.s, root.n, root.den
    assert not root.is_rational

    def cube(k):
        d = (0, 3, -k)
        return intersect4(d, d, d, anticanonical(c), c)

    q_minus, q_zero, q_plus = cube(-1), cube(0), cube(1)
    a, b, const = (q_plus + q_minus) // 2 - q_zero, (q_plus - q_minus) // 2, q_zero
    assert a != 0
    k = Fraction(7, 3)  # the quadratic holds off the sample points too
    assert cube(k) == a * k * k + b * k + const
    for sign in (-1, 1):
        # den^2 D^3 . (-K_Z) = A u^2 + B den u + C den^2 at u = center + sign s sqrt(n)
        rational = a * (center**2 + s * s * n) + b * den * center + const * den**2
        irrational = sign * s * (2 * a * center + b * den)
        assert rational == irrational == 0


def test_chern_pair_identity():
    c = ChernPair(3, 2)
    assert hash(c) == hash(ChernPair(3, 2))
    assert c == ChernPair(3, 2) and c != ChernPair(3, 3)
    assert {ChernPair(3, 2): "x"}[c] == "x"
    assert repr(c) == "ChernPair(c1=3, c2=2)"


# --- hypersurface Chern data ---------------------------------------------------


def test_c2_pairings():
    c = ChernPair(3, 2)
    assert _pair_on_x(XI, _c2_of_x(c), c) == 78  # 36 + 12*3 + 2*3
    for cc in CHERN_GRID[:: 11]:
        assert _pair_on_x(H, _c2_of_x(cc), cc) == 36


def test_c3_value():
    assert _c3_of_x(ChernPair(3, 2)) == -180
    for c in (ChernPair(0, 0), ChernPair(-2, 5)):
        assert _c3_of_x(c) == -6 * c.gamma - 162


# --- Gram matrix ---------------------------------------------------------------


def _det3_oracle(m):
    # permutation expansion, independent of the library's cofactor route
    from itertools import permutations

    total = 0
    for perm in permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = 1
        for i in range(3):
            term *= m[i][perm[i]]
        total += sign * term
    return total


def test_gram_matrix_examples():
    g = gram_matrix(ChernPair(3, 2))
    assert g.entries == ((0, 0, 1), (0, 1, 3), (1, 3, 7))
    assert g.det == -1
    g0 = gram_matrix(ChernPair(0, 0))
    assert g0.entries == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert g0.det == -1


def test_gram_unimodular_on_grid():
    for c in CHERN_GRID:
        g = gram_matrix(c)
        assert g.det == _det3_oracle(g.entries) == -1
        assert g.entries[1][2] == c.c1 and g.entries[2][2] == c.c1**2 - c.c2


# --- exceptional surface class ---------------------------------------------------


def section_product(e2, e3):
    """(xi - e2 H)(xi - e3 H): the class of the section P(O(e1)) of a split
    bundle, as its (xi^2, xi*H, F) coefficients (degree 2 needs no relation)."""
    return tuple(expand((0, 1, -e2), (0, 1, -e3))[3:6])


def test_surface_class_split_012():
    c = ChernPair(3, 2)
    surf = exceptional_surface_class(c)
    assert surf.coeffs == (9, -27, 18)
    assert surf.mu_candidates == (1, 3, 9)
    # oracle: the section P(O) inside O+O(1)+O(2) is the product (xi-H)(xi-2H)
    assert surf.reduced == section_product(1, 2) == (1, -3, 2)


def test_surface_class_split_003():
    c = ChernPair(3, 0)
    surf = exceptional_surface_class(c)
    assert surf.coeffs == (9, -27, 0)
    assert surf.mu_candidates == (1, 3, 9)
    assert surf.reduced == section_product(0, 3)


def test_surface_class_c1_2_is_impossible():
    for c2 in range(-10, 11):
        surf = exceptional_surface_class(ChernPair(2, c2))
        assert surf.coeffs[2] == 9 * c2 + 7
        assert surf.mu_candidates == ()
        assert surf.reduced is None


def test_surface_class_section_oracle_for_contracted_splits():
    # whenever the smallest summand meets the nef boundary (3 e1 + 3 = c1),
    # the reduced class must be the split-section product
    for exps in combinations_with_replacement(range(-3, 4), 3):
        c = chern_pair_of_split(*exps)
        if 3 * exps[0] + 3 - c.c1 != 0:
            continue
        assert exceptional_surface_class(c).reduced == section_product(exps[1], exps[2])


# --- misc ----------------------------------------------------------------------


def test_chern_pair_twist():
    c = ChernPair(3, 2)
    assert c.twist(1) == ChernPair(6, 11)
    assert c.twist(-1) == ChernPair(0, -1)
    assert c.twist(2).gamma == c.gamma


def test_point_coefficient_of_inhomogeneous_class():
    # the integral of an inhomogeneous expansion reads its degree-4 part only
    c = ChernPair(1, 1)
    p = slots(1, *[0] * 7, Fraction(5, 2))  # 1 + (5/2) xi^2 H^2
    assert integral(p, c) == Fraction(5, 2)
    assert degree_part(p, 0) == slots(1)
    assert expand(p, (1,)) == p

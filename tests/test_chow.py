"""Ambient intersection ring: reduction, products, Chern calculus, pairings."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycone import chow, invariants
from cycone.chow import (
    MONOMIALS,
    ChernPair,
    ChowClass,
    anticanonical,
    as_integer,
    chern_pair_of_split,
    exceptional_surface_class,
    gram_matrix,
    intersect4,
    minus_k_quartic,
    mul,
    reduce_monomial,
    tangent_chern_classes,
)
from cycone.cone import boundary_root
from cycone.errors import DomainError, InvariantViolationError

GRID = [ChernPair(c1, c2) for c1 in range(-6, 7) for c2 in range(-10, 11)]

XI = ChowClass.monomial(1, 0)
H = ChowClass.monomial(0, 1)


def coeffs_strategy():
    frac = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.tuples(*[frac] * 9).map(ChowClass)


chern_pairs = st.builds(
    ChernPair, st.integers(min_value=-5, max_value=5), st.integers(min_value=-8, max_value=8)
)


# --- reduction ---------------------------------------------------------------


def test_reduce_xi_cubed():
    c = ChernPair(3, 2)
    expected = ChowClass.monomial(2, 1, 3) - ChowClass.monomial(1, 2, 2)
    assert reduce_monomial(3, 0, c) == expected


def test_reduce_h_cubed_vanishes():
    assert reduce_monomial(0, 3, ChernPair(1, 1)) == ChowClass.zero()


def test_reduce_xi_fourth_is_top_form():
    c = ChernPair(3, 2)
    cls = reduce_monomial(4, 0, c)
    assert cls == ChowClass.monomial(2, 2, 7)  # c1^2 - c2 = 7
    assert 81 * cls.point_coefficient == 567


def test_reduce_rejects_negative_exponents():
    with pytest.raises(DomainError):
        reduce_monomial(-1, 0, ChernPair(0, 0))


@settings(max_examples=60)
@given(chern_pairs)
def test_reduction_confluence(c):
    # xi * reduce(xi^3) must agree with reduce(xi^4)
    assert mul(XI, reduce_monomial(3, 0, c), c) == reduce_monomial(4, 0, c)
    assert mul(H, reduce_monomial(3, 0, c), c) == reduce_monomial(3, 1, c)


def _reference_reduce(i, j, c):
    # the defining relation applied recursively, as {(i, j): coeff}; kept
    # apart from the engine's per-pair table on purpose
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
    out = dict.fromkeys(MONOMIALS, 0)
    for (i1, j1), a in zip(MONOMIALS, x.coeffs):
        for (i2, j2), b in zip(MONOMIALS, y.coeffs):
            for m, v in _reference_reduce(i1 + i2, j1 + j2, c).items():
                out[m] += a * b * v
    return ChowClass(tuple(out[m] for m in MONOMIALS))


def test_reduce_monomial_matches_recursive_reference():
    for c in GRID[::5]:
        for i in range(7):
            for j in range(5):
                ref = _reference_reduce(i, j, c)
                expected = ChowClass(tuple(ref.get(m, 0) for m in MONOMIALS))
                assert reduce_monomial(i, j, c) == expected


# --- products ----------------------------------------------------------------


@settings(max_examples=60)
@given(coeffs_strategy(), coeffs_strategy(), chern_pairs)
def test_table_mul_matches_recursive_reference(x, y, c):
    assert mul(x, y, c) == _reference_mul(x, y, c)


def test_basis_monomial_product():
    c = ChernPair(3, 2)
    assert mul(XI, ChowClass.monomial(1, 1), c) == ChowClass.monomial(2, 1)


def test_fiber_hyperplane_point():
    c = ChernPair(3, 2)
    prod = mul(ChowClass.monomial(2, 0), ChowClass.monomial(0, 2), c)
    assert prod == ChowClass.monomial(2, 2)


def test_xi_cubed_times_h():
    c = ChernPair(3, 2)
    prod = mul(reduce_monomial(3, 0, c), H, c)
    assert prod.point_coefficient == 3  # equals c1


@settings(max_examples=40)
@given(coeffs_strategy(), coeffs_strategy(), chern_pairs)
def test_ring_commutativity(x, y, c):
    assert mul(x, y, c) == mul(y, x, c)


@settings(max_examples=30)
@given(coeffs_strategy(), coeffs_strategy(), coeffs_strategy(), chern_pairs)
def test_ring_associativity(x, y, z, c):
    assert mul(mul(x, y, c), z, c) == mul(x, mul(y, z, c), c)


@settings(max_examples=30)
@given(coeffs_strategy(), coeffs_strategy(), coeffs_strategy(), chern_pairs)
def test_ring_distributivity(x, y, z, c):
    assert mul(x, y + z, c) == mul(x, y, c) + mul(x, z, c)


# --- intersection numbers ----------------------------------------------------


def test_intersect4_xi_only():
    assert intersect4(XI, XI, XI, XI, ChernPair(3, 0)) == 9


def test_intersect4_anticanonical_quartic():
    c = ChernPair(3, 2)
    a = anticanonical(c)
    assert intersect4(a, a, a, a, c) == 567


def test_intersect4_h_cubed():
    assert intersect4(H, H, H, XI, ChernPair(2, 5)) == 0


def test_intersect4_requires_degree_one():
    with pytest.raises(DomainError):
        intersect4(XI, XI, XI, ChowClass.monomial(2, 0), ChernPair(0, 0))


def test_closed_forms_on_grid():
    for c in GRID:
        assert intersect4(XI, XI, XI, XI, c) == c.c1 * c.c1 - c.c2
        assert intersect4(XI, XI, XI, H, c) == c.c1


def _intersect4_oracle(factors, c):
    # expand (a_i xi + b_i H) symbolically; only xi^4, xi^3 H, xi^2 H^2 survive,
    # with integrals c1^2 - c2, c1, 1.  Independent of the reduction engine.
    from itertools import combinations

    a = [f.coefficient(1, 0) for f in factors]
    b = [f.coefficient(0, 1) for f in factors]
    q = c.c1 * c.c1 - c.c2
    total = a[0] * a[1] * a[2] * a[3] * q
    for i in range(4):
        total += b[i] * (a[(i + 1) % 4] * a[(i + 2) % 4] * a[(i + 3) % 4]) * c.c1
    for i, j in combinations(range(4), 2):
        rest = [k for k in range(4) if k not in (i, j)]
        total += b[i] * b[j] * a[rest[0]] * a[rest[1]]
    return total


@settings(max_examples=60)
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
    factors = [ChowClass.degree1(a, b) for a, b in coeff_pairs]
    assert intersect4(*factors, c) == _intersect4_oracle(factors, c)


def _intersect4_by_ring(factors, c):
    # the ring route: three reduced products, then the point coefficient;
    # independent of the point integrals intersect4 uses
    f1, f2, f3, f4 = factors
    return mul(mul(mul(f1, f2, c), f3, c), f4, c).point_coefficient


_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_COEFFS = {
    "int": st.integers(min_value=-9, max_value=9),
    "Fraction": _FRACTIONS,
}


@pytest.mark.parametrize("kind", sorted(_COEFFS))
@settings(max_examples=40)
@given(data=st.data(), c=chern_pairs)
def test_intersect4_matches_ring_route(kind, data, c):
    coeff = _COEFFS[kind]
    factors = [ChowClass.degree1(data.draw(coeff), data.draw(coeff)) for _ in range(4)]
    value = intersect4(*factors, c)
    assert value == _intersect4_by_ring(factors, c)
    if kind == "int":
        assert type(value) is int


def test_point_integrals_match_reduced_monomials():
    for c in GRID:
        ring = tuple(reduce_monomial(i, 4 - i, c).point_coefficient for i in range(5))
        assert c.point_integrals == ring


def test_minus_k_quartic_at_3_2():
    assert minus_k_quartic(ChernPair(3, 2)) == 567


# --- one expansion: numbers from the point integrals, classes reduced once ---


@settings(max_examples=60)
@given(coeffs_strategy(), coeffs_strategy(), st.sampled_from(MONOMIALS), chern_pairs)
def test_integral_of_expansion_matches_reduced_product(x, y, monomial, c):
    # the number route (point integrals of the unreduced x * y, times a basis
    # monomial) against the class route (two reduced products)
    expected = mul(mul(x, y, c), ChowClass.monomial(*monomial), c).point_coefficient
    assert chow.integral(chow._expand(x.coeffs, y.coeffs), c, monomial) == expected


@settings(max_examples=30)
@given(data=st.data(), c=chern_pairs)
def test_mul_matches_recursive_reference_for_int_coefficients(data, c):
    # Fraction coefficients: see test_table_mul_matches_recursive_reference
    x, y = (ChowClass(tuple(data.draw(_COEFFS["int"]) for _ in MONOMIALS)) for _ in range(2))
    assert mul(x, y, c) == _reference_mul(x, y, c)


def test_broken_adjunction_raises(monkeypatch):
    # with -K_Z off by one H, K_Z no longer cancels c1(T_Z) in the lift
    monkeypatch.setattr(chow, "anticanonical", lambda c: ChowClass.degree1(3, 4 - c.c1))
    c = ChernPair(3, 2)
    for route in (chow.cy_chern_lifts, chow.cy_chern_pushforward, invariants.engine_pairings):
        with pytest.raises(InvariantViolationError, match="adjunction"):
            route(c)


def _uncut_lift(c):
    """c(T_Z) * (1 + K + ... + K^4), every degree, the powers of K = K_Z
    taken as repeated products (no binomial table)."""
    k = [-v for v in anticanonical(c).coeffs]
    power = total = [1] + [0] * 11
    for _ in range(4):
        power = chow._expand(power, k)
        total = [t + p for t, p in zip(total, power)]
    return chow._expand(chow._tangent_total(c), total)


# slots of the expansion by degree: at most 3, and exactly 4
LOW = [k for k, (i, j) in enumerate(chow._REDUCIBLE) if i + j <= 3]
TOP = [k for k, (i, j) in enumerate(chow._REDUCIBLE) if i + j == 4]


def test_cut_lift_is_the_uncut_lift_up_to_degree_3():
    fractions = [ChernPair(Fraction(p, 3), Fraction(q, 2)) for p in (-7, 1, 5) for q in (-3, 0, 9)]
    for c in GRID + fractions:
        lift, uncut = chow._adjunction_lift(c), _uncut_lift(c)
        assert [lift[k] for k in LOW] == [uncut[k] for k in LOW], c
        assert [lift[k] for k in TOP] == [0, 0, 0]
    # the uncut lift has a degree-4 part that the cut one leaves out
    assert any(_uncut_lift(c)[k] for c in GRID for k in TOP)


def test_pushforward_integrals_are_the_pairings_on_x():
    # xi^i H^j against c(T_X).[X] picks c_(3-i-j)(X) by degree
    for c in GRID[:: 19]:
        x = chow.cy_chern_pushforward(c)
        c2x, c3x = chow.cy_chern_lifts(c)
        assert chow.integral(x, c, (0, 0)) == _c3_of_x(c)
        assert chow.integral(x, c, (1, 0)) == chow.pair_on_cy(XI, c2x, c)
        assert chow.integral(x, c, (0, 1)) == chow.pair_on_cy(H, c2x, c)
        assert chow.integral(x, c, (2, 1)) == intersect4(XI, XI, H, anticanonical(c), c)


# --- anticanonical and tangent Chern classes ---------------------------------


@pytest.mark.parametrize(
    "c, xi_coef, h_coef",
    [(ChernPair(3, 2), 3, 0), (ChernPair(0, 0), 3, 3), (ChernPair(-1, 4), 3, 4)],
)
def test_anticanonical_coefficients(c, xi_coef, h_coef):
    assert anticanonical(c) == ChowClass.degree1(xi_coef, h_coef)


def test_tangent_degree_one_matches_anticanonical():
    for c in (ChernPair(3, 2), ChernPair(0, 0), ChernPair(-4, 9)):
        assert tangent_chern_classes(c)[0] == anticanonical(c)


def test_tangent_chern_closed_forms():
    # expanding the two defining sequences by hand gives
    #   c2(T_Z) = 3 xi^2 + (9 - 2c1) xi h + (c2 - 3c1 + 3) h^2
    #   c3(T_Z) = 9 xi^2 h + (9 - 6c1) xi h^2
    for c in GRID[:: 9]:
        _, c2z, c3z, _ = tangent_chern_classes(c)
        assert c2z == (
            ChowClass.monomial(2, 0, 3)
            + ChowClass.monomial(1, 1, 9 - 2 * c.c1)
            + ChowClass.monomial(0, 2, c.c2 - 3 * c.c1 + 3)
        )
        assert c3z == (
            ChowClass.monomial(2, 1, 9) + ChowClass.monomial(1, 2, 9 - 6 * c.c1)
        )


def _c2_of_x(c):
    """The degree-2 class on Z whose restriction to X is c2(X)."""
    return chow.cy_chern_lifts(c)[0]


def _c3_of_x(c):
    """The Euler number of X, integrated through the ambient ring."""
    lift = chow.cy_chern_lifts(c)[1]
    return as_integer(mul(lift, anticanonical(c), c).point_coefficient)


def test_cy_c2_lift_collapses_to_ambient_c2():
    # adjunction: the c1(Z).K_Z term cancels K_Z^2 exactly, leaving c2(Z)
    for c in GRID[:: 23]:
        assert _c2_of_x(c) == tangent_chern_classes(c)[1]


@given(chern_pairs)
@settings(max_examples=25)
def test_euler_number_is_nine(c):
    assert chow.euler_number(c) == 9


def test_integer_input_keeps_int_coefficients():
    for c in GRID[::7]:
        for cls in (*tangent_chern_classes(c), *chow.cy_chern_lifts(c)):
            assert all(type(v) is int for v in cls.coeffs), cls


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
        d = ChowClass.degree1(3, -k)
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
    c2x = _c2_of_x(c)
    assert chow.pair_on_cy(XI, c2x, c) == 78  # 36 + 12*3 + 2*3
    for cc in GRID[:: 11]:
        assert chow.pair_on_cy(H, _c2_of_x(cc), cc) == 36


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
    for c in GRID:
        g = gram_matrix(c)
        assert g.det == _det3_oracle(g.entries) == -1
        assert g.entries[1][2] == c.c1 and g.entries[2][2] == c.c1**2 - c.c2


# --- exceptional surface class ---------------------------------------------------


def test_surface_class_split_012():
    c = ChernPair(3, 2)
    surf = exceptional_surface_class(c)
    assert surf.coeffs == (9, -27, 18)
    assert surf.mu_candidates == (1, 3, 9)
    # oracle: the section P(O) inside O+O(1)+O(2) is the product (xi-H)(xi-2H)
    assert surf.reduced_class() == chow.split_section_product(1, 2, c)


def test_surface_class_split_003():
    c = ChernPair(3, 0)
    surf = exceptional_surface_class(c)
    assert surf.coeffs == (9, -27, 0)
    assert surf.mu_candidates == (1, 3, 9)
    assert surf.reduced_class() == chow.split_section_product(0, 3, c)


def test_surface_class_c1_2_is_impossible():
    for c2 in range(-10, 11):
        surf = exceptional_surface_class(ChernPair(2, c2))
        assert surf.coeffs[2] == 9 * c2 + 7
        assert surf.mu_candidates == ()
        assert surf.reduced_class() is None


def test_surface_class_section_oracle_for_contracted_splits():
    # whenever the smallest summand meets the nef boundary (3 e1 + 3 = c1),
    # the reduced class must be the split-section product
    for exps in combinations_with_replacement(range(-3, 4), 3):
        c = chern_pair_of_split(*exps)
        if 3 * exps[0] + 3 - c.c1 != 0:
            continue
        surf = exceptional_surface_class(c)
        assert surf.reduced_class() == chow.split_section_product(exps[1], exps[2], c)


# --- misc ----------------------------------------------------------------------


def test_chern_pair_twist():
    c = ChernPair(3, 2)
    assert c.twist(1) == ChernPair(6, 11)
    assert c.twist(-1) == ChernPair(0, -1)
    assert c.twist(2).gamma == c.gamma


def test_class_scaling_and_str():
    cls = ChowClass.degree1(1, -2)
    assert 3 * cls == ChowClass.degree1(3, -6)
    assert str(ChowClass.zero()) == "0"
    assert "xi" in str(cls)


def test_point_coefficient_of_inhomogeneous_class():
    c = ChernPair(1, 1)
    cls = ChowClass.one() + ChowClass.monomial(2, 2, Fraction(5, 2))
    assert cls.point_coefficient == Fraction(5, 2)
    assert cls.degree_part(0) == ChowClass.one()
    assert cls.degree_part(4) != cls
    assert mul(cls, ChowClass.one(), c) == cls

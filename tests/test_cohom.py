"""Sheaf cohomology engine: tables, Riemann-Roch, grammar, Schur functors of T."""

import importlib
import pkgutil
import time
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycone
from cycone import cli, cohom, report
from cycone.bundles import _CATALOG_TEXTS, BundleSpec
from cycone.cohom import (
    MAX_EXPR_DEPTH,
    RANK_CAP,
    ChernData,
    CohomologyTable,
    DirectSum,
    DualOf,
    EndOf,
    LineBundle,
    SymPower,
    SymTangent,
    TwistBy,
    _box_partitions,
    chern_data,
    chi_rr,
    cohom_expr,
    cohom_line,
    cohom_sym_tangent,
    h0_line,
    normalize,
    parse_sheaf_expr,
    sym_atoms,
)
from cycone.errors import (
    DomainError,
    InvariantViolationError,
    UnknownBundleError,
    UnsupportedExpressionError,
)


def table(h0, h1, h2):
    return CohomologyTable(h0, h1, h2)


def split_sum(*exps):
    return DirectSum(*[LineBundle(e) for e in exps])


def expr_rank(expr) -> int:
    """Reference rank of an expression, from the tree alone, saturating at ``RANK_CAP``.

    Nothing is expanded: ``sym(e, p)`` has rank C(r + p - 1, p) for e of
    rank r (1 when p <= 0) and ``end(e)`` has rank r^2.  Every construction
    is monotone in r, so anything built on a saturated rank stays saturated.
    The walks of ``cohom`` refuse an expression exactly when this reads the cap.
    """
    if isinstance(expr, LineBundle):
        return 1
    if isinstance(expr, SymTangent):
        return min(expr.a + 1, RANK_CAP)
    if isinstance(expr, DirectSum):
        return min(sum(expr_rank(p) for p in expr.parts), RANK_CAP)
    if isinstance(expr, (TwistBy, DualOf)):
        return expr_rank(expr.expr)
    if isinstance(expr, EndOf):
        return min(expr_rank(expr.expr) ** 2, RANK_CAP)
    if isinstance(expr, SymPower):
        if expr.p <= 0:
            return 1
        r = expr_rank(expr.expr)
        if r >= 2 and expr.p >= RANK_CAP:  # C(r + p - 1, p) >= p + 1 >= the cap
            return RANK_CAP
        return min(comb(r + expr.p - 1, expr.p), RANK_CAP)
    raise UnsupportedExpressionError(expr, "unknown expression node")


# --- line bundles -------------------------------------------------------------


@pytest.mark.parametrize(
    "k, expected",
    [(0, (1, 0, 0)), (1, (3, 0, 0)), (-3, (0, 0, 1)), (-1, (0, 0, 0)), (4, (15, 0, 0))],
)
def test_line_bundle_tables(k, expected):
    t = cohom_line(k)
    assert (t.h0, t.h1, t.h2) == expected


def test_line_bundle_serre_duality():
    for k in range(-9, 9):
        t, dual = cohom_line(k), cohom_line(-3 - k)
        assert (t.h0, t.h1, t.h2) == (dual.h2, dual.h1, dual.h0)


def test_line_bundle_chi_is_binomial():
    for k in range(-9, 9):
        assert cohom_line(k).chi == (k + 1) * (k + 2) // 2


# --- symmetric powers of the tangent bundle ------------------------------------


def test_tangent_sections():
    # global vector fields of the plane: dim PGL_3 = 8
    assert cohom_sym_tangent(1, 0) == table(8, 0, 0)


def test_s4_tangent_twisted_down_has_no_sections():
    assert cohom_sym_tangent(4, -5).h0 == 0


def test_cotangent_h1_is_one():
    # T(-3) is the cotangent bundle; h^1 = 1, chi = -1
    assert cohom_sym_tangent(1, -3) == table(0, 1, 0)
    assert chi_rr(SymTangent(1, -3)) == -1


def test_sym_tangent_h0_vanishes_below_diagonal():
    for a in range(0, 7):
        for b in range(-12, 12):
            if a + b < 0:
                assert cohom_sym_tangent(a, b).h0 == 0


def test_sym_tangent_serre_duality():
    for a in range(0, 5):
        for b in range(-8, 5):
            t = cohom_sym_tangent(a, b)
            dual = cohom_sym_tangent(a, -3 * a - b - 3)
            assert (t.h0, t.h1, t.h2) == (dual.h2, dual.h1, dual.h0)


def test_sym_tangent_degenerate_degree_zero():
    assert cohom_sym_tangent(0, 2) == cohom_line(2)


# --- expression evaluation ------------------------------------------------------


def test_end_of_003_split():
    t = cohom_expr(EndOf(split_sum(0, 0, 3)))
    assert t.h2 == 2
    assert t == table(25, 0, 2)


def test_end_chi_example():
    assert cohom_expr(EndOf(split_sum(0, 1, 2))).chi == 15  # 2*gamma + 9, gamma = 3


def test_plethysm_sections():
    e = TwistBy(SymPower(SymPower(SymTangent(1, -1), 2), 2), -1)
    t = cohom_expr(e)
    assert t.h0 == 3
    assert t == table(3, 0, 0)
    assert chi_rr(e) == 3


def test_plethysm_serre_duality():
    e = SymPower(SymPower(SymTangent(1, -1), 2), 2)  # S^2 S^2 T(-4)
    dual_twisted = TwistBy(DualOf(e), -3)
    t, s = cohom_expr(e), cohom_expr(dual_twisted)
    assert (t.h0, t.h1, t.h2) == (s.h2, s.h1, s.h0)


def test_serre_duality_for_every_evaluable_shape():
    exprs = [
        LineBundle(2),
        split_sum(-2, 0, 3),
        SymTangent(2, -4),
        EndOf(split_sum(0, 1, 3)),
        SymPower(split_sum(-1, 2), 2),
        TwistBy(SymPower(SymPower(SymTangent(1, -1), 2), 2), -1),
        DualOf(SymTangent(3, 1)),
    ]
    for e in exprs:
        t = cohom_expr(e)
        s = cohom_expr(TwistBy(DualOf(e), -3))
        assert (t.h0, t.h1, t.h2) == (s.h2, s.h1, s.h0)


def test_additivity_of_direct_sums():
    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def run(exps):
        total = cohom_expr(split_sum(*exps))
        parts = [cohom_line(e) for e in exps]
        assert total == table(*(sum(column) for column in zip(*((t.h0, t.h1, t.h2) for t in parts))))

    run()


def test_twist_and_dual_normalization():
    assert normalize(TwistBy(LineBundle(2), -5)) == ((0, -3),)
    assert normalize(DualOf(SymTangent(2, 1))) == ((2, -7),)
    assert normalize(SymPower(SymTangent(1, -1), 3)) == ((3, -3),)
    assert normalize(SymPower(LineBundle(4), 0)) == ((0, 0),)
    assert normalize(SymPower(split_sum(0, 1), 2)) == ((0, 0), (0, 1), (0, 2))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("sym(SymT(2,0),3)", (505, 0, 0)),  # S^6 T + S^2 T(6)
        ("end(SymT(1,0)+O)", (10, 1, 0)),  # S^2 T(-3) + 2 O + T(-3) + T
        ("sym(SymT(1,0)+O,3)", (100, 0, 0)),  # S^3(T + O) = S^3 T + S^2 T + T + O
        ("end(SymT(1,0))", (1, 0, 0)),  # End T = S^2 T(-3) + O: T is simple and rigid
    ],
)
def test_formerly_refused_expressions_evaluate(text, expected):
    e = parse_sheaf_expr(text)
    t = cohom_expr(e)
    assert (t.h0, t.h1, t.h2) == expected
    assert t.chi == chi_rr(e)


def test_unsupported_expressions_name_the_node():
    bad = DirectSum(LineBundle(0), "Q")
    with pytest.raises(UnsupportedExpressionError) as err:
        cohom_expr(bad)
    assert err.value.node == "Q"


@pytest.mark.parametrize(
    "text",
    ["sym(SymT(13,0),13)", "sym(O+O(1)+O(2),2000)", "sym(SymT(40,0),40)", "SymT(63,0)"],
)
def test_size_is_checked_before_any_expansion(text):
    e = parse_sheaf_expr(text)
    for evaluate in (cohom_expr, chi_rr, chern_data):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="too large"):
            evaluate(e)
        assert time.perf_counter() - start < 0.05


def test_sym_of_degree_zero_skips_the_inner_expression():
    e = parse_sheaf_expr("sym(sym(SymT(13,0),13),0)+O(1)")
    start = time.perf_counter()
    assert cohom_expr(e) == table(4, 0, 0)
    assert chi_rr(e) == 4
    assert time.perf_counter() - start < 0.05


# --- Schur functors of T: the normalization rules against independent oracles ---


def _box_partitions_by_enumeration(p, a):
    # a partition of j into at most p parts, each at most a, is a multiset of
    # p values in [0, a] summing to j
    counts = [0] * (p * a + 1)
    for parts in combinations_with_replacement(range(a + 1), p):
        counts[sum(parts)] += 1
    return counts


@pytest.mark.parametrize("p, a", [(p, a) for p in range(0, 6) for a in range(0, 6)])
def test_cayley_sylvester_multiplicities(p, a):
    assert _box_partitions(p, a) == _box_partitions_by_enumeration(p, a)
    atoms = sym_atoms(((a, 0),), p)  # normalize of S^p(S^a T), without its rank cap
    # sum_j m_j (pa - 2j + 1) = rank S^p(S^a) = C(a + p, p)
    assert sum(deg + 1 for deg, _ in atoms) == comb(a + p, p)
    assert all(3 * (p * a - deg) == 2 * b for deg, b in atoms)  # S^(pa-2j) (x) det^j


def _gaussian_binomial_route(a, b, p):
    """S^p(S^a T(b)) from every m_j of [p + a, p]_q, with no one-atom branch."""
    n = _box_partitions(p, a)
    return [
        (p * a - 2 * j, p * b + 3 * j)
        for j in range(p * a // 2 + 1)
        for _ in range(n[j] - (n[j - 1] if j else 0))
    ]


# every (p, a) with p, a < RANK_CAP whose S^p(S^a T) has rank C(p + a, p)
# below the cap; min(p, a) <= 1 takes the one-atom branch
PLETHYSM_SHAPES = [
    (p, a) for p in range(RANK_CAP) for a in range(RANK_CAP) if comb(p + a, p) < RANK_CAP
]


@pytest.mark.parametrize("b", [-7, 0, 5])
def test_plethysm_matches_the_gaussian_binomial_route(b):
    assert any(min(shape) >= 2 for shape in PLETHYSM_SHAPES)
    for p, a in PLETHYSM_SHAPES:
        assert cohom._plethysm(a, b, p) == _gaussian_binomial_route(a, b, p), (p, a)


def _weyl_dimension(l1, l2):
    """dim S_(l1, l2, 0) C^3 by the Weyl dimension formula."""
    return (l1 - l2 + 1) * (l2 + 1) * (l1 + 2) // 2


@pytest.mark.parametrize("l1, l2", [(l1, l2) for l1 in range(0, 9) for l2 in range(0, l1 + 1)])
def test_sections_of_schur_functors_of_the_quotient_bundle(l1, l2):
    # Q = T(-1) is the universal quotient of C^3 (x) O, det Q = O(1), and
    # H^0(S_l Q) = S_l C^3 with S_l Q = S^(l1 - l2) Q (x) det^l2.
    schur = TwistBy(SymPower(SymTangent(1, -1), l1 - l2), l2)
    assert cohom_expr(schur) == table(_weyl_dimension(l1, l2), 0, 0)


@pytest.mark.parametrize("a", range(0, 6))
def test_clebsch_gordan_sections_match_pieri(a):
    # S^a Q (x) S^a Q = sum_j S_(2a - j, j) Q by Pieri, and so does
    # S^a C^3 (x) S^a C^3: h^0 is C(a + 2, 2)^2.  (S^a Q)^v = S^a Q(-a).
    square = TwistBy(EndOf(SymPower(SymTangent(1, -1), a)), a)
    assert cohom_expr(square).h0 == comb(a + 2, 2) ** 2


def _grammar_exprs():
    leaves = st.one_of(
        st.builds(LineBundle, st.integers(-6, 6)),
        st.builds(SymTangent, st.integers(0, 3), st.integers(-8, 4)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(lambda *ps: DirectSum(*ps), inner, inner),
            st.builds(TwistBy, inner, st.integers(-4, 4)),
            st.builds(DualOf, inner),
            st.builds(SymPower, inner, st.integers(0, 4)),
            st.builds(EndOf, inner),
        ),
        max_leaves=4,
    ).filter(lambda e: expr_rank(e) < RANK_CAP)


@given(_grammar_exprs())
@settings(max_examples=150, deadline=None)
def test_tables_agree_with_the_splitting_principle(e):
    # chern_data never sees a plethysm or a Clebsch-Gordan sum
    assert cohom_expr(e).chi == chi_rr(e)
    assert sum(a + 1 for a, _ in normalize(e)) == expr_rank(e) == chern_data(e).rank


def test_chi_rr_matches_tables_where_evaluable():
    exprs = [
        split_sum(0, 1, 2),
        EndOf(split_sum(-1, 0, 2)),
        SymTangent(3, -2),
        TwistBy(SymPower(SymPower(SymTangent(1, -1), 2), 2), -1),
        DualOf(SymTangent(2, 1)),
        SymPower(split_sum(1, 2), 3),
    ]
    for e in exprs:
        assert chi_rr(e) == cohom_expr(e).chi


def test_chern_data_examples():
    t = chern_data(SymTangent(1, 0))
    assert t == ChernData(2, 3, 3) and t.c2 == 3
    s2 = chern_data(SymPower(SymTangent(1, -1), 2))
    assert (s2.rank, s2.c1, s2.c2) == (3, 3, 6)  # S^2(T(-1))
    end = chern_data(EndOf(split_sum(0, 1, 2)))
    assert (end.rank, end.c1) == (9, 0)


@given(_grammar_exprs())
@settings(max_examples=100, deadline=None)
def test_chern_data_and_chi_are_plain_ints(e):
    d = chern_data(e)
    assert all(type(v) is int for v in (d.rank, d.c1, d.ch2x2)), d
    assert type(chi_rr(e)) is int


def test_odd_parity_chern_data_fails_the_integrality_check(monkeypatch):
    # ch2x2 = 2 for c1 = 3 has the wrong parity: c2 would be 7/2
    monkeypatch.setattr(cohom, "_TANGENT", (2, 3, 2))
    with pytest.raises(InvariantViolationError, match="non-integer chi"):
        chi_rr(SymTangent(1, 0))
    # the table takes nothing from the Chern data, so it does not move
    assert cohom_sym_tangent(1, 0) == table(8, 0, 0)


def test_tables_never_call_riemann_roch(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    sections = [
        TwistBy(SymPower(parse_sheaf_expr(text), 3), 3 - BundleSpec.named(name).chern.c1)
        for name, text in _CATALOG_TEXTS
    ]
    assert len(sections) == 6
    monkeypatch.setattr(cohom, "chi_rr", counted(cohom.chi_rr))
    monkeypatch.setattr(cohom, "chern_data", counted(cohom.chern_data))
    monkeypatch.setattr(cohom, "_chern", counted(cohom._chern))
    for e in sections + [parse_sheaf_expr("end(O+O(1)+O(2))")]:
        cohom_expr(e)
    assert calls == []


def test_bott_tables_match_the_euler_resolution():
    # the route the closed form replaced: h^0 along
    # 0 -> S^(a-1)(O(1)^3)(b) -> S^a(O(1)^3)(b) -> S^a T(b) -> 0, h^2 by Serre
    # duality through Omega = T(-3), and chi from Riemann-Roch
    def euler_h0(a, b):
        return comb(a + 2, 2) * h0_line(a + b) - comb(a + 1, 2) * h0_line(a + b - 1)

    for a in range(0, 25):
        for b in range(-80, 81):
            t = cohom_sym_tangent(a, b)
            assert t.h0 == euler_h0(a, b)
            assert t.h2 == euler_h0(a, -3 * a - b - 3)
            assert t.chi == chi_rr(SymTangent(a, b))
            assert (t.h0, t.h1, t.h2).count(0) >= 2, (a, b, t)


def _sym_by_enumeration(d, p):
    # the roots of S^p are the sums m.x over multisets m of size p of the
    # Chern roots x_i; by symmetry only the counts of roots 0 and 1 matter
    if p <= 0:
        return (1, 0, 0)
    rank, c1, ch2x2 = d
    sum_m0 = sq_m0 = m0_m1 = n = 0
    for idx in combinations_with_replacement(range(rank), p):
        n += 1
        m0 = idx.count(0)
        sum_m0 += m0
        sq_m0 += m0 * m0
        m0_m1 += m0 * idx.count(1)
    return (n, sum_m0 * c1, (sq_m0 - m0_m1) * ch2x2 + m0_m1 * c1 * c1)


@given(st.integers(1, 8), st.integers(0, 8), st.integers(), st.integers())
@settings(max_examples=80, deadline=None)
def test_chern_data_sym_matches_multiset_enumeration(rank, p, c1, ch2x2):
    # cohom._sym is the formula chi_rr runs, for SymT and for sym(e, p)
    d = (rank, c1, ch2x2)
    assert cohom._sym(d, p) == _sym_by_enumeration(d, p)


def _tensor(d, e):
    """(rank, c1, ch2x2) of a tensor product: ch(E (x) F) = ch(E) ch(F)."""
    (r, c, x), (s, b, y) = d, e
    return r * s, s * c + r * b, s * x + 2 * c * b + r * y


@given(st.integers(0, 8), st.integers(), st.integers(), st.integers())
@settings(max_examples=80, deadline=None)
def test_closed_form_twist_is_the_tensor_with_a_line(rank, c1, ch2x2, k):
    d = (rank, c1, ch2x2)
    assert cohom._twist(d, k) == _tensor(d, (1, k, k * k))  # O(k) = (1, k, k^2)


@given(_grammar_exprs())
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_the_tensor_product(e):
    rank, c1, ch2x2 = d = cohom._chern(e)
    if rank * rank < RANK_CAP:
        assert cohom._chern(EndOf(e)) == _tensor((rank, -c1, ch2x2), d)  # End E = E^v (x) E
    else:
        with pytest.raises(DomainError, match="too large"):
            cohom._chern(EndOf(e))
    for k in (-3, 1):
        assert cohom._chern(TwistBy(e, k)) == _tensor(d, cohom._chern(LineBundle(k)))


def test_chern_data_of_a_huge_symmetric_power_is_immediate():
    # the closed form is immediate; chern_data refuses the rank at once
    start = time.perf_counter()
    rank, c1, _ = cohom._sym(cohom._chern(SymTangent(1, 0)), 10**6)
    with pytest.raises(DomainError, match="too large"):
        chern_data(SymPower(SymTangent(1, 0), 10**6))
    assert time.perf_counter() - start < 0.05
    assert (rank, c1) == (10**6 + 1, 3 * comb(10**6 + 1, 2))


def test_huge_atom_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="too large"):
        cohom_sym_tangent(10**6, 0)
    assert time.perf_counter() - start < 0.05


def test_direct_calls_outside_the_domain_are_refused():
    with pytest.raises(InvariantViolationError, match="negative cohomology dimension"):
        CohomologyTable(-1, 0, 0)
    with pytest.raises(DomainError, match="must be nonnegative"):
        cohom_sym_tangent(-1, 0)


def test_sym_of_the_empty_sum_is_the_empty_sum_by_both_routes():
    # DirectSum() has rank 0 and no atoms, and so has every S^p of it
    expr = SymPower(DirectSum(), 2)
    assert normalize(expr) == ()
    assert cohom_expr(expr) == table(0, 0, 0)
    assert chi_rr(expr) == 0
    assert sym_atoms([], 0) == [(0, 0)]  # S^0 is O


# 32 sym( around O(N), each level closed by ,N): N is 4,000 nines, and the
# degree of S^p O(k) = O(pk) grows by about 13,300 bits a level
RANK_ONE_NEST = "sym(" * 32 + f"O({'9' * 4000})" + f",{'9' * 4000})" * 32


@pytest.mark.parametrize("walk", [normalize, chi_rr], ids=["normalize", "chi_rr"])
def test_each_walk_refuses_a_rank_one_nest_by_its_degree_at_once(walk):
    expr = parse_sheaf_expr(RANK_ONE_NEST)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"line degree of over {cohom.DEGREE_BITS_CAP} bits"):
        walk(expr)
    assert time.perf_counter() - start < 0.01


def test_the_degree_cap_is_past_what_a_twist_can_cancel():
    n = "9" * 4300  # the longest literal the parser reads
    with pytest.raises(UnknownBundleError, match="is not a catalog id or a rank-3 sheaf expression"):
        BundleSpec.named(RANK_ONE_NEST)
    # a twist by the longest literal cancels a degree of its size
    assert BundleSpec.named(f"twist(sym(O(1),{n}),-{n})+O+O") == BundleSpec.split(0, 0, 0)
    # two levels stay under the cap in both walks; end() sends O(pk) to O,
    # but past the cap the degree under it is refused all the same
    two_levels = parse_sheaf_expr(f"sym(sym(O(1),{n}),{n})")
    assert normalize(two_levels) == ((0, int(n) ** 2),)
    assert chern_data(two_levels).c1 == int(n) ** 2
    three_levels = parse_sheaf_expr(f"end(sym(sym(sym(O(1),{n}),{n}),{n}))")
    for walk in (normalize, chi_rr):
        with pytest.raises(DomainError, match="line degree"):
            walk(three_levels)


def test_only_the_cli_parser_and_the_twist_class_table_are_memoized():
    memoized = set()
    for info in pkgutil.iter_modules(cycone.__path__, "cycone."):
        if info.name == "cycone.__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(info.name)
        for attr, obj in vars(module).items():
            if callable(obj) and hasattr(obj, "cache_info"):
                memoized.add(f"{obj.__module__}.{attr}")
    assert memoized == {"cycone.cli.build_parser", "cycone.report._twist_class"}
    # one entry per twist class a survey within the range cap can meet
    assert cli.MAX_RANGE == cycone.MAX_RANGE
    assert report._twist_class.cache_info().maxsize == comb(cycone.MAX_RANGE + 2, 2) == 91


# --- grammar ---------------------------------------------------------------------


def test_parse_line_bundle_sums():
    assert parse_sheaf_expr("O") == LineBundle(0)
    assert parse_sheaf_expr("O(-2)") == LineBundle(-2)
    e = parse_sheaf_expr("O+O(1)+O(2)")
    assert normalize(e) == ((0, 0), (0, 1), (0, 2))
    e = parse_sheaf_expr("2O+O(3)")
    assert normalize(e) == ((0, 0), (0, 0), (0, 3))
    e = parse_sheaf_expr("2O(-3) + 5O + 2O(3)")
    assert normalize(e) == ((0, -3),) * 2 + ((0, 0),) * 5 + ((0, 3),) * 2


def test_parse_operators():
    assert parse_sheaf_expr("SymT(2,-1)") == SymTangent(2, -1)
    assert parse_sheaf_expr("twist(O(1),3)") == TwistBy(LineBundle(1), 3)
    assert parse_sheaf_expr("sym(SymT(1,-1),2)") == SymPower(SymTangent(1, -1), 2)
    assert parse_sheaf_expr("end(O+O(3))") == EndOf(DirectSum(LineBundle(0), LineBundle(3)))
    assert parse_sheaf_expr("dual(SymT(1,0))") == DualOf(SymTangent(1, 0))
    nested = parse_sheaf_expr("twist(sym(sym(SymT(1,-1),2),2),-1)")
    assert cohom_expr(nested).h0 == 3


@pytest.mark.parametrize("text", ["", "O(", "Q(3)", "O(3))", "sym(O,)", "O(1)+", "0O"])
def test_parse_rejects_malformed(text):
    with pytest.raises(DomainError):
        parse_sheaf_expr(text)


@pytest.mark.parametrize(
    "text",
    [
        "O(1)+" * 500 + "@",  # bad character
        "O(1)+" * 500 + "Q",  # unknown symbol
        "O(1)+" * 500 + "O)",  # trailing input
        "O(1)+" * 500 + "O(x)",  # expected an integer
        "O(1)+" * 500 + "O(1",  # expected a token
        "O(1)+" * 500 + "O(" + "1" * 5000 + ")",  # literal too long for int
    ],
)
def test_parse_errors_echo_the_input_in_short(text):
    with pytest.raises(DomainError) as info:
        parse_sheaf_expr(text)
    assert len(str(info.value)) < 200


# The exact DomainError text of each way a parse can fail.  A message names
# the token or character and where it stands; the CLI quotes it verbatim.
PARSE_ERRORS = [
    ("O(1)+@", "bad character '@' at character 5"),
    ("  O(1) +\t#", "bad character '#' at character 9"),
    ("O(1)+ \xa0 $", "bad character '$' at character 8"),
    ("\x1c?", "bad character '?' at character 1"),
    ("O(²)", "bad character '²' at character 2"),
    ("SymT(٣,²)", "bad character '²' at character 7"),
    ("O(1)\u200b", "bad character '\\u200b' at character 4"),
    ("", "expected more input at token 0"),
    ("  \t\n", "expected more input at token 0"),
    ("O(", "expected more input at token 2"),
    ("O(1)+", "expected more input at token 5"),
    ("2*", "expected more input at token 2"),
    ("O(-", "expected more input at token 3"),
    ("65O(", "expected more input at token 3"),
    ("O(1", "expected ')' at token 3"),
    ("SymT1", "expected '(' at token 1"),
    ("end O", "expected '(' at token 1"),
    ("SymT(1 2)", "expected ',' at token 3"),
    ("twist(O,1", "expected ')' at token 5"),
    ("dual(O,1)", "expected ')' at token 3"),
    ("O(3))", "trailing input at token 4"),
    ("O(1) O(2)", "trailing input at token 4"),
    ("sym(O(1)+O,2)3", "trailing input at token 11"),
    ("Q(3)", "unknown symbol 'Q' at token 0"),
    ("o", "unknown symbol 'o' at token 0"),
    ("3 4 O", "unknown symbol '4' at token 1"),
    ("dual(" * 32 + "x", "unknown symbol 'x' at token 64"),
    ("O(x)", "expected an integer at token 2, got 'x'"),
    ("sym(O,)", "expected an integer at token 4, got ')'"),
    ("O(-)", "expected an integer at token 3, got ')'"),
    ("0*O(x)", "expected an integer at token 4, got 'x'"),
    ("O(" + "1" * 5000 + ")", "integer literal of 5000 digits is too long to read"),
    ("O(1)+" + "9" * 4301 + "O", "integer literal of 4301 digits is too long to read"),
    ("0O", "multiplicity must lie in [1, 64]"),
    ("65*O", "multiplicity must lie in [1, 64]"),
    ("9" * 30 + "*O", "multiplicity must lie in [1, 64]"),
    ("dual(" * 33 + "O" + ")" * 33, "expression nested deeper than 32 levels"),
    ("dual(" * 33 + "O", "expression nested deeper than 32 levels"),
    ("SymT(-1,0)", "symmetric power degree must be nonnegative"),
    ("SymT(1,0", "expected ')' at token 5"),
    ("twist(O 1)", "expected ',' at token 3"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS, ids=range(len(PARSE_ERRORS)))
def test_parse_error_messages(text, message):
    with pytest.raises(DomainError) as info:
        parse_sheaf_expr(text)
    assert str(info.value) == message


# Whitespace is whatever str.isspace() calls whitespace, \xa0 and \x1c among
# it, and a digit is any Unicode decimal digit; '²' is neither.
PARSE_TREES = [
    ("O(٣)", LineBundle(3)),
    ("O(12٣)", LineBundle(123)),
    ("٣O", DirectSum(LineBundle(0), LineBundle(0), LineBundle(0))),
    ("O(1)\x1c+O", DirectSum(LineBundle(1), LineBundle(0))),
    ("O(1)\xa0+ O(2)\u2003", DirectSum(LineBundle(1), LineBundle(2))),
    ("O\t(\n-2 )", LineBundle(-2)),
    ("O(- 2)", LineBundle(-2)),
    (" sym ( O + O(1) , 2 ) ", SymPower(DirectSum(LineBundle(0), LineBundle(1)), 2)),
    ("2 * O(1)\t+\tSymT( 1 , -1 )", DirectSum(DirectSum(LineBundle(1), LineBundle(1)), SymTangent(1, -1))),
]


@pytest.mark.parametrize("text, tree", PARSE_TREES, ids=range(len(PARSE_TREES)))
def test_parse_whitespace_and_unicode_digits(text, tree):
    assert parse_sheaf_expr(text) == tree


_SPACES = ("", " ", "\t", "\n", "\xa0", "\x1c", "\u2003")


def _render(e) -> list:
    """The tokens of ``e``; a sum inside a sum renders as its parts."""

    def integer(k):
        return ["-", str(-k)] if k < 0 else [str(k)]

    if isinstance(e, LineBundle):
        return ["O"] if e.k == 0 else ["O", "(", *integer(e.k), ")"]
    if isinstance(e, SymTangent):
        return ["SymT", "(", *integer(e.a), ",", *integer(e.b), ")"]
    if isinstance(e, DirectSum):
        tokens = _render(e.parts[0])
        for p in e.parts[1:]:
            tokens += ["+", *_render(p)]
        return tokens
    if isinstance(e, (TwistBy, SymPower)):
        name, k = ("twist", e.k) if isinstance(e, TwistBy) else ("sym", e.p)
        return [name, "(", *_render(e.expr), ",", *integer(k), ")"]
    return ["end" if isinstance(e, EndOf) else "dual", "(", *_render(e.expr), ")"]


def _flat_sums(e):
    """``e`` with each sum inside a sum replaced by its parts, as text reads."""
    if isinstance(e, DirectSum):
        parts = [_flat_sums(p) for p in e.parts]
        return DirectSum(*[q for p in parts for q in (p.parts if isinstance(p, DirectSum) else [p])])
    if isinstance(e, (TwistBy, SymPower, EndOf, DualOf)):
        return e._replace(expr=_flat_sums(e.expr))
    return e


@given(_grammar_exprs(), st.data())
@settings(max_examples=150, deadline=None)
def test_parse_round_trips_rendered_trees(e, data):
    tokens = _render(e)
    spaces = data.draw(st.lists(st.sampled_from(_SPACES), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = spaces[0] + "".join(t + w for t, w in zip(tokens, spaces[1:]))
    assert parse_sheaf_expr(text) == _flat_sums(e)


def test_parse_caps_nesting_depth():
    deep = "dual(" * 3000 + "O" + ")" * 3000
    with pytest.raises(DomainError, match="nested deeper"):
        parse_sheaf_expr(deep)
    at_cap = "twist(" * MAX_EXPR_DEPTH + "O(1)" + ",1)" * MAX_EXPR_DEPTH
    assert cohom_expr(parse_sheaf_expr(at_cap)) == cohom_line(1 + MAX_EXPR_DEPTH)
    with pytest.raises(DomainError, match="nested deeper"):
        parse_sheaf_expr("end(" + at_cap + ")")


def test_sym_tangent_rejects_negative_degree():
    with pytest.raises(DomainError):
        SymTangent(-1, 0)


@pytest.mark.parametrize(
    "text",
    [
        "O(4)",
        "SymT(3,-2)",
        "O+O(1)+O(2)",
        "3*O(-1)+SymT(2,1)",
        "twist(dual(SymT(2,0)),5)",
        "end(O+O(3)+SymT(1,0))",
        "sym(O+O(1)+O(2),0)",
        "sym(O(1)+O(2),5)",
        "sym(O+O(1)+O(2),3)",
        "sym(sym(SymT(1,0),2),2)",
        "end(sym(O+O(1),3))",
    ],
)
def test_expr_rank_matches_chern_data(text):
    # below the cap, both walks give the rank the reference reads off the tree
    expr = parse_sheaf_expr(text)
    assert expr_rank(expr) == chern_data(expr).rank == sum(a + 1 for a, _ in normalize(expr))


def test_expr_rank_saturates_without_expanding():
    # where the reference saturates, every walk refuses at once
    for text in (
        "sym(O+O(1)+O(2),2000)",
        "sym(sym(O+O(1)+O(2),1000),1000)",
        "end(end(end(SymT(100,0))))",
        "sym(SymT(1,0)," + "9" * 400 + ")",
        "sym(sym(O+O(1),1000)," + "9" * 400 + ")",
    ):
        expr = parse_sheaf_expr(text)
        assert expr_rank(expr) == RANK_CAP
        for evaluate in (cohom_expr, chi_rr, chern_data):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="too large"):
                evaluate(expr)
            assert time.perf_counter() - start < 0.05
    for text, expected in (
        ("sym(O(1),1000000)", table(500001500001, 0, 0)),
        ("sym(end(SymT(40,0)),0)", table(1, 0, 0)),
    ):
        expr = parse_sheaf_expr(text)
        assert expr_rank(expr) == chern_data(expr).rank == 1
        assert cohom_expr(expr) == expected
        assert chi_rr(expr) == expected.chi


def _capped_exprs():
    # trees whose rank runs from 1 to far past the cap, many of them near it
    leaves = st.one_of(
        st.builds(LineBundle, st.integers(-3, 3)),
        st.builds(SymTangent, st.integers(0, 70), st.integers(-3, 3)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(lambda *ps: DirectSum(*ps), *[inner] * 3),
            st.builds(lambda ps: DirectSum(*ps), st.lists(inner, min_size=1, max_size=9)),
            st.builds(TwistBy, inner, st.integers(-4, 4)),
            st.builds(DualOf, inner),
            st.builds(SymPower, inner, st.integers(-1, 70)),
            st.builds(EndOf, inner),
        ),
        max_leaves=12,
    )


@pytest.mark.parametrize(
    "expr",
    [
        SymTangent(62, 0),
        SymTangent(63, 0),
        EndOf(split_sum(*range(7))),
        EndOf(split_sum(*range(8))),
        SymPower(split_sum(0, 1), 62),
        SymPower(split_sum(0, 1), 63),
        SymPower(split_sum(0, 1), 64),
        split_sum(*range(63)),
        split_sum(*range(64)),
        SymPower(EndOf(split_sum(*range(8))), 0),
        SymPower(LineBundle(2), 10**6),
    ],
)
def test_walks_refuse_at_the_cap_on_the_boundary(expr):
    _refused_exactly_at_the_cap(expr)


@given(_capped_exprs())
@settings(max_examples=300, deadline=None)
def test_walks_refuse_exactly_where_the_reference_saturates(e):
    _refused_exactly_at_the_cap(e)


def _refused_exactly_at_the_cap(e):
    if expr_rank(e) == RANK_CAP:
        for evaluate in (cohom_expr, chi_rr, chern_data):
            with pytest.raises(DomainError, match="too large"):
                evaluate(e)
    else:
        assert cohom_expr(e).chi == chi_rr(e)
        assert chern_data(e).rank == expr_rank(e)


def test_an_over_cap_part_before_an_unknown_node_decides_the_error():
    # each walk checks a node once its parts are walked, so the first
    # offender in walk order decides the error
    for evaluate in (cohom_expr, chi_rr, chern_data, normalize):
        with pytest.raises(DomainError, match="too large") as err:
            evaluate(DirectSum(SymTangent(100, 0), "Q"))
        assert type(err.value) is DomainError
        with pytest.raises(UnsupportedExpressionError) as err:
            evaluate(DirectSum("Q", SymTangent(100, 0)))
        assert err.value.node == "Q"


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=4), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_sym_of_a_line_sum_is_its_multisets_in_recursion_order(degrees, p):
    lines = split_sum(*degrees)
    expr = SymPower(lines, p)
    if comb(len(degrees) + p - 1, p) >= RANK_CAP:
        with pytest.raises(DomainError, match="too large"):
            normalize(expr)
        return
    assert normalize(expr) == tuple(sym_atoms(normalize(lines), p))

"""Bundle specs, the named catalog, and anticanonical section counts."""

import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb

import pytest

from cycone.bundles import (
    _CATALOG_TEXTS,
    CATALOG,
    UNIFORM_012_NAMES,
    BundleSpec,
    _splitting_type,
    catalog_entries,
    h0_anticanonical,
)
from cycone.chow import ChernPair
from cycone.cohom import (
    DirectSum,
    LineBundle,
    SymPower,
    SymTangent,
    TwistBy,
    chern_data,
    cohom_atoms,
    cohom_expr,
    h0_line,
    parse_sheaf_expr,
    sym_atoms,
)
from cycone.errors import MAX_SPEC_VALUE, DomainError, UnknownBundleError
from cycone.report import build_report
from test_cohom import expr_rank


def test_split_spec_sorts_and_derives_chern():
    spec = BundleSpec.split(2, 0, 1)
    assert spec.exponents == (0, 1, 2)
    assert spec.chern == ChernPair(3, 2)
    assert spec.splitting_type == (0, 1, 2)
    assert spec.gamma == 3
    assert spec.atoms == ((0, 0), (0, 1), (0, 2))


def test_chern_only_spec():
    spec = BundleSpec.chern_only(3, 12)
    assert spec.gamma == -27
    assert spec.splitting_type is None
    assert spec.atoms is None and spec.exponents is None


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda: BundleSpec.split(0, 0, MAX_SPEC_VALUE + 1), "--split"),
        (lambda: BundleSpec.chern_only(-MAX_SPEC_VALUE - 1, 0), "--chern"),
        (lambda: BundleSpec.named("SymT(1,10000)+O"), "--named splitting-type"),
        (lambda: BundleSpec.named("O(-10001)+O+O"), "--named splitting-type"),
        (lambda: BundleSpec.chern_only(3, 6).twist(MAX_SPEC_VALUE + 1), "--twist"),
    ],
    ids=["split", "chern", "named", "named-split", "twist"],
)
def test_spec_constructors_refuse_values_past_the_bound(build, label):
    with pytest.raises(DomainError, match=f"^{label} value .* is outside"):
        build()


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda: BundleSpec.chern_only(1e300, 0), "--chern"),
        (lambda: BundleSpec.chern_only(float("nan"), 0), "--chern"),
        (lambda: BundleSpec.chern_only(1.5, 2), "--chern"),
        (lambda: BundleSpec.chern_only(3, Fraction(2)), "--chern"),
        (lambda: BundleSpec.split(0.0, 1, 2), "--split"),
        (lambda: BundleSpec.split(0, 1, 2).twist(1.0), "--twist"),
    ],
    ids=["chern-huge-float", "chern-nan", "chern-float", "chern-fraction", "split-float", "twist-float"],
)
def test_spec_constructors_refuse_non_integer_values(build, label):
    # a whole float is refused too: the engine would take it for a broken invariant
    with pytest.raises(DomainError, match=f"^{label} value of type .* is not an integer"):
        build()


def test_library_refuses_an_unbounded_spec_before_analysis():
    # 4 c2 - 9 is prime here: analyzed, it would be factored by trial division
    start = time.perf_counter()
    with pytest.raises(DomainError, match="outside"):
        build_report(BundleSpec.chern_only(3, 100000000000018))
    assert time.perf_counter() - start < 0.05


def test_named_catalog_lookup():
    spec = BundleSpec.named("TP3restP2")
    assert spec.chern == ChernPair(4, 6)
    assert spec.splitting_type == (1, 1, 2)
    s2 = BundleSpec.named("S2TP2(-1)")
    assert s2.chern == ChernPair(3, 6)
    assert s2.gamma == -9


def test_catalog_ids_are_not_parsed_again(monkeypatch):
    import cycone.cohom as cohom

    calls = []
    for fn in ("parse_sheaf_expr", "normalize", "chern_data"):
        monkeypatch.setattr(cohom, fn, lambda *args, fn=fn: calls.append(fn))
    for name in CATALOG:
        for t in range(-3, 4):
            assert BundleSpec.named(name).twist(t).name == name
    assert calls == []
    assert BundleSpec.named("TP2+O") is CATALOG["TP2+O"]


# Each id's expression spelled another way, which is not an id: the
# expression path must build the same bundle.
RESPELLED = {
    "O+O(1)+O(2)": "O(2) + O(1) + O",
    "2O+O(3)": "O + O(3) + O",
    "TP2+O": " SymT(1,0) + O",
    "TP2(-1)+O(2)": "O(2) + twist(SymT(1,0), -1)",
    "S2TP2(-1)": "sym(SymT(1, -1), 2)",
    "TP3restP2": "O(1) + SymT(1,0)",
}


@pytest.mark.parametrize("name", sorted(RESPELLED))
def test_catalog_specs_agree_with_the_expression_path(name):
    spec, other = BundleSpec.named(name), BundleSpec.named(RESPELLED[name])
    assert other.name != name
    for a, b in ((spec, other), (spec.twist(2), other.twist(2))):
        assert (a.atoms, a.chern, a.splitting_type, a.exponents) == (
            b.atoms, b.chern, b.splitting_type, b.exponents
        )


def test_named_line_bundle_sums_parse_as_split():
    spec = BundleSpec.named("O+O(1)+O(2)")
    assert spec.exponents == (0, 1, 2)
    spec = BundleSpec.named("O(-1)+2O(1)")
    assert spec.exponents == (-1, 1, 1)
    spec = BundleSpec.named("sym(O(1),2)+dual(O(1))+sym(end(SymT(4,0)),0)")
    assert spec.exponents == (-1, 0, 2)


def test_named_rejects_unknown_and_wrong_rank():
    with pytest.raises(UnknownBundleError):
        BundleSpec.named("mystery")
    with pytest.raises(UnknownBundleError):
        BundleSpec.named("O+O(1)")  # rank 2
    with pytest.raises(UnknownBundleError, match="rank-3 sheaf expression"):
        BundleSpec.named("SymT(1,0)")  # rank 2
    spec = BundleSpec.named("SymT(1,0)+O")  # T + O, the catalog's TP2+O
    assert (spec.kind, spec.name) == ("named", "SymT(1,0)+O")
    assert (spec.chern, spec.splitting_type, spec.exponents) == (ChernPair(3, 3), (0, 1, 2), None)
    # a non-catalog expression is named by its atoms, largest a first
    assert BundleSpec.named("sym(SymT(1,-1),2)").name == "SymT(2,-2)"  # S2TP2(-1)


def test_catalog_gamma_values():
    expected = {
        "O+O(1)+O(2)": 3,
        "TP2+O": 0,
        "TP2(-1)+O(2)": 0,
        "S2TP2(-1)": -9,
        "2O+O(3)": 9,
        "TP3restP2": -2,
    }
    for name, g in expected.items():
        assert BundleSpec.named(name).gamma == g
    assert [BundleSpec.named(n).gamma for n in UNIFORM_012_NAMES] == [3, 0, 0, -9]
    assert sorted(CATALOG) == sorted(expected)


def test_catalog_entries_sorted():
    specs = catalog_entries()
    names = [spec.name for spec in specs]
    assert names == sorted(names) == [name for name, _ in _CATALOG_TEXTS]
    assert all(spec is BundleSpec.named(spec.name) for spec in specs)


def test_twist_moves_chern_and_type_only():
    spec = BundleSpec.split(0, 1, 2)
    up = spec.twist(2)
    assert up.exponents == (2, 3, 4)
    assert up.chern == ChernPair(9, 26)
    assert up.gamma == spec.gamma
    named = BundleSpec.named("TP2+O").twist(-1)
    assert named.chern == ChernPair(0, 0)  # T(-1) + O(-1)
    assert named.splitting_type == (-1, 0, 1)
    assert named.gamma == 0
    assert named.twist(1).chern == ChernPair(3, 3)


def test_h0_anticanonical_split_012():
    res = h0_anticanonical(BundleSpec.split(0, 1, 2))
    assert (res.value, res.gt1, res.reason) == (115, True, "exact")


def test_h0_anticanonical_split_oracle():
    # brute-force oracle: sum h^0 over all degree-3 exponent multisets
    for exps in [(0, 0, 3), (-1, 0, 2), (1, 1, 1), (-2, 1, 3)]:
        spec = BundleSpec.split(*exps)
        t = 3 - spec.chern.c1
        expected = sum(
            h0_line(sum(triple) + t)
            for triple in combinations_with_replacement(exps, 3)
        )
        assert h0_anticanonical(spec).value == expected


def test_h0_anticanonical_catalog_values():
    assert h0_anticanonical(BundleSpec.named("TP2+O")).value == 100
    assert h0_anticanonical(BundleSpec.named("TP2(-1)+O(2)")).value == 100
    assert h0_anticanonical(BundleSpec.named("TP3restP2")).value == 90
    assert h0_anticanonical(BundleSpec.named("2O+O(3)")).value == 145


def test_h0_anticanonical_s2tp2_is_exact():
    # S^3(S^2 T(-1)) = S^6 T(-6) + S^2 T: 28 + 27 sections
    res = h0_anticanonical(BundleSpec.named("S2TP2(-1)"))
    assert (res.value, res.gt1, res.reason) == (55, True, "exact")


# Hand expansions of S^3 E (3 - c1), kept as fixtures independent of the
# Cayley-Sylvester and Clebsch-Gordan rules.
HAND_SECTIONS = {
    # S^3(T + O) = S^3 T + S^2 T + T + O
    "TP2+O": DirectSum(SymTangent(3, 0), SymTangent(2, 0), SymTangent(1, 0), LineBundle(0)),
    # S^3(T(-1) + O(2)) = S^3 T(-3) + S^2 T(0) + T(3) + O(6)
    "TP2(-1)+O(2)": DirectSum(SymTangent(3, -3), SymTangent(2, 0), SymTangent(1, 3), LineBundle(6)),
}


@pytest.mark.parametrize("name", sorted(HAND_SECTIONS))
def test_h0_anticanonical_matches_hand_expansion(name):
    expected = cohom_expr(HAND_SECTIONS[name]).h0
    assert expected == 100
    assert h0_anticanonical(BundleSpec.named(name)).value == expected


def test_h0_anticanonical_matches_euler_restriction():
    # S^3 of 0 -> O -> O(1)^4 -> T_P3|P2 -> 0 twisted by 3 - c1 = -1: the sub
    # has no h^1, so h^0 is a difference of line-bundle terms.
    expected = comb(6, 3) * h0_line(2) - comb(5, 3) * h0_line(1)
    assert expected == 90
    assert h0_anticanonical(BundleSpec.named("TP3restP2")).value == expected


# Hand-typed catalog data: (c1, c2), the splitting type on lines and, for
# the split ids, the exponents.  The spec reads all three off the id's
# sheaf expression, so these are a second route.
HAND_TYPED = {
    "O+O(1)+O(2)": ((3, 2), (0, 1, 2), (0, 1, 2)),
    "2O+O(3)": ((3, 0), (0, 0, 3), (0, 0, 3)),
    "TP2+O": ((3, 3), (0, 1, 2), None),
    "TP2(-1)+O(2)": ((3, 3), (0, 1, 2), None),
    "S2TP2(-1)": ((3, 6), (0, 1, 2), None),
    "TP3restP2": ((4, 6), (1, 1, 2), None),
}


@pytest.mark.parametrize("name, text", _CATALOG_TEXTS, ids=[name for name, _ in _CATALOG_TEXTS])
def test_catalog_expressions_match_the_hand_typed_chern_pairs(name, text):
    pair, stype, exponents = HAND_TYPED[name]
    expr = parse_sheaf_expr(text)
    data = chern_data(expr)
    assert (data.rank, data.c1, data.c2) == (3, *pair)
    assert expr_rank(expr) == 3
    spec = BundleSpec.named(name)
    assert (spec.kind, spec.name) == ("named", name)
    assert (spec.chern, spec.splitting_type, spec.exponents) == (ChernPair(*pair), stype, exponents)


@pytest.mark.parametrize(
    "text, atoms, stype",
    [
        ("SymT(2,0)", ((2, 0),), (2, 3, 4)),
        ("sym(SymT(1,-1),2)", ((2, -2),), (0, 1, 2)),
        ("dual(SymT(1,0))+O(2)", ((0, 2), (1, -3)), (-2, -1, 2)),
        ("twist(SymT(1,0)+O,-1)", ((0, -1), (1, -1)), (-1, 0, 1)),
    ],
)
def test_splitting_type_is_read_off_the_atoms(text, atoms, stype):
    # S^a T(b) restricts to a line as O(a+b) + ... + O(2a+b), since T|L = O(1) + O(2)
    spec = BundleSpec.named(text)
    assert (spec.atoms, spec.splitting_type, spec.exponents) == (atoms, stype, None)
    assert spec.twist(3).splitting_type == tuple(e + 3 for e in stype)
    assert spec.twist(3).atoms == tuple((a, b + 3) for a, b in atoms)


def test_split_h0_path_matches_cohomology():
    # h^0(-K_Z) of a sum of lines takes the multiset sum; cohom_expr on the
    # same S^3 E (3 - c1) is the other path
    for exps in combinations_with_replacement(range(-3, 4), 3):
        spec = BundleSpec.split(*exps)
        e = DirectSum(*[LineBundle(k) for k in spec.exponents])
        sections = TwistBy(SymPower(e, 3), 3 - spec.chern.c1)
        assert h0_anticanonical(spec).value == cohom_expr(sections).h0, exps


def test_split_h0_binomials_match_the_atom_route():
    # the ten binomials of a split spec against S^3 of its atoms by Bott's theorem
    for exps in product(range(-6, 7), repeat=3):
        for t in range(-3, 4):
            spec = BundleSpec.split(*exps).twist(t)
            shift = 3 - spec.chern.c1
            atom_route = cohom_atoms([(a, b + shift) for a, b in sym_atoms(spec.atoms, 3)]).h0
            assert h0_anticanonical(spec).value == atom_route, (exps, t)


def test_split_spec_holds_facts_consistent_with_its_atoms():
    for exps in product(range(-6, 7), repeat=3):
        for t in range(-3, 4):
            spec = BundleSpec.split(*exps).twist(t)
            shifted = tuple(sorted(e + t for e in exps))
            assert spec.exponents == spec.splitting_type == _splitting_type(spec.atoms) == shifted
    for exps in [(2, 0, 1), (-6, 6, 0), (3, 3, -1)]:
        specs = {BundleSpec.split(*p) for p in permutations(exps)}
        assert len(specs) == 1
        assert len({hash(BundleSpec.split(*p).twist(2)) for p in permutations(exps)}) == 1
    # the stored facts are left out of repr, as of == and hash
    assert repr(BundleSpec.split(2, 0, 1)) == (
        "BundleSpec(kind='split', chern=ChernPair(c1=3, c2=2), atoms=((0, 0), (0, 1), (0, 2)),"
        " name=None, twist_applied=0)"
    )


def test_named_and_chern_only_specs_keep_their_facts():
    for name in ("O+O(1)+O(2)", "TP2+O"):
        assert BundleSpec.named(name).splitting_type == (0, 1, 2)
    assert BundleSpec.named("O+O(1)+O(2)").exponents == (0, 1, 2)
    assert BundleSpec.named("TP2+O").exponents is None
    for name in CATALOG:
        for t in range(-3, 4):
            spec = BundleSpec.named(name).twist(t)
            assert spec.splitting_type == _splitting_type(spec.atoms), (name, t)
            lines = all(a == 0 for a, _ in spec.atoms)
            assert spec.exponents == (spec.splitting_type if lines else None), (name, t)
    chern = BundleSpec.chern_only(3, 2).twist(1)
    assert (chern.atoms, chern.exponents, chern.splitting_type) == (None, None, None)


def test_h0_anticanonical_chern_only():
    assert h0_anticanonical(BundleSpec.chern_only(3, 2)).gt1 is True
    deep = h0_anticanonical(BundleSpec.chern_only(1, 7))  # gamma = -20
    assert (deep.value, deep.gt1) == (None, None)
    assert deep.reason == "open-below-gamma-minus-18"


def test_h0_anticanonical_twist_invariant():
    for t in (-2, -1, 1, 2):
        assert h0_anticanonical(BundleSpec.named("TP2+O").twist(t)).value == 100
        assert h0_anticanonical(BundleSpec.split(0, 0, 3).twist(t)).value == 145


def test_describe():
    assert BundleSpec.split(0, 1, 2).describe() == "O(0)+O(1)+O(2)"
    assert BundleSpec.named("TP2+O").describe() == "TP2+O"
    assert "O(2)" in BundleSpec.named("TP2+O").twist(2).describe()
    assert BundleSpec.chern_only(3, 12).describe() == "chern (3, 12)"

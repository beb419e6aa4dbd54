"""The records of the engine: immutable named tuples with the checks, the
equality and the reprs their users rely on."""

import copy
import pickle

import pytest

from cycone import bundles, chow, cohom, cone, invariants, report
from cycone.bundles import BundleSpec
from cycone.cohom import (
    CohomologyTable,
    DirectSum,
    DualOf,
    EndOf,
    LineBundle,
    SymPower,
    SymTangent,
    TwistBy,
    parse_sheaf_expr,
)
from cycone.cone import RATIONAL, MinusKStatus, RationalityResult
from cycone.errors import DomainError, InvariantViolationError


def _instances():
    """One instance of each of the 23 record types, by type name."""
    spec = BundleSpec.named("SymT(2,0)")  # nef, big, not ample: an exceptional candidate
    rep = report.build_report(spec)
    expr = parse_sheaf_expr("end(twist(sym(SymT(1,0)+O(1),2),1))+dual(O(2))")
    nodes = [expr, expr.parts[0], expr.parts[0].expr, expr.parts[0].expr.expr]
    nodes += [expr.parts[1], expr.parts[1].expr, nodes[-1].expr.parts[0]]
    found = [rep, *rep, spec.chern, rep.restriction.surface, *nodes]
    found += [chow.gram_matrix(spec.chern), cohom.chern_data(expr), cohom.cohom_expr(expr),
              cone.rationality_verdict(rep.h0_minus_k)]
    return {type(x).__name__: x for x in found if hasattr(x, "_fields")}


RECORDS = _instances()


def test_every_record_type_is_covered():
    modules = (chow, cohom, bundles, invariants, cone, report)
    defined = {
        name for m in modules for name, obj in vars(m).items()
        if isinstance(obj, type) and obj.__module__ == m.__name__ and hasattr(obj, "_fields")
    }
    assert len(defined) == 23
    assert set(RECORDS) == defined


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    # a subclass that forgot ``__slots__ = ()`` would take a new attribute
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert getattr(record, record._fields[0]) is record[0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_survive_copy_and_pickle(name):
    record = RECORDS[name]
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert record._replace() == record


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SymTangent(-1, 0), DomainError, "symmetric power degree must be nonnegative"),
        (lambda: SymTangent(1, 0)._replace(a=-1), DomainError, "symmetric power degree must be nonnegative"),
        (
            lambda: CohomologyTable(1, -1, 0),
            InvariantViolationError,
            "negative cohomology dimension: CohomologyTable(h0=1, h1=-1, h2=0)",
        ),
        (
            lambda: CohomologyTable(1, 0, 0)._replace(h2=-2),
            InvariantViolationError,
            "negative cohomology dimension: CohomologyTable(h0=1, h1=0, h2=-2)",
        ),
        (lambda: MinusKStatus(False, True, None), DomainError, "ample implies nef"),
        (lambda: MinusKStatus(True, True, None)._replace(nef=False), DomainError, "ample implies nef"),
        (lambda: RationalityResult(RATIONAL, ()), DomainError, "a Rational verdict needs a nonempty trail"),
        (
            lambda: RationalityResult("Unknown", ())._replace(verdict=RATIONAL),
            DomainError,
            "a Rational verdict needs a nonempty trail",
        ),
    ],
    ids=[
        "symt", "symt-replace", "table", "table-replace",
        "minus-k", "minus-k-replace", "verdict", "verdict-replace",
    ],
)
def test_construction_checks_run_on_every_route(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_nodes_compare_by_type_as_well_as_value():
    x = LineBundle(0)
    assert TwistBy(x, 2) != SymPower(x, 2)
    assert not TwistBy(x, 2) == SymPower(x, 2)
    assert EndOf(x) != DualOf(x)
    assert DualOf(EndOf(x)) != DualOf(DualOf(x))
    assert x != (0,) and not x == (0,)
    assert DirectSum(x, x) == DirectSum(LineBundle(0), LineBundle(0))
    assert hash(TwistBy(x, 2)) == hash(TwistBy(LineBundle(0), 2))
    assert DirectSum(x, SymTangent(1, 2)).parts == (x, SymTangent(1, 2))
    assert len({TwistBy(x, 2), SymPower(x, 2), TwistBy(x, 2)}) == 2


def test_bundle_spec_equality_ignores_the_stored_facts():
    spec = BundleSpec.split(0, 1, 2)
    other = spec._replace(splitting_type=(9, 9, 9))
    assert other == spec and not other != spec
    assert hash(other) == hash(spec)
    assert repr(other) == repr(spec)
    assert spec != spec._replace(twist_applied=1)
    assert spec != tuple(spec)

"""The survey evaluates each twist class once and prints what the per-triple route prints."""

import contextlib
import io
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycone import chow, cli, cone, report
from cycone.chow import ChernPair
from cycone.report import survey_row, survey_rows

FILTERS = [
    [],
    ["nef"],
    ["ample"],
    ["big"],
    ["tab"],
    ["c1=3"],
    ["c2=2"],
    ["gamma=3"],
    ["nef", "tab"],
]


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue()


def _per_triple(types):
    return [survey_row(t) for t in types]


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["tsv", "json"])
@pytest.mark.parametrize("filters", FILTERS, ids=lambda f: "+".join(f) or "none")
@pytest.mark.parametrize("emin, emax", [(-6, 6), (-8, 4)])
def test_class_memo_prints_what_per_triple_rows_print(emin, emax, filters, fmt, monkeypatch):
    argv = ["survey", "--emin", str(emin), "--emax", str(emax), *fmt]
    for f in filters:
        argv += ["--filter", f]
    memo = run_main(argv)
    monkeypatch.setattr(report, "survey_rows", _per_triple)
    reference = run_main(argv)
    assert memo == reference
    assert memo.count("\n") >= 1 + (not fmt)  # every filter keeps at least one row


def test_survey_rows_matches_survey_row_in_any_order():
    types = [(2, 0, 1), (5, 3, 4), (-1, -1, 7), (0, 0, 8), (0, 1, 2)]
    assert survey_rows(types) == [survey_row(t) for t in types]


@settings(max_examples=60)
@given(
    st.tuples(*[st.integers(min_value=-8, max_value=8)] * 3).map(sorted),
    st.integers(min_value=-10, max_value=10),
)
def test_survey_row_facts_are_twist_invariant(exponents, t):
    row = survey_row(tuple(exponents))
    twisted = survey_row(tuple(e + t for e in exponents))
    facts = ("nef", "ample", "big", "rho", "verdict")
    assert [getattr(twisted, f) for f in facts] == [getattr(row, f) for f in facts]
    c = ChernPair(row.c1, row.c2).twist(t)
    assert (twisted.c1, twisted.c2, twisted.gamma) == (c.c1, c.c2, row.gamma)


def test_survey_evaluates_each_class_once_and_multiplies_nothing(monkeypatch):
    calls = {"anticanonical_status": 0, "mul": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        cone, "anticanonical_status", counted("anticanonical_status", cone.anticanonical_status)
    )
    monkeypatch.setattr(chow, "mul", counted("mul", chow.mul))
    out = run_main(["survey", "--emin", "-6", "--emax", "6"])
    assert out.count("\n") == 1 + len(list(combinations_with_replacement(range(13), 3)))
    # one class per (e2 - e1, e3 - e1) with 0 <= e2 - e1 <= e3 - e1 <= 12: C(14, 2)
    assert calls == {"anticanonical_status": 91, "mul": 0}

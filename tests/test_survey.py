"""The survey evaluates each twist class once per process and prints what the per-triple route prints.

The reference route is built here from the full report of every triple
(the first 12 cells of ``analyze --tsv``), a filter predicate of its own
and a JSON writer of its own, so it shares nothing with the twist-class
table, ``report._stages`` or the row writer of ``cycone survey``.
"""

import contextlib
import functools
import io
import json
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycone import chow, cli, cone, report
from cycone.bundles import BundleSpec, h0_anticanonical
from cycone.chow import ChernPair
from cycone.errors import InvariantViolationError
from cycone.report import SURVEY_COLUMNS, analyze_row_cells, build_report, survey_lines

GOLDEN = Path(__file__).parent / "golden"
EMPTY = ["c1=3", "c1=4"]  # repeated keyed filters must all hold: no row passes
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
    ["c2=-4"],
    ["c1=3", "c1=3"],
    EMPTY,
    ["gamma=3", "c1=0"],
    ["c1=3", "tab"],
    ["gamma=4", "nef"],
    ["c2=1", "ample", "tab"],
    ["big", "c1=1", "big"],
]


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue()


@functools.cache
def survey_cells(exponents):
    """The 12 survey cells of one triple, from its full report."""
    return analyze_row_cells(build_report(BundleSpec.split(*exponents)))[:12]


COLUMN = {name: k for k, name in enumerate(SURVEY_COLUMNS)}


def _per_triple(emin, emax):
    return [survey_cells(t) for t in combinations_with_replacement(range(emin, emax + 1), 3)]


def _passes(cells, filters):
    for f in filters:
        key, eq, value = f.partition("=")
        if eq:
            ok = cells[COLUMN[key]] == value
        else:
            ok = cells[COLUMN["tab_admissible" if f == "tab" else f]] == "true"
        if not ok:
            return False
    return True


def _value(cell):
    """A cell as its JSON value: an integer, or the word itself."""
    return int(cell) if cell.lstrip("-").isdigit() else cell


def _json_values(cells):
    return {name: _value(cell) for name, cell in zip(SURVEY_COLUMNS, cells)}


def _lines(rows, as_json):
    if as_json:
        return [json.dumps(_json_values(cells)) for cells in rows]
    return ["\t".join(cells) for cells in rows]


def reference(emin, emax, filters, as_json):
    """What ``cycone survey`` prints, from the report of each triple."""
    rows = [cells for cells in _per_triple(emin, emax) if _passes(cells, filters)]
    header = [] if as_json else ["\t".join(SURVEY_COLUMNS)]
    return "\n".join(header + _lines(rows, as_json)) + "\n", len(rows)


def survey_argv(emin, emax, filters, as_json):
    argv = ["survey", "--emin", str(emin), "--emax", str(emax)]
    for f in filters:
        argv += ["--filter", f]
    return argv + ["--json"] * as_json


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["tsv", "json"])
@pytest.mark.parametrize("filters", FILTERS, ids=lambda f: "+".join(f) or "none")
@pytest.mark.parametrize("emin, emax", [(-6, 6), (-8, 4)])
def test_class_memo_prints_what_per_triple_rows_print(emin, emax, filters, fmt):
    expected, kept = reference(emin, emax, filters, bool(fmt))
    assert run_main(survey_argv(emin, emax, filters, bool(fmt))) == expected
    assert (kept == 0) == (filters == EMPTY)  # every other filter keeps at least one row


# flags make half the draws, so that "tab" and a keyed filter often meet
FLAG_WORDS = st.sampled_from(["nef", "ample", "big", "tab"])
FILTER_WORDS = st.one_of(
    FLAG_WORDS,
    FLAG_WORDS,
    st.builds("c1={}".format, st.integers(-3, 6)),
    st.builds("c2={}".format, st.integers(-12, 12)),
    st.builds("gamma={}".format, st.sampled_from([0, 1, 3, 4, 7, 9, 12, 13])),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=0, max_value=12),
    st.lists(FILTER_WORDS, min_size=1, max_size=3),
    st.booleans(),
)
def test_survey_prints_the_per_triple_reference_for_any_range_and_filters(
    emin, width, filters, as_json
):
    expected, _ = reference(emin, emin + width, filters, as_json)
    assert run_main(survey_argv(emin, emin + width, filters, as_json)) == expected


def test_survey_rows_matches_survey_row_in_any_order():
    types = [(2, 0, 1), (5, 3, 4), (-1, -1, 7), (0, 0, 8), (0, 1, 2), (8, 0, 0)]
    rows = [survey_cells(t) for t in types]
    for as_json in (False, True):
        assert survey_lines(types, [], [], as_json) == _lines(rows, as_json)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=-8, max_value=8)] * 3).map(sorted),
    st.integers(min_value=-10, max_value=10),
)
def test_survey_row_facts_are_twist_invariant(exponents, t):
    row = survey_cells(tuple(exponents))
    twisted = survey_cells(tuple(e + t for e in exponents))
    assert twisted[6:11] == row[6:11]  # nef, ample, big, rho and the verdict
    c = ChernPair(int(row[3]), int(row[4])).twist(t)
    assert twisted[3:6] == [str(c.c1), str(c.c2), row[5]]


C1_3 = [t for t in combinations_with_replacement(range(-6, 7), 3) if sum(t) == 3]
C1_3_CLASSES = {(e2 - e1, e3 - e1) for e1, e2, e3 in C1_3}
FULL = ["survey", "--emin", "-6", "--emax", "6"]


def test_survey_evaluates_each_class_once_and_multiplies_nothing(monkeypatch):
    report._twist_class.cache_clear()
    calls = {"anticanonical_status": 0, "expand": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        cone, "anticanonical_status", counted("anticanonical_status", cone.anticanonical_status)
    )
    monkeypatch.setattr(chow, "expand", counted("expand", chow.expand))
    # a keyed filter drops rows before their class is looked up: only the
    # classes of the rows with c1 = 3 are evaluated
    out = run_main(FULL + ["--filter", "c1=3"])
    assert out.count("\n") == 1 + len(C1_3)
    assert calls == {"anticanonical_status": len(C1_3_CLASSES), "expand": 0}
    assert len(C1_3_CLASSES) < 91

    # the full survey evaluates only the classes the filtered one did not meet:
    # one class per (e2 - e1, e3 - e1) with 0 <= e2 - e1 <= e3 - e1 <= 12, C(14, 2)
    calls.update(anticanonical_status=0)
    out = run_main(FULL)
    assert out.count("\n") == 1 + len(list(combinations_with_replacement(range(13), 3)))
    assert calls == {"anticanonical_status": 91 - len(C1_3_CLASSES), "expand": 0}

    # the table lives for the process: a repeated survey evaluates nothing
    calls.update(anticanonical_status=0)
    assert run_main(FULL) == out
    assert calls == {"anticanonical_status": 0, "expand": 0}


def test_survey_runs_h0_once_per_class(monkeypatch):
    report._twist_class.cache_clear()
    calls = []

    def counted(spec):
        calls.append(spec)
        return h0_anticanonical(spec)

    monkeypatch.setattr(report, "h0_anticanonical", counted)
    run_main(FULL + ["--filter", "c1=3"])
    assert len(calls) == len(C1_3_CLASSES)
    run_main(FULL)
    run_main(FULL)
    # one per class (d1, d2) with 0 <= d1 <= d2 <= 12, over the whole sequence
    assert len(calls) == 91
    assert len(set(calls)) == 91


def test_table_beyond_the_cap_prints_the_per_triple_reference():
    # every sorted triple in [0, 20] meets 231 classes, more than the table
    # holds: the classes it drops are evaluated again, and each row is still
    # the reference row
    report._twist_class.cache_clear()
    types = list(combinations_with_replacement(range(21), 3))
    assert len({(e2 - e1, e3 - e1) for e1, e2, e3 in types}) == 231
    rows = [survey_cells(t) for t in types]
    for as_json in (False, True):
        assert survey_lines(types, [], [], as_json) == _lines(rows, as_json)
    assert report._twist_class.cache_info().currsize <= 91


def test_a_failed_class_is_not_stored(monkeypatch, capsys):
    # on a cold table the tenth class evaluated fails its check: the survey
    # exits 2 with the check's message, and neither the error nor the class
    # is kept, so the next survey prints the golden rows
    report._twist_class.cache_clear()
    original = cone.anticanonical_status
    seen = []

    def failing(spec):
        seen.append(spec)
        if len(seen) == 10:
            raise InvariantViolationError("synthetic class failure")
        return original(spec)

    monkeypatch.setattr(cone, "anticanonical_status", failing)
    assert cli.main(["survey", "--emin", "-4", "--emax", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cycone: error: synthetic class failure" in captured.err
    assert report._twist_class.cache_info().currsize == 9
    monkeypatch.undo()
    out = run_main(["survey", "--emin", "-4", "--emax", "4"])
    assert out.encode() == (GOLDEN / "survey-m4_4.tsv").read_bytes()


@pytest.mark.parametrize("as_json", [False, True], ids=["tsv", "json"])
def test_class_cells_are_the_survey_row_cells(as_json):
    # (0, d1, d2) is the row of its own class that survey --emin 0 writes
    lines = run_main(survey_argv(0, 12, [], as_json)).splitlines()[1 - as_json:]
    seen = 0
    for line in lines:
        if as_json:
            e1, d1, d2 = (json.loads(line)[k] for k in ("e1", "e2", "e3"))
        else:
            e1, d1, d2 = map(int, line.split("\t")[:3])
        if e1 != 0:
            continue
        cells = survey_cells((0, d1, d2))
        if as_json:
            values = {k: _value(cells[COLUMN[k]]) for k in SURVEY_COLUMNS[5:11]}
            assert json.dumps(values)[1:-1] in line
        else:
            assert line.split("\t")[5:11] == cells[5:11]
        seen += 1
    assert seen == 91

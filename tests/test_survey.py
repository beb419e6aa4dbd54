"""The survey evaluates each twist class once per process and prints what the per-triple route prints.

The reference route is built here from the full report of every triple
(the first 12 cells of ``analyze --tsv``), a filter predicate of its own
and a JSON writer of its own, so it shares nothing with the twist-class
table, ``report.stages`` or the row writer of ``cycone survey``.
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

from cycone import bundles, chow, cli, cone, report
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


def _class_of(exponents):
    e1, e2, e3 = exponents
    return e2 - e1, e3 - e1


def _gamma_c2(exponents):
    e1, e2, e3 = exponents
    c1, c2 = e1 + e2 + e3, e1 * e2 + e1 * e3 + e2 * e3
    return c1 * c1 - 3 * c2, c2


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


def _split_filters(filters):
    """The ``(key, value)`` pairs and the flags of filter words, for ``survey_lines``."""
    keyed, flags = [], []
    for f in filters:
        key, eq, value = f.partition("=")
        if eq:
            keyed.append((key, int(value)))
        else:
            flags.append(f)
    return keyed, flags


def library_reference(emin, emax, filters, as_json):
    """The rows ``survey_lines`` returns, from the report of each triple."""
    return _lines([cells for cells in _per_triple(emin, emax) if _passes(cells, filters)], as_json)


@pytest.mark.parametrize("as_json", [False, True], ids=["tsv", "json"])
@pytest.mark.parametrize("emin, emax", [(0, 0), (5, 5), (-3, -3), (-7, -2), (-2, 5), (3, 9), (4, 3), (0, -6)])
def test_survey_lines_walks_the_range_in_sorted_triple_order(emin, emax, as_json):
    # emin == emax is one row, of class (0, 0); emin > emax is no row
    expected = library_reference(emin, emax, [], as_json)
    assert survey_lines(emin, emax, [], [], as_json) == expected
    if emin == emax:
        assert len(expected) == 1
        assert survey_cells((emin,) * 3)[5:11] == survey_cells((0, 0, 0))[5:11]
    elif emin > emax:
        assert expected == []


@st.composite
def library_surveys(draw):
    """A range of width 0..20 from emin in [-10, 10], past the CLI's cap of
    12, and 1-3 filters: flags, and keyed values that either a triple of the
    range has, so that rows pass, or are drawn free, up to those that e1 = -10
    or a class beyond the table reaches."""
    emin = draw(st.integers(min_value=-10, max_value=10))
    emax = emin + draw(st.integers(min_value=0, max_value=20))
    triple = sorted(draw(st.lists(st.integers(emin, emax), min_size=3, max_size=3)))
    gamma, c2 = _gamma_c2(triple)
    in_range = st.sampled_from([f"c1={sum(triple)}", f"c2={c2}", f"gamma={gamma}"])
    free = st.one_of(
        st.builds("c1={}".format, st.integers(-30, 60)),
        st.builds("c2={}".format, st.integers(-40, 40)),
        st.builds("gamma={}".format, st.integers(-1, 400)),
    )
    word = st.one_of(FLAG_WORDS, in_range, in_range, in_range, free)
    return emin, emax, draw(st.lists(word, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(library_surveys())
def test_survey_lines_is_the_per_triple_reference_past_the_cap(survey):
    emin, emax, filters = survey
    keyed, flags = _split_filters(filters)
    for as_json in (False, True):
        assert survey_lines(emin, emax, keyed, flags, as_json) == library_reference(emin, emax, filters, as_json)


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


RANGE_M6_6 = list(combinations_with_replacement(range(-6, 7), 3))


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_a_survey_tests_admissibility_only_in_the_c1_window(monkeypatch, fmt):
    run_main(FULL)  # fill the twist-class table, so only the rows call in
    original = cone.is_allowed_splitting_type
    calls = []

    def counted(*stype):
        calls.append(stype)
        return original(*stype)

    monkeypatch.setattr(cone, "is_allowed_splitting_type", counted)
    out = run_main(FULL + fmt)
    assert calls == [t for t in RANGE_M6_6 if -1 <= sum(t) <= 4]
    assert len(calls) == 142  # of 455 rows
    monkeypatch.undo()
    assert out == run_main(FULL + fmt)
    # a row outside the window is not admissible
    assert [t for t in RANGE_M6_6 if original(*t)] == [t for t in calls if original(*t)]


@pytest.fixture
def evaluated(monkeypatch):
    """The specs ``cone.anticanonical_status`` is called on, from a cleared table."""
    report._twist_class.cache_clear()
    original = cone.anticanonical_status
    specs = []

    def counted(spec):
        specs.append(spec)
        return original(spec)

    monkeypatch.setattr(cone, "anticanonical_status", counted)
    return specs


@pytest.mark.parametrize("gamma", [0, 7, 13, 49, 5])
def test_a_gamma_filter_evaluates_exactly_the_classes_with_that_gamma(evaluated, gamma):
    classes = {_class_of(t) for t in RANGE_M6_6 if _gamma_c2(t)[0] == gamma}
    expected, kept = reference(-6, 6, [f"gamma={gamma}"], False)
    assert run_main(FULL + ["--filter", f"gamma={gamma}"]) == expected
    assert sorted(spec.exponents[1:] for spec in evaluated) == sorted(classes)
    assert (kept == 0) == (gamma == 5)  # 5 is no d1^2 - d1 d2 + d2^2


@pytest.mark.parametrize("c2", [2, -4, 11, 40])
def test_a_c2_filter_evaluates_only_the_classes_of_its_rows(evaluated, c2):
    classes = {_class_of(t) for t in RANGE_M6_6 if _gamma_c2(t)[1] == c2}
    expected, _ = reference(-6, 6, [f"c2={c2}"], True)
    assert run_main(FULL + ["--filter", f"c2={c2}", "--json"]) == expected
    assert sorted(spec.exponents[1:] for spec in evaluated) == sorted(classes)
    assert len(classes) < 91


def test_two_values_of_one_key_evaluate_no_class(evaluated):
    argv = survey_argv(0, 3, EMPTY, True)
    assert run_main(argv).encode() == (GOLDEN / "survey-0_3-c1_3-c1_4.jsonl").read_bytes()
    assert evaluated == []
    assert survey_lines(-6, 6, [("gamma", 3), ("c2", 2), ("gamma", 4)], ["nef"], False) == []
    assert evaluated == []


def test_table_beyond_the_cap_prints_the_per_triple_reference():
    # every sorted triple in [0, 20] meets 231 classes, more than the table
    # holds: the classes it drops are evaluated again, and each row is still
    # the reference row
    report._twist_class.cache_clear()
    types = list(combinations_with_replacement(range(21), 3))
    assert len({(e2 - e1, e3 - e1) for e1, e2, e3 in types}) == 231
    rows = [survey_cells(t) for t in types]
    for as_json in (False, True):
        assert survey_lines(0, 20, [], [], as_json) == _lines(rows, as_json)
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


def test_a_class_that_fails_the_h0_check_is_not_stored(evaluated, monkeypatch, capsys):
    # with h0(-K_Z) one too many, every nef and big class fails the
    # 5 gamma + 100 check: a cold survey exits 2 at the first, and the table
    # keeps only the classes evaluated before it, none of them nef and big
    original = bundles._split_sections_h0
    monkeypatch.setattr(bundles, "_split_sections_h0", lambda exps, c1: original(exps, c1) + 1)
    argv = ["survey", "--emin", "-4", "--emax", "4", "--filter", "c1=-2"]
    assert cli.main(argv) == 2
    assert "must equal chi(Z, -K_Z) = 5 gamma + 100" in capsys.readouterr().err
    specs = list(evaluated)
    assert len(specs) > 1 and report._twist_class.cache_info().currsize == len(specs) - 1
    nef_and_big = [status.nef and status.big for status in map(cone.anticanonical_status, specs)]
    assert nef_and_big == [False] * (len(specs) - 1) + [True]
    monkeypatch.setattr(bundles, "_split_sections_h0", original)
    expected, _ = reference(-4, 4, ["c1=-2"], False)
    assert run_main(argv) == expected


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

"""Report serialization and the command-line front end."""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycone import bundles, chow, cli, cone, errors, exactnum, invariants, report, selftest
from cycone.bundles import BundleSpec, H0Anticanonical, catalog_entries
from cycone.errors import InvariantViolationError
from cycone.report import (
    build_report,
    report_to_dict,
    tab_admissible,
)

from test_cone import ROOT_PAIRS


GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    """Invoke the installed CLI in a subprocess; returns (code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "cycone", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(argv):
    """``cli.main`` in this process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_alone(argv):
    """``run_main`` on a parser no other call has used."""
    cli.build_parser.cache_clear()
    return run_main(argv)


# --- report content -----------------------------------------------------------


def test_report_for_split_012():
    d = report_to_dict(build_report(BundleSpec.split(0, 1, 2)))
    assert d["gamma"] == 3 and d["c3"] == -180 and d["h12"] == 92
    assert d["rho"]["value"] == 2
    assert d["minus_k"]["nef"] == "true" and d["minus_k"]["ample"] == "false"
    assert d["h0_minus_k"]["value"] == 115
    assert d["cone"]["verdict"] == "Rational"
    assert d["cone"]["kollar_case"]["case"] == "exceptional_candidate"
    assert d["cone"]["kollar_case"]["surface"]["mu_candidates"] == [1, 3, 9]
    assert d["section_bounds"]["lower_bound_o1_minus_h"] == 4
    assert d["section_bounds"]["chi_o1"] == 10
    assert d["section_bounds"]["normal_bound"] == 106
    assert "assumes" in d["section_bounds"]


def test_report_for_chern_3_12():
    d = report_to_dict(build_report(BundleSpec.chern_only(3, 12)))
    assert d["gamma"] == -27 and d["c3"] == 0
    assert d["h12"] == 2  # 3*gamma + 83, under the rho = 2 hypothesis
    assert any("h12 assumes rho(X) = 2" in w for w in d["warnings"])
    assert any("validity edge" in w for w in d["warnings"])
    assert d["cone"]["w_contains_boundary"] == "unknown"


def test_report_warns_of_a_negative_h12():
    # gamma = -54: h12 = 3 gamma + 83 = -79 is still written as a number
    warning = "h12 = -79 is negative, so it is not a Hodge number of X"
    d = report_to_dict(build_report(BundleSpec.chern_only(0, 18)))
    assert d["gamma"] == -54 and d["h12"] == -79
    assert d["warnings"][-1] == warning
    code, out, _ = run_main(["analyze", "--chern=0,18"])
    assert code == 0 and "h12: -79" in out and f"  warning: {warning}\n" in out
    # gamma = -29 is the largest gamma with h12 < 0; at -27 h12 is 2
    assert build_report(BundleSpec.chern_only(1, 10)).warnings[-1].startswith("h12 = -4 is negative")
    assert not any(w.startswith("h12 = ") for w in build_report(BundleSpec.chern_only(3, 12)).warnings)


def test_report_h12_suppressed_when_rho_known_not_two():
    d = report_to_dict(build_report(BundleSpec.split(0, 0, 3)))
    assert d["rho"]["value"] == 4
    assert d["h12"] is None


# The selftest's split triples in [-4, 4] and Chern grid, and every catalog
# id under each twist in [-3, 3].
ROUNDTRIP_SPECS = (
    [BundleSpec.split(*e) for e in selftest.SPLIT_GRID]
    + [BundleSpec.chern_only(c.c1, c.c2) for c in selftest.CHERN_GRID]
    + [spec.twist(t) for spec in catalog_entries() for t in range(-3, 4)]
    # the five homogeneous classes by their own names, which the parser reads
    + [
        BundleSpec.named(name).twist(t)
        for name in ("SymT(1,0)+O(3)", "SymT(1,0)+O(2)", "SymT(1,0)+O(1)", "SymT(1,0)+O", "SymT(2,0)")
        for t in range(-3, 4)
    ]
)


def test_report_json_roundtrip():
    width = len(report.SURVEY_COLUMNS + report.ANALYZE_EXTRA_COLUMNS)
    for spec in ROUNDTRIP_SPECS:
        rep = build_report(spec)
        d = report_to_dict(rep)
        assert (d["spec"]["c1"], d["spec"]["c2"], d["gamma"], d["h12"]) == (*spec.chern, spec.gamma, rep.h12), spec
        assert list(d["pairings"].values()) == list(rep.pairings), spec
        assert len(report.analyze_row_cells(rep)) == width, spec


def _read_quad(d):
    """The Fractions (a, b) and the radicand of a JSON {"a", "b", "n"}, which
    must be in canonical form: reduced "p/q" with q > 0, n = 0 exactly when
    b = 0, and otherwise a squarefree n >= 2."""
    a, b = (Fraction(d[key]) for key in ("a", "b"))
    assert (d["a"], d["b"]) == (f"{a.numerator}/{a.denominator}", f"{b.numerator}/{b.denominator}")
    n = d["n"]
    assert (n == 0) == (b == 0) and (n == 0 or (n >= 2 and exactnum.squarefree_decompose(n) == (1, n)))
    return a, b, n


def test_root_values_are_written_as_their_quadratic_values():
    rational = 0
    for c in ROOT_PAIRS:
        rep = build_report(BundleSpec.chern_only(*c))
        cone = report_to_dict(rep)["cone"]
        qa, qb, qc = selftest._doubled_cube_quadratic(c)
        k, k_other = (_read_quad(cone["k_root"][branch]) for branch in ("k", "k_other"))
        for a, b, n in (k, k_other):
            # q(a + b sqrt(n)) = 0: its rational and sqrt(n) parts
            assert qa * (a * a + b * b * n) + qb * a + qc == 0, c
            assert (2 * qa * a + qb) * b == 0, c
        # k < k_other: with n = 0 by their values, otherwise they share the
        # rational part and only k has a negative sqrt(n) part
        assert k[2] == k_other[2]
        if k[2] == 0:
            assert k[0] < k_other[0]
        else:
            assert k[0] == k_other[0] and k[1] < 0 < k_other[1]
        # D.c2(X) = O_X(1).c2(X) - 12 k on the ray O_X(1) - (k/3) pi*h, at the k written
        a, b, n = k
        assert _read_quad(cone["c2_min_value"]) == (rep.pairings.o1_c2 - 12 * a, -12 * b, n), c
        rational += rep.k_root.is_rational
    assert (0, 9) in ROOT_PAIRS  # gamma = -27
    assert rational > 100  # 9 - 4 gamma a square: the roots are rational, n = 0 in the JSON
    # past gamma = 2 there is no root, and every root value is null
    cone = report_to_dict(build_report(BundleSpec.chern_only(3, 2)))["cone"]
    assert cone["k_root"]["k"] is cone["k_root"]["k_other"] is cone["c2_min_value"] is None


# An integer written as a ratio "p/1" or as a string
INTEGER_TEXT = re.compile(r"-?\d+(/1)?")


def _strings(value, path=()):
    """(path, text) of every string in a report's JSON but the quadratic values."""
    if isinstance(value, str):
        yield path, value
    elif isinstance(value, list):
        for i, x in enumerate(value):
            yield from _strings(x, (*path, i))
    elif isinstance(value, dict) and set(value) != {"a", "b", "n"}:
        for key, x in value.items():
            yield from _strings(x, (*path, key))


def test_no_integer_poses_as_a_ratio_or_a_string():
    # the parts a and b of a quadratic value are the only "p/q" strings
    specs = (
        [BundleSpec.split(*e) for e in combinations_with_replacement(range(-6, 7), 3)]
        + [spec.twist(t) for spec in catalog_entries() for t in range(-3, 4)]
        + [BundleSpec.chern_only(c.c1, c.c2) for c in selftest.CHERN_GRID]
    )
    assert len(specs) == 455 + 42 + 273
    for spec in specs:
        strings = _strings(report_to_dict(build_report(spec)))
        assert [path for path, text in strings if INTEGER_TEXT.fullmatch(text)] == [], spec.describe()


# Every Chern pair with |c1| <= 6 and -12 <= c2 <= 24, attainable or not.
CHERN_SWEEP = [BundleSpec.chern_only(c1, c2) for c1 in range(-6, 7) for c2 in range(-12, 25)]
META = {"tool": "cycone", "version": "0.1.0", "generated_at": "2026-01-01T00:00:00+00:00"}


def test_report_json_writes_what_json_dumps_writes():
    for spec in ROUNDTRIP_SPECS + CHERN_SWEEP:
        rep = build_report(spec)
        for meta in (None, META, {}):
            text = report.report_to_json(rep, meta)
            assert text == json.dumps(json.loads(text), indent=2), (spec, meta)
        assert json.loads(text)["meta"] == {} and json.loads(report.report_to_json(rep, META))["meta"] == META
    # byte for byte what the JSON goldens hold
    from test_golden import ANALYZE_JSON, ANALYZE_JSON_CASES

    assert sorted(name for name, _ in ANALYZE_JSON_CASES) == ANALYZE_JSON  # one case per file
    for name, argv in ANALYZE_JSON_CASES:
        rep = build_report(cli._spec_from_args(cli._parse_argv(argv)))
        assert report.report_to_json(rep) + "\n" == (GOLDEN / name).read_text(encoding="utf-8"), name


# a quote, a backslash, a newline, a NUL, an accent, two non-ASCII spaces and an emoji
AWKWARD = 'say "a\\b"\n\x00 \u00e9\u00a0\u2028 \U0001F600'


def test_report_json_escapes_as_json_dumps_does_and_refuses_other_types():
    rep = build_report(BundleSpec.split(0, 1, 2))
    odd = rep._replace(spec=rep.spec._replace(name=AWKWARD), warnings=(AWKWARD, "plain"))
    text = report.report_to_json(odd, {"note": AWKWARD})
    assert text == json.dumps(json.loads(text), indent=2)
    assert text.count(json.dumps(AWKWARD)) == 3
    d = json.loads(text)
    assert d["spec"]["name"] == d["warnings"][0] == d["meta"]["note"] == AWKWARD
    # a bool is written as a bool, never as 1, and a number never as a bool
    assert '"h12": true,' in report.report_to_json(rep._replace(h12=True))
    assert '"h12": 1,' in report.report_to_json(rep._replace(h12=1))
    # no float, nor any other type, gets through, wherever it sits
    for bad in (
        rep._replace(h12=1.5),
        rep._replace(pairings=rep.pairings._replace(o1_c2=362.0)),
        rep._replace(pairings=rep.pairings._replace(c3=-180.0)),
        rep._replace(rho=rep.rho._replace(value=2.0)),
        rep._replace(spec=rep.spec._replace(twist_applied=0.0)),
        rep._replace(trail=(1.5,)),
        rep._replace(verdict=("Rational",)),
        rep._replace(warnings=(Fraction(1, 2),)),
    ):
        with pytest.raises(TypeError):
            report.report_to_json(bad)
    with pytest.raises(TypeError):
        report.report_to_json(rep, {"generated_at": 1.5})


def test_each_record_block_has_one_key_per_field_in_order():
    blocks = {
        ("rho",): invariants.RhoResult,
        ("minus_k",): cone.MinusKStatus,
        ("h0_minus_k",): H0Anticanonical,
        ("pairings",): invariants.XPairings,
        ("section_bounds",): invariants.SectionBounds,
        ("cone", "kollar_case"): cone.ConeRestriction,
    }
    # an exceptional candidate, a split type, a Chern pair and a named bundle
    for spec in (BundleSpec.named("SymT(2,0)"), BundleSpec.split(-5, 6, 6), BundleSpec.chern_only(3, 6),
                 BundleSpec.named("TP2+O")):
        d = report_to_dict(build_report(spec))
        for path, cls in blocks.items():
            block = d
            for key in path:
                block = block[key]
            assert list(block) == list(cls._fields), (spec, path)


@pytest.mark.parametrize(
    "argv",
    [
        # exponents (0, 20000, 20000): past the bound, but the CLI input
        # they come from, (-10000, 10000, 10000) twisted by 10000, is not
        ["--split=-10000,10000,10000", "--twist", "10000"],
        ["--chern=-10000,-10000", "--twist=10000"],
        ["--named=S2TP2(-1)", "--twist=-10000"],
    ],
    ids=["split", "chern", "named"],
)
def test_cli_analyzes_a_twisted_spec_at_the_bound(argv):
    code, out, _ = run_main(["analyze", *argv, "--json"])
    assert code == 0
    rep = build_report(cli._spec_from_args(cli._parse_argv(["analyze", *argv])))
    assert abs(rep.spec.twist_applied) == cli.MAX_SPEC_VALUE
    assert report.report_to_json(rep) + "\n" == out


@pytest.mark.parametrize(
    "argv, cells",
    [
        (["--split=10000,10000,10000", "--twist", "10000"], ["20000"] * 3 + ["60000", "1200000000"]),
        (["--chern=10000,-10000", "--twist=10000"], [""] * 3 + ["40000", "499990000"]),
    ],
    ids=["split", "chern"],
)
def test_cli_twist_derives_values_past_the_bound(argv, cells):
    # the bound holds each input and t, not what the twist derives; gamma and
    # so the radicand 9 - 4 gamma do not change under a twist
    start = time.perf_counter()
    code, out, err = run_main(["analyze", *argv, "--tsv"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split("\t")[:5] == cells


def test_tab_admissible_flag():
    assert tab_admissible(BundleSpec.split(0, 1, 2)) is True
    assert tab_admissible(BundleSpec.split(-1, 2, 2)) is False
    assert tab_admissible(BundleSpec.chern_only(3, 2)) is None


# --- CLI ------------------------------------------------------------------------


def test_cli_analyze_json():
    code, out, err = run_cli("analyze", "--split", "0,1,2", "--json")
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["gamma"] == 3 and d["cone"]["verdict"] == "Rational"
    assert d["c3"] == -180


def test_cli_analyze_named_rho4():
    code, out, _ = run_cli("analyze", "--named", "2O+O(3)", "--json")
    assert code == 0
    assert json.loads(out)["rho"]["value"] == 4


def test_cli_analyze_text_default():
    code, out, _ = run_cli("analyze", "--split", "0,1,2")
    assert code == 0
    assert "verdict: Rational" in out and "115" in out


def test_cli_analyze_tsv():
    code, out, _ = run_cli("analyze", "--named", "S2TP2(-1)", "--tsv")
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert cells["gamma"] == "-9" and cells["verdict"] == "Rational"
    assert cells["k_rational"] == "false"


def test_cli_analyze_twist():
    code, out, _ = run_cli("analyze", "--split", "0,1,2", "--twist", "1", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["spec"]["c1"] == 6 and d["gamma"] == 3
    assert d["h0_minus_k"]["value"] == 115


def test_cli_analyze_is_deterministic():
    a = run_cli("analyze", "--split", "0,1,2", "--json")
    b = run_cli("analyze", "--split", "0,1,2", "--json")
    assert a == b


def test_cli_analyze_meta_is_separate():
    code, out, _ = run_cli("analyze", "--split", "0,1,2", "--json", "--meta")
    assert code == 0
    d = json.loads(out)
    assert "generated_at" in d["meta"]
    del d["meta"]
    plain = json.loads(run_cli("analyze", "--split", "0,1,2", "--json")[1])
    assert d == plain


USAGE_ERRORS = [
    ("analyze",),
    ("analyze", "--split", "0,1"),
    ("analyze", "--split", "a,b,c"),
    ("analyze", "--named", "nope"),
    ("analyze", "--split", "0,1,2", "--named", "TP2+O"),
    ("survey", "--emin", "3", "--emax", "1"),
    ("survey", "--emin", "-9", "--emax", "9"),
    ("survey", "--emin", "0", "--emax", "1", "--filter", "bogus"),
    ("nonsense",),
    # a survey's exponents obey the bound of a spec's
    ("survey", "--emin", "100000", "--emax", "100001"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_cli_usage_errors_exit_1(argv):
    code, _, err = run_cli(*argv)
    assert code == 1
    assert err != ""


def test_survey_bound_names_the_option():
    for argv, option in [
        (("survey", "--emin", "100000", "--emax", "100001"), "--emin"),
        (("survey", "--emin=-10000", "--emax=-9990"), None),
        (("survey", "--emin=9990", "--emax=10001"), "--emax"),
    ]:
        code, _, err = run_main(argv)
        if option is None:
            assert code == 0, err
        else:
            assert code == 1
            assert err.startswith(f"cycone: usage error: {option} value ")
            assert "is outside [-10000, 10000]" in err


def _parse_outcome(parse, argv):
    """What ``parse`` makes of ``argv``: the namespace, the usage error, or
    the exit code and output of ``--help``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(parse(list(argv)))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


# The words of a generated command line: every option string, abbreviations,
# help, the option terminator, and values argparse reads by rules of its own
# (negative-looking ones, ints that int() takes or refuses, spaces, nothing).
OPTION_STRINGS = ["--split", "--named", "--chern", "--twist", "--json", "--tsv", "--meta",
                  "--out", "--emin", "--emax", "--filter"]
VALUES = ["0", "3", "-2", "0,1,2", "3,12", "TP2+O", "nef", "c1=3", "x", "\u0663", "1_000", " 7",
          "-5", "-1.5", "-.5", "-\u00b2", "-5\n", "-5,6,6", "", "a b", "-5 6", "--"]
WORDS = OPTION_STRINGS + VALUES + ["--spl", "--js", "--em", "-h", "--help", "--json=1", "-x"]
UNITS = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=1),
    st.lists(st.sampled_from(OPTION_STRINGS + ["--spl", "--js"]), min_size=1, max_size=1).flatmap(
        lambda opt: st.sampled_from(VALUES).flatmap(
            lambda value: st.sampled_from([opt + [value], [f"{opt[0]}={value}"]])
        )
    ),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(cli._COMMANDS)), st.lists(UNITS, max_size=5))
@example("analyze", [["--split=0,1,2"], ["--out=--"]])  # argparse stores [] for a lone --
@example("survey", [["--emin", "-5\n"], ["--emax", "-.5"], ["--filter", "-5,6,6"]])
@example("survey", [["--emin=0"], ["--emax=0"], ["--json=1"]])
def test_the_reader_gives_what_the_full_parser_gives(command, units):
    argv = (command, *(word for unit in units for word in unit))
    full = _parse_outcome(cli.build_parser().parse_args, argv)
    got = _parse_outcome(cli._parse_argv, argv)
    if full[0] == "namespace":
        assert full[1].pop("command") == command
    if got[0] == "namespace":  # the reader's namespace has no ``command``; argparse's has
        assert got[1].pop("command", command) == command
    assert got == full


def _joined(argv):
    """``argv`` with each option that takes a value written as --opt=value."""
    out = []
    for word in argv:
        if out and out[-1] in OPTION_STRINGS and out[-1] not in ("--json", "--tsv", "--meta"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


@pytest.fixture
def argparse_reads(monkeypatch):
    """The command lines argparse is asked to read."""
    read = []
    original = argparse.ArgumentParser.parse_known_args

    def spy(self, args=None, namespace=None):
        read.append(args)
        return original(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return read


def test_a_well_formed_command_line_never_reaches_argparse(argparse_reads):
    from test_golden import CASES, SPELLING_CASES

    cases = CASES + SPELLING_CASES
    for filename, argv in cases:
        golden = (GOLDEN / filename).read_bytes()
        for form in (argv, _joined(argv)):
            code, out, err = run_main(form)
            assert (code, err, out.encode()) == (0, "", golden), form
    assert argparse_reads == []
    # every golden file of a command that argparse need not read: all but the demos and help texts
    written = {path.name for path in GOLDEN.iterdir() if not path.name.startswith(("demo-", "help-"))}
    assert {filename for filename, _ in cases} == written


# usage errors and help that only argparse answers, each with its exit code
ARGPARSE_ANSWERS = [
    (("analyze",), 1),
    (("analyze", "--split", "0,1,2", "--named", "TP2+O"), 1),
    (("nonsense",), 1),
    (("analyze", "-h"), 0),
    (("survey", "-h"), 0),
    (("-h",), 0),
    (("analyze", "--spl=0,1,2"), 0),
    (("survey", "--emin=0", "--emax=2", "--"), 1),
    (("analyze", "--split=0,1,2", "--json", "--tsv"), 1),
]


def _answer(argv):
    """``run_main``, with the exit code of ``--help`` as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code", ARGPARSE_ANSWERS)
def test_argparse_answers_help_and_its_usage_errors(argparse_reads, monkeypatch, argv, code):
    got = _answer(argv)
    assert got[0] == code and argparse_reads
    monkeypatch.setattr(cli, "_read", lambda table, args: None)
    assert _answer(argv) == got


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_a_usage_error_is_the_same_with_the_reader_or_without(monkeypatch, argv):
    got = run_main(argv)
    assert got[0] == 1 and got[2].startswith("cycone: usage error: ")
    monkeypatch.setattr(cli, "_read", lambda table, args: None)
    assert run_main(argv) == got


_WELL_FORMED = {
    "analyze": [["--split=0,1,2"], ["--named", "TP2+O", "--twist", "-2", "--tsv", "--meta", "--out=x"],
                ["--chern=3,12", "--json", "--twist=0"]],
    "survey": [["--emin=0", "--emax=1"], ["--filter", "nef", "--emax", "-1", "--json",
                                          "--emin=-7", "--filter=c1=3", "--meta", "--out", "x"]],
    "catalog": [[], ["--out=x", "--json"]],
    "selftest": [[]],
}


def test_the_reader_gives_argparse_namespace_in_its_order():
    assert sorted(_WELL_FORMED) == sorted(cli._COMMANDS)
    for name, argvs in _WELL_FORMED.items():
        for argv in argvs:
            read = cli._read(cli._READERS[name], argv)
            assert read is not None, argv
            full = vars(cli.build_parser().parse_args([name, *argv]))
            assert full.pop("command") == name
            assert list(vars(read).items()) == list(full.items()), argv


def test_argparse_takes_every_negative_value_the_reader_takes():
    """A separate value that starts with '-' is read only where it fully
    matches -[0-9]+, a subset of argparse's own negative-number rule."""
    survey = cli._READERS["survey"]
    taken = []
    for value in VALUES + ["-0", "-007", "-\u0663", "-5\n"]:
        for argv in (["--emin", value, "--emax", "9"], ["--emin=0", "--emax=0", "--out", value]):
            read = cli._read(survey, argv)
            if read is not None:
                full = vars(cli.build_parser().parse_args(["survey", *argv]))
                assert full.pop("command") == "survey"
                assert vars(read) == full
                taken += [value] if value.startswith("-") else []
    assert taken == ["-2", "-2", "-5", "-5", "-0", "-0", "-007", "-007"]


def test_cli_internal_invariant_errors_exit_2(monkeypatch, capsys):
    def explode(spec):
        raise InvariantViolationError("synthetic failure")

    monkeypatch.setattr(report, "build_report", explode)
    assert cli.main(["analyze", "--split", "0,1,2"]) == 2
    assert "synthetic failure" in capsys.readouterr().err


# split triples in [-8, 8] and the catalog ids at twists -6..6
STAGE_SPECS = [BundleSpec.split(*e) for e in combinations_with_replacement(range(-8, 9), 3)] + [
    spec.twist(t) for spec in catalog_entries() for t in range(-6, 7)
]


def test_h0_of_a_nef_and_big_minus_k_is_5_gamma_plus_100():
    # Kawamata-Viehweg: h0(-K_Z) = chi(Z, -K_Z) = 5 gamma + 100, typed here
    # by hand, never read from chi_rr or the pairings
    nef_big = 0
    for spec in STAGE_SPECS:
        h0, minus_k, _, _ = report.stages(spec)
        if minus_k.nef and minus_k.big:
            assert h0.value == 5 * spec.gamma + 100, spec.describe()
            nef_big += 1
    assert (len(STAGE_SPECS), nef_big) == (1047, 171)


def test_a_wrong_h0_on_a_nef_and_big_minus_k_exits_2(monkeypatch, capsys):
    original = bundles._split_sections_h0
    monkeypatch.setattr(bundles, "_split_sections_h0", lambda exps, c1: original(exps, c1) + 1)
    assert cli.main(["analyze", "--split=0,1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "cycone: error: h0(-K_Z) = 116 for O(0)+O(1)+O(2), but -K_Z is nef and big,"
        " so it must equal chi(Z, -K_Z) = 5 gamma + 100 = 115\n"
    )
    # -K_Z is not nef on O(-5)+O(6)+O(6): no check applies, and the report
    # prints the tampered value
    assert cli.main(["analyze", "--split=-5,6,6"]) == 0
    assert "h0(-K_Z): 511 (exact)" in capsys.readouterr().out  # 510 untampered


def test_cli_survey_single_row():
    code, out, _ = run_cli("survey", "--emin", "0", "--emax", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == list(report.SURVEY_COLUMNS)
    assert len(lines) == 2
    cells = dict(zip(report.SURVEY_COLUMNS, lines[1].split("\t")))
    assert cells["ample"] == "true" and cells["rho"] == "2"


def test_cli_survey_filter_c1():
    code, out, _ = run_cli("survey", "--emin", "-1", "--emax", "2", "--filter", "c1=3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    types = {tuple(map(int, r[:3])) for r in rows}
    assert types == {(-1, 2, 2), (0, 1, 2), (1, 1, 1)}
    nef_admissible = {
        tuple(map(int, r[:3])) for r in rows if r[6] == "true" and r[11] == "true"
    }
    assert nef_admissible == {(0, 1, 2), (1, 1, 1)}


def test_cli_survey_nef_filter_matches_gamma_bound():
    code, out, _ = run_cli("survey", "--emin", "-4", "--emax", "4", "--filter", "nef")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert rows, "nef filter should keep some rows"
    gammas = [int(r[5]) for r in rows]
    assert all(g >= -18 for g in gammas)
    assert all(r[10] == "Rational" for r in rows)


def test_cli_survey_rows_sorted_lexicographically():
    code, out, _ = run_cli("survey", "--emin", "-2", "--emax", "2")
    rows = [tuple(map(int, line.split("\t")[:3])) for line in out.strip().split("\n")[1:]]
    assert rows == sorted(rows)


def test_cli_survey_json_lines():
    code, out, _ = run_cli("survey", "--emin", "0", "--emax", "1", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert all(set(report.SURVEY_COLUMNS) <= set(r) for r in rows)


def test_cli_survey_repeated_keyed_filters_all_hold(capsys):
    argv = ["survey", "--emin", "0", "--emax", "3", "--filter", "c1=3"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) > 1
    assert cli.main([*argv, "--filter", "c1=4"]) == 0
    assert capsys.readouterr().out.strip().split("\n") == ["\t".join(report.SURVEY_COLUMNS)]


@pytest.mark.parametrize(
    "spaced, plain", [(" c1 = 3", "c1=3"), (" nef", "nef"), ("tab ", "tab"), ("\tbig\t", "big")]
)
def test_cli_survey_filter_ignores_surrounding_spaces(spaced, plain):
    base = ["survey", "--emin", "-2", "--emax", "2", "--filter"]
    code, out, err = run_main([*base, spaced])
    assert (code, err) == (0, "")
    assert out == run_main([*base, plain])[1]


@pytest.mark.parametrize("bad", ["ne f", " bogus", "c3=1", " c 1=3", "nef=1"])
def test_cli_survey_unknown_filter_exits_1(bad):
    code, out, err = run_main(["survey", "--emin", "0", "--emax", "1", "--filter", bad])
    assert (code, out) == (1, "")
    assert "unknown filter" in err


def test_cli_survey_filter_value_must_be_an_integer():
    code, out, err = run_main(["survey", "--emin", "0", "--emax", "1", "--filter", "c1=x"])
    assert (code, out) == (1, "")
    assert err == "cycone: usage error: filter 'c1=x': value must be an integer\n"


def test_cli_split_of_non_integers_exits_1():
    code, out, err = run_main(["analyze", "--split", "a,b,c"])
    assert (code, out) == (1, "")
    assert err == "cycone: usage error: --split: not integers: 'a,b,c'\n"


def test_cli_out_file_that_cannot_be_written_exits_1(tmp_path):
    missing = tmp_path / "no-such-directory" / "report.txt"
    code, out, err = run_main(["analyze", "--split", "0,1,2", "--out", str(missing)])
    assert (code, out) == (1, "")
    assert err.startswith("cycone: cannot write output: ")
    assert not missing.parent.exists()


def test_cli_rejects_deeply_nested_named_expression(capsys):
    assert cli.main(["analyze", "--named", "dual(" * 3000 + "O" + ")" * 3000]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_usage_error_echoes_a_long_input_in_short():
    deep = "dual(" * 3000 + "O" + ")" * 3000
    code, _, err = run_main(["analyze", "--named", deep])
    assert code == 1
    assert err.startswith("cycone: usage error:")
    assert len(err.encode()) < 300
    assert f"({len(deep)} chars)" in err


@pytest.mark.parametrize(
    "expr, reason",
    [
        ("1000000*O", "multiplicity must lie in [1, 64]"),
        ("dual(" * 3000 + "O" + ")" * 3000, "nested deeper than 32 levels"),
    ],
)
def test_cli_unknown_bundle_keeps_the_parser_reason(expr, reason):
    code, _, err = run_main(["analyze", "--named", expr])
    assert code == 1
    assert err.startswith("cycone: usage error: unknown bundle")
    assert reason in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("expr", ["O(1)+Q+O", "O(1)+O(x)+O", "O(1)+O+O)", "O(1)+O+@", "O(1+O+O"])
def test_cli_unknown_bundle_quotes_the_input_once(expr):
    code, _, err = run_main(["analyze", "--named", expr])
    assert code == 1
    assert err.startswith(f"cycone: usage error: unknown bundle {expr!r}: ")
    assert err.count(expr) == 1


@pytest.mark.parametrize(
    "expr", ["sym(O+O(1)+O(2),2000)", "sym(sym(O+O(1)+O(2),1000),1000)"]
)
def test_cli_rejects_named_rank_before_expanding(expr):
    start = time.perf_counter()
    code, _, err = run_main(["analyze", "--named", expr])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "is not a catalog id or a rank-3 sheaf expression" in err


def test_cli_named_degree_cap_refusal_gives_its_reason():
    n = "9" * 4300
    expr = f"end(sym(sym(sym(O(1),{n}),{n}),{n}))+O+O"  # rank 3, a degree past the cap
    code, out, err = run_main(["analyze", "--named", expr])
    assert (code, out) == (1, "")
    assert err.endswith(": line degree of over 32768 bits is too large to evaluate\n")
    assert "is not a catalog id or a rank-3 sheaf expression: " in err
    assert len(err) < 200


def test_cli_named_rank_one_sym_and_multiplicity_do_not_expand():
    start = time.perf_counter()
    code, out, err = run_main(["analyze", "--named", "sym(O,1000000)+O+O", "--json"])
    assert time.perf_counter() - start < 0.05
    assert (code, err) == (0, "")
    assert out == run_main(["analyze", "--split=0,0,0", "--json"])[1]
    start = time.perf_counter()
    code, _, err = run_main(["analyze", "--named", "1000000*O"])
    assert time.perf_counter() - start < 0.05
    assert code == 1 and err.startswith("cycone: usage error: unknown bundle")
    code, _, err = run_main(["analyze", "--named", "sym(O(1),1000000)+O+O"])
    assert code == 1 and "outside [-10000, 10000]" in err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["analyze", "--split=0,1,2", "--twist", "x" * 100_000],
         "argument --twist: invalid int value"),
        (["y" * 100_000], "argument command: invalid choice"),
        (["survey", "--emin", "0", "--emax", "y" * 100_000],
         "argument --emax: invalid int value"),
        (["catalog", *["zz"] * 5000], "unrecognized arguments: zz zz"),
    ],
)
def test_cli_usage_error_cuts_a_long_argparse_message(argv, prefix):
    code, out, err = run_main(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"cycone: usage error: {prefix}")
    assert len(err.encode()) < 300
    assert err.rstrip().endswith(" chars)")


@pytest.mark.parametrize("expr", ["O(" + "1" * 5000 + ")+O+O", "sym(O," + "9" * 5000 + ")+O+O"])
def test_cli_rejects_named_integer_literal_too_long_to_read(expr):
    code, _, err = run_main(["analyze", "--named", expr])
    assert code == 1
    assert err.startswith("cycone: usage error: unknown bundle")
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["analyze", "--split=" + "9" * 5000 + ",0,0"], "--split: "),
        (["analyze", "--chern=0," + "9" * 5000], "--chern: "),
        (["survey", "--emin", "0", "--emax", "1", "--filter", "c2=" + "9" * 5000], "filter 'c2=999"),
    ],
    ids=["split", "chern", "filter"],
)
def test_cli_option_integer_literal_too_long_to_read(argv, prefix):
    code, out, err = run_main(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"cycone: usage error: {prefix}")
    assert err.endswith(": integer literal of 5000 digits is too long to read\n")
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "text", [" -12 ", "+7", "1_000", "0" * 4000 + "5"], ids=["spaced", "plus", "underscore", "long"]
)
def test_literal_reads_what_int_reads(text):
    assert errors._literal(text) == int(text)


@pytest.mark.parametrize(
    "text", ["x", "--5", "1__2", "_1", "1.0", "9" * 5000 + "x"],
    ids=["letter", "two-signs", "two-underscores", "leading-underscore", "float", "long"],
)
def test_literal_leaves_a_non_integer_to_its_caller(text):
    with pytest.raises(ValueError) as exc:
        errors._literal(text)
    assert not isinstance(exc.value, errors.DomainError)


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["--split", "-5,6,6"], ["--split=-5,6,6"]),
        (["--chern", "-3,4"], ["--chern=-3,4"]),
        (["--chern", "-3, -4", "--twist", "-2"], ["--chern=-3, -4", "--twist=-2"]),
    ],
)
def test_cli_accepts_negative_leading_values_after_a_space(spaced, joined):
    for fmt in (["--json"], ["--tsv"], []):
        code, out, err = run_main(["analyze", *spaced, *fmt])
        assert (code, err) == (0, "")
        assert out == run_main(["analyze", *joined, *fmt])[1]
    assert run_main(["analyze", "--split", "-5,6,6"])[1].encode() == (
        GOLDEN / "analyze-split-m5_6_6.txt"
    ).read_bytes()


def test_cli_parser_is_built_once_and_shared():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "first, second",
    [
        (
            ["analyze", "--split", "0,1,2", "--twist", "2", "--json", "--meta", "--out", "{out}"],
            ["analyze", "--split=0,1,2"],
        ),
        (
            ["survey", "--emin", "-2", "--emax", "2", "--filter", "nef", "--filter", "c1=4",
             "--json", "--meta", "--out", "{out}"],
            ["survey", "--emin", "-2", "--emax", "2"],
        ),
    ],
)
def test_cli_calls_in_one_process_leak_no_state(first, second, tmp_path):
    alone = run_alone(second)
    first = [arg.replace("{out}", str(tmp_path / "first.out")) for arg in first]
    assert run_main(first) == (0, "", "")
    assert (tmp_path / "first.out").read_text().strip()
    assert run_main(second) == alone
    assert alone[0] == 0 and alone[1].strip()


@pytest.mark.parametrize(
    "bad",
    [
        ["analyze", "--split", "0,1"],  # rejected by the command
        ["analyze", "--split", "0,1,2", "--named", "TP2+O"],  # rejected by argparse
        ["analyze", "--split", "0,1,2", "--bogus"],
        ["survey", "--emin", "0"],
    ],
)
def test_cli_usage_error_leaves_the_parser_usable(bad):
    good = ["analyze", "--named", "TP2+O", "--twist", "2", "--tsv"]
    alone = run_alone(good)
    code, out, err = run_main(bad)
    assert (code, out) == (1, "")
    assert err.startswith("cycone: usage error:")
    assert run_main(good) == alone
    assert alone[1].encode() == (GOLDEN / "analyze-named-TP2_O-twist2.tsv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--chern=0,1000000000000000000000000000001"],
        ["--chern=-10001,0"],
        ["--split=0,0,10001"],
        ["--named=O(-10001)+O+O"],
        ["--chern=3,6", "--twist=10001"],
        ["--named=SymT(1,10000)+O"],  # the splitting type (0, 10001, 10002)
    ],
)
def test_cli_rejects_spec_values_beyond_the_bound(argv, capsys):
    assert cli.main(["analyze", *argv]) == 1
    assert "outside [-10000, 10000]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--chern=0," + "9" * 4000],
        ["--split=0,0," + "9" * 41],
        ["--named=sym(sym(O(1)," + "9" * 3000 + ")," + "9" * 3000 + ")+O+O"],
        ["--named=SymT(1,0)+sym(sym(O(-1)," + "9" * 3000 + ")," + "9" * 3000 + ")"],
    ],
)
def test_cli_bound_error_gives_a_huge_value_by_its_size(argv):
    code, _, err = run_main(["analyze", *argv])
    assert code == 1
    assert err.startswith("cycone: usage error:") and "bits is outside [-10000, 10000]" in err
    assert len(err.encode()) < 300


def test_cli_worst_accepted_specs_finish_quickly(capsys):
    bound = cli.MAX_SPEC_VALUE
    for argv in (
        [f"--chern=0,{bound}"],  # most negative gamma: the largest radicand
        [f"--chern=-{bound},-{bound}", f"--twist={bound}"],
        [f"--split=-{bound},0,{bound}"],
        ["--named=S2TP2(-1)", f"--twist=-{bound}"],
        [f"--named=SymT(1,{bound - 2})+O(-{bound})"],
    ):
        start = time.perf_counter()
        assert cli.main(["analyze", *argv, "--json"]) == 0
        assert time.perf_counter() - start < 1.0
    capsys.readouterr()


# --- CLI fuzz -------------------------------------------------------------------


def _grammar_text():
    """Expression-grammar text, well formed or cut short and spliced."""
    ints = st.integers(-12, 12)
    leaves = st.one_of(
        st.just("O"),
        ints.map("O({})".format),
        st.tuples(st.integers(0, 5), ints).map(lambda t: "SymT(%d,%d)" % t),
    )
    exprs = st.recursive(
        leaves,
        lambda e: st.one_of(
            st.tuples(e, e).map("+".join),
            st.tuples(st.integers(1, 4), e).map(lambda t: "%d*%s" % t),
            st.tuples(e, ints).map(lambda t: "twist(%s,%d)" % t),
            st.tuples(e, st.integers(-1, 5)).map(lambda t: "sym(%s,%d)" % t),
            e.map("end({})".format),
            e.map("dual({})".format),
        ),
        max_leaves=6,
    )
    spliced = st.tuples(exprs, st.integers(0, 40), st.text("O()+,*-0123456789SymTtwistdualend", max_size=8))
    return st.one_of(exprs, spliced.map(lambda t: t[0][: t[1]] + t[2]))


def _int_list(n):
    return st.lists(st.integers(-8, 8), min_size=n, max_size=n).map(lambda xs: ",".join(map(str, xs)))


_SMALL_INT = st.integers(-8, 8).map(str)
_FLAGS = st.lists(st.sampled_from(["--json", "--tsv", "--meta"]), max_size=2)
_ANALYZE = st.tuples(
    st.one_of(
        st.tuples(st.just("--split"), _int_list(3)),
        st.tuples(st.just("--chern"), _int_list(2)),
        st.tuples(st.just("--named"), st.sampled_from(["TP2+O", "S2TP2(-1)", "O(-1)+2O(1)"])),
    ),
    st.lists(st.tuples(st.just("--twist"), _SMALL_INT), max_size=1),
    _FLAGS,
).map(lambda t: ["analyze", *t[0], *(tok for opt in t[1] for tok in opt), *t[2]])
_SURVEY = st.tuples(
    _SMALL_INT,
    _SMALL_INT,
    st.lists(st.sampled_from(["nef", "ample", "big", "tab", "gamma=0", "c1=3", "c2=x"]), max_size=2),
    _FLAGS,
).map(lambda t: [
    "survey", "--emin", t[0], "--emax", t[1],
    *(tok for f in t[2] for tok in ("--filter", f)),
    *t[3],
])
_CATALOG = _FLAGS.map(lambda flags: ["catalog", *flags])
# Tokens spliced into a command line: any option but --out (so that the
# fuzz writes no file), a retired one, small integers and lists, and free
# text.  selftest takes no input and is left out.
_JUNK = st.one_of(
    st.sampled_from(
        ["analyze", "survey", "catalog", "--split", "--named", "--chern", "--twist", "--emin",
         "--emax", "--filter", "--max-range", "--json", "--tsv", "--meta", "-h", "--", "--bogus"]
    ),
    _SMALL_INT,
    st.integers(1, 4).flatmap(_int_list),
    st.text("-=,()+OSymTtwistdualend ", max_size=10),
)
_ARGV = st.tuples(
    st.one_of(_ANALYZE, _SURVEY, _CATALOG), st.lists(st.tuples(st.integers(0, 12), _JUNK), max_size=2)
).map(lambda t: _splice(*t))


def _splice(argv, inserts):
    argv = list(argv)
    for pos, token in inserts:
        argv.insert(pos, token)
    return argv


def _check_total(argv):
    start = time.perf_counter()
    try:
        code, _, err = run_main(argv)
    except SystemExit as exc:  # argparse's --help
        code, err = exc.code, ""
    assert time.perf_counter() - start < 1.0, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err


@given(_grammar_text(), st.sampled_from([[], ["--json"], ["--tsv"], ["--twist", "2"]]))
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_named_expressions(text, extra):
    _check_total(["analyze", "--named", text, *extra])


@given(_ARGV)
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_argv(argv):
    _check_total(argv)


@pytest.mark.parametrize(
    "extra, message",
    [([], "range size 1000 exceeds the cap 12"), (["--max-range", "30"], "unrecognized arguments")],
    ids=["wide", "max-range"],
)
def test_survey_range_cap_is_fixed(extra, message):
    start = time.perf_counter()
    code, out, err = run_main(["survey", "--emin", "-500", "--emax", "500", *extra])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert message in err and "Traceback" not in err


def test_cli_chern_request_decomposes_each_radicand_once(monkeypatch):
    calls = []
    original = exactnum.squarefree_decompose

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(exactnum, "squarefree_decompose", counting)
    code, out, _ = run_main(["analyze", "--chern=3,6"])
    assert code == 0
    assert calls == [45]  # 9 - 4 gamma, once: the root and the c2 bound share it
    assert out.encode() == (GOLDEN / "analyze-chern-3_6.txt").read_bytes()


def test_cli_json_request_writes_its_text_in_one_pass(monkeypatch):
    # the text is written straight from the records: no dict, no encoder, no reader
    def refuse(*args, **kwargs):
        raise AssertionError("the JSON report took a second pass")

    for owner, name in ((report, "report_to_dict"), (json, "dumps"), (json, "loads")):
        monkeypatch.setattr(owner, name, refuse)
    code, out, err = run_main(["analyze", "--split=0,1,2", "--json"])
    monkeypatch.undo()
    assert (code, err) == (0, "")
    assert out == json.dumps(report_to_dict(build_report(BundleSpec.split(0, 1, 2))), indent=2) + "\n"


def test_build_report_evaluates_closed_forms_once(monkeypatch):
    calls = []
    original = invariants.closed_form_pairings

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(invariants, "closed_form_pairings", counting)
    for spec in (BundleSpec.split(0, 1, 2), BundleSpec.chern_only(3, 6)):
        calls.clear()
        build_report(spec)
        assert calls == [spec.chern]


@pytest.mark.parametrize(
    "spec",
    [BundleSpec.split(0, 1, 2), BundleSpec.named("TP2+O"), BundleSpec.chern_only(3, 6)],
    ids=["split", "catalog", "chern-only"],
)
def test_build_report_forms_one_expansion(spec, monkeypatch):
    # c(T_Z) times -K_Z (1 + K + K^2 + K^3); c(T_Z) itself combines the
    # import-time basis chow._TANGENT_BASIS, and every other number of the
    # report is a point integral or a closed form
    calls = {"expand": 0}

    def counted(*args):
        calls["expand"] += 1
        return original(*args)

    original = chow.expand
    monkeypatch.setattr(chow, "expand", counted)
    build_report(spec)
    assert calls == {"expand": 1}


def test_cli_catalog_contents():
    code, out, _ = run_cli("catalog")
    assert code == 0
    assert "S2TP2(-1)\t3\t6\t-9\t(0,1,2)" in out
    assert "TP2+O\t3\t3\t0" in out
    assert "TP3restP2\t4\t6" in out


def test_cli_catalog_json():
    code, out, _ = run_cli("catalog", "--json")
    entries = {e["name"]: e for e in json.loads(out)}
    assert entries["TP3restP2"]["c1"] == 4 and entries["TP3restP2"]["c2"] == 6
    assert entries["TP2+O"]["gamma"] == 0
    assert entries["S2TP2(-1)"]["h0_minus_k"] == 55
    assert "strategy" not in entries["TP2+O"]


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("analyze", "--split", "0,1,2", "--json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["gamma"] == 3


# --- selftest negative paths -----------------------------------------------------


def test_selftest_names_tampered_gram(monkeypatch):
    from cycone import chow
    from cycone.chow import GramMatrix

    def tampered(c):
        return GramMatrix(((0, 0, 1), (0, 1, c.c1), (1, c.c1, c.c1**2 - c.c2)), det=1)

    monkeypatch.setattr(chow, "gram_matrix", tampered)
    lines = []
    failures = selftest.run_selftest(emit=lines.append)
    assert "gram-unimodularity" in failures
    assert any(line.startswith("FAIL gram-unimodularity") for line in lines)


def test_selftest_names_tampered_c3_closed_form(monkeypatch):
    from cycone import invariants
    from cycone.invariants import XPairings

    original = invariants.closed_form_pairings

    def tampered(c):
        p = original(c)
        return XPairings(p.o1_cubed, p.o1_sq_h, p.o1_fiber, p.o1_c2, p.h_c2, p.c3 + 6)

    monkeypatch.setattr(invariants, "closed_form_pairings", tampered)
    failures = selftest.run_selftest(emit=lambda line: None)
    assert "pairing-closed-forms-grid" in failures


def test_selftest_names_a_tampered_surface_class(monkeypatch):
    original = chow.exceptional_surface_class

    def tampered(c):
        surface = original(c)
        return surface if surface.reduced is None else surface._replace(reduced=(1, -3, 3))

    monkeypatch.setattr(chow, "exceptional_surface_class", tampered)
    lines = []
    failures = selftest.run_selftest(emit=lines.append)
    assert failures == ["split-012-regression"]
    assert any(line.startswith("FAIL split-012-regression") for line in lines)


def test_selftest_names_a_tampered_split_section_count(monkeypatch):
    from cycone import bundles

    original = bundles._split_sections_h0
    monkeypatch.setattr(bundles, "_split_sections_h0", lambda exps, c1: original(exps, c1) + 1)
    lines = []
    failures = selftest.run_selftest(emit=lines.append)
    # every nef and big split type now misses h0 = 5 gamma + 100
    assert failures == ["gamma-catalog", "nef-gamma-survey"]
    assert any(line.startswith("FAIL nef-gamma-survey: h0(-K_Z) = 101 for ") for line in lines)


def test_selftest_names_a_tampered_tangent_degree_one(monkeypatch):
    original = chow.tangent_total

    def tampered(c):
        total = original(c)
        total[2] += 1  # c1(T_Z) off by one H
        return total

    monkeypatch.setattr(chow, "tangent_total", tampered)
    lines = []
    failures = selftest.run_selftest(emit=lines.append)
    # the engine's adjunction lift no longer cancels c1 either
    assert failures == ["pairing-closed-forms-grid", "adjunction-degree-1"]
    assert any(line.startswith("FAIL adjunction-degree-1") for line in lines)


def test_selftest_names_a_shifted_boundary_root(monkeypatch):
    from cycone import cone

    original = cone.boundary_root

    wrong_roots = [
        # k + 1 and k_other + 1: the c2 routes disagree too
        (lambda r: r._replace(center=r.center + r.den), {"boundary-root-exactness", "c2-positivity-sweep"}),
        # a wider gap between the branches: the c2 routes share it and agree
        (lambda r: r._replace(s=r.s + 1), {"boundary-root-exactness"}),
    ]
    for wrong, names in wrong_roots:

        def tampered(c, wrong=wrong):
            root = original(c)
            return wrong(root) if root.exists else root

        monkeypatch.setattr(cone, "boundary_root", tampered)
        lines = []
        failures = selftest.run_selftest(emit=lines.append)
        assert set(failures) == names
        for name in names:
            assert any(line.startswith(f"FAIL {name}") for line in lines)


@pytest.mark.parametrize("field", ["center", "s", "n", "den"])
def test_boundary_root_check_reads_each_integer_off_the_chow_ring(field, monkeypatch):
    # every root but the pinned (3, 6) example is off by one in one integer, so
    # only the comparison with the Chow ring's quadratic can catch it
    from cycone import cone

    original = cone.boundary_root

    def tampered(c):
        root = original(c)
        if not root.exists or c == chow.ChernPair(3, 6):
            return root
        return root._replace(**{field: getattr(root, field) + 1})

    monkeypatch.setattr(cone, "boundary_root", tampered)
    with pytest.raises(selftest.CheckFailure, match="does not solve D\\^3 = 0"):
        selftest.check_boundary_root_exactness()


def test_text_and_json_write_the_same_root():
    # the text report's k and c2 boundary value carry the JSON's canonical parts
    specs = catalog_entries()
    specs += [BundleSpec.chern_only(*c) for c in ROOT_PAIRS[::97]]
    for spec in specs:
        rep = build_report(spec)
        cone = report_to_dict(rep)["cone"]
        text = report.render_text_report(rep)
        for label, value in (("(O_Z(3) ray): ", cone["k_root"]["k"]), ("(boundary ", cone["c2_min_value"])):
            written = text.split(label, 1)[1].split("\n", 1)[0].split(", h-ray", 1)[0]
            if value is None:
                assert written in ("none", "n/a"), spec
                continue
            a, b, n = Fraction(value["a"]), Fraction(value["b"]), value["n"]
            sign, coef = ("-", -b) if b < 0 else ("+", b)
            assert written == (f"{a}" if n == 0 else f"{a} {sign} {coef}*sqrt({n})"), spec

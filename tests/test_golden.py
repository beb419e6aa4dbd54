"""Golden outputs: byte-exact CLI output for a fixed set of invocations.

Each case runs ``cycone.cli.main`` in-process and compares its stdout with
the file of the same name under ``tests/golden/``.  The files were written
by this module (``python tests/test_golden.py --write``) from the code
before the single-pass refactor of the report pipeline (``catalog.tsv``
from the code before the report codec refactor, the filtered ``survey-*``
files from the code before the survey filtered rows ahead of evaluating
their twist class); any change to them is a change of the tool's output and
has to be deliberate.  One such change: when the report stopped writing a
fact twice, the 16 ``analyze-*.json`` files lost ``g_surface``,
``cone.c2_h_ray``, ``minus_k.h0_gt_1`` and the ``h0_minus_k`` witness of
``minus_k``, and the six ``.txt`` files of specs that are not exceptional
candidates lost their surface line; nothing else moved.  Another: when a
non-nef -K_Z stopped reading ``equality``, the three
``analyze-split-m5_6_6`` files changed in their restriction case alone.  A
third: when the report wrote the boundary root once and its integers as
JSON integers, the 17 ``analyze-*.json`` files lost ``cone.k_root_scaled``
and ``cone.k_root.normalization``, and their two section bounds and -K_Z
witnesses went from "p/1" and digit strings to integers; nothing else moved.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from cycone import cli, report

GOLDEN = Path(__file__).parent / "golden"

CATALOG_IDS = ("O+O(1)+O(2)", "2O+O(3)", "TP2+O", "TP2(-1)+O(2)", "S2TP2(-1)", "TP3restP2")
FORMATS = (("json", ["--json"]), ("tsv", ["--tsv"]), ("txt", []))
# Other spellings of T + O(2): a non-catalog bundle is named by its atoms,
# so each one reproduces the "SymT(1,0)+O(2)" goldens byte for byte.
T_O2_SPELLINGS = ("SymT(1,0) + O(2)", "O(2)+SymT(1,0)", "twist(SymT(1,-1)+O(1),1)")


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")


def _cases():
    specs = []
    for name in CATALOG_IDS:
        specs.append((f"named-{_slug(name)}", ["--named", name]))
        specs.append((f"named-{_slug(name)}-twist2", ["--named", name, "--twist", "2"]))
    specs += [
        # T + O(2), the fifth homogeneous class with nef and big -K_Z
        ("named-SymT_1_0_O_2", ["--named", "SymT(1,0)+O(2)"]),
        ("chern-3_12", ["--chern", "3,12"]),
        ("chern-3_6", ["--chern", "3,6"]),
        ("split-m5_6_6", ["--split=-5,6,6"]),
        # T + O(-1), m = c - b = -1: -K_Z mobile but not nef, on the atom route
        ("named-SymT_1_0_O_m1", ["--named", "SymT(1,0)+O(-1)"]),
    ]
    cases = [
        (f"analyze-{stem}.{ext}", ["analyze", *spec, *flags])
        for stem, spec in specs
        for ext, flags in FORMATS
    ]
    cases += [
        ("survey-m4_4.tsv", ["survey", "--emin", "-4", "--emax", "4"]),
        ("survey-m4_4.jsonl", ["survey", "--emin", "-4", "--emax", "4", "--json"]),
        ("survey-m6_6-c1_3.tsv", ["survey", "--emin", "-6", "--emax", "6", "--filter", "c1=3"]),
        ("survey-m8_4-nef-tab.jsonl",
         ["survey", "--emin", "-8", "--emax", "4", "--filter", "nef", "--filter", "tab", "--json"]),
        ("survey-m5_3-gamma_4.tsv", ["survey", "--emin", "-5", "--emax", "3", "--filter", "gamma=4"]),
        # repeated keyed filters must all hold: no row, and JSON lines print one empty line
        ("survey-0_3-c1_3-c1_4.jsonl",
         ["survey", "--emin", "0", "--emax", "3", "--filter", "c1=3", "--filter", "c1=4", "--json"]),
        ("catalog.json", ["catalog", "--json"]),
        ("catalog.tsv", ["catalog"]),
        ("selftest.out", ["selftest"]),
    ]
    return cases


CASES = _cases()
SPELLING_CASES = [
    (f"analyze-named-SymT_1_0_O_2.{ext}", ["analyze", "--named", text, *flags])
    for text in T_O2_SPELLINGS
    for ext, flags in FORMATS
]


def run_main(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, f"cycone {' '.join(argv)} exited {code}"
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("filename,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(filename, argv):
    assert run_main(argv) == (GOLDEN / filename).read_bytes()


@pytest.mark.parametrize(
    "filename,argv", SPELLING_CASES, ids=[f"{name}-{_slug(argv[2])}" for name, argv in SPELLING_CASES]
)
def test_golden_output_of_another_spelling(filename, argv):
    assert run_main(argv) == (GOLDEN / filename).read_bytes()


SURVEY_CASES = [(name, argv) for name, argv in CASES if argv[0] == "survey"]
# surveys that fill the twist-class table in the other format and through a flag filter
WARM_UP = [["survey", "--emin", "-6", "--emax", "6", "--filter", "nef", *fmt] for fmt in ([], ["--json"])]


@pytest.mark.parametrize("filename,argv", SURVEY_CASES, ids=[name for name, _ in SURVEY_CASES])
def test_survey_golden_output_on_a_cold_and_a_warm_table(filename, argv):
    golden = (GOLDEN / filename).read_bytes()
    report._twist_class.cache_clear()
    assert run_main(argv) == golden
    for warm_up in WARM_UP:
        run_main(warm_up)
    assert report._twist_class.cache_info().currsize == 91
    assert run_main(argv) == golden


ANALYZE_JSON = sorted(path.name for path in GOLDEN.glob("analyze-*.json"))


@pytest.mark.parametrize("filename", ANALYZE_JSON)
def test_golden_json_reads_back(filename):
    # the file, read back as JSON, is the dict of the report of its spec
    spec = cli._spec_from_args(cli._parse_argv(dict(CASES)[filename]))
    assert json.loads((GOLDEN / filename).read_bytes()) == report.report_to_dict(report.build_report(spec))


# the --meta block as cycone writes it: the provenance keys, in order, at depth one
META_BLOCK = re.compile(
    rb',\n  "meta": \{\n    "tool": "cycone",\n    "version": "[^"\\]+",\n'
    rb'    "generated_at": "[^"\\]+"\n  \}\n\}\n$'
)
ANALYZE_JSON_CASES = [(name, argv) for name, argv in CASES if name in ANALYZE_JSON]


@pytest.mark.parametrize("filename,argv", ANALYZE_JSON_CASES, ids=[n for n, _ in ANALYZE_JSON_CASES])
def test_golden_json_with_meta_adds_one_block(filename, argv):
    # the bytes, not the parsed JSON: a whitespace slip in the writer shows here
    text = run_main([*argv, "--meta"])
    block = META_BLOCK.search(text)
    assert block is not None, text[-200:]
    assert text[: block.start()] + b"\n}\n" == (GOLDEN / filename).read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.mkdir(exist_ok=True)
    for filename, argv in CASES:
        (GOLDEN / filename).write_bytes(run_main(argv))

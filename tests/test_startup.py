"""Start-up: which modules each entry point loads.

``cycone`` loads its engine on first use, so each check runs in a fresh
interpreter, where nothing is loaded yet.  Nothing here is timed.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycone
from cycone import cli, report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cycone'))))"


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with cycone from ./src; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> set[str]:
    """The cycone modules in ``sys.modules`` once ``code`` has run."""
    out = run_python(f"import json, sys\n{code}\n{LOADED}")
    return set(json.loads(out.splitlines()[-1]))


FRONT = {"cycone", "cycone.cli", "cycone.errors"}
QUIET_MAIN = """
import contextlib, io
from cycone import cli

def main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
"""


def loaded_beyond_bare(argv: list[str], exit_code: int = 0) -> set[str]:
    """Every module, stdlib included, that ``cli.main(argv)`` loads in a fresh
    interpreter beyond what a bare one loads, whose site hooks may load any."""
    return run_beyond_bare(f"{QUIET_MAIN}\nassert main({argv!r}) == {exit_code}")


def run_beyond_bare(code: str) -> set[str]:
    """Every module that ``code`` loads in a fresh interpreter beyond a bare one."""
    every_module = "print(json.dumps(sorted(sys.modules)))"
    bare = json.loads(run_python(f"import json, sys\n{every_module}"))
    loaded = json.loads(run_python(f"import json, sys\n{code}\n{every_module}").splitlines()[-1])
    return set(loaded) - set(bare)


def test_the_engine_loads_no_dataclass_machinery():
    """The records are named tuples, so a report loads neither ``dataclasses``
    nor ``inspect``."""
    assert {"dataclasses", "inspect"} & loaded_beyond_bare(["analyze", "--split=0,1,2"]) == set()


@pytest.mark.parametrize(
    "argv", [["analyze", "--split=0,1,2", "--json"], ["analyze", "--chern=3,12"]], ids=["split", "chern"]
)
def test_analyze_loads_no_rational_number_machinery(argv):
    """Every value a report computes is an int, so ``analyze`` loads none of
    ``fractions``, ``decimal`` or ``numbers``."""
    assert {"fractions", "decimal", "numbers"} & loaded_beyond_bare(argv) == set()


@pytest.mark.parametrize(
    "argv", [["analyze", "--split=0,1,2", "--json"], ["survey", "--emin=-1", "--emax=1"], ["catalog"]],
    ids=["analyze", "survey", "catalog"],
)
def test_a_well_formed_command_line_loads_no_argparse(argv):
    """The reader reads the declared options, so argparse is imported only for help and usage errors."""
    assert "argparse" not in loaded_beyond_bare(argv)


def test_only_help_and_usage_errors_load_argparse():
    assert "argparse" not in run_beyond_bare("import cycone.cli")
    # the probe sees argparse where argparse answers
    assert "argparse" in loaded_beyond_bare(["--help"])
    assert "argparse" in loaded_beyond_bare(["analyze", "--split=0,1,2", "--json", "--tsv"], 1)


def test_building_the_parser_loads_no_engine():
    assert loaded_after("from cycone import cli; cli.build_parser()") == FRONT


def test_building_the_parser_loads_no_json():
    """Only ``catalog`` and ``survey --meta`` write JSON from the CLI, so they
    import it; the baseline is a bare interpreter, whose site hooks may load it."""
    every_module = "print(repr(sorted(sys.modules)))"
    bare = run_python(f"import sys\n{every_module}")
    parser = run_python(f"import sys\nfrom cycone import cli; cli.build_parser()\n{every_module}")
    new = set(ast.literal_eval(parser)) - set(ast.literal_eval(bare))
    assert {m for m in new if m == "json" or m.startswith("json.")} == set()


def test_every_traced_layer_is_loaded_by_the_benchmark_imports():
    # perfbench's tracer looks each module of its LAYERS up in sys.modules
    # once the workloads have imported cycone, cycone.cli and cycone.cohom,
    # so a layer renamed or merged away would break every traced run; the
    # tuple is read with ast, so perfbench itself is not imported
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    assert layers
    loaded = loaded_after("import cycone, cycone.cli; cycone.cohom")
    assert {f"cycone.{layer}" for layer in layers} <= loaded


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["analyze", "--help"], 0),
        (["survey", "--help"], 0),
        (["analyze"], 1),  # no spec
        (["survey", "--emin", "x", "--emax", "1"], 1),
        (["nonsense"], 1),
    ],
    ids=["help", "analyze-help", "survey-help", "analyze-no-spec", "survey-bad-int", "unknown-command"],
)
def test_help_and_usage_errors_load_no_engine(argv, code):
    assert loaded_after(f"{QUIET_MAIN}\nassert main({argv!r}) == {code}") == FRONT


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--split", "0,1,2", "--json"],
        ["analyze", "--named", "S2TP2(-1)", "--tsv", "--meta"],
        ["survey", "--emin", "0", "--emax", "2", "--filter", "nef"],
    ],
    ids=["analyze-json", "analyze-tsv-meta", "survey"],
)
def test_analyze_and_survey_never_load_selftest(argv):
    loaded = loaded_after(f"{QUIET_MAIN}\nassert main({argv!r}) == 0")
    assert "cycone.report" in loaded
    assert "cycone.selftest" not in loaded


BUNDLE_LAYERS = {"cycone", "cycone.errors", "cycone.chow", "cycone.cohom", "cycone.bundles"}


def test_importing_a_layer_loads_only_what_it_imports():
    """``bundles`` imports ``cohom`` by ``import cycone.cohom as cohom``, which must not load the engine."""
    assert loaded_after("import cycone.bundles") == BUNDLE_LAYERS


def test_catalog_loads_only_the_bundle_layers():
    assert loaded_after(f"{QUIET_MAIN}\nassert main(['catalog']) == 0") == BUNDLE_LAYERS | FRONT


MODULES = ["errors", "exactnum", "chow", "cohom", "bundles", "invariants", "cone", "report", "cli", "selftest"]


@pytest.mark.parametrize("module", MODULES)
def test_any_module_imported_first_then_the_whole_surface(module):
    """A layer's own ``import cycone.x as x`` runs while it is half-initialized."""
    run_python(
        f"import cycone.{module}\n"
        "import cycone\n"
        "for name in cycone.__all__:\n"
        "    getattr(cycone, name)\n"
    )


def test_exports_are_the_defining_modules_objects():
    out = run_python(
        "import json, sys, cycone\n"
        "assert set(cycone.__all__) <= set(dir(cycone))\n"
        "bad = [n for n in cycone.__all__\n"
        "       if getattr(sys.modules[getattr(cycone, n).__module__], n) is not getattr(cycone, n)]\n"
        "print(json.dumps(bad))\n"
    )
    assert json.loads(out) == []


def test_public_surface_is_pinned():
    """Adding or removing an exported name is a deliberate change to this list."""
    assert sorted(cycone.__all__) == [
        "AnalysisReport", "BundleSpec", "ChernPair",
        "CohomologyTable", "CyconeError", "DomainError", "InvariantViolationError",
        "UnknownBundleError", "UnsupportedExpressionError",
        "allowed_splitting_types", "anticanonical_status", "boundary_root", "build_report",
        "c2_positivity", "catalog_entries", "chi_on_cy", "chi_rr", "cohom_expr", "cohom_line",
        "cohom_sym_tangent", "cone_restriction_case", "cy_invariants",
        "exceptional_surface_class", "gram_matrix", "h0_anticanonical", "parse_sheaf_expr",
        "rationality_verdict", "report_to_dict", "rho_of_x",
        "section_bounds",
    ]


def test_no_module_imports_fractions():
    """Every value the engine computes is an int: chi on X and the section
    bounds are checked integers, the boundary root is held as integers, and
    the 'p/q' writer takes ints only."""
    importers = set()
    for path in (ROOT / "src" / "cycone").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions" or (
                isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
            ):
                importers.add(path.stem)
    assert importers == set()


def test_dir_and_unknown_names_load_nothing():
    out = run_python(
        "import sys, cycone\n"
        "print(hasattr(cycone, 'no_such_name'), 'chow' in dir(cycone), 'cycone.chow' in sys.modules)\n"
    )
    assert out.split() == ["False", "True", "False"]


def test_a_layer_attribute_loads_every_traced_layer():
    """The benchmark's tracer wraps every layer it lists, so a layer attribute loads all of them."""
    out = run_python(
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from spans import LAYERS\n"
        "import cycone, cycone.cli\n"
        "cycone.cohom\n"
        "print([layer for layer in LAYERS if f'cycone.{layer}' not in sys.modules])\n"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["cycone", "analyze", "survey", "catalog", "selftest"])
def test_help_text_is_pinned(command, monkeypatch):
    """The epilogs list the column names without loading the engine; the text is unchanged."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "cycone" else [command, "--help"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"help-{command}.txt").read_bytes()


def test_column_names_have_one_definition():
    assert report.SURVEY_COLUMNS is cycone.SURVEY_COLUMNS
    assert report.ANALYZE_EXTRA_COLUMNS is cycone.ANALYZE_EXTRA_COLUMNS

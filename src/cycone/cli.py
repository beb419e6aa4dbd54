"""Command-line front end: ``cycone analyze | survey | catalog | selftest``.

Exit codes: 0 success, 1 usage error, 2 domain or invariant error.  Data
output is deterministic (stable ordering, no timestamps); ``--meta`` adds a
provenance block separately.

Each command imports the layers it uses when it runs, so building the
parser, printing help and reporting a usage error load no engine layer.
Those imports are absolute (``import cycone.report as report``), as in
every layer: a relative ``from . import report`` asks the package's lazy
``__getattr__``, which loads the whole engine, and in a function body it
costs about three times as much, which ``analyze`` and ``survey`` pay on
every call.

Each command is declared once, as plain data (``_COMMANDS``).  When
``argv[0]`` is exactly a command name, ``main`` reads the rest with that
command's reader, derived from the declaration at import: exact option
strings, their values and types, its groups, required options and
defaults.  Whatever the reader refuses (help, an abbreviation, ``--``, a
stray token, a bad value, a conflict or a missing option), and no argv or
an unknown command, goes to argparse, which is imported then, and the full
parser built from the same declaration reads it; its namespace adds
``command``, which nothing reads.  So argparse writes every help text and
usage message.
"""

from __future__ import annotations

import functools
import re
import sys
from types import SimpleNamespace

from . import ANALYZE_EXTRA_COLUMNS, MAX_RANGE, SURVEY_COLUMNS, __version__
from .errors import MAX_SPEC_VALUE, CyconeError, DomainError, _literal, bounded, quote_input

# The header line of ``analyze --tsv``.
ANALYZE_TSV_HEADER = "\t".join(SURVEY_COLUMNS + ANALYZE_EXTRA_COLUMNS)


class UsageError(Exception):
    pass


# Longest argparse usage message repeated in full.  argparse quotes the
# offending value whole, so a long one is cut to this many characters and
# its length is given instead, as ``errors.quote_input`` does for inputs.
USAGE_MESSAGE_LIMIT = 200


def _parse_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise UsageError(
            f"{what} needs {count} comma-separated integers, got {quote_input(text)}"
        )
    try:
        return tuple(_literal(p) for p in parts)
    except DomainError as exc:
        raise UsageError(f"{what}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{what}: not integers: {quote_input(text)}") from exc


def _spec_from_args(args):
    import cycone.bundles as bundles  # a from-import costs about 1 us more per call

    try:
        if args.split is not None:
            spec = bundles.BundleSpec.split(*_parse_ints(args.split, 3, "--split"))
        elif args.named is not None:
            spec = bundles.BundleSpec.named(args.named)
        else:
            spec = bundles.BundleSpec.chern_only(*_parse_ints(args.chern, 2, "--chern"))
        return spec.twist(args.twist)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _meta_block() -> dict:
    from datetime import datetime, timezone

    return {
        "tool": "cycone",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _meta_comment() -> str:
    """The provenance of ``_meta_block`` as a TSV comment line."""
    meta = _meta_block()
    return f"# generated_at={meta['generated_at']} version={meta['version']}"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_analyze(args) -> int:
    import cycone.report as report

    spec = _spec_from_args(args)
    rep = report.build_report(spec)
    if args.json:
        meta = _meta_block() if args.meta else None
        _emit(report.report_to_json(rep, meta), args.out)
    elif args.tsv:
        row = "\t".join(report.analyze_row_cells(rep))
        lines = [_meta_comment()] if args.meta else []
        lines += [ANALYZE_TSV_HEADER, row]
        _emit("\n".join(lines), args.out)
    else:
        _emit(report.render_text_report(rep), args.out)
    return 0


def _parse_filters(filters):
    keyed, flags = [], []
    for f in filters or ():
        if "=" in f:
            key, _, value = f.partition("=")
            key = key.strip()
            if key not in ("c1", "c2", "gamma"):
                raise UsageError(f"unknown filter key {quote_input(key)}")
            try:
                keyed.append((key, _literal(value)))
            except DomainError as exc:
                raise UsageError(f"filter {quote_input(f)}: {exc}") from exc
            except ValueError as exc:
                raise UsageError(f"filter {quote_input(f)}: value must be an integer") from exc
        elif (flag := f.strip()) in ("nef", "ample", "big", "tab"):
            flags.append(flag)
        else:
            raise UsageError(f"unknown filter {quote_input(f)}")
    return keyed, flags


def cmd_survey(args) -> int:
    import cycone.report as report

    try:
        bounded((args.emin,), "--emin")
        bounded((args.emax,), "--emax")
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    if args.emin > args.emax:
        raise UsageError("--emin must not exceed --emax")
    if args.emax - args.emin > MAX_RANGE:
        raise UsageError(f"range size {args.emax - args.emin} exceeds the cap {MAX_RANGE}")
    keyed, flags = _parse_filters(args.filter)
    lines = []
    if args.meta:
        import json

        lines.append(json.dumps({"meta": _meta_block()}) if args.json else _meta_comment())
    if not args.json:
        lines.append("\t".join(SURVEY_COLUMNS))
    lines += report.survey_lines(args.emin, args.emax, keyed, flags, args.json)
    _emit("\n".join(lines), args.out)
    return 0


def _catalog_cell(value) -> str:
    if isinstance(value, list):
        return "(" + ",".join(str(x) for x in value) + ")"
    return str(value)


def cmd_catalog(args) -> int:
    import json

    from cycone.bundles import catalog_entries, h0_anticanonical

    records = [
        {
            "name": spec.name,
            "c1": spec.chern.c1,
            "c2": spec.chern.c2,
            "gamma": spec.gamma,
            "splitting_type": list(spec.splitting_type),
            "h0_minus_k": h0_anticanonical(spec).value,
        }
        for spec in catalog_entries()
    ]
    if args.json:
        _emit(json.dumps(records, indent=2), args.out)
    else:
        lines = ["\t".join(records[0])]
        lines += ["\t".join(_catalog_cell(v) for v in rec.values()) for rec in records]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_selftest(args) -> int:
    from cycone.selftest import run_selftest

    failures = run_selftest()
    return 2 if failures else 0


# Each command once, as plain data: its help, its epilog, its function and
# its options in help order.  An option is (option string, kind, mutually
# exclusive group, ``add_argument`` keywords); a kind is "value", "flag"
# (``store_true``) or "append", and a group is (name, required) or None.
# ``_read`` and ``build_parser`` both read this table.
_SPEC, _FORMAT = ("spec", True), ("format", False)
_COMMANDS = {
    "analyze": (
        "full report for one bundle spec",
        (
            "TSV columns: "
            + " ".join(SURVEY_COLUMNS + ANALYZE_EXTRA_COLUMNS)
            + ". Tri-state columns print true/false/unknown. Every integer of the spec"
            f" (--split, --chern, --named exponents, --twist) lies in"
            f" [-{MAX_SPEC_VALUE}, {MAX_SPEC_VALUE}]."
        ),
        cmd_analyze,
        (
            ("--split", "value", _SPEC, {"metavar": "E1,E2,E3", "help": "split bundle exponents"}),
            ("--named", "value", _SPEC,
             {"metavar": "ID", "help": "catalog id or rank-3 sheaf expression"}),
            ("--chern", "value", _SPEC, {"metavar": "C1,C2", "help": "Chern numbers only"}),
            ("--twist", "value", None, {"type": int, "default": 0, "help": "tensor E by O(t) first"}),
            ("--json", "flag", _FORMAT, {"help": "emit the JSON report"}),
            ("--tsv", "flag", _FORMAT, {"help": "emit a one-row TSV report"}),
            ("--meta", "flag", None, {"help": "add provenance metadata"}),
            ("--out", "value", None, {"metavar": "FILE", "help": "write output to FILE"}),
        ),
    ),
    "survey": (
        "sweep all split types in a range",
        (
            "TSV columns: "
            + " ".join(SURVEY_COLUMNS)
            + ". Tri-state columns print true/false/unknown; rows are sorted by (e1, e2, e3)."
        ),
        cmd_survey,
        (
            ("--emin", "value", None, {"type": int, "required": True}),
            ("--emax", "value", None,
             {"type": int, "required": True, "help": f"at most emin + {MAX_RANGE}"}),
            ("--filter", "append", None, {"metavar": "F", "help": "c1=N, c2=N, gamma=N, or one of:"
                                          " nef ample big tab (repeatable; all must hold)"}),
            ("--json", "flag", None, {"help": "JSON-lines instead of TSV"}),
            ("--meta", "flag", None, {"help": "add provenance metadata"}),
            ("--out", "value", None, {"metavar": "FILE"}),
        ),
    ),
    "catalog": ("list the named bundles", None, cmd_catalog,
                (("--json", "flag", None, {}), ("--out", "value", None, {"metavar": "FILE"}))),
    "selftest": ("run the built-in regression checks", None, cmd_selftest, ()),
}
_ACTIONS = {"value": "store", "flag": "store_true", "append": "append"}


@functools.cache
def build_parser():
    """The ``cycone`` argument parser, built from ``_COMMANDS`` once per
    process and shared.

    Only help and usage errors need it, so argparse is imported here.
    ``parse_args`` keeps no state on the parser between calls, so every
    call reuses this one object.  Callers must not mutate it.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2; we use 1
            if len(message) > USAGE_MESSAGE_LIMIT:
                message = f"{message[:USAGE_MESSAGE_LIMIT]}... ({len(message)} chars)"
            raise UsageError(message)

    parser = Parser(prog="cycone", description="Exact invariants and Kahler-cone verdicts for"
                    " Calabi-Yau hypersurfaces in P2-bundles over P2.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, epilog, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, epilog=epilog)
        groups = {}
        for option, kind, group, keywords in options:
            if group and group not in groups:
                groups[group] = command.add_mutually_exclusive_group(required=group[1])
            container = groups[group] if group else command
            container.add_argument(option, action=_ACTIONS[kind], **keywords)
        command.set_defaults(func=func)
    return parser


def _reader(options, func) -> tuple:
    """What ``_read`` needs of one command: option string -> (dest, kind,
    type); (required, dests) of each group; the required dests; and the
    namespace defaults in argparse's order, ``func`` last."""
    table, groups, required, defaults = {}, {}, set(), {}
    for option, kind, group, keywords in options:
        dest = option.lstrip("-").replace("-", "_")  # argparse's own rule
        table[option] = (dest, kind, keywords.get("type"))
        if group:
            groups.setdefault(group, set()).add(dest)
        if keywords.get("required"):
            required.add(dest)
        defaults[dest] = keywords.get("default", False if kind == "flag" else None)
    groups = tuple((group_required, frozenset(dests)) for (_, group_required), dests in groups.items())
    return table, groups, frozenset(required), {**defaults, "func": func}


_READERS = {name: _reader(options, func) for name, (_, _, func, options) in _COMMANDS.items()}


# A comma-separated integer list, as --split and --chern take.
_INT_LIST = re.compile(r"\s*-?\d+(?:\s*,\s*-?\d+)*\s*")


def _join_int_list_values(argv: list[str]) -> list[str]:
    """Rewrite ``--split X`` / ``--chern X`` as ``--split=X`` when X is an integer list.

    argparse takes a separate value that starts with '-' (``-5,6,6``) for an
    option and reports a missing argument; the joined form is unambiguous.
    """
    out = []
    for tok in argv:
        if out and out[-1] in ("--split", "--chern") and _INT_LIST.fullmatch(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# A separate value that starts with '-' and that ``_read`` takes: argparse
# takes it too, as a negative number, on every Python version.
_NEGATIVE = re.compile(r"-[0-9]+")


def _read(reader: tuple, args: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would make of ``args`` with the command of
    ``reader``, or None wherever that is not certain.

    Taken: an exact option string as ``--opt=value`` or ``--opt value``, a
    separate value that starts with '-' only where it fully matches
    ``-[0-9]+``; an exact flag with no '='; a repeat only of an append
    option.  Anything else is None: help, ``--``, an abbreviation, a stray
    token, a value its ``type`` refuses, two members of one group, or a
    missing required option or group.
    """
    options, groups, required, defaults = reader
    values, present = {}, set()
    i, n = 0, len(args)
    while i < n:
        option, eq, value = args[i].partition("=")
        entry = options.get(option)
        if entry is None:
            return None
        dest, kind, convert = entry
        i += 1
        if kind == "flag":
            if eq:
                return None
            value = True
        elif not eq:
            if i == n:
                return None
            value = args[i]
            i += 1
            if value[:1] == "-" and not _NEGATIVE.fullmatch(value):
                return None
        elif value == "--":  # argparse drops it and stores []
            return None
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        # argparse counts a group member present unless its value is the default itself
        if kind == "flag" or value is not defaults.get(dest):
            present.add(dest)
        if kind == "append":
            values.setdefault(dest, []).append(value)
        elif dest in values:
            return None
        else:
            values[dest] = value
    if not required <= values.keys():
        return None
    for group_required, dests in groups:
        count = len(dests & present)
        if count > 1 or (group_required and not count):
            return None
    return SimpleNamespace(**{**defaults, **values})


def _parse_argv(argv: list[str]):
    """The namespace of ``argv``.  When ``argv[0]`` is exactly a command
    name, ``_read`` takes the rest from that command's reader; the full
    parser reads whatever ``_read`` gives None for, and no argv or an
    unknown command.  So argparse is imported only there (help, an
    abbreviation, ``--``, a usage error of argparse's), and writes every
    help text and usage message."""
    reader = _READERS.get(argv[0]) if argv else None
    args = None if reader is None else _read(reader, argv[1:])
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    argv = _join_int_list_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_argv(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"cycone: usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cycone: cannot write output: {exc}", file=sys.stderr)
        return 1
    except CyconeError as exc:
        print(f"cycone: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

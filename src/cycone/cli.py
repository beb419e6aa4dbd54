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

When ``argv[0]`` is exactly a command name, ``main`` reads the rest from
that command's reader table, derived once by ``build_parser`` from the
command's own argparse actions: exact option strings, their values and
types, its groups, required options and defaults.  Where the table cannot
give argparse's namespace for certain (help, an abbreviation, ``--``, a
stray token, a bad value, a conflict or a missing option), the command's
own parser (``build_parser().commands``) reads it, as the full parser would
hand it on; the namespace differs only in ``command``, which nothing reads.
So argparse writes every help text and usage message.  Anything else takes
the full parser: no argv, ``--help``, or an unknown command.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        if len(message) > USAGE_MESSAGE_LIMIT:
            message = f"{message[:USAGE_MESSAGE_LIMIT]}... ({len(message)} chars)"
        raise UsageError(message)


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


@functools.cache
def build_parser() -> _Parser:
    """The ``cycone`` argument parser, built once per process and shared.

    ``parse_args`` keeps no state on the parser between calls (each call
    gets a fresh namespace), so every ``main`` call reuses this one object.
    Callers must not mutate it.
    """
    parser = _Parser(
        prog="cycone",
        description=(
            "Exact invariants and Kahler-cone verdicts for Calabi-Yau "
            "hypersurfaces in P2-bundles over P2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, by name, for ``main``

    analyze = sub.add_parser(
        "analyze",
        help="full report for one bundle spec",
        epilog=(
            "TSV columns: "
            + " ".join(SURVEY_COLUMNS + ANALYZE_EXTRA_COLUMNS)
            + ". Tri-state columns print true/false/unknown. Every integer of the spec"
            f" (--split, --chern, --named exponents, --twist) lies in"
            f" [-{MAX_SPEC_VALUE}, {MAX_SPEC_VALUE}]."
        ),
    )
    spec_group = analyze.add_mutually_exclusive_group(required=True)
    spec_group.add_argument("--split", metavar="E1,E2,E3", help="split bundle exponents")
    spec_group.add_argument("--named", metavar="ID", help="catalog id or rank-3 sheaf expression")
    spec_group.add_argument("--chern", metavar="C1,C2", help="Chern numbers only")
    analyze.add_argument("--twist", type=int, default=0, help="tensor E by O(t) first")
    fmt = analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the JSON report")
    fmt.add_argument("--tsv", action="store_true", help="emit a one-row TSV report")
    analyze.add_argument("--meta", action="store_true", help="add provenance metadata")
    analyze.add_argument("--out", metavar="FILE", help="write output to FILE")
    analyze.set_defaults(func=cmd_analyze)

    survey = sub.add_parser(
        "survey",
        help="sweep all split types in a range",
        epilog=(
            "TSV columns: "
            + " ".join(SURVEY_COLUMNS)
            + ". Tri-state columns print true/false/unknown; rows are sorted by (e1, e2, e3)."
        ),
    )
    survey.add_argument("--emin", type=int, required=True)
    survey.add_argument(
        "--emax", type=int, required=True, help=f"at most emin + {MAX_RANGE}"
    )
    survey.add_argument(
        "--filter",
        action="append",
        metavar="F",
        help="c1=N, c2=N, gamma=N, or one of: nef ample big tab (repeatable; all must hold)",
    )
    survey.add_argument("--json", action="store_true", help="JSON-lines instead of TSV")
    survey.add_argument("--meta", action="store_true", help="add provenance metadata")
    survey.add_argument("--out", metavar="FILE")
    survey.set_defaults(func=cmd_survey)

    catalog = sub.add_parser("catalog", help="list the named bundles")
    catalog.add_argument("--json", action="store_true")
    catalog.add_argument("--out", metavar="FILE")
    catalog.set_defaults(func=cmd_catalog)

    selftest = sub.add_parser("selftest", help="run the built-in regression checks")
    selftest.set_defaults(func=cmd_selftest)

    for command in parser.commands.values():
        command.reader = _reader_table(command)
    return parser


# The argparse action classes the reader stands in for, by kind; an option
# of any other class (``-h`` among them) is left out, so naming it defers.
_READER_KINDS = {
    argparse._StoreAction: "value",
    argparse._StoreTrueAction: "flag",
    argparse._AppendAction: "append",
}


def _reader_table(command: argparse.ArgumentParser) -> tuple:
    """What ``_read`` needs of ``command``, from its own actions: option
    string -> (dest, kind, type); (required, dests) of each mutually
    exclusive group; the required dests; the namespace defaults, ``func``
    included, in argparse's order; and argparse's negative-number pattern,
    None where an option looks like a negative number."""
    options, defaults = {}, {}
    for action in command._actions:
        kind = _READER_KINDS.get(type(action))
        if kind and action.choices is None and (kind == "flag" or action.nargs is None):
            options.update(dict.fromkeys(action.option_strings, (action.dest, kind, action.type)))
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    groups = tuple(
        (group.required, frozenset(a.dest for a in group._group_actions))
        for group in command._mutually_exclusive_groups
    )
    required = frozenset(a.dest for a in command._actions if a.required)
    for dest, default in command._defaults.items():
        defaults.setdefault(dest, default)
    negative = None if command._has_negative_number_optionals else command._negative_number_matcher
    return options, groups, required, defaults, negative


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


def _read(table: tuple, args: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would make of ``args`` with the command of
    ``table``, or None wherever that is not certain.

    Taken: an exact option string as ``--opt=value`` or ``--opt value``, a
    separate value that starts with '-' only where argparse's
    negative-number rule makes it a value; an exact flag with no '='; a
    repeat only of an append option.  Anything else is None: help, ``--``,
    an abbreviation, a stray token, a value its ``type`` refuses, two
    members of one group, or a missing required option or group.
    """
    options, groups, required, defaults, negative = table
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
            if value[:1] == "-" and not (negative and negative.match(value)):
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
    return argparse.Namespace(**{**defaults, **values})


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``argv``.  When ``argv[0]`` is exactly a command
    name, ``_read`` takes the rest from that command's reader table, and
    the command's own parser reads it where ``_read`` gives None; the full
    parser reads anything else.  So argparse writes every help text and
    usage message."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _read(command.reader, argv[1:])
    return command.parse_args(argv[1:]) if args is None else args


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

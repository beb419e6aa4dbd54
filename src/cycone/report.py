"""Analysis reports and their JSON / TSV serialization.

Conventions (stable across releases):

* all JSON keys are snake_case;
* exact rationals are strings "p/q" (always with an explicit denominator);
* quadratic values are {"a": "p/q", "b": "r/s", "n": m}, the
  ``exactnum.quad_parts`` canonical form, which the text report also writes;
* tri-state facts serialize as "true" / "false" / "unknown";
* conditional values carry their hypotheses in an "assumes" list, and
  report-level caveats land in "warnings", all written by ``build_report``:
  the stage results decide and carry no caveat;
* data output is deterministic; provenance only appears under --meta.

An ``AnalysisReport`` is flat: one field per stage result, each held once
(the spec, h^0(-K_Z), the -K_Z status, rho, the pairings of X, h12, the
OZ3 boundary root, the verdict and its trail, c2 positivity, the
restriction case, which holds the surface class only where it decides, the
section bounds and the warnings).  Facts that follow from these are not
stored: gamma is ``spec.gamma``, c3(X) is ``pairings.c3``, the OZ1 root is
``k_root.scaled()`` and the pi*h ray's c2 value, 36, is ``pairings.h_c2``.

Where a JSON key comes from: the text that ``report_to_json`` writes is
the one codec, and ``report_to_dict`` is that text read back.  Each object
has a %-template built once at import for the depth it sits at, so the
text is ``json.dumps(d, indent=2)`` without a dict being built or walked.
The blocks of the rho, -K_Z status, h^0(-K_Z), pairings, section-bound and
restriction records take their keys from the record's fields, in field
order (h^0(-K_Z) and its > 1 verdict are written only in ``h0_minus_k``);
the spec, the boundary root (its branches, like the c2 boundary value, are
written by ``_quad`` from the integers the report holds), the
exceptional-surface class (under ``cone.kollar_case`` only) and the top
level with its ``cone`` block (and the derived ``gamma``, ``c3``,
``k_root_scaled`` and ``w_contains_boundary`` keys) are laid out by hand.
Every scalar goes through ``_json``, which writes a str, int, bool or None
by its exact type and refuses anything else.  There is no parser of
reports: a report is rebuilt from its spec, never decoded from its JSON.

The 12 survey columns are written in two places from one cell format,
``_class_values`` for the six a twist class shares (gamma to the verdict):
``analyze_row_cells`` writes a report's cells for ``analyze --tsv``, and
``_twist_class`` writes a class's six cells once per process, as TSV and
as a JSON fragment, straight from the stage results, into a table of at
most 91 classes.  ``survey_lines`` walks its range class by class (e1,
then e2 - e1, then e3 - e1, which is sorted-triple order), applies each
keyed filter where its value is fixed, and puts the class's cells between
each row's own five integers and its table admissibility.  Their names,
``SURVEY_COLUMNS`` and ``ANALYZE_EXTRA_COLUMNS``, are defined in the
package ``__init__`` (so the CLI's help can print them without loading the
engine) and re-exported here.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from math import comb

import cycone.cone as cone
import cycone.invariants as invariants
from . import ANALYZE_EXTRA_COLUMNS, MAX_RANGE, SURVEY_COLUMNS
from .bundles import BundleSpec, H0Anticanonical, h0_anticanonical
from .cone import BoundaryRoot, ConeRestriction, MinusKStatus
from .errors import InvariantViolationError
from .exactnum import format_rational, quad_parts, quad_text
from .invariants import RhoResult, SectionBounds, XPairings


def tri(value: bool | None) -> str:
    return "unknown" if value is None else ("true" if value else "false")


def _or(value, absent: str):
    """``value``, or the word written in its place when it is None."""
    return absent if value is None else value


class AnalysisReport(
    namedtuple(
        "AnalysisReport",
        [
            "spec",         # BundleSpec
            "h0_minus_k",   # H0Anticanonical
            "minus_k",      # MinusKStatus
            "rho",          # RhoResult
            "pairings",     # XPairings
            "h12",          # 3 gamma + 83 unless rho is known and not 2
            "k_root",       # BoundaryRoot, OZ3 normalization
            "verdict",
            "trail",
            "c2",           # C2Positivity
            "restriction",  # ConeRestriction: holds the surface class on an exceptional candidate
            "bounds",       # SectionBounds
            "warnings",
        ],
    )
):
    """Everything the analyzer knows about one bundle spec, each fact once."""

    __slots__ = ()


def tab_admissible(spec: BundleSpec) -> bool | None:
    """Whether the splitting type occurs in the admissible-type table."""
    stype = spec.splitting_type
    return None if stype is None else cone.is_allowed_splitting_type(*stype)


def stages(spec: BundleSpec):
    """h^0(-K_Z), the -K_Z status, rho and the verdict of ``spec``, each
    from the facts it decides from; the selftest calls it too.

    Where -K_Z is nef and big, Kawamata-Viehweg kills its higher
    cohomology, so h^0(-K_Z) must equal chi(Z, -K_Z) = 5 gamma + 100;
    an ``InvariantViolationError`` is raised when it does not.  Then
    5 gamma + 100 > 1 exactly where gamma >= -18, that is c3(X) <= -54:
    the two part only at gamma = -19, which, being 2 mod 3, no spec has.
    """
    h0 = h0_anticanonical(spec)
    minus_k = cone.anticanonical_status(spec)
    if minus_k.nef and minus_k.big and h0.value != 5 * spec.gamma + 100:
        raise InvariantViolationError(
            f"h0(-K_Z) = {h0.value} for {spec.describe()}, but -K_Z is nef and big,"
            f" so it must equal chi(Z, -K_Z) = 5 gamma + 100 = {5 * spec.gamma + 100}"
        )
    rho = invariants.rho_of_x(spec, minus_k)
    return h0, minus_k, rho, cone.rationality_verdict(h0)


def build_report(spec: BundleSpec) -> AnalysisReport:
    """One evaluation pass: each fact is computed once and handed on.

    The boundary root is solved once, in the OZ3 normalization, and the c2
    cross-check takes it as is.  The report owns all caveats: the stages
    decide, and the warnings are written here.
    """
    c = spec.chern
    pairings = invariants.cy_invariants(c)
    k_root = cone.boundary_root(c)
    h0, minus_k, rho, verdict = stages(spec)
    bounds = invariants.section_bounds(c, pairings)
    g = spec.gamma

    warnings = []
    if rho.value not in (None, 2):
        warnings.append(f"rho(X) = {rho.value} contradicts the rho(X) = 2 hypothesis")
    if verdict.verdict == cone.UNKNOWN:
        warnings.append("h0(-K_Z) may equal 1; open territory")
    h12 = 3 * g + 83 if rho.value in (None, 2) else None
    if rho.value is None:
        warnings.append("h12 assumes rho(X) = 2, which is not established for this spec")
    if h0.reason == "gamma-ge-minus-18":
        warnings.append("h0(-K_Z) > 1 is inferred from gamma >= -18 (assumes rho(X) = 2)")
    if g == -27:
        warnings.append("gamma = -27 is the validity edge for rho(X) = 2 (c3(X) = 0)")
    elif g < -27:
        warnings.append("gamma < -27 is inconsistent with rho(X) = 2")
    if h12 is not None and h12 < 0:
        warnings.append(f"h12 = {h12} is negative, so it is not a Hodge number of X")
    if not bounds.c1_ge_minus_1:
        warnings.append("c1 < -1 is impossible when O_X(1) is ample and -K_Z is nef")

    return AnalysisReport(
        spec=spec,
        h0_minus_k=h0,
        minus_k=minus_k,
        rho=rho,
        pairings=pairings,
        h12=h12,
        k_root=k_root,
        verdict=verdict.verdict,
        trail=verdict.trail,
        c2=cone.c2_positivity(c, k_root, pairings),
        restriction=cone.cone_restriction_case(spec, minus_k),
        bounds=bounds,
        warnings=tuple(warnings),
    )


# --- the JSON writer --------------------------------------------------------


class _Scalars(dict):
    def __missing__(self, kind):
        raise TypeError(f"no JSON form for a {kind.__name__} in a report")


# each JSON scalar's writer, by exact type, so that True is never written as 1
_SCALARS = _Scalars({str: encode_basestring_ascii, int: repr, type(None): {None: "null"}.__getitem__,
                     bool: {True: "true", False: "false"}.__getitem__})
_PADS = tuple("\n" + "  " * depth for depth in range(6))  # a newline and the indent of a depth


def _json(v) -> str:
    """A str, int, bool or None as JSON; a ``TypeError`` on any other type."""
    return _SCALARS[type(v)](v)


def _template(names, depth: int) -> str:
    """The %-template of an object with keys ``names`` whose braces sit at
    ``depth``: one ``%s`` a key, in order, for its value as JSON."""
    pad = _PADS[depth + 1]
    keys = (encode_basestring_ascii(name).replace("%", "%%") for name in names)
    return "{" + ",".join(f"{pad}{key}: %s" for key in keys) + _PADS[depth] + "}"


def _list(items, depth: int) -> str:
    """The array that sits at ``depth`` of ``items``, each already JSON."""
    pad = _PADS[depth + 1]
    body = ("," + pad).join(items)
    return f"[{pad}{body}{_PADS[depth]}]" if body else "[]"


def _scalars(values, depth: int) -> str:
    """The array of ``values`` (scalars), or null in place of None."""
    return "null" if values is None else _list(map(_json, values), depth)


# The layout of ``json.dumps(report_to_dict(r), indent=2)``, fixed here: each
# object's template at the one depth it sits at.  A record's keys are its
# fields, in field order.
_TOP_KEYS = ("spec", "gamma", "c3", "h12", "rho", "minus_k", "h0_minus_k", "pairings",
             "section_bounds", "cone", "warnings")
_TOP, _TOP_META = _template(_TOP_KEYS, 0), _template(_TOP_KEYS + ("meta",), 0)
_SPEC = _template(("kind", "name", "exponents", "twist", "c1", "c2", "splitting_type"), 1)
_RHO, _MINUS_K, _H0, _PAIRINGS, _BOUNDS = (
    _template(cls._fields, 1) for cls in (RhoResult, MinusKStatus, H0Anticanonical, XPairings, SectionBounds)
)
_CONE = _template(("k_root", "k_root_scaled", "verdict", "trail", "c2_min_value", "c2_minus_k_ray",
                   "c2_positive", "kollar_case", "w_contains_boundary"), 1)
_ROOT = _template(("k", "k_other", "exists", "normalization"), 2)
_RESTRICTION = _template(ConeRestriction._fields, 2)
_SURFACE = _template(("class_times_mu", "mu_candidates", "reduced_class"), 3)
_SURFACE_BASIS = _template(("xi2", "xi_h", "h2"), 4)  # h2 is the fiber class
_QUADS = {depth: _template(("a", "b", "n"), depth) for depth in (2, 3)}


def _quad(a: int, b: int, n: int, den: int, depth: int) -> str:
    """(a + b sqrt(n)) / den as a JSON object at ``depth``: the parts of
    ``quad_parts``, each ratio written "p/q"."""
    (p, q), (r, t), n = quad_parts(a, b, n, den)
    return _QUADS[depth] % (_json(f"{p}/{q}"), _json(f"{r}/{t}"), _json(n))


def _root(r: BoundaryRoot) -> str:
    k = k_other = "null"
    if r.exists:
        k, k_other = _quad(r.center, -r.s, r.n, r.den, 3), _quad(r.center, r.s, r.n, r.den, 3)
    return _ROOT % (k, k_other, _json(r.exists), _json(r.normalization))


def _restriction(kc: ConeRestriction) -> str:
    s, surface = kc.surface, "null"
    if s is not None:
        reduced = "null" if s.reduced is None else _SURFACE_BASIS % tuple(map(_json, s.reduced))
        surface = _SURFACE % (_SURFACE_BASIS % tuple(map(_json, s.coeffs)), _scalars(s.mu_candidates, 4), reduced)
    return _RESTRICTION % (_json(kc.case), _json(kc.via), surface)


def report_to_json(r: AnalysisReport, meta: dict | None = None) -> str:
    """The text of ``json.dumps(d, indent=2)`` for the report's JSON form
    ``d``, with ``meta`` (a flat str-keyed dict) last under "meta",
    written straight from the records."""
    spec, mk, h0, b, c2, root = r.spec, r.minus_k, r.h0_minus_k, r.bounds, r.c2, r.k_root
    values = (
        _SPEC % (_json(spec.kind), _json(spec.name), _scalars(spec.exponents, 2), _json(spec.twist_applied),
                 _json(spec.chern.c1), _json(spec.chern.c2), _scalars(spec.splitting_type, 2)),
        _json(spec.gamma),
        _json(r.pairings.c3),
        _json(r.h12),
        _RHO % tuple(map(_json, r.rho)),
        _MINUS_K % (_json(tri(mk.nef)), _json(tri(mk.ample)), _json(tri(mk.big)),
                    _list([_scalars(w, 3) for w in mk.witnesses], 2)),
        _H0 % (_json(h0.value), _json(tri(h0.gt1)), _json(h0.reason)),
        _PAIRINGS % tuple(map(_json, r.pairings)),
        _BOUNDS % (_json(format_rational(b.lower_bound_o1_minus_h)), _json(format_rational(b.chi_o1)),
                   _json(b.normal_bound), _json(b.c1_ge_minus_1), _json(b.positive_bound_forces_c1_ge_1),
                   _scalars(b.assumes, 2)),
        _CONE % (
            _root(root),
            _root(root.scaled()),
            _json(r.verdict),
            _scalars(r.trail, 2),
            "null" if c2.boundary is None else _quad(*c2.boundary, 2),
            _json(c2.minus_k_ray),
            _json(c2.positive),
            _restriction(r.restriction),
            # whether W contains the boundary is open; ROADMAP item 3 (the
            # nef cone ray by ray) is the change that gives it a value
            '"unknown"',
        ),
        _scalars(r.warnings, 1),
    )
    if meta is None:
        return _TOP % values
    block = _template(meta, 1) % tuple(map(_json, meta.values())) if meta else "{}"
    return _TOP_META % (*values, block)


def report_to_dict(r: AnalysisReport) -> dict:
    """The report's JSON form: ``report_to_json`` read back."""
    return json.loads(report_to_json(r))


# --- flat rows (survey and analyze --tsv) -----------------------------------


def _class_values(gamma: int, nef, ample, big, rho: int | None, verdict: str) -> list:
    """The six survey values a twist class shares, gamma to the verdict."""
    return [gamma, tri(nef), tri(ample), tri(big), _or(rho, "unknown"), verdict]


# the JSON key, written "<column>": , of each value a twist class shares
_CLASS_KEYS = tuple(f"{encode_basestring_ascii(name)}: " for name in SURVEY_COLUMNS[5:11])


@functools.lru_cache(maxsize=comb(MAX_RANGE + 2, 2))
def _twist_class(d1: int, d2: int):
    """The -K_Z status of the twist class (d1, d2) and its six cells, as
    TSV and as a JSON fragment, from ``stages`` of the split spec at
    (0, d1, d2).

    One table per process, of C(MAX_RANGE + 2, 2) = 91 classes: every
    class a survey within the CLI's range cap can meet.  A call that
    raises is not stored, so a failed check is met again by the next call.
    """
    spec = BundleSpec.split(0, d1, d2)
    _, minus_k, rho, verdict = stages(spec)
    values = _class_values(spec.gamma, minus_k.nef, minus_k.ample, minus_k.big, rho.value, verdict.verdict)
    return (
        minus_k,
        "\t".join(map(str, values)),
        ", ".join([k + _json(v) for k, v in zip(_CLASS_KEYS, values)]),
    )


def survey_lines(emin: int, emax: int, keyed, flags, as_json: bool) -> list[str]:
    """The TSV or JSON-lines rows of the sorted triples e1 <= e2 <= e3 in
    [emin, emax] that pass every filter, in lexicographic order.

    The range is walked class by class: e1 ascending, then d1 = e2 - e1 in
    [0, emax - e1], then d2 = e3 - e1 in [d1, emax - e1], so each row holds
    its twist class (d1, d2) as it is made.  Twisting by O(t) leaves
    Z = P(E) alone, so gamma, nef, ample, big, rho and the verdict depend
    only on the class: each one is evaluated once per process, by
    ``_twist_class``, whose table holds its -K_Z status and its six cells
    as TSV and as a JSON fragment.

    Each keyed filter (a ``(key, value)`` pair) is applied where its value
    is fixed, before the class is looked up: two values for one key pass
    no row; ``c1`` solves d2 = c1 - 3 e1 - d1, one row per (e1, d1) at
    most; ``gamma`` = d1^2 - d1 d2 + d2^2, the gamma of (0, d1, d2), is
    decided per class; ``c2`` per row.  ``tab`` drops a row before its
    class is looked up, and ``nef``/``ample``/``big`` are applied to the
    class's status on each call.  A row adds e1, e2, e3, c1, c2 and its
    table admissibility, tested only when c1 is in ``cone.ADMISSIBLE_C1``.
    """
    fixed = {}
    for key, value in keyed:
        if fixed.setdefault(key, value) != value:
            return []
    want_c1, want_c2, want_gamma = fixed.get("c1"), fixed.get("c2"), fixed.get("gamma")
    class_flags = [f for f in flags if f != "tab"]
    need_tab = "tab" in flags
    c1_window = cone.ADMISSIBLE_C1
    lines = []
    for e1 in range(emin, emax + 1):
        top = emax - e1
        for d1 in range(top + 1):
            e2 = e1 + d1
            if want_c1 is None:
                d2s = range(d1, top + 1)
            else:
                d2 = want_c1 - 3 * e1 - d1
                d2s = (d2,) if d1 <= d2 <= top else ()
            for d2 in d2s:
                if want_gamma is not None and d1 * d1 - d1 * d2 + d2 * d2 != want_gamma:
                    continue
                e3 = e1 + d2
                c2 = e1 * e2 + e1 * e3 + e2 * e3
                if want_c2 is not None and c2 != want_c2:
                    continue
                c1 = e1 + e2 + e3
                tab = c1 in c1_window and cone.is_allowed_splitting_type(e1, e2, e3)
                if need_tab and not tab:
                    continue
                minus_k, tsv, fragment = _twist_class(d1, d2)
                if class_flags and not all(getattr(minus_k, f) for f in class_flags):
                    continue
                if as_json:
                    lines.append(f'{{"e1": {e1}, "e2": {e2}, "e3": {e3}, "c1": {c1}, "c2": {c2},'
                                 f' {fragment}, "tab_admissible": "{tri(tab)}"}}')
                else:
                    lines.append(f"{e1}\t{e2}\t{e3}\t{c1}\t{c2}\t{tsv}\t{tri(tab)}")
    return lines


def analyze_row_cells(r: AnalysisReport) -> list[str]:
    """The ``SURVEY_COLUMNS + ANALYZE_EXTRA_COLUMNS`` cells of one report."""
    root = r.k_root
    extra = [
        r.pairings.c3,
        _or(r.h12, ""),
        _or(r.h0_minus_k.value, ""),
        tri(root.exists),
        tri(root.is_rational if root.exists else None),
        tri(r.c2.positive),
        r.restriction.case,
    ]
    spec, mk = r.spec, r.minus_k
    e1, e2, e3 = spec.splitting_type or ("", "", "")
    cells = [
        e1, e2, e3, spec.chern.c1, spec.chern.c2,
        *_class_values(spec.gamma, mk.nef, mk.ample, mk.big, r.rho.value, r.verdict),
        tri(tab_admissible(spec)),
    ]
    return [str(v) for v in cells + extra]


def render_text_report(r: AnalysisReport) -> str:
    """Human-readable rendering; mirrors the JSON content."""
    rho, h0, mk, root, kc = r.rho, r.h0_minus_k, r.minus_k, r.k_root, r.restriction
    via = f" via {kc.via}" if kc.via else ""
    k = quad_text(root.center, -root.s, root.n, root.den) if root.exists else "none"
    boundary = "n/a" if r.c2.boundary is None else quad_text(*r.c2.boundary)
    lines = [
        f"bundle: {r.spec.describe()}",
        f"  chern pair: ({r.spec.chern.c1}, {r.spec.chern.c2})   gamma: {r.spec.gamma}"
        f"   c3(X): {r.pairings.c3}   h12: {_or(r.h12, 'n/a')}",
        f"  rho(X): {_or(rho.value, 'unknown')} ({rho.reason})",
        f"  -K_Z: nef={tri(mk.nef)} ample={tri(mk.ample)} big={tri(mk.big)}"
        f" h0>1={tri(h0.gt1)}",
        f"  h0(-K_Z): {_or(h0.value, 'n/a')} ({h0.reason})",
        f"  cone boundary root k (O_Z(3) ray): {k}",
        f"  verdict: {r.verdict}  trail: {', '.join(r.trail) or '-'}",
        f"  c2(X) positivity: {tri(r.c2.positive)}"
        f" (boundary {boundary}, h-ray {r.pairings.h_c2})",
        f"  restriction K(X)=K(Z)|X: {kc.case}{via}",
    ]
    if kc.surface is not None:
        lines.append(f"  exceptional-surface class: coeffs {kc.surface.coeffs},"
                     f" mu candidates {list(kc.surface.mu_candidates)}")
    lines += [f"  warning: {w}" for w in r.warnings]
    return "\n".join(lines)

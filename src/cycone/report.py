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

Where a JSON key comes from: the writer is the one codec.  ``_record``
writes one key per record field, in field order, the -K_Z status among
them (h^0(-K_Z) and its > 1 verdict are written only in ``h0_minus_k``);
the spec, the boundary root (its branches, like the c2 boundary value, are
written by ``_quad`` from the integers the report holds), the
exceptional-surface class (under ``cone.kollar_case`` only) and the top
level with its ``cone`` block (and the derived ``gamma``, ``c3``,
``k_root_scaled`` and ``w_contains_boundary`` keys) are laid out by hand.
``_indented`` writes the text of ``json.dumps(d, indent=2)`` at under half
its cost, since CPython 3.11 indents in pure Python.  There is no reader:
a report is rebuilt from its spec, never decoded from its JSON.

The 12 survey columns are written in two places from one cell format,
``_class_values`` for the six a twist class shares (gamma to the verdict):
``analyze_row_cells`` writes a report's cells for ``analyze --tsv``, and
``survey_lines`` writes a class's six cells once, as TSV or as a JSON
fragment, straight from the stage results, between each row's own five
integers and its table admissibility.  Their names, ``SURVEY_COLUMNS`` and
``ANALYZE_EXTRA_COLUMNS``, are defined in the package ``__init__`` (so the
CLI's help can print them without loading the engine) and re-exported here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

import cycone.cone as cone
import cycone.invariants as invariants
from . import ANALYZE_EXTRA_COLUMNS, SURVEY_COLUMNS
from .bundles import BundleSpec, H0Anticanonical, h0_anticanonical
from .chow import ExceptionalSurfaceClass
from .cone import BoundaryRoot, ConeRestriction, MinusKStatus
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


def _stages(spec: BundleSpec):
    """h^0(-K_Z), the -K_Z status, rho and the verdict of ``spec``, each
    from the facts it decides from."""
    h0 = h0_anticanonical(spec)
    minus_k = cone.anticanonical_status(spec)
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
    h0, minus_k, rho, verdict = _stages(spec)
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


# --- encoders ---------------------------------------------------------------


def _nullable(encode: Callable) -> Callable:
    """``encode`` for a value that may be None, written as JSON null."""
    return lambda v: None if v is None else encode(v)


def _record(cls, **overrides: Callable) -> Callable:
    """The encoder of a record (a named tuple): one JSON key per field, in
    field order, written as-is unless ``overrides`` names its encoder."""
    encoders = [(name, overrides.get(name)) for name in cls._fields]
    return lambda obj: {n: getattr(obj, n) if f is None else f(getattr(obj, n)) for n, f in encoders}


_OPT_LIST = _nullable(list)
_SURFACE_BASIS = ("xi2", "xi_h", "h2")  # h2 is the fiber class


def _basis(v) -> dict:
    return dict(zip(_SURFACE_BASIS, v))


def _surface(s: ExceptionalSurfaceClass) -> dict:
    return {
        "class_times_mu": _basis(s.coeffs),
        "mu_candidates": list(s.mu_candidates),
        "reduced_class": _nullable(_basis)(s.reduced),
    }


def _quad(a: int, b: int, n: int, den: int) -> dict:
    """(a + b sqrt(n)) / den as JSON: the parts of ``quad_parts``, each
    ratio written "p/q"."""
    (p, q), (r, t), n = quad_parts(a, b, n, den)
    return {"a": f"{p}/{q}", "b": f"{r}/{t}", "n": n}


def _root(r: BoundaryRoot) -> dict:
    return {
        "k": _quad(r.center, -r.s, r.n, r.den) if r.exists else None,
        "k_other": _quad(r.center, r.s, r.n, r.den) if r.exists else None,
        "exists": r.exists,
        "normalization": r.normalization,
    }


_RHO = _record(RhoResult)
_H0 = _record(H0Anticanonical, gt1=tri)
_PAIRINGS = _record(XPairings)
_BOUNDS = _record(
    SectionBounds, lower_bound_o1_minus_h=format_rational, chi_o1=format_rational, assumes=list
)
_RESTRICTION = _record(ConeRestriction, surface=_nullable(_surface))
_MINUS_K = _record(
    MinusKStatus, nef=tri, ample=tri, big=tri, witnesses=lambda ws: [list(w) for w in ws]
)


# --- JSON layouts ---------------------------------------------------------


def spec_to_dict(spec: BundleSpec) -> dict:
    return {
        "kind": spec.kind,
        "name": spec.name,
        "exponents": _OPT_LIST(spec.exponents),
        "twist": spec.twist_applied,
        "c1": spec.chern.c1,
        "c2": spec.chern.c2,
        "splitting_type": _OPT_LIST(spec.splitting_type),
    }


def report_to_dict(r: AnalysisReport) -> dict:
    c2 = r.c2
    return {
        "spec": spec_to_dict(r.spec),
        "gamma": r.spec.gamma,
        "c3": r.pairings.c3,
        "h12": r.h12,
        "rho": _RHO(r.rho),
        "minus_k": _MINUS_K(r.minus_k),
        "h0_minus_k": _H0(r.h0_minus_k),
        "pairings": _PAIRINGS(r.pairings),
        "section_bounds": _BOUNDS(r.bounds),
        "cone": {
            "k_root": _root(r.k_root),
            "k_root_scaled": _root(r.k_root.scaled()),
            "verdict": r.verdict,
            "trail": list(r.trail),
            "c2_min_value": None if c2.boundary is None else _quad(*c2.boundary),
            "c2_minus_k_ray": c2.minus_k_ray,
            "c2_positive": c2.positive,
            "kollar_case": _RESTRICTION(r.restriction),
            # whether W contains the boundary is open; ROADMAP item 3 (the
            # nef cone ray by ray) is the change that gives it a value
            "w_contains_boundary": "unknown",
        },
        "warnings": list(r.warnings),
    }


# each JSON scalar's writer, by exact type, so that True is never written as 1
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): {None: "null"}.__getitem__,
            bool: {True: "true", False: "false"}.__getitem__}


def _indented(v, pad: str = "\n") -> str:
    """``json.dumps(v, indent=2)`` for str-keyed dicts, lists, str, int, bool and
    None, with a ``TypeError`` on any other type.  ``pad`` is the newline and
    indent that close ``v``; scalar items are written in place, not recursed into."""
    kind = type(v)
    if kind is not dict and kind is not list:
        write = _SCALARS.get(kind)
        if write is None:
            raise TypeError(f"no JSON form for a {kind.__name__} in a report: {v!r}")
        return write(v)
    if not v:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    parts = []
    if kind is list:
        for x in v:
            write = _SCALARS.get(type(x))
            parts.append(write(x) if write else _indented(x, inner))
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    for key, x in v.items():
        write = _SCALARS.get(type(x))
        parts.append(f"{encode_basestring_ascii(key)}: {write(x) if write else _indented(x, inner)}")
    return "{" + inner + ("," + inner).join(parts) + pad + "}"


def report_to_json(r: AnalysisReport, meta: dict | None = None) -> str:
    d = report_to_dict(r)
    if meta is not None:
        d["meta"] = meta
    return _indented(d)


# --- flat rows (survey and analyze --tsv) -----------------------------------


def _class_values(gamma: int, nef, ample, big, rho: int | None, verdict: str) -> list:
    """The six survey values a twist class shares, gamma to the verdict."""
    return [gamma, tri(nef), tri(ample), tri(big), _or(rho, "unknown"), verdict]


# the JSON key, written "<column>": , of each value a twist class shares
_CLASS_KEYS = tuple(f"{encode_basestring_ascii(name)}: " for name in SURVEY_COLUMNS[5:11])


def survey_lines(types, keyed, flags, as_json: bool) -> list[str]:
    """The TSV or JSON-lines rows of the triples that pass every filter.

    A row's c1, c2 and gamma come from its sorted triple, and the keyed
    filters (``(key, value)`` pairs) and ``tab`` drop it before its twist
    class (e2 - e1, e3 - e1) is looked up.  Twisting by O(t) leaves Z = P(E)
    alone, so gamma, nef, ample, big, rho and the verdict depend only on the
    class: each one is evaluated once, by ``_stages`` on the split spec at
    (0, e2 - e1, e3 - e1), in a memo that lives for this call only.  Its
    ``nef``/``ample``/``big`` filters are applied to its -K_Z status, and its
    six cells are written once, straight from the stage results, as TSV or
    as a JSON fragment; a row adds e1, e2, e3, c1, c2 and its table
    admissibility.
    """
    checks = [(("c1", "c2", "gamma").index(key), value) for key, value in keyed]
    class_flags = [f for f in flags if f != "tab"]
    need_tab = "tab" in flags
    classes = {}
    lines = []
    for exponents in types:
        e1, e2, e3 = sorted(exponents)
        c1, c2 = e1 + e2 + e3, e1 * e2 + e1 * e3 + e2 * e3
        if checks and any((c1, c2, c1 * c1 - 3 * c2)[i] != v for i, v in checks):
            continue
        tab = cone.is_allowed_splitting_type(e1, e2, e3)
        if need_tab and not tab:
            continue
        key = (e2 - e1, e3 - e1)
        cells = classes.get(key)
        if cells is None:
            spec = BundleSpec.split(0, *key)
            _, minus_k, rho, verdict = _stages(spec)
            values = _class_values(
                spec.gamma, minus_k.nef, minus_k.ample, minus_k.big, rho.value, verdict.verdict
            )
            if not all(getattr(minus_k, f) for f in class_flags):
                cells = ""  # the class fails a flag filter: none of its rows is written
            elif as_json:
                cells = ", ".join([k + _SCALARS[type(v)](v) for k, v in zip(_CLASS_KEYS, values)])
            else:
                cells = "\t".join(map(str, values))
            classes[key] = cells
        if not cells:
            continue
        if as_json:
            lines.append(f'{{"e1": {e1}, "e2": {e2}, "e3": {e3}, "c1": {c1}, "c2": {c2},'
                         f' {cells}, "tab_admissible": "{tri(tab)}"}}')
        else:
            lines.append(f"{e1}\t{e2}\t{e3}\t{c1}\t{c2}\t{cells}\t{tri(tab)}")
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

"""Analysis reports and their lossless JSON / TSV serialization.

Conventions (stable across releases):

* all JSON keys are snake_case;
* exact rationals are strings "p/q" (always with an explicit denominator);
* quadratic values are {"a": "p/q", "b": "r/s", "n": m};
* tri-state facts serialize as "true" / "false" / "unknown";
* conditional values carry their hypotheses in an "assumes" list, and
  report-level caveats land in "warnings";
* data output is deterministic; provenance only appears under --meta.

An ``AnalysisReport`` is flat: one field per stage result, each held once
(the spec, h^0(-K_Z), the -K_Z status, rho, the pairings of X, h12, the
OZ3 boundary root, the verdict and its trail, c2 positivity, the
restriction case, the exceptional-surface class, the section bounds and
the warnings).  Facts that follow from these are not stored: gamma is
``spec.gamma``, c3(X) is ``pairings.c3`` and the OZ1 root is
``k_root.scaled()``.

Where a JSON key comes from: a codec is an (encode, decode) pair, and each
key is written down in one of two places.  The records ``MinusKStatus``,
``BoundaryRoot``, ``RhoResult``, ``H0Anticanonical``, ``XPairings``,
``SectionBounds`` and ``ConeRestriction`` take their codec from
``_record``: one key per dataclass field, in field order, so renaming or
reordering a field changes the JSON.  Three layouts are written by hand,
once per direction: the spec (``spec_to_dict`` / ``spec_from_dict``, which
flatten ``chern`` and write ``twist_applied`` as ``twist``), the
exceptional-surface class (``_SURFACE``, keyed by basis names), and the
top level with its ``cone`` block (``report_to_dict`` /
``report_from_dict``, which group the roots, the verdict, the c2 facts as
``c2_*`` keys and the restriction case under ``cone``, and write the
derived ``gamma``, ``c3``, ``k_root_scaled`` and ``w_contains_boundary``
keys; the decoder does not read them, and rejects a JSON whose re-encoding
differs from it, so a derived key that contradicts the rest is refused).

The 12 survey columns come from ``SurveyRow.values``, which the TSV cells,
the JSON-lines rows and the first cells of ``analyze --tsv`` share.  Their
names, ``SURVEY_COLUMNS`` and ``ANALYZE_EXTRA_COLUMNS``, are defined in the
package ``__init__`` (so the CLI's help can print them without loading the
engine) and re-exported here.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import cycone.chow as chow
import cycone.cone as cone
import cycone.invariants as invariants
from . import ANALYZE_EXTRA_COLUMNS, SURVEY_COLUMNS
from .bundles import BundleSpec, H0Anticanonical, h0_anticanonical
from .chow import ChernPair, ExceptionalSurfaceClass, exceptional_surface_class
from .cone import BoundaryRoot, C2Positivity, ConeRestriction, MinusKStatus
from .errors import DomainError
from .exactnum import QuadValue, format_rational, parse_rational
from .invariants import RhoResult, SectionBounds, XPairings


def tri(value: bool | None) -> str:
    return "unknown" if value is None else ("true" if value else "false")


def untri(s: str) -> bool | None:
    table = {"true": True, "false": False, "unknown": None}
    if s not in table:
        raise DomainError(f"not a tri-state value: {s!r}")
    return table[s]


def _or(value, absent: str):
    """``value``, or the word written in its place when it is None."""
    return absent if value is None else value


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer knows about one bundle spec, each fact once."""

    spec: BundleSpec
    h0_minus_k: H0Anticanonical
    minus_k: MinusKStatus
    rho: RhoResult
    pairings: XPairings
    h12: int | None               # 3 gamma + 83 unless rho is known and not 2
    k_root: BoundaryRoot          # OZ3 normalization
    verdict: str
    trail: tuple[str, ...]
    c2: C2Positivity
    restriction: ConeRestriction
    surface: ExceptionalSurfaceClass
    bounds: SectionBounds
    warnings: tuple[str, ...]


def tab_admissible(spec: BundleSpec) -> bool | None:
    """Whether the splitting type occurs in the admissible-type table."""
    stype = spec.splitting_type
    if stype is None:
        return None
    return cone.is_allowed_splitting_type(*stype)


def build_report(spec: BundleSpec) -> AnalysisReport:
    """One evaluation pass: each fact is computed once and handed on.

    The boundary root is solved once, in the OZ3 normalization; the verdict
    and the c2 cross-check both take it as is.
    """
    c = spec.chern
    h0 = h0_anticanonical(spec)
    minus_k = cone.anticanonical_status(spec, h0)
    rho = invariants.rho_of_x(spec, minus_k)
    pairings = invariants.cy_invariants(c)
    k_root = cone.boundary_root(c)
    verdict = cone.rationality_verdict(spec, h0, rho, k_root)
    surface = exceptional_surface_class(c)
    bounds = invariants.section_bounds(c, pairings)
    g = spec.gamma

    # the verdict's notes become report warnings; the report owns all caveats
    warnings = list(verdict.notes)
    h12 = 3 * g + 83 if rho.value in (None, 2) else None
    if rho.value is None:
        warnings.append("h12 assumes rho(X) = 2, which is not established for this spec")
    if h0.reason == "gamma-ge-minus-18":
        warnings.append("h0(-K_Z) > 1 is inferred from gamma >= -18 (assumes rho(X) = 2)")
    if g == -27:
        warnings.append("gamma = -27 is the validity edge for rho(X) = 2 (c3(X) = 0)")
    elif g < -27:
        warnings.append("gamma < -27 is inconsistent with rho(X) = 2")
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
        restriction=cone.cone_restriction_case(minus_k, surface),
        surface=surface,
        bounds=bounds,
        warnings=tuple(warnings),
    )


# --- codecs ----------------------------------------------------------------


class _Codec(NamedTuple):
    """How one value is written to JSON and read back."""

    encode: Callable
    decode: Callable


def _nullable(codec: _Codec) -> _Codec:
    """``codec`` for a value that may be None, written as JSON null."""
    enc, dec = codec
    return _Codec(
        lambda v: None if v is None else enc(v), lambda j: None if j is None else dec(j)
    )


_TRI = _Codec(tri, untri)
_RAT = _Codec(format_rational, parse_rational)
_OPT_QUAD = _nullable(_Codec(QuadValue.to_json_dict, QuadValue.from_json_dict))
_LIST = _Codec(list, tuple)
_OPT_LIST = _nullable(_LIST)
_PAIRS = _Codec(lambda ws: [list(w) for w in ws], lambda ws: tuple(tuple(w) for w in ws))


def _record(cls, **overrides: _Codec) -> _Codec:
    """The codec of a dataclass: one JSON key per field, in field order.

    A field is written as-is unless ``overrides`` names its codec.
    """
    names = [f.name for f in fields(cls)]
    encoders = [(n, overrides[n].encode if n in overrides else None) for n in names]
    decoders = [(n, overrides[n].decode if n in overrides else None) for n in names]

    def encode(obj) -> dict:
        return {n: getattr(obj, n) if f is None else f(getattr(obj, n)) for n, f in encoders}

    def decode(d: dict):
        return cls(*[d[n] if f is None else f(d[n]) for n, f in decoders])

    return _Codec(encode, decode)


_SURFACE_BASIS = ("xi2", "xi_h", "h2")  # h2 is the fiber class
_BASIS = _Codec(
    lambda v: dict(zip(_SURFACE_BASIS, v)), lambda d: tuple(d[k] for k in _SURFACE_BASIS)
)
_OPT_BASIS = _nullable(_BASIS)


def _surface_to_json(s: ExceptionalSurfaceClass) -> dict:
    return {
        "class_times_mu": _BASIS.encode(s.coeffs),
        "mu_candidates": _LIST.encode(s.mu_candidates),
        "reduced_class": _OPT_BASIS.encode(s.reduced),
    }


def _surface_from_json(d: dict) -> ExceptionalSurfaceClass:
    return ExceptionalSurfaceClass(
        _BASIS.decode(d["class_times_mu"]),
        _LIST.decode(d["mu_candidates"]),
        _OPT_BASIS.decode(d["reduced_class"]),
    )


_SURFACE = _Codec(_surface_to_json, _surface_from_json)
_MINUS_K = _record(MinusKStatus, nef=_TRI, ample=_TRI, big=_TRI, h0_gt_1=_TRI, witnesses=_PAIRS)
_ROOT = _record(BoundaryRoot, k=_OPT_QUAD, k_other=_OPT_QUAD)
_RHO = _record(RhoResult)
_H0 = _record(H0Anticanonical, gt1=_TRI)
_PAIRINGS = _record(XPairings)
_BOUNDS = _record(SectionBounds, lower_bound_o1_minus_h=_RAT, chi_o1=_RAT, assumes=_LIST)
_RESTRICTION = _record(ConeRestriction, surface=_nullable(_SURFACE))


# --- JSON layouts ---------------------------------------------------------


def spec_to_dict(spec: BundleSpec) -> dict:
    return {
        "kind": spec.kind,
        "name": spec.name,
        "exponents": _OPT_LIST.encode(spec.exponents),
        "twist": spec.twist_applied,
        "c1": spec.chern.c1,
        "c2": spec.chern.c2,
        "splitting_type": _OPT_LIST.encode(spec.splitting_type),
    }


def spec_from_dict(d: dict) -> BundleSpec:
    """The spec back from its JSON; the atoms come from the exponents, else
    from the name under the twist (a Chern-only spec has neither)."""
    exps, name, twist = _OPT_LIST.decode(d["exponents"]), d["name"], d["twist"]
    if exps is not None:
        atoms = BundleSpec.split(*exps).atoms
    elif name is not None:
        atoms = BundleSpec.named(name).twist(twist).atoms
    else:
        atoms = None
    return BundleSpec(d["kind"], ChernPair(d["c1"], d["c2"]), atoms, name, twist)


def report_to_dict(r: AnalysisReport) -> dict:
    c2 = r.c2
    return {
        "spec": spec_to_dict(r.spec),
        "gamma": r.spec.gamma,
        "c3": r.pairings.c3,
        "h12": r.h12,
        "rho": _RHO.encode(r.rho),
        "minus_k": _MINUS_K.encode(r.minus_k),
        "h0_minus_k": _H0.encode(r.h0_minus_k),
        "pairings": _PAIRINGS.encode(r.pairings),
        "section_bounds": _BOUNDS.encode(r.bounds),
        "cone": {
            "k_root": _ROOT.encode(r.k_root),
            "k_root_scaled": _ROOT.encode(r.k_root.scaled()),
            "verdict": r.verdict,
            "trail": list(r.trail),
            "c2_min_value": _OPT_QUAD.encode(c2.boundary_value),
            "c2_minus_k_ray": c2.minus_k_ray,
            "c2_h_ray": c2.h_ray,
            "c2_positive": c2.positive,
            "kollar_case": _RESTRICTION.encode(r.restriction),
            # whether W contains the boundary is open; ROADMAP item 3 (the
            # nef cone ray by ray) is the change that gives it a value
            "w_contains_boundary": "unknown",
        },
        "g_surface": _SURFACE.encode(r.surface),
        "warnings": list(r.warnings),
    }


def _flat(d: dict) -> dict:
    """The report keys, with those of the ``cone`` block as ``cone.<key>``."""
    flat = {k: v for k, v in d.items() if k not in ("cone", "meta")}
    return flat | {f"cone.{k}": v for k, v in d["cone"].items()}


def report_from_dict(d: dict) -> AnalysisReport:
    """The report back from its JSON.  The derived keys (``gamma``, ``c3``,
    ``k_root_scaled``, ``w_contains_boundary``) are not read; instead a JSON
    that differs from the re-encoded report, less any ``meta``, is refused."""
    cd = d["cone"]
    rep = AnalysisReport(
        spec=spec_from_dict(d["spec"]),
        h0_minus_k=_H0.decode(d["h0_minus_k"]),
        minus_k=_MINUS_K.decode(d["minus_k"]),
        rho=_RHO.decode(d["rho"]),
        pairings=_PAIRINGS.decode(d["pairings"]),
        h12=d["h12"],
        k_root=_ROOT.decode(cd["k_root"]),
        verdict=cd["verdict"],
        trail=tuple(cd["trail"]),
        c2=C2Positivity(
            boundary_value=_OPT_QUAD.decode(cd["c2_min_value"]),
            minus_k_ray=cd["c2_minus_k_ray"],
            h_ray=cd["c2_h_ray"],
            positive=cd["c2_positive"],
        ),
        restriction=_RESTRICTION.decode(cd["kollar_case"]),
        surface=_SURFACE.decode(d["g_surface"]),
        bounds=_BOUNDS.decode(d["section_bounds"]),
        warnings=tuple(d["warnings"]),
    )
    given, again = _flat(d), _flat(report_to_dict(rep))
    bad = sorted(k for k in given.keys() | again.keys() if given.get(k) != again.get(k))
    if bad:
        raise DomainError(f"report JSON differs from its re-encoding at {bad}")
    return rep


def report_to_json(r: AnalysisReport, meta: dict | None = None) -> str:
    d = report_to_dict(r)
    if meta is not None:
        d["meta"] = meta
    return json.dumps(d, indent=2)


# --- flat rows (survey and analyze --tsv) -----------------------------------

@dataclass(frozen=True)
class SurveyRow:
    exponents: tuple[int, int, int] | None  # None for a Chern-only spec
    c1: int
    c2: int
    gamma: int
    nef: bool | None
    ample: bool | None
    big: bool | None
    rho: int | None
    verdict: str
    tab_admissible: bool | None  # None for a Chern-only spec

    def values(self) -> list:
        """The ``SURVEY_COLUMNS`` values, in column order."""
        e1, e2, e3 = self.exponents or ("", "", "")
        return [
            e1, e2, e3, self.c1, self.c2, self.gamma,
            tri(self.nef), tri(self.ample), tri(self.big),
            _or(self.rho, "unknown"),
            self.verdict, tri(self.tab_admissible),
        ]

    def cells(self) -> list[str]:
        return [str(v) for v in self.values()]

    def to_json_dict(self) -> dict:
        return dict(zip(SURVEY_COLUMNS, self.values()))


def _row(spec: BundleSpec, minus_k: MinusKStatus, rho: RhoResult, verdict: str) -> SurveyRow:
    return SurveyRow(
        exponents=spec.splitting_type,
        c1=spec.chern.c1,
        c2=spec.chern.c2,
        gamma=spec.gamma,
        nef=minus_k.nef,
        ample=minus_k.ample,
        big=minus_k.big,
        rho=rho.value,
        verdict=verdict,
        tab_admissible=tab_admissible(spec),
    )


def survey_row(exponents: tuple[int, int, int]) -> SurveyRow:
    spec = BundleSpec.split(*exponents)
    h0 = h0_anticanonical(spec)
    minus_k = cone.anticanonical_status(spec, h0)
    rho = invariants.rho_of_x(spec, minus_k)
    return _row(spec, minus_k, rho, cone.rationality_verdict(spec, h0, rho).verdict)


def survey_rows(types) -> list[SurveyRow]:
    """``survey_row`` of each triple, evaluated once per twist class.

    Twisting by O(t) leaves Z = P(E) alone, so nef, ample, big, rho and
    the verdict depend only on the class (e2 - e1, e3 - e1).  Each class
    is evaluated through ``survey_row`` at its representative
    (0, e2 - e1, e3 - e1), in a memo that lives for this call only; a row
    computes just its own c1, c2, gamma and table admissibility from the
    sorted triple, with no spec of its own.
    """
    classes = {}
    rows = []
    for exponents in types:
        e1, e2, e3 = exponents = tuple(sorted(exponents))
        key = (e2 - e1, e3 - e1)
        facts = classes.get(key)
        if facts is None:
            facts = classes[key] = survey_row((0, *key))
        c = chow.chern_pair_of_split(e1, e2, e3)
        rows.append(SurveyRow(
            exponents=exponents,
            c1=c.c1,
            c2=c.c2,
            gamma=c.gamma,
            nef=facts.nef,
            ample=facts.ample,
            big=facts.big,
            rho=facts.rho,
            verdict=facts.verdict,
            tab_admissible=cone.is_allowed_splitting_type(e1, e2, e3),
        ))
    return rows


def analyze_row_cells(r: AnalysisReport) -> list[str]:
    """The ``SURVEY_COLUMNS + ANALYZE_EXTRA_COLUMNS`` cells of one report."""
    root = r.k_root
    extra = [
        r.pairings.c3,
        _or(r.h12, ""),
        _or(r.h0_minus_k.value, ""),
        tri(root.exists),
        tri(root.k.is_rational if root.exists else None),
        tri(r.c2.positive),
        r.restriction.case,
    ]
    row = _row(r.spec, r.minus_k, r.rho, r.verdict)
    return row.cells() + [str(v) for v in extra]


def render_text_report(r: AnalysisReport) -> str:
    """Human-readable rendering; mirrors the JSON content."""
    rho, h0, mk, root, kc = r.rho, r.h0_minus_k, r.minus_k, r.k_root, r.restriction
    via = f" via {kc.via}" if kc.via else ""
    lines = [
        f"bundle: {r.spec.describe()}",
        f"  chern pair: ({r.spec.chern.c1}, {r.spec.chern.c2})   gamma: {r.spec.gamma}"
        f"   c3(X): {r.pairings.c3}   h12: {_or(r.h12, 'n/a')}",
        f"  rho(X): {_or(rho.value, 'unknown')} ({rho.reason})",
        f"  -K_Z: nef={tri(mk.nef)} ample={tri(mk.ample)} big={tri(mk.big)}"
        f" h0>1={tri(mk.h0_gt_1)}",
        f"  h0(-K_Z): {_or(h0.value, 'n/a')} ({h0.reason})",
        f"  cone boundary root k (O_Z(3) ray): {root.k if root.exists else 'none'}",
        f"  verdict: {r.verdict}  trail: {', '.join(r.trail) or '-'}",
        f"  c2(X) positivity: {tri(r.c2.positive)}"
        f" (boundary {_or(r.c2.boundary_value, 'n/a')}, h-ray 36)",
        f"  restriction K(X)=K(Z)|X: {kc.case}{via}",
        f"  exceptional-surface class: coeffs {r.surface.coeffs},"
        f" mu candidates {list(r.surface.mu_candidates) or 'none'}",
    ]
    lines += [f"  warning: {w}" for w in r.warnings]
    return "\n".join(lines)

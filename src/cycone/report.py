"""Analysis reports and their lossless JSON / TSV serialization.

Conventions (stable across releases):

* all JSON keys are snake_case;
* exact rationals are strings "p/q" (always with an explicit denominator);
* quadratic values are {"a": "p/q", "b": "r/s", "n": m};
* tri-state facts serialize as "true" / "false" / "unknown";
* conditional values carry their hypotheses in an "assumes" list, and
  report-level caveats land in "warnings";
* data output is deterministic; provenance only appears under --meta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from . import cone, invariants
from .bundles import BundleSpec, H0Anticanonical, h0_anticanonical
from .chow import ChernPair, ExceptionalSurfaceClass, exceptional_surface_class
from .cone import (
    BoundaryRoot,
    C2Positivity,
    ConeReport,
    ConeRestriction,
    MinusKStatus,
)
from .errors import DomainError
from .exactnum import QuadValue, format_rational, parse_rational
from .invariants import CYInvariants, RhoResult, SectionBounds, XPairings


def tri(value: bool | None) -> str:
    return "unknown" if value is None else ("true" if value else "false")


def untri(s: str) -> bool | None:
    table = {"true": True, "false": False, "unknown": None}
    if s not in table:
        raise DomainError(f"not a tri-state value: {s!r}")
    return table[s]


def _quad(v: QuadValue | None):
    return None if v is None else v.to_json_dict()


def _unquad(d) -> QuadValue | None:
    return None if d is None else QuadValue.from_json_dict(d)


def _rat(q: Fraction | None):
    return None if q is None else format_rational(q)


def _unrat(s) -> Fraction | None:
    return None if s is None else parse_rational(s)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer knows about one bundle spec."""

    spec: BundleSpec
    invariants: CYInvariants
    rho: RhoResult
    h0_minus_k: H0Anticanonical
    bounds: SectionBounds
    cone: ConeReport
    surface: ExceptionalSurfaceClass
    h12_display: int | None
    warnings: tuple[str, ...]


def tab_admissible(spec: BundleSpec) -> bool | None:
    """Whether the splitting type occurs in the admissible-type table."""
    stype = spec.splitting_type
    if stype is None:
        return None
    return tuple(stype) in cone.allowed_splitting_types(spec.chern.c1)


def build_report(spec: BundleSpec) -> AnalysisReport:
    """One evaluation pass: each fact is computed once and handed on."""
    h0 = h0_anticanonical(spec)
    minus_k = cone.anticanonical_status(spec, h0)
    rho = invariants.rho_of_x(spec, minus_k)
    inv = invariants.cy_invariants(spec.chern, rho.value)
    surface = exceptional_surface_class(spec.chern)
    cone_rep = cone.cone_report(spec, h0, minus_k, rho, surface, inv.pairings)
    bounds = invariants.section_bounds(spec.chern, inv.pairings)
    g = spec.gamma

    # cone notes become report warnings; the report owns all caveats
    warnings = list(cone_rep.notes)
    cone_rep = replace(cone_rep, notes=())
    h12_display = inv.h12
    if rho.value is None:
        h12_display = 3 * g + 83
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
        invariants=inv,
        rho=rho,
        h0_minus_k=h0,
        bounds=bounds,
        cone=cone_rep,
        surface=surface,
        h12_display=h12_display,
        warnings=tuple(warnings),
    )


# --- dict (de)serialization -------------------------------------------------


def spec_to_dict(spec: BundleSpec) -> dict:
    return {
        "kind": spec.kind,
        "name": spec.name,
        "exponents": list(spec.exponents) if spec.exponents else None,
        "twist": spec.twist_applied,
        "c1": spec.chern.c1,
        "c2": spec.chern.c2,
        "splitting_type": list(spec.splitting_type) if spec.splitting_type else None,
    }


def spec_from_dict(d: dict) -> BundleSpec:
    exponents = tuple(d["exponents"]) if d["exponents"] else None
    return BundleSpec(
        kind=d["kind"],
        chern=ChernPair(d["c1"], d["c2"]),
        exponents=exponents,
        name=d["name"],
        twist_applied=d["twist"],
    )


def _minus_k_to_dict(s: MinusKStatus) -> dict:
    return {
        "nef": tri(s.nef),
        "ample": tri(s.ample),
        "big": tri(s.big),
        "h0_gt_1": tri(s.h0_gt_1),
        "witnesses": [list(w) for w in s.witnesses],
    }


def _minus_k_from_dict(d: dict) -> MinusKStatus:
    return MinusKStatus(
        untri(d["nef"]),
        untri(d["ample"]),
        untri(d["big"]),
        untri(d["h0_gt_1"]),
        tuple(tuple(w) for w in d["witnesses"]),
    )


def _root_to_dict(r: BoundaryRoot) -> dict:
    return {
        "k": _quad(r.k),
        "k_other": _quad(r.k_other),
        "exists": r.exists,
        "normalization": r.normalization,
    }


def _root_from_dict(d: dict) -> BoundaryRoot:
    return BoundaryRoot(_unquad(d["k"]), _unquad(d["k_other"]), d["exists"], d["normalization"])


_SURFACE_BASIS = ("xi2", "xi_h", "h2")  # h2 is the fiber class


def _surface_to_dict(s: ExceptionalSurfaceClass) -> dict:
    return {
        "class_times_mu": dict(zip(_SURFACE_BASIS, s.coeffs)),
        "mu_candidates": list(s.mu_candidates),
        "reduced_class": dict(zip(_SURFACE_BASIS, s.reduced)) if s.reduced else None,
    }


def _surface_from_dict(d: dict) -> ExceptionalSurfaceClass:
    coeffs = tuple(d["class_times_mu"][k] for k in _SURFACE_BASIS)
    raw = d["reduced_class"]
    reduced = tuple(raw[k] for k in _SURFACE_BASIS) if raw else None
    return ExceptionalSurfaceClass(coeffs, tuple(d["mu_candidates"]), reduced)


def report_to_dict(r: AnalysisReport) -> dict:
    inv, c2 = r.invariants, r.cone.c2
    restriction = r.cone.restriction
    return {
        "spec": spec_to_dict(r.spec),
        "gamma": inv.gamma,
        "c3": inv.c3,
        "h12": r.h12_display,
        "rho": {"value": r.rho.value, "reason": r.rho.reason},
        "minus_k": _minus_k_to_dict(r.cone.minus_k),
        "h0_minus_k": {
            "value": r.h0_minus_k.value,
            "gt1": tri(r.h0_minus_k.gt1),
            "reason": r.h0_minus_k.reason,
        },
        "pairings": {
            "o1_cubed": inv.pairings.o1_cubed,
            "o1_sq_h": inv.pairings.o1_sq_h,
            "o1_fiber": inv.pairings.o1_fiber,
            "o1_c2": inv.pairings.o1_c2,
            "h_c2": inv.pairings.h_c2,
            "c3": inv.pairings.c3,
        },
        "section_bounds": {
            "lower_bound_o1_minus_h": _rat(r.bounds.lower_bound_o1_minus_h),
            "chi_o1": _rat(r.bounds.chi_o1),
            "normal_bound": r.bounds.normal_bound,
            "c1_ge_minus_1": r.bounds.c1_ge_minus_1,
            "positive_bound_forces_c1_ge_1": r.bounds.positive_bound_forces_c1_ge_1,
            "assumes": list(r.bounds.assumes),
        },
        "cone": {
            "k_root": _root_to_dict(r.cone.k_root),
            "k_root_scaled": _root_to_dict(r.cone.k_root_scaled),
            "verdict": r.cone.verdict,
            "trail": list(r.cone.trail),
            "c2_min_value": _quad(c2.boundary_value),
            "c2_minus_k_ray": c2.minus_k_ray,
            "c2_h_ray": c2.h_ray,
            "c2_positive": c2.positive,
            "kollar_case": {
                "case": restriction.case,
                "via": restriction.via,
                "surface": _surface_to_dict(restriction.surface) if restriction.surface else None,
            },
            "w_contains_boundary": tri(r.cone.w_contains_boundary),
        },
        "g_surface": _surface_to_dict(r.surface),
        "warnings": list(r.warnings),
    }


def report_from_dict(d: dict) -> AnalysisReport:
    pairings = XPairings(**d["pairings"])
    inv = CYInvariants(
        gamma=d["gamma"],
        c3=d["c3"],
        h12=d["h12"] if d["rho"]["value"] == 2 else None,
        pairings=pairings,
        gamma_in_rho2_range=d["gamma"] >= -27,
    )
    sb = d["section_bounds"]
    bounds = SectionBounds(
        lower_bound_o1_minus_h=_unrat(sb["lower_bound_o1_minus_h"]),
        chi_o1=_unrat(sb["chi_o1"]),
        normal_bound=sb["normal_bound"],
        c1_ge_minus_1=sb["c1_ge_minus_1"],
        positive_bound_forces_c1_ge_1=sb["positive_bound_forces_c1_ge_1"],
        assumes=tuple(sb["assumes"]),
    )
    cd = d["cone"]
    kollar = cd["kollar_case"]
    restriction = ConeRestriction(
        case=kollar["case"],
        via=kollar["via"],
        surface=_surface_from_dict(kollar["surface"]) if kollar["surface"] else None,
    )
    c2 = C2Positivity(
        boundary_value=_unquad(cd["c2_min_value"]),
        minus_k_ray=cd["c2_minus_k_ray"],
        h_ray=cd["c2_h_ray"],
        positive=cd["c2_positive"],
        gamma_in_rho2_range=d["gamma"] >= -27,
    )
    cone_rep = ConeReport(
        minus_k=_minus_k_from_dict(d["minus_k"]),
        k_root=_root_from_dict(cd["k_root"]),
        k_root_scaled=_root_from_dict(cd["k_root_scaled"]),
        verdict=cd["verdict"],
        trail=tuple(cd["trail"]),
        notes=(),
        c2=c2,
        restriction=restriction,
        w_contains_boundary=untri(cd["w_contains_boundary"]),
    )
    return AnalysisReport(
        spec=spec_from_dict(d["spec"]),
        invariants=inv,
        rho=RhoResult(d["rho"]["value"], d["rho"]["reason"]),
        h0_minus_k=H0Anticanonical(
            d["h0_minus_k"]["value"], untri(d["h0_minus_k"]["gt1"]), d["h0_minus_k"]["reason"]
        ),
        bounds=bounds,
        cone=cone_rep,
        surface=_surface_from_dict(d["g_surface"]),
        h12_display=d["h12"],
        warnings=tuple(d["warnings"]),
    )


def report_to_json(r: AnalysisReport, meta: dict | None = None) -> str:
    d = report_to_dict(r)
    if meta is not None:
        d["meta"] = meta
    return json.dumps(d, indent=2)


# --- flat rows (survey and analyze --tsv) -----------------------------------

SURVEY_COLUMNS = (
    "e1", "e2", "e3", "c1", "c2", "gamma",
    "nef", "ample", "big", "rho", "verdict", "tab_admissible",
)

ANALYZE_EXTRA_COLUMNS = (
    "c3", "h12", "h0_minus_k", "k_exists", "k_rational", "c2_positive", "kollar_case",
)


@dataclass(frozen=True)
class SurveyRow:
    exponents: tuple[int, int, int]
    c1: int
    c2: int
    gamma: int
    nef: bool | None
    ample: bool | None
    big: bool | None
    rho: int | None
    verdict: str
    tab_admissible: bool

    def cells(self) -> list[str]:
        return [
            str(self.exponents[0]), str(self.exponents[1]), str(self.exponents[2]),
            str(self.c1), str(self.c2), str(self.gamma),
            tri(self.nef), tri(self.ample), tri(self.big),
            "unknown" if self.rho is None else str(self.rho),
            self.verdict, tri(self.tab_admissible),
        ]

    def to_json_dict(self) -> dict:
        return dict(zip(SURVEY_COLUMNS, [
            self.exponents[0], self.exponents[1], self.exponents[2],
            self.c1, self.c2, self.gamma,
            tri(self.nef), tri(self.ample), tri(self.big),
            self.rho if self.rho is not None else "unknown",
            self.verdict, tri(self.tab_admissible),
        ]))


def survey_row(exponents: tuple[int, int, int]) -> SurveyRow:
    spec = BundleSpec.split(*exponents)
    h0 = h0_anticanonical(spec)
    minus_k = cone.anticanonical_status(spec, h0)
    rho = invariants.rho_of_x(spec, minus_k)
    verdict = cone.rationality_verdict(spec, h0, rho)
    return SurveyRow(
        exponents=spec.exponents,
        c1=spec.chern.c1,
        c2=spec.chern.c2,
        gamma=spec.gamma,
        nef=minus_k.nef,
        ample=minus_k.ample,
        big=minus_k.big,
        rho=rho.value,
        verdict=verdict.verdict,
        tab_admissible=bool(tab_admissible(spec)),
    )


def analyze_row_cells(r: AnalysisReport) -> list[str]:
    spec = r.spec
    exps = spec.splitting_type or ("", "", "")
    root = r.cone.k_root
    base = [
        str(exps[0]), str(exps[1]), str(exps[2]),
        str(spec.chern.c1), str(spec.chern.c2), str(r.invariants.gamma),
        tri(r.cone.minus_k.nef), tri(r.cone.minus_k.ample), tri(r.cone.minus_k.big),
        "unknown" if r.rho.value is None else str(r.rho.value),
        r.cone.verdict, tri(tab_admissible(spec)),
    ]
    extra = [
        str(r.invariants.c3),
        "" if r.h12_display is None else str(r.h12_display),
        "" if r.h0_minus_k.value is None else str(r.h0_minus_k.value),
        tri(root.exists),
        tri(root.k.is_rational if root.exists else None),
        tri(r.cone.c2.positive),
        r.cone.restriction.case,
    ]
    return base + extra


def render_text_report(r: AnalysisReport) -> str:
    """Human-readable rendering; mirrors the JSON content."""
    d = report_to_dict(r)
    lines = [f"bundle: {r.spec.describe()}"]
    lines.append(
        f"  chern pair: ({d['spec']['c1']}, {d['spec']['c2']})   gamma: {d['gamma']}"
        f"   c3(X): {d['c3']}   h12: {d['h12'] if d['h12'] is not None else 'n/a'}"
    )
    lines.append(
        f"  rho(X): {d['rho']['value'] if d['rho']['value'] is not None else 'unknown'}"
        f" ({d['rho']['reason']})"
    )
    mk = d["minus_k"]
    lines.append(
        f"  -K_Z: nef={mk['nef']} ample={mk['ample']} big={mk['big']}"
        f" h0>1={mk['h0_gt_1']}"
    )
    h0 = d["h0_minus_k"]
    lines.append(
        f"  h0(-K_Z): {h0['value'] if h0['value'] is not None else 'n/a'} ({h0['reason']})"
    )
    root = r.cone.k_root
    k_str = str(root.k) if root.exists else "none"
    lines.append(f"  cone boundary root k (O_Z(3) ray): {k_str}")
    lines.append(f"  verdict: {d['cone']['verdict']}  trail: {', '.join(d['cone']['trail']) or '-'}")
    c2v = r.cone.c2.boundary_value
    lines.append(
        f"  c2(X) positivity: {tri(r.cone.c2.positive)}"
        f" (boundary {c2v if c2v is not None else 'n/a'}, h-ray 36)"
    )
    kc = d["cone"]["kollar_case"]
    via = f" via {kc['via']}" if kc["via"] else ""
    lines.append(f"  restriction K(X)=K(Z)|X: {kc['case']}{via}")
    gs = d["g_surface"]
    coeffs = tuple(gs["class_times_mu"][k] for k in _SURFACE_BASIS)
    lines.append(
        f"  exceptional-surface class: coeffs {coeffs},"
        f" mu candidates {gs['mu_candidates'] or 'none'}"
    )
    for w in d["warnings"]:
        lines.append(f"  warning: {w}")
    return "\n".join(lines)

"""cycone: exact invariants and Kahler-cone verdicts for Calabi-Yau
hypersurfaces in rank-3 projective bundles over the projective plane.

The public surface, by layer:

* :mod:`cycone.exactnum`   exact rationals and quadratic irrationals
* :mod:`cycone.chow`       the ambient Chow ring, Chern calculus, pairing data
* :mod:`cycone.cohom`      sheaf cohomology on P2 and the expression grammar
* :mod:`cycone.bundles`    bundle specs and the named catalog
* :mod:`cycone.invariants` invariants of the hypersurface (gamma, c3, h12, chi)
* :mod:`cycone.cone`       boundary roots, c2 positivity, verdicts
* :mod:`cycone.report`     report assembly and serialization
* :mod:`cycone.cli`        the ``cycone`` command
"""

from .bundles import BundleSpec, CatalogEntry, catalog_entries, h0_anticanonical
from .chow import ChernPair, ChowClass, exceptional_surface_class, gram_matrix
from .cohom import CohomologyTable, chi_rr, cohom_expr, cohom_line, cohom_sym_tangent, parse_sheaf_expr
from .cone import (
    allowed_splitting_types,
    anticanonical_status,
    boundary_root,
    c2_positivity,
    cone_report,
    cone_restriction_case,
    rationality_verdict,
)
from .errors import (
    CyconeError,
    DomainError,
    InvariantViolationError,
    MixedRadicalError,
    UnknownBundleError,
    UnsupportedExpressionError,
)
from .exactnum import QuadValue, sqrt_to_quad
from .invariants import chi_on_cy, cy_invariants, rho_of_x, section_bounds
from .report import AnalysisReport, build_report, report_from_dict, report_to_dict

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BundleSpec",
    "CatalogEntry",
    "ChernPair",
    "ChowClass",
    "CohomologyTable",
    "CyconeError",
    "DomainError",
    "InvariantViolationError",
    "MixedRadicalError",
    "QuadValue",
    "UnknownBundleError",
    "UnsupportedExpressionError",
    "allowed_splitting_types",
    "anticanonical_status",
    "boundary_root",
    "build_report",
    "c2_positivity",
    "catalog_entries",
    "chi_on_cy",
    "chi_rr",
    "cohom_expr",
    "cohom_line",
    "cohom_sym_tangent",
    "cone_report",
    "cone_restriction_case",
    "cy_invariants",
    "exceptional_surface_class",
    "gram_matrix",
    "h0_anticanonical",
    "parse_sheaf_expr",
    "rationality_verdict",
    "report_from_dict",
    "report_to_dict",
    "rho_of_x",
    "section_bounds",
    "sqrt_to_quad",
]

"""cycone: exact invariants and Kahler-cone verdicts for Calabi-Yau
hypersurfaces in rank-3 projective bundles over the projective plane.

The public surface, by layer:

* :mod:`cycone.exactnum`   exact rationals, and quadratic numbers as integers
* :mod:`cycone.chow`       the ambient Chow ring, Chern calculus, pairing data
* :mod:`cycone.cohom`      sheaf cohomology on P2 and the expression grammar
* :mod:`cycone.bundles`    bundle specs and the named catalog
* :mod:`cycone.invariants` pairings of the hypersurface (c3 among them), rho, chi
* :mod:`cycone.cone`       boundary roots, c2 positivity, verdicts
* :mod:`cycone.report`     report assembly and serialization
* :mod:`cycone.cli`        the ``cycone`` command

Names load on first use: ``import cycone`` runs no layer, and the first
access to a name of ``__all__`` or to a layer attribute (``cycone.cohom``)
imports the whole engine at once.  So the ``cycone`` command parses its
arguments, prints help and reports usage errors without loading it.  The
layers import each other by absolute import (``import cycone.cohom as
cohom``), which never reaches this module's ``__getattr__``, so importing
one layer loads only the layers it needs.
"""

import importlib

__version__ = "0.1.0"

# The exported names by the layer that defines them, in import order.
_LAYERS = {
    "errors": (
        "CyconeError",
        "DomainError",
        "InvariantViolationError",
        "UnknownBundleError",
        "UnsupportedExpressionError",
    ),
    "exactnum": (),
    "chow": ("ChernPair", "exceptional_surface_class", "gram_matrix"),
    "cohom": (
        "CohomologyTable",
        "chi_rr",
        "cohom_expr",
        "cohom_line",
        "cohom_sym_tangent",
        "parse_sheaf_expr",
    ),
    "bundles": ("BundleSpec", "catalog_entries", "h0_anticanonical"),
    "invariants": ("chi_on_cy", "cy_invariants", "rho_of_x", "section_bounds"),
    "cone": (
        "allowed_splitting_types",
        "anticanonical_status",
        "boundary_root",
        "c2_positivity",
        "cone_restriction_case",
        "rationality_verdict",
    ),
    "report": ("AnalysisReport", "build_report", "report_to_dict"),
}

__all__ = sorted(name for names in _LAYERS.values() for name in names)

# The column names of the flat rows: ``survey`` (TSV and JSON lines) and
# ``analyze --tsv``.  ``cycone.report`` re-exports them; they are defined
# here so that the CLI's help lists them without loading the engine.
SURVEY_COLUMNS = (
    "e1", "e2", "e3", "c1", "c2", "gamma",
    "nef", "ample", "big", "rho", "verdict", "tab_admissible",
)

ANALYZE_EXTRA_COLUMNS = (
    "c3", "h12", "h0_minus_k", "k_exists", "k_rational", "c2_positive", "kollar_case",
)

# Largest emax - emin a survey accepts: 455 split types at the cap.  The
# row count grows with the cube of the range, so the cap is fixed.  It is
# defined here so that ``cycone.report`` sizes its twist-class table from
# it without loading the CLI.
MAX_RANGE = 12


def __getattr__(name):
    if name not in _LAYERS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for layer, names in _LAYERS.items():
        module = importlib.import_module(f"{__name__}.{layer}")
        for attr in names:
            globals()[attr] = getattr(module, attr)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))

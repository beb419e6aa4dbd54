"""Bundle specifications: split, named-catalog and Chern-numbers-only.

A BundleSpec is the single input type for all verdict machinery.  Split and
catalog bundles know their generic splitting type on lines (all catalog
entries are uniform).  A split entry carries its exponents; every other
catalog entry carries its bundle as a sheaf expression, whose Chern data
must equal the hand-typed pair.  h^0(-K_Z) = h^0(S^3 E (3 - c1)) is a sum
over exponent multisets for split bundles and ``cohom.cohom_expr`` for the
rest.

Twisting E by O(t) changes the Chern pair and splitting type but not Z, so
every anticanonical quantity is computed from the untwisted catalog data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

from . import cohom
from .chow import ChernPair, chern_pair_of_split
from .errors import DomainError, UnknownBundleError, quote_input

SPLIT, NAMED, CHERN_ONLY = "split", "named", "chern"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    chern: ChernPair
    splitting_type: tuple[int, int, int]
    exponents: tuple[int, int, int] | None = None
    expr: object | None = None  # the bundle as a SheafExpr, when it does not split


def _entry(name, c1, c2, stype, exponents=None, expr=None):
    if expr is not None:
        expr = cohom.parse_sheaf_expr(expr)
    return CatalogEntry(name, ChernPair(c1, c2), tuple(stype), exponents, expr)


CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in (
        _entry("O+O(1)+O(2)", 3, 2, (0, 1, 2), exponents=(0, 1, 2)),
        _entry("2O+O(3)", 3, 0, (0, 0, 3), exponents=(0, 0, 3)),
        _entry("TP2+O", 3, 3, (0, 1, 2), expr="SymT(1,0)+O"),
        _entry("TP2(-1)+O(2)", 3, 3, (0, 1, 2), expr="SymT(1,-1)+O(2)"),
        _entry("S2TP2(-1)", 3, 6, (0, 1, 2), expr="sym(SymT(1,-1),2)"),
        # The normal-bundle sequence 0 -> T -> T_P3|P2 -> O(1) -> 0 splits,
        # because Ext^1(O(1), T) = H^1(T(-1)) = 0.
        _entry("TP3restP2", 4, 6, (1, 1, 2), expr="SymT(1,0)+O(1)"),
    )
}

# The four uniform bundles of splitting type (0,1,2), in their survey order.
UNIFORM_012_NAMES = ("O+O(1)+O(2)", "TP2+O", "TP2(-1)+O(2)", "S2TP2(-1)")


@dataclass(frozen=True)
class BundleSpec:
    """A rank-3 bundle on P2, given as much or as little as is known."""

    kind: str
    chern: ChernPair
    exponents: tuple[int, int, int] | None = None
    name: str | None = None
    twist_applied: int = 0

    @classmethod
    def split(cls, e1: int, e2: int, e3: int) -> "BundleSpec":
        exps = tuple(sorted((e1, e2, e3)))
        return cls(SPLIT, chern_pair_of_split(*exps), exponents=exps)

    @classmethod
    def named(cls, name: str) -> "BundleSpec":
        entry = CATALOG.get(name)
        if entry is not None:
            return cls(NAMED, entry.chern, exponents=entry.exponents, name=name)
        # fall back to the expression grammar for line-bundle sums
        try:
            expr = cohom.parse_sheaf_expr(name)
        except DomainError as exc:
            raise UnknownBundleError(f"unknown bundle {quote_input(name)}: {exc}") from exc
        # The rank is read off the tree before anything is expanded, so a
        # sym() whose expansion would run to millions of atoms is refused here.
        exps = cohom.line_bundle_exponents(expr) if cohom.expr_rank(expr) == 3 else None
        if exps is None:
            raise UnknownBundleError(
                f"{quote_input(name)} is not a catalog id or a rank-3 sum of line bundles"
            )
        return cls.split(*exps)

    @classmethod
    def chern_only(cls, c1: int, c2: int) -> "BundleSpec":
        return cls(CHERN_ONLY, ChernPair(c1, c2))

    # --- derived data ------------------------------------------------------

    @property
    def gamma(self) -> int:
        return self.chern.gamma

    @property
    def entry(self) -> CatalogEntry | None:
        return CATALOG.get(self.name) if self.name else None

    @property
    def splitting_type(self) -> tuple[int, int, int] | None:
        if self.exponents is not None:
            return self.exponents
        entry = self.entry
        if entry is not None:
            t = self.twist_applied
            return tuple(e + t for e in entry.splitting_type)
        return None

    @property
    def uniform(self) -> bool | None:
        """Whether the splitting type is the same on every line (None = unknown)."""
        if self.kind == CHERN_ONLY:
            return None
        return True  # split bundles and all catalog entries are uniform

    def twist(self, t: int) -> "BundleSpec":
        """The spec of E tensor O(t); Z itself is unchanged."""
        if t == 0:
            return self
        if self.exponents is not None:
            exps = tuple(e + t for e in self.exponents)
            return replace(
                self, chern=self.chern.twist(t), exponents=exps,
                twist_applied=self.twist_applied + t,
            )
        return replace(
            self, chern=self.chern.twist(t), twist_applied=self.twist_applied + t
        )

    def describe(self) -> str:
        if self.kind == SPLIT:
            return "O(%d)+O(%d)+O(%d)" % self.exponents
        if self.kind == NAMED:
            base = self.name
            return base if not self.twist_applied else f"{base} (x) O({self.twist_applied})"
        return f"chern ({self.chern.c1}, {self.chern.c2})"

    def end_difference_exponents(self) -> list[int] | None:
        """Exponents of End(E) when E splits; None otherwise."""
        if self.exponents is None:
            return None
        return [ej - ei for ei in self.exponents for ej in self.exponents]


@dataclass(frozen=True)
class H0Anticanonical:
    """h^0(-K_Z) when computable, plus the > 1 verdict with its provenance."""

    value: int | None
    gt1: bool | None
    reason: str


def _split_sections_h0(exponents, c1: int) -> int:
    t = 3 - c1
    return sum(
        cohom.h0_line(sum(triple) + t)
        for triple in combinations_with_replacement(exponents, 3)
    )


def h0_anticanonical(spec: BundleSpec) -> H0Anticanonical:
    """h^0(-K_Z) = h^0(S^3 E (3 - c1)), exact for split and catalog bundles.

    For Chern-only specs the > 1 question falls back to the topological
    bound: gamma >= -18 forces h^0(-K_Z) > 1 (assuming rho(X) = 2), and
    below that the answer is open.
    """
    value = None
    if spec.exponents is not None:
        value = _split_sections_h0(spec.exponents, spec.chern.c1)
    elif (entry := spec.entry) is not None:
        sections = cohom.TwistBy(cohom.SymPower(entry.expr, 3), 3 - entry.chern.c1)
        value = cohom.cohom_expr(sections).h0
    if value is not None:
        return H0Anticanonical(value, value > 1, "exact")
    if spec.gamma >= -18:
        return H0Anticanonical(None, True, "gamma-ge-minus-18")
    return H0Anticanonical(None, None, "open-below-gamma-minus-18")


def catalog_entries() -> list[CatalogEntry]:
    return sorted(CATALOG.values(), key=lambda e: e.name)

"""Bundle specifications: split, named and Chern-numbers-only.

A BundleSpec is the single input type for all verdict machinery.  All but
Chern-only specs carry the normal form ``atoms``: the sorted (a, b) pairs of
``cohom.normalize``, each meaning S^a T(b) (a = 0 for O(b)).  Every fact of
E is read off that form:

* the splitting type on lines: T|L = O(1) + O(2), so S^a T(b) restricts to
  every line L as O(a+b) + O(a+b+1) + ... + O(2a+b); the type is uniform;
* ``exponents``, the sorted b's when every atom is a line bundle;
* h^0(-K_Z) = h^0(S^3 E (3 - c1)), ten binomials C(s + 5 - c1, 2) over the
  exponent sums s = e_i + e_j + e_k (i <= j <= k) when every atom is a line
  bundle, and ``cohom.cohom_atoms`` of S^3 of the atoms otherwise.

``splitting_type`` is a field, filled in by the constructors and shifted
by ``twist``, so reading it costs an attribute lookup; ``exponents`` is a
property that returns it when every atom is a line bundle.  Being functions
of the atoms, neither takes part in ``==``, ``hash`` or ``repr``.

The Chern pair is ``cohom.chern_data`` of the parsed expression.  One
builder, ``_spec_of_expr``, makes a spec of a parsed expression: of the six
catalog expressions once at import, and of any other text ``named`` reads.
The catalog names rank-3 sheaf expressions, split ones included; any other
expression is named by its atoms, so its name depends on the bundle only.
Twisting E by O(t) shifts every b and changes the Chern pair, but not Z.
Each constructor refuses an input of its own (exponent, named splitting
type, Chern number) past ``errors.MAX_SPEC_VALUE``, with the message the CLI
prints for that option, and ``twist`` refuses such a t.  The values a twist
derives are not bounded; the comment on the bound says why that is enough.
"""

from __future__ import annotations

from collections import namedtuple

import cycone.cohom as cohom
from .chow import ChernPair, chern_pair_of_split
from .errors import DomainError, UnknownBundleError, bounded, quote_input

SPLIT, NAMED, CHERN_ONLY = "split", "named", "chern"


def _atoms_name(atoms) -> str:
    """The atoms written largest a first, as ``SymT(a,b)`` or ``O(b)`` (``O`` for b = 0).

    >>> _atoms_name(((0, 2), (1, 0)))
    'SymT(1,0)+O(2)'
    """
    return "+".join(
        f"SymT({a},{b})" if a else (f"O({b})" if b else "O")
        for a, b in sorted(atoms, key=lambda atom: -atom[0])
    )


def _splitting_type(atoms) -> tuple[int, ...]:
    """The atoms restricted to any line, as sorted degrees."""
    return tuple(sorted(a + b + j for a, b in atoms for j in range(a + 1)))


class BundleSpec(
    namedtuple(
        "BundleSpec",
        "kind chern atoms name twist_applied splitting_type",
        defaults=(None, None, 0, None),
    )
):
    """A rank-3 bundle on P2, given as much or as little as is known.

    ``kind`` is ``SPLIT``, ``NAMED`` or ``CHERN_ONLY`` and ``chern`` a
    ``ChernPair``; ``atoms`` are the sorted S^a T(b) pairs (None for a
    Chern-only spec), ``name`` the catalog id or expression name of a named
    spec and ``twist_applied`` the t of E (x) O(t).  ``splitting_type`` is
    E restricted to any line, as sorted degrees (None for a Chern-only spec);
    it is read off ``atoms``, so ``==``, ``hash`` and ``repr`` see only the
    first five fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and self[:5] == other[:5]

    def __ne__(self, other):
        return type(self) is not type(other) or self[:5] != other[:5]

    def __hash__(self):
        return hash(self[:5])

    def __repr__(self):
        return "BundleSpec(kind=%r, chern=%r, atoms=%r, name=%r, twist_applied=%r)" % self[:5]

    @classmethod
    def split(cls, e1: int, e2: int, e3: int) -> "BundleSpec":
        e1, e2, e3 = exps = tuple(sorted(bounded((e1, e2, e3), "--split")))
        return cls(SPLIT, chern_pair_of_split(e1, e2, e3), ((0, e1), (0, e2), (0, e3)), None, 0, exps)

    @classmethod
    def named(cls, name: str) -> "BundleSpec":
        """The spec built at import for a catalog id, else ``_spec_of_expr``
        of ``name`` read as a rank-3 expression of the sheaf grammar."""
        spec = CATALOG.get(name)
        if spec is not None:
            return spec
        try:
            expr = cohom.parse_sheaf_expr(name)
        except DomainError as exc:
            raise UnknownBundleError(f"unknown bundle {quote_input(name)}: {exc}") from exc
        return _spec_of_expr(expr, name)

    @classmethod
    def chern_only(cls, c1: int, c2: int) -> "BundleSpec":
        return cls(CHERN_ONLY, ChernPair(*bounded((c1, c2), "--chern")))

    # --- derived data ------------------------------------------------------

    @property
    def gamma(self) -> int:
        return self.chern.gamma

    @property
    def exponents(self) -> tuple[int, ...] | None:
        """The degrees of the line bundles E splits into, or None when it does not."""
        atoms = self.atoms  # sorted, so the last atom has the largest a
        return self.splitting_type if atoms is not None and atoms[-1][0] == 0 else None

    def twist(self, t: int) -> "BundleSpec":
        """The spec of E tensor O(t); Z itself is unchanged."""
        bounded((t,), "--twist")
        if t == 0:
            return self
        atoms = None if self.atoms is None else tuple((a, b + t) for a, b in self.atoms)
        stype = None if self.splitting_type is None else tuple(d + t for d in self.splitting_type)
        return type(self)(self.kind, self.chern.twist(t), atoms, self.name, self.twist_applied + t, stype)

    def describe(self) -> str:
        if self.kind == SPLIT:
            return "O(%d)+O(%d)+O(%d)" % self.splitting_type
        if self.kind == NAMED:
            base = self.name
            return base if not self.twist_applied else f"{base} (x) O({self.twist_applied})"
        return f"chern ({self.chern.c1}, {self.chern.c2})"


def _spec_of_expr(expr, text: str, catalog_id: str | None = None) -> BundleSpec:
    """The spec of ``expr``, parsed from ``text``: named ``catalog_id`` if given,
    else a split spec for a sum of line bundles, else named by its atoms."""
    # normalize refuses a rank of cohom.RANK_CAP or more, or a degree past
    # cohom.DEGREE_BITS_CAP, at the first node that reaches it, so a sym()
    # never expands to millions of atoms; the rank is read off the atoms.
    not_rank_3 = f"{quote_input(text)} is not a catalog id or a rank-3 sheaf expression"
    try:
        atoms = tuple(sorted(cohom.normalize(expr)))
    except DomainError as exc:
        raise UnknownBundleError(f"{not_rank_3}: {exc}") from exc
    if sum(a + 1 for a, _ in atoms) != 3:
        raise UnknownBundleError(not_rank_3)
    stype = bounded(_splitting_type(atoms), "--named splitting-type")
    if catalog_id is None and atoms[-1][0] == 0:
        return BundleSpec.split(*(b for _, b in atoms))
    data = cohom.chern_data(expr)
    name = catalog_id or _atoms_name(atoms)
    return BundleSpec(NAMED, ChernPair(data.c1, data.c2), atoms, name, 0, stype)


# The catalog: each id with its sheaf expression, in id order.
_CATALOG_TEXTS = (
    ("2O+O(3)", "2O+O(3)"),
    ("O+O(1)+O(2)", "O+O(1)+O(2)"),
    ("S2TP2(-1)", "sym(SymT(1,-1),2)"),
    ("TP2(-1)+O(2)", "SymT(1,-1)+O(2)"),
    ("TP2+O", "SymT(1,0)+O"),
    # The normal-bundle sequence 0 -> T -> T_P3|P2 -> O(1) -> 0 splits,
    # because Ext^1(O(1), T) = H^1(T(-1)) = 0.
    ("TP3restP2", "SymT(1,0)+O(1)"),
)

CATALOG: dict[str, BundleSpec] = {
    name: _spec_of_expr(cohom.parse_sheaf_expr(text), text, name) for name, text in _CATALOG_TEXTS
}

# The four uniform bundles of splitting type (0,1,2), in their survey order.
UNIFORM_012_NAMES = ("O+O(1)+O(2)", "TP2+O", "TP2(-1)+O(2)", "S2TP2(-1)")


class H0Anticanonical(namedtuple("H0Anticanonical", "value gt1 reason")):
    """h^0(-K_Z) when computable (else None), plus the > 1 verdict (None when
    open) with its provenance."""

    __slots__ = ()


def _split_sections_h0(exponents, c1: int) -> int:
    """h^0(S^3 E (3 - c1)) for E = O(e1) + O(e2) + O(e3): the sum of
    h^0(O(d)) = C(d + 2, 2), zero for d < 0, over the ten degrees
    d = e_i + e_j + e_k + 3 - c1 with i <= j <= k, each taken as m = d + 2."""
    e1, e2, e3 = exponents
    t = 5 - c1
    total = 0
    for m in (3 * e1 + t, 3 * e2 + t, 3 * e3 + t, 2 * e1 + e2 + t, 2 * e1 + e3 + t,
              2 * e2 + e1 + t, 2 * e2 + e3 + t, 2 * e3 + e1 + t, 2 * e3 + e2 + t, e1 + e2 + e3 + t):
        if m > 1:
            total += m * (m - 1)
    return total // 2


def h0_anticanonical(spec: BundleSpec) -> H0Anticanonical:
    """h^0(-K_Z) = h^0(S^3 E (3 - c1)), exact for every spec with atoms.

    A sum of line bundles takes the ten binomials of ``_split_sections_h0``,
    many times cheaper than the atom route, which takes the rest: S^3 of
    the atoms by ``cohom.sym_atoms``, twisted, then ``cohom.cohom_atoms``.  For
    Chern-only specs the > 1 question falls back to the topological bound:
    gamma >= -18 (c3(X) <= -54) forces h^0(-K_Z) > 1 (assuming rho(X) = 2), and
    below it is open; the verdict has no other gamma test (atom specs: h^0 >= 55).
    """
    value = None
    exps = spec.exponents
    if exps is not None:
        value = _split_sections_h0(exps, spec.chern.c1)
    elif spec.atoms is not None:
        t = 3 - spec.chern.c1
        value = cohom.cohom_atoms([(a, b + t) for a, b in cohom.sym_atoms(spec.atoms, 3)]).h0
    if value is not None:
        return H0Anticanonical(value, value > 1, "exact")
    if spec.gamma >= -18:
        return H0Anticanonical(None, True, "gamma-ge-minus-18")
    return H0Anticanonical(None, None, "open-below-gamma-minus-18")


def catalog_entries() -> list[BundleSpec]:
    """The six catalog specs, in id order; each is ``BundleSpec.named`` of its id."""
    return list(CATALOG.values())

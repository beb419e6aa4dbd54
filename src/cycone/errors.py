"""Exception hierarchy and input limits shared by all modules."""

from __future__ import annotations

import re

# Longest input an error message repeats in full; longer inputs are cut to
# this many characters and their length is given instead.
ECHO_LIMIT = 40


def quote_input(text: str) -> str:
    """``repr(text)`` for an error message, cut to ``ECHO_LIMIT`` characters.

    >>> quote_input("nope")
    "'nope'"
    >>> quote_input("dual(" * 100)
    "'dual(dual(dual(dual(dual(dual(dual(dual('... (500 chars)"
    """
    if len(text) <= ECHO_LIMIT:
        return repr(text)
    return f"{text[:ECHO_LIMIT]!r}... ({len(text)} chars)"


class CyconeError(Exception):
    """Base class for all library errors."""


class DomainError(CyconeError, ValueError):
    """An operation was called outside its mathematical domain."""


class UnsupportedExpressionError(DomainError):
    """A sheaf expression falls outside the evaluable fragment.

    Carries the offending node so callers can report it.
    """

    def __init__(self, node, message: str = ""):
        self.node = node
        detail = message or "expression is not evaluable"
        super().__init__(f"{detail}: {node!r}")


class UnknownBundleError(DomainError):
    """A bundle name is neither a catalog id nor a rank-3 sheaf expression."""


class InvariantViolationError(CyconeError):
    """Two independent computations of the same quantity disagree."""


# Largest |value| of an input to a spec: each ``BundleSpec`` constructor
# checks its own inputs and ``twist`` checks t; what a twist derives is not
# bounded.  A report factors 9 - 4 gamma by trial division, and gamma does
# not change under a twist and is at least -9 on a spec with atoms (a split
# one has gamma = sum_{i<j} (e_i - e_j)^2 / 2 >= 0), so the radicand stays
# at most 120,009 (Chern-only) and every report takes milliseconds.
MAX_SPEC_VALUE = 10_000


def bounded(values: tuple[int, ...], what: str) -> tuple[int, ...]:
    """``values``, each of which must be an ``int`` in [-MAX_SPEC_VALUE,
    MAX_SPEC_VALUE]; any other type, a whole float included, is refused by
    its type name (the str of a huge ``Fraction`` would raise)."""
    for v in values:
        if type(v) is not int:
            raise DomainError(f"{what} value of type {type(v).__name__} is not an integer")
        if abs(v) > MAX_SPEC_VALUE:
            # too long to quote (and str() raises past 4300 digits): give the size
            val = v if abs(v) < 10**ECHO_LIMIT else f"of {v.bit_length()} bits"
            raise DomainError(f"{what} value {val} is outside [-{MAX_SPEC_VALUE}, {MAX_SPEC_VALUE}]")
    return values


def _literal(text: str) -> int:
    """``int(text)``, but a literal too long for ``int`` (by default over 4,300
    digits) is a DomainError; ``int``'s ValueError is left for the caller to word."""
    try:
        return int(text)
    except ValueError as exc:
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text) is None:
            raise
        digits = sum(map(str.isdigit, text))
        raise DomainError(f"integer literal of {digits} digits is too long to read") from exc

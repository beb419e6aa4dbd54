"""Exact sheaf cohomology on P2.

Every expression the grammar builds from line bundles O(k) and the family
S^a T(b) (symmetric powers of the tangent bundle, twisted) through finite
direct sums, twists, duals, symmetric powers and endomorphism bundles is
evaluable.  T_P2 has rank 2, so every such bundle is a sum of S^a T(b),
with a = 0 for O(b); ``normalize`` writes it in that form from four rules,
with det T = O(3):

* twist shifts b;
* dual sends S^a T(b) to S^a T(-3a - b);
* tensor products follow Clebsch-Gordan,
  S^a T (x) S^c T = sum_{j <= min(a, c)} S^(a+c-2j) T (x) det^j;
* symmetric powers follow Cayley-Sylvester,
  S^p(S^a T) = sum_j m_j S^(pa-2j) T (x) det^j, where m_j = N(j) - N(j-1)
  and N(j) counts the partitions of j that fit in a p x a box; S^p of a
  sum is sum_i S^i A (x) S^(p-i) B, and End(E) = E^v (x) E.

``cohom_expr`` and ``chi_rr`` refuse an expression of rank ``RANK_CAP`` or
more with a DomainError before anything is expanded.  Only an unknown node
raises UnsupportedExpressionError.

Method notes:

* With Q = T(-1), S^a T(b) = S^a Q(k) for k = a + b is irreducible, and
  Bott's theorem puts its cohomology in one degree: h^0 if k >= 0, h^2 if
  a + k + 2 < 0, else h^1.  That entry is |chi|, chi = (a+1)(k+1)(a+k+2)/2,
  the Weyl dimension of S_(a+k, k) C^3 when k >= 0; a = 0 gives O(k).
* ``chi_rr`` is a second route to chi, Riemann-Roch on P2,
  chi = rank + c1(c1+3)/2 - c2, through the splitting principle on the
  unexpanded tree.  The tables never call it, so the two check each other.

``ChernData`` is integral: it carries (rank, c1, ch2x2) with
ch2x2 = 2 ch2 = c1^2 - 2 c2, so 2 chi = ch2x2 + 3 c1 + 2 rank, and the
integrality of chi is checked as the parity of that sum.  Nothing is
cached; all functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .errors import (
    DomainError,
    InvariantViolationError,
    UnsupportedExpressionError,
    quote_input,
)

# --- expression trees ------------------------------------------------------


@dataclass(frozen=True)
class LineBundle:
    k: int


@dataclass(frozen=True)
class SymTangent:
    """S^a(T_P2) tensor O(b)."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0:
            raise DomainError("symmetric power degree must be nonnegative")


@dataclass(frozen=True)
class DirectSum:
    parts: tuple

    def __init__(self, *parts):
        flat = []
        for p in parts:
            if isinstance(p, (tuple, list)):
                flat.extend(p)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class TwistBy:
    expr: object
    k: int


@dataclass(frozen=True)
class SymPower:
    expr: object
    p: int


@dataclass(frozen=True)
class EndOf:
    expr: object


@dataclass(frozen=True)
class DualOf:
    expr: object


SheafExpr = object  # structural union of the node classes above


# --- cohomology tables -----------------------------------------------------


@dataclass(frozen=True)
class CohomologyTable:
    h0: int
    h1: int
    h2: int

    def __post_init__(self):
        if min(self.h0, self.h1, self.h2) < 0:
            raise InvariantViolationError(f"negative cohomology dimension: {self}")

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2


def h0_line(k: int) -> int:
    return comb(k + 2, 2) if k >= 0 else 0


def cohom_line(k: int) -> CohomologyTable:
    """h^i(O(k)) on P2: the a = 0 case of ``cohom_sym_tangent``, so h^1 vanishes."""
    return cohom_sym_tangent(0, k)


def cohom_sym_tangent(a: int, b: int) -> CohomologyTable:
    """h^i(S^a T(b)) in closed form, by Bott's theorem (see the module notes).

    >>> cohom_sym_tangent(1, 0)
    CohomologyTable(h0=8, h1=0, h2=0)
    >>> cohom_sym_tangent(1, -3)
    CohomologyTable(h0=0, h1=1, h2=0)
    >>> cohom_sym_tangent(4, -5)
    CohomologyTable(h0=0, h1=0, h2=0)
    """
    if a < 0:
        raise DomainError("symmetric power degree must be nonnegative")
    _check_rank(a + 1)
    return cohom_atoms(((a, b),))


def cohom_atoms(atoms) -> CohomologyTable:
    """Cohomology table of a sum of (a, b) atoms, each meaning S^a T(b): each
    adds |chi| in the one degree Bott's theorem gives it (no rank check)."""
    h0 = h1 = h2 = 0
    for a, b in atoms:
        k = a + b  # S^a T(b) = S^a Q(k)
        chi = (a + 1) * (k + 1) * (a + k + 2) // 2
        if k >= 0:
            h0 += chi
        elif a + k + 2 < 0:
            h2 += chi
        else:
            h1 -= chi
    return CohomologyTable(h0, h1, h2)


# --- normalization to S^a T(b) pairs ---------------------------------------


def normalize(expr) -> tuple:
    """The expression as a tuple of (a, b) pairs, each meaning S^a T(b).

    a = 0 stands for the line bundle O(b).  Raises
    UnsupportedExpressionError on an unknown node.

    >>> normalize(parse_sheaf_expr("end(SymT(1,0))"))
    ((2, -3), (0, 0))
    """
    if isinstance(expr, LineBundle):
        return ((0, expr.k),)
    if isinstance(expr, SymTangent):
        return ((expr.a, expr.b),)
    if isinstance(expr, DirectSum):
        return tuple([atom for p in expr.parts for atom in normalize(p)])
    if isinstance(expr, TwistBy):
        return tuple([(a, b + expr.k) for a, b in normalize(expr.expr)])
    if isinstance(expr, DualOf):
        return tuple(_dual(normalize(expr.expr)))
    if isinstance(expr, SymPower):
        # S^p for p <= 0 is O, whatever the inner expression
        return tuple(sym_atoms(normalize(expr.expr), expr.p)) if expr.p > 0 else ((0, 0),)
    if isinstance(expr, EndOf):
        return tuple(end_atoms(normalize(expr.expr)))
    raise UnsupportedExpressionError(expr, "unknown expression node")


def end_atoms(atoms) -> list:
    """End(E) = E^v (x) E of a sum of atoms, as atoms."""
    return _tensor(_dual(atoms), atoms)


def _dual(atoms) -> list:
    # (S^a T)^v = S^a(T(-3)), since T^v = T (x) det^-1 on a surface
    return [(a, -3 * a - b) for a, b in atoms]


def _tensor(xs, ys) -> list:
    """Clebsch-Gordan: S^a T (x) S^c T = sum_{j <= min(a, c)} S^(a+c-2j) T (x) O(3j)."""
    out = []
    for a, b in xs:
        if a == 0:  # j = 0 only: a line bundle shifts the twist
            out += [(c, b + d) for c, d in ys]
        else:
            out += [(a + c - 2 * j, b + d + 3 * j) for c, d in ys for j in range(min(a, c) + 1)]
    return out


def sym_atoms(atoms, p: int) -> list:
    """S^p of a sum of atoms: S^p(A + B) = sum_i S^i A (x) S^(p-i) B."""
    if len(atoms) == 1:
        return _plethysm(*atoms[0], p)
    if not atoms:
        return [] if p else [(0, 0)]
    (a, b), rest = atoms[0], atoms[1:]
    out = []
    for i in range(p, -1, -1):
        out += _tensor(_plethysm(a, b, i), sym_atoms(rest, p - i))
    return out


def _plethysm(a: int, b: int, p: int) -> list:
    """Cayley-Sylvester: S^p(S^a T(b)) = sum_j m_j S^(pa-2j) T(pb + 3j).

    m_j = N(j) - N(j-1), where N(j) counts the partitions of j that fit in
    a p x a box.
    """
    if a == 0:
        return [(0, p * b)]  # S^p O(b) = O(pb), for any p
    n = _box_partitions(p, a)
    return [
        (p * a - 2 * j, p * b + 3 * j)
        for j in range(p * a // 2 + 1)
        for _ in range(n[j] - (n[j - 1] if j else 0))
    ]


def _box_partitions(p: int, a: int) -> list[int]:
    """N(0), ..., N(pa): the coefficients of the Gaussian binomial [p + a, p]_q."""
    n = [1] + [0] * (p * a)
    for i in range(1, p + 1):
        # [a + i, i]_q = [a + i - 1, i - 1]_q (1 - q^(a+i)) / (1 - q^i), kept mod q^(pa+1)
        for j in range(p * a, a + i - 1, -1):
            n[j] -= n[j - a - i]
        for j in range(i, p * a + 1):
            n[j] += n[j - i]
    return n


def _check_rank(rank: int) -> None:
    """Refuse, before any expansion, an expression of rank ``RANK_CAP`` or more."""
    if rank >= RANK_CAP:
        raise DomainError(f"expression of rank {RANK_CAP} or more is too large to evaluate")


def cohom_expr(e) -> CohomologyTable:
    """Cohomology table of an expression (additive over sums).

    Raises DomainError when the rank reaches ``RANK_CAP``.

    >>> cohom_expr(parse_sheaf_expr("end(O+O+O(3))")).h2
    2
    >>> cohom_expr(parse_sheaf_expr("twist(sym(sym(SymT(1,-1),2),2),-1)")).h0
    3
    """
    _check_rank(expr_rank(e))
    return cohom_atoms(normalize(e))


# --- Chern-character bookkeeping and Riemann-Roch --------------------------


@dataclass(frozen=True)
class ChernData:
    """Rank, c1 and twice ch2 (ch2x2 = c1^2 - 2 c2) of a sheaf on P2, all ints."""

    rank: int
    c1: int
    ch2x2: int

    @classmethod
    def line(cls, k: int) -> "ChernData":
        return cls(1, k, k * k)

    @classmethod
    def tangent(cls) -> "ChernData":
        return cls(2, 3, 3)  # c1 = 3, c2 = 3

    @property
    def c2(self) -> int:
        return (self.c1 * self.c1 - self.ch2x2) // 2

    def __add__(self, other: "ChernData") -> "ChernData":
        return ChernData(self.rank + other.rank, self.c1 + other.c1, self.ch2x2 + other.ch2x2)

    def tensor(self, other: "ChernData") -> "ChernData":
        return ChernData(
            self.rank * other.rank,
            other.rank * self.c1 + self.rank * other.c1,
            other.rank * self.ch2x2 + 2 * self.c1 * other.c1 + self.rank * other.ch2x2,
        )

    def twist(self, k: int) -> "ChernData":
        return self.tensor(ChernData.line(k))

    def dual(self) -> "ChernData":
        return ChernData(self.rank, -self.c1, self.ch2x2)

    def sym(self, p: int) -> "ChernData":
        if p <= 0:
            return ChernData.line(0)
        # ch of S^p through the splitting principle: the roots of S^p are the
        # sums m.x over multisets m of size p of the Chern roots x_i, and the
        # sums of m_0, m_0^2 and m_0 m_1 over them are binomials in n.
        n = self.rank + p - 1
        sum_m0 = comb(n, p - 1)
        pairs = comb(n, p - 2) if p >= 2 else 0  # sum of C(m_0, 2), and of m_0 m_1
        cross = pairs if self.rank >= 2 else 0
        return ChernData(
            comb(n, p),
            sum_m0 * self.c1,
            (sum_m0 + 2 * pairs - cross) * self.ch2x2 + cross * self.c1 * self.c1,
        )


def chern_data(expr) -> ChernData:
    """Chern-character data of any expression, by the splitting principle (no size check)."""
    if isinstance(expr, LineBundle):
        return ChernData.line(expr.k)
    if isinstance(expr, SymTangent):
        return ChernData.tangent().sym(expr.a).twist(expr.b)
    if isinstance(expr, DirectSum):
        data = ChernData(0, 0, 0)
        for p in expr.parts:
            data = data + chern_data(p)
        return data
    if isinstance(expr, TwistBy):
        return chern_data(expr.expr).twist(expr.k)
    if isinstance(expr, DualOf):
        return chern_data(expr.expr).dual()
    if isinstance(expr, SymPower):
        # S^p for p <= 0 is O, whatever the inner expression
        return chern_data(expr.expr).sym(expr.p) if expr.p > 0 else ChernData.line(0)
    if isinstance(expr, EndOf):
        d = chern_data(expr.expr)
        return d.dual().tensor(d)
    raise UnsupportedExpressionError(expr, "unknown expression node")


def chi_rr(e) -> int:
    """Exact Euler characteristic via Riemann-Roch on P2:
    2 chi = ch2x2 + 3 c1 + 2 rank, which must be even.

    Raises DomainError when the rank reaches ``RANK_CAP``.
    """
    _check_rank(expr_rank(e))
    d = chern_data(e)
    twice = d.ch2x2 + 3 * d.c1 + 2 * d.rank
    if twice % 2:
        raise InvariantViolationError(f"Riemann-Roch produced a non-integer chi for {e!r}")
    return twice // 2


# --- textual grammar --------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([()+,*-]))")

# Deepest nesting of twist/sym/end/dual the parser accepts.  The catalog and
# every expression seen in practice stay within 4 levels; the cap keeps a
# hostile input from exhausting the interpreter's recursion limit.
MAX_EXPR_DEPTH = 32

# Largest multiplicity N accepted in an ``N*atom`` term.  The parser builds
# the N parts before any rank check runs, so N is bounded here; rank-3 sums
# need N <= 3, and the cap equals RANK_CAP.
MAX_MULTIPLICITY = 64


def _literal(digits: str) -> int:
    """The value of an integer token; one too long for ``int`` is a DomainError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise DomainError(f"integer literal of {len(digits)} digits is too long to read") from exc


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr := term ('+' term)*
    term := [INT ['*']] atom
    atom := 'O' ['(' int ')'] | 'SymT' '(' int ',' int ')'
          | 'twist' '(' expr ',' int ')' | 'sym' '(' expr ',' int ')'
          | 'end' '(' expr ')' | 'dual' '(' expr ')'

    Nesting deeper than ``MAX_EXPR_DEPTH``, or a multiplicity INT above
    ``MAX_MULTIPLICITY``, raises DomainError.
    """

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].lstrip()
                if rest:
                    raise DomainError(
                        f"bad character {rest[0]!r} at character {len(text) - len(rest)}"
                    )
                break
            pos = m.end()
            self.tokens.append(m.group(1) or m.group(2) or m.group(3))
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            want = repr(expected) if expected else "more input"
            raise DomainError(f"expected {want} at token {self.i}")
        self.i += 1
        return tok

    def parse(self):
        e = self.expr()
        if self.peek() is not None:
            raise DomainError(f"trailing input at token {self.i}")
        return e

    def expr(self):
        parts = [self.term()]
        while self.peek() == "+":
            self.take("+")
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else DirectSum(*parts)

    def integer(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take("-")
            sign = -1
        tok = self.take()
        if not tok.isdigit():
            raise DomainError(f"expected an integer at token {self.i - 1}, got {quote_input(tok)}")
        return sign * _literal(tok)

    def term(self):
        mult = 1
        if self.peek() is not None and self.peek().isdigit():
            mult = _literal(self.take())
            if self.peek() == "*":
                self.take("*")
        atom = self.atom()
        if not 1 <= mult <= MAX_MULTIPLICITY:
            raise DomainError(f"multiplicity must lie in [1, {MAX_MULTIPLICITY}]")
        return atom if mult == 1 else DirectSum(*([atom] * mult))

    def nested(self):
        """An expression one level down, within ``MAX_EXPR_DEPTH``."""
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise DomainError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        e = self.expr()
        self.depth -= 1
        return e

    def atom(self):
        tok = self.take()
        if tok == "O":
            if self.peek() == "(":
                self.take("(")
                k = self.integer()
                self.take(")")
                return LineBundle(k)
            return LineBundle(0)
        if tok == "SymT":
            self.take("(")
            a = self.integer()
            self.take(",")
            b = self.integer()
            self.take(")")
            return SymTangent(a, b)
        if tok in ("twist", "sym"):
            self.take("(")
            e = self.nested()
            self.take(",")
            k = self.integer()
            self.take(")")
            return TwistBy(e, k) if tok == "twist" else SymPower(e, k)
        if tok in ("end", "dual"):
            self.take("(")
            e = self.nested()
            self.take(")")
            return EndOf(e) if tok == "end" else DualOf(e)
        raise DomainError(f"unknown symbol {quote_input(tok)} at token {self.i - 1}")


def parse_sheaf_expr(text: str):
    """Parse the CLI grammar: O(k), SymT(a,b), +, twist(e,k), sym(e,p), end(e), dual(e).

    Nesting of twist/sym/end/dual is capped at ``MAX_EXPR_DEPTH`` levels.
    A DomainError names the offending token and where it stands, never the
    whole text, which the caller quotes once if it wants to.
    """
    return _Parser(text).parse()


# Largest rank ``expr_rank`` reports exactly; any larger rank reads as the
# cap.  Rank-3 checks only need to tell 3 from the rest, and the cap keeps
# the count small for expressions whose true rank runs into the millions.
RANK_CAP = 64


def expr_rank(expr) -> int:
    """Rank of an expression, from the tree alone, saturating at ``RANK_CAP``.

    Nothing is expanded: ``sym(e, p)`` has rank C(r + p - 1, p) for e of
    rank r (1 when p <= 0) and ``end(e)`` has rank r^2.  Every construction
    is monotone in r, so anything built on a saturated rank stays saturated.

    >>> expr_rank(parse_sheaf_expr("sym(O+O(1)+O(2),2000)"))
    64
    >>> expr_rank(parse_sheaf_expr("sym(end(SymT(5,0)),0)+twist(SymT(1,0),3)"))
    3
    """
    if isinstance(expr, LineBundle):
        return 1
    if isinstance(expr, SymTangent):
        return min(expr.a + 1, RANK_CAP)
    if isinstance(expr, DirectSum):
        return min(sum(expr_rank(p) for p in expr.parts), RANK_CAP)
    if isinstance(expr, (TwistBy, DualOf)):
        return expr_rank(expr.expr)
    if isinstance(expr, EndOf):
        return min(expr_rank(expr.expr) ** 2, RANK_CAP)
    if isinstance(expr, SymPower):
        if expr.p <= 0:
            return 1
        r = expr_rank(expr.expr)
        if r >= 2 and expr.p >= RANK_CAP:  # C(r + p - 1, p) >= p + 1 >= the cap
            return RANK_CAP
        return min(comb(r + expr.p - 1, expr.p), RANK_CAP)
    raise UnsupportedExpressionError(expr, "unknown expression node")


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
  sum is sum_i S^i A (x) S^(p-i) B, and End(E) = E^v (x) E.  S^p of a sum
  of line bundles O(k_i) is the sum of O(k_i1 + ... + k_ip) over the
  multisets of size p, written in the order that recursion gives.

The two walks that expand, ``normalize`` (the tables) and ``_chern``
(Riemann-Roch), refuse with a DomainError an expression of rank ``RANK_CAP``
or more, and S^p O(k) once pk has over ``DEGREE_BITS_CAP`` bits.  Each node
whose rank can grow checks it before it expands: SymT(a, b) has rank a + 1,
a sum its total, end(e) r^2 and sym(e, p > 0) C(r + p - 1, p).  Every
construction but sym(e, p <= 0), whose e neither walk enters, is monotone in
rank, so a walk meets a node at the cap exactly when the expression's rank
reaches it.  Only an unknown node raises UnsupportedExpressionError.  A node
is checked once its parts have been walked, and the first error met ends the
walk.

Method notes:

* With Q = T(-1), S^a T(b) = S^a Q(k) for k = a + b is irreducible, and
  Bott's theorem puts its cohomology in one degree: h^0 if k >= 0, h^2 if
  a + k + 2 < 0, else h^1.  That entry is |chi|, chi = (a+1)(k+1)(a+k+2)/2,
  the Weyl dimension of S_(a+k, k) C^3 when k >= 0; a = 0 gives O(k).
* ``chi_rr`` is a second route to chi, Riemann-Roch on P2,
  chi = rank + c1(c1+3)/2 - c2, through the splitting principle on the
  unexpanded tree.  The tables never call it, so the two check each other.
* The walk carries each node's Chern data as an int triple
  (rank, c1, ch2x2), ch2x2 = 2 ch2 = c1^2 - 2 c2, so 2 chi = ch2x2 + 3 c1
  + 2 rank, and the integrality of chi is checked as the parity of that sum.
  A twist is the closed form (r, c1 + r k, ch2x2 + 2 c1 k + r k^2); a
  ``ChernData`` is built only for the caller of ``chern_data``.
* ``parse_sheaf_expr`` reads its tokens with one regex ``findall`` and
  descends by index over the token list.  Before it, one regex search finds
  the first character that is neither whitespace nor part of a token, and
  the error names that character and its position.

Nothing is cached; all functions are pure.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import combinations_with_replacement
from math import comb

from .errors import (
    DomainError,
    InvariantViolationError,
    UnsupportedExpressionError,
    _literal,
    quote_input,
)

# --- expression trees ------------------------------------------------------


class SheafExpr(tuple):
    """The base of the seven expression nodes below.  A node compares by type
    as well as by value, so TwistBy(e, 2) != SymPower(e, 2) and no node
    equals a bare tuple; the walks dispatch on the exact type."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):  # else tuple's own __ne__ would ignore the type
        return type(self) is not type(other) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class LineBundle(SheafExpr, namedtuple("LineBundle", "k")):
    __slots__ = ()


class SymTangent(SheafExpr, namedtuple("SymTangent", "a b")):
    """S^a(T_P2) tensor O(b)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a < 0:
            raise DomainError("symmetric power degree must be nonnegative")
        return tuple.__new__(cls, (a, b))

    @classmethod
    def _make(cls, values):  # so that _replace checks too
        return cls(*values)


class DirectSum(SheafExpr, namedtuple("DirectSum", "parts")):
    __slots__ = ()

    def __new__(cls, *parts):
        return tuple.__new__(cls, (parts,))

    def __getnewargs__(self):  # copy and pickle call DirectSum(*parts)
        return self.parts


class TwistBy(SheafExpr, namedtuple("TwistBy", "expr k")):
    __slots__ = ()


class SymPower(SheafExpr, namedtuple("SymPower", "expr p")):
    __slots__ = ()


class EndOf(SheafExpr, namedtuple("EndOf", "expr")):
    __slots__ = ()


class DualOf(SheafExpr, namedtuple("DualOf", "expr")):
    __slots__ = ()


# --- cohomology tables -----------------------------------------------------


class CohomologyTable(namedtuple("CohomologyTable", "h0 h1 h2")):
    __slots__ = ()

    def __new__(cls, h0: int, h1: int, h2: int):
        self = tuple.__new__(cls, (h0, h1, h2))
        if min(h0, h1, h2) < 0:
            raise InvariantViolationError(f"negative cohomology dimension: {self}")
        return self

    @classmethod
    def _make(cls, values):  # so that _replace checks too
        return cls(*values)

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
    return cohom_expr(SymTangent(a, b))


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

# Smallest rank the walks refuse.  Rank-3 checks only need to tell 3 from
# the rest; the cap keeps an expression whose true rank runs into the
# millions from being expanded, or its rank from being worked out in full.
RANK_CAP = 64

# Most bits of the degree pk of S^p O(k) (for r >= 2, ``_sym_rank`` bounds p).  No spec needs
# more: its degrees end within MAX_SPEC_VALUE, and only a twist literal (at most 14,300 bits)
# shifts one back.  end() sends any O(pk) to O, and the cap refuses such a pk there too.
DEGREE_BITS_CAP = 1 << 15


def normalize(expr) -> tuple:
    """The expression as a tuple of (a, b) pairs, each meaning S^a T(b).

    a = 0 stands for the line bundle O(b).  Raises DomainError when the rank
    reaches ``RANK_CAP`` and UnsupportedExpressionError on an unknown node.

    >>> normalize(parse_sheaf_expr("end(SymT(1,0))"))
    ((2, -3), (0, 0))
    """
    return tuple(_normal(expr)[1])


def _normal(expr) -> tuple:
    """(rank, atoms) of an expression; a node whose rank can grow checks it
    before it expands."""
    kind = type(expr)
    if kind is LineBundle:
        return 1, [(0, expr.k)]
    if kind is SymTangent:
        _check_rank(expr.a + 1)
        return expr.a + 1, [(expr.a, expr.b)]
    if kind is DirectSum:
        rank, atoms = 0, []
        for p in expr.parts:
            r, xs = _normal(p)
            rank += r
            atoms += xs
        _check_rank(rank)
        return rank, atoms
    if kind is TwistBy:
        k = expr.k
        rank, atoms = _normal(expr.expr)
        return rank, [(a, b + k) for a, b in atoms]
    if kind is DualOf:
        rank, atoms = _normal(expr.expr)
        return rank, _dual(atoms)
    if kind is SymPower:
        p = expr.p
        if p <= 0:  # S^p for p <= 0 is O, whatever the inner expression
            return 1, [(0, 0)]
        r, atoms = _normal(expr.expr)
        rank = _sym_rank(r, p)
        if r == 1:  # a line bundle O(k), its one atom (0, k)
            _check_degree(p * atoms[0][1])
        if r == len(atoms) > 1:  # a sum of lines: S^p is its multisets, and p < RANK_CAP
            degrees = [b for _, b in atoms]
            return rank, [(0, sum(m)) for m in combinations_with_replacement(degrees, p)]
        return rank, sym_atoms(atoms, p)
    if kind is EndOf:
        r, atoms = _normal(expr.expr)
        _check_rank(r * r)
        return r * r, end_atoms(atoms)
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
    a p x a box.  When min(p, a) <= 1 every N(j) is 1, so m_0 = 1 is the one
    nonzero m_j and S^p is the one atom S^(pa) T(pb), with no box count:
    S^0 = O, S^1 the atom itself, S^p T(b) = S^p T(pb) and S^p O(b) = O(pb).
    """
    if p <= 1 or a <= 1:
        return [(p * a, p * b)]
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
    """Refuse a node of rank ``RANK_CAP`` or more; each walk that expands
    calls it before the node expands."""
    if rank >= RANK_CAP:
        raise DomainError(f"expression of rank {RANK_CAP} or more is too large to evaluate")


def _check_degree(degree: int) -> None:
    """Refuse the degree of S^p O(k) past ``DEGREE_BITS_CAP``, before it expands."""
    if degree.bit_length() > DEGREE_BITS_CAP:
        raise DomainError(f"line degree of over {DEGREE_BITS_CAP} bits is too large to evaluate")


def _sym_rank(r: int, p: int) -> int:
    """The rank C(r + p - 1, p) of S^p, p > 0, of a rank-r sheaf, checked by
    ``_check_rank``; for r >= 2 and p >= ``RANK_CAP`` it is not worked out,
    since it is at least p + 1."""
    rank = RANK_CAP if r >= 2 and p >= RANK_CAP else comb(r + p - 1, p)
    _check_rank(rank)
    return rank


def cohom_expr(e) -> CohomologyTable:
    """Cohomology table of an expression (additive over sums).

    Raises DomainError when the rank reaches ``RANK_CAP``.

    >>> cohom_expr(parse_sheaf_expr("end(O+O+O(3))")).h2
    2
    >>> cohom_expr(parse_sheaf_expr("twist(sym(sym(SymT(1,-1),2),2),-1)")).h0
    3
    >>> cohom_expr(parse_sheaf_expr("sym(O+O(1)+O(2),2000)"))
    Traceback (most recent call last):
    ...
    cycone.errors.DomainError: expression of rank 64 or more is too large to evaluate
    """
    return cohom_atoms(normalize(e))


# --- Chern-character bookkeeping and Riemann-Roch --------------------------


class ChernData(namedtuple("ChernData", "rank c1 ch2x2")):
    """Rank, c1 and twice ch2 (ch2x2 = c1^2 - 2 c2) of a sheaf on P2, all ints."""

    __slots__ = ()

    @property
    def c2(self) -> int:
        return (self.c1 * self.c1 - self.ch2x2) // 2


# (rank, c1, ch2x2) of T_P2: c1 = 3, c2 = 3
_TANGENT = (2, 3, 3)


def _twist(d: tuple, k: int) -> tuple:
    """(rank, c1, ch2x2) of E(k), the tensor product with O(k) = (1, k, k^2)."""
    rank, c1, ch2x2 = d
    return rank, c1 + rank * k, ch2x2 + 2 * c1 * k + rank * k * k


def _sym(d: tuple, p: int) -> tuple:
    """(rank, c1, ch2x2) of S^p E; S^p for p <= 0 is O.

    Through the splitting principle: the roots of S^p are the sums m.x over
    multisets m of size p of the Chern roots x_i, and the sums of m_0, m_0^2
    and m_0 m_1 over them are binomials in n.
    """
    if p <= 0:
        return 1, 0, 0
    rank, c1, ch2x2 = d
    n = rank + p - 1
    sum_m0 = comb(n, p - 1)
    pairs = comb(n, p - 2) if p >= 2 else 0  # sum of C(m_0, 2), and of m_0 m_1
    cross = pairs if rank >= 2 else 0
    return comb(n, p), sum_m0 * c1, (sum_m0 + 2 * pairs - cross) * ch2x2 + cross * c1 * c1


def _chern(expr) -> tuple:
    """(rank, c1, ch2x2) of any expression, by the splitting principle; a
    node whose rank can grow checks it before its Chern data is formed."""
    kind = type(expr)
    if kind is LineBundle:
        k = expr.k
        return 1, k, k * k
    if kind is SymTangent:
        _check_rank(expr.a + 1)
        return _twist(_sym(_TANGENT, expr.a), expr.b)
    if kind is DirectSum:
        rank = c1 = ch2x2 = 0
        for p in expr.parts:
            r, c, x = _chern(p)
            rank += r
            c1 += c
            ch2x2 += x
        _check_rank(rank)
        return rank, c1, ch2x2
    if kind is TwistBy:
        return _twist(_chern(expr.expr), expr.k)
    if kind is DualOf:
        rank, c1, ch2x2 = _chern(expr.expr)
        return rank, -c1, ch2x2
    if kind is SymPower:
        p = expr.p
        if p <= 0:  # S^p for p <= 0 is O, whatever the inner expression
            return 1, 0, 0
        d = _chern(expr.expr)
        _sym_rank(d[0], p)
        if d[0] == 1:  # a line bundle O(c1)
            _check_degree(p * d[1])
        return _sym(d, p)
    if kind is EndOf:
        # E^v (x) E: rank r^2, c1 = -r c1 + r c1, ch2x2 = r ch2x2 - 2 c1^2 + r ch2x2
        rank, c1, ch2x2 = _chern(expr.expr)
        _check_rank(rank * rank)
        return rank * rank, 0, 2 * (rank * ch2x2 - c1 * c1)
    raise UnsupportedExpressionError(expr, "unknown expression node")


def chern_data(expr) -> ChernData:
    """Chern-character data of any expression, by the splitting principle.

    Raises DomainError when the rank reaches ``RANK_CAP``.

    >>> chern_data(parse_sheaf_expr("sym(end(SymT(5,0)),0)+twist(SymT(1,0),3)"))
    ChernData(rank=3, c1=9, ch2x2=39)
    """
    return ChernData(*_chern(expr))


def chi_rr(e) -> int:
    """Exact Euler characteristic via Riemann-Roch on P2:
    2 chi = ch2x2 + 3 c1 + 2 rank, which must be even.

    Raises DomainError when the rank reaches ``RANK_CAP``.
    """
    rank, c1, ch2x2 = _chern(e)
    twice = ch2x2 + 3 * c1 + 2 * rank
    if twice % 2:
        raise InvariantViolationError(f"Riemann-Roch produced a non-integer chi for {e!r}")
    return twice // 2


# --- textual grammar --------------------------------------------------------

_TOKENS = re.compile(r"\d+|[A-Za-z]+|[()+,*-]")
_BAD = re.compile(r"[^\s\dA-Za-z()+,*-]")

# Deepest nesting of twist/sym/end/dual the parser accepts.  The catalog and
# every expression seen in practice stay within 4 levels; the cap keeps a
# hostile input from exhausting the interpreter's recursion limit.
MAX_EXPR_DEPTH = 32


def _tokens(text: str) -> list:
    """The tokens of ``text``, then the end sentinel ``""``.

    A character that is neither whitespace nor part of a token is the one
    where a token-by-token read would stop, so it is named with its position.
    """
    m = _BAD.search(text)
    if m:
        raise DomainError(f"bad character {m.group()!r} at character {m.start()}")
    tokens = _TOKENS.findall(text)
    tokens.append("")
    return tokens


# Recursive descent over the token list.  Each rule takes the index of its
# first token and returns its node with the index after its last token; the
# end sentinel "" matches no expected token, so no rule reads past it.
#
#   expr := term ('+' term)*
#   term := [INT ['*']] atom
#   atom := 'O' ['(' int ')'] | 'SymT' '(' int ',' int ')'
#         | 'twist' '(' expr ',' int ')' | 'sym' '(' expr ',' int ')'
#         | 'end' '(' expr ')' | 'dual' '(' expr ')'
#
# Nesting deeper than ``MAX_EXPR_DEPTH``, or a multiplicity INT above
# ``RANK_CAP``, raises DomainError: the parser builds the N parts of an
# ``N*atom`` term before any rank check runs, so N is bounded here.


def _expected(i: int, want: str = "") -> DomainError:
    """The error at token ``i``: it is not ``want``, or, with no ``want``, the input ended."""
    return DomainError(f"expected {repr(want) if want else 'more input'} at token {i}")


def _expr(tokens: list, i: int, depth: int) -> tuple:
    e, i = _term(tokens, i, depth)
    if tokens[i] != "+":
        return e, i
    parts = [e]
    while tokens[i] == "+":
        e, i = _term(tokens, i + 1, depth)
        parts.append(e)
    return DirectSum(*parts), i


def _term(tokens: list, i: int, depth: int) -> tuple:
    tok = tokens[i]
    if not tok.isdigit():
        return _atom(tokens, i, depth)
    mult = _literal(tok)
    i += 1
    if tokens[i] == "*":
        i += 1
    atom, i = _atom(tokens, i, depth)
    if not 1 <= mult <= RANK_CAP:
        raise DomainError(f"multiplicity must lie in [1, {RANK_CAP}]")
    return (atom if mult == 1 else DirectSum(*([atom] * mult))), i


def _integer(tokens: list, i: int) -> tuple:
    tok = tokens[i]
    sign = 1
    if tok == "-":
        sign = -1
        i += 1
        tok = tokens[i]
    if tok.isdigit():
        return sign * _literal(tok), i + 1
    if not tok:
        raise _expected(i)
    raise DomainError(f"expected an integer at token {i}, got {quote_input(tok)}")


def _atom(tokens: list, i: int, depth: int) -> tuple:
    tok = tokens[i]
    i += 1
    if tok == "O":
        if tokens[i] != "(":
            return LineBundle(0), i
        k, i = _integer(tokens, i + 1)
        if tokens[i] != ")":
            raise _expected(i, ")")
        return LineBundle(k), i + 1
    if tok == "SymT":
        if tokens[i] != "(":
            raise _expected(i, "(")
        a, i = _integer(tokens, i + 1)
        if tokens[i] != ",":
            raise _expected(i, ",")
        b, i = _integer(tokens, i + 1)
        if tokens[i] != ")":
            raise _expected(i, ")")
        return SymTangent(a, b), i + 1
    if tok in ("twist", "sym", "end", "dual"):
        if tokens[i] != "(":
            raise _expected(i, "(")
        if depth >= MAX_EXPR_DEPTH:
            raise DomainError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        e, i = _expr(tokens, i + 1, depth + 1)
        if tok == "twist" or tok == "sym":
            if tokens[i] != ",":
                raise _expected(i, ",")
            k, i = _integer(tokens, i + 1)
            e = TwistBy(e, k) if tok == "twist" else SymPower(e, k)
        else:
            e = EndOf(e) if tok == "end" else DualOf(e)
        if tokens[i] != ")":
            raise _expected(i, ")")
        return e, i + 1
    if not tok:
        raise _expected(i - 1)
    raise DomainError(f"unknown symbol {quote_input(tok)} at token {i - 1}")


def parse_sheaf_expr(text: str):
    """Parse the CLI grammar: O(k), SymT(a,b), +, twist(e,k), sym(e,p), end(e), dual(e).

    Nesting of twist/sym/end/dual is capped at ``MAX_EXPR_DEPTH`` levels.
    A DomainError names the offending token and where it stands, never the
    whole text, which the caller quotes once if it wants to.
    """
    tokens = _tokens(text)
    e, i = _expr(tokens, 0, 0)
    if tokens[i]:
        raise DomainError(f"trailing input at token {i}")
    return e

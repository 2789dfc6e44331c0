"""Sparse polynomials over a prime field, truncated at a fixed total
degree, and the expression parser that reads them.

A :class:`TruncPoly` stores finitely many (exponent tuple, coefficient) pairs
with all total degrees below the truncation order ``D``; sums and products
drop every term of degree >= D and record a lower bound on the degrees they
dropped, so that no re-reading at a higher order misses a term.  It is the
parser's value type and the type of a ring's generators, which are read
before the ring's monomial table exists; ring elements are vectors over that
table (:mod:`pertlab.rings`) and share the term text and lift guard here.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

from .errors import PolyParseError, RingMismatchError, TruncationError

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing the graded lexicographic order (x1 > x2 > ...)."""
    return (sum(exps), exps)


def _lowest(*degrees: int | None) -> int | None:
    """The least of the degrees that are not None; None if there is none."""
    return min((d for d in degrees if d is not None), default=None)


def _normalized(terms: Mapping[Exponents, int], p: int, trunc: int
                ) -> tuple[dict[Exponents, int], int | None]:
    """The nonzero terms below ``trunc``, and the least degree dropped."""
    out: dict[Exponents, int] = {}
    dropped = None
    for exps, c in terms.items():
        c %= p
        if not c:
            continue
        d = sum(exps)
        if d < trunc:
            out[exps] = c
        elif dropped is None or d < dropped:
            dropped = d
    return out, dropped


def check_lift(text: Callable[[], str], dropped: int | None, trunc: int,
               new_trunc: int) -> None:
    """TruncationError when a value, named by ``text()``, dropped a term of
    degree >= ``dropped`` at ``trunc`` that could lie below ``new_trunc``."""
    if dropped is not None and dropped < new_trunc:
        raise TruncationError(
            f"{text()!r} dropped a term of degree >= {dropped} at D = "
            f"{trunc}, so it cannot be read at D = {new_trunc}; give a D "
            f"above every input term's degree")


def format_terms(vars: tuple[str, ...], terms) -> str:
    """Canonical text of (exponents, coefficient) pairs given in descending
    graded-lex order: least nonnegative residues, `^` for powers."""
    parts = []
    for exps, c in terms:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(vars, exps) if e]
        parts.append("*".join(factors if c == 1 and factors
                              else [str(c)] + factors))
    return " + ".join(parts) or "0"


def power(base, n: int, one):
    """base ** n by square-and-multiply, ``one`` being the identity of
    base's ring; ValueError for n < 0."""
    if n < 0:
        raise ValueError("negative exponent")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:  # a square past the last bit is unused, and its dropped terms
            base = base * base  # would mark the result as lossy
    return result


class TruncPoly:
    """A polynomial over F_p with every term of total degree < D.

    Instances are immutable; arithmetic returns new objects.  The context
    (p, vars, D) travels with the polynomial so that mixed-context operands
    are rejected.  ``dropped`` is a lower bound on the degree of every term
    that truncation removed from it or from its operands (None if none was),
    given as the ``dropped`` argument or found among ``terms``.
    """

    __slots__ = ("p", "vars", "trunc", "terms", "dropped")

    def __init__(self, p: int, vars: tuple[str, ...], trunc: int,
                 terms: Mapping[Exponents, int], dropped: int | None = None):
        self.p = p
        self.vars = tuple(vars)
        self.trunc = trunc
        self.terms, lost = _normalized(terms, p, trunc)
        self.dropped = _lowest(dropped, lost)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int, p: int, vars: tuple[str, ...], trunc: int) -> "TruncPoly":
        return cls(p, vars, trunc, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name: str, p: int, vars: tuple[str, ...], trunc: int) -> "TruncPoly":
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(p, vars, trunc, {exps: 1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.vars), 0)

    def at(self, trunc: int) -> "TruncPoly":
        """The same polynomial truncated at ``trunc``; TruncationError when
        it dropped a term that could lie below ``trunc``."""
        check_lift(self.serialize, self.dropped, self.trunc, trunc)
        return TruncPoly(self.p, self.vars, trunc, self.terms, self.dropped)

    def _check_context(self, other: "TruncPoly") -> None:
        if (self.p, self.vars, self.trunc) != (other.p, other.vars, other.trunc):
            raise RingMismatchError(
                f"mixed polynomial contexts: F_{self.p}{self.vars}@{self.trunc} "
                f"vs F_{other.p}{other.vars}@{other.trunc}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._check_context(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return TruncPoly(self.p, self.vars, self.trunc, terms,
                         _lowest(self.dropped, other.dropped))

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(self.p, self.vars, self.trunc,
                         {e: -c for e, c in self.terms.items()}, self.dropped)

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        return self + (-other)

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._check_context(other)
        terms: dict[Exponents, int] = {}
        dropped = _lowest(self.dropped, other.dropped)
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                d = d1 + sum(e2)
                if d >= self.trunc:
                    if dropped is None or d < dropped:
                        dropped = d
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return TruncPoly(self.p, self.vars, self.trunc, terms, dropped)

    def __pow__(self, n: int) -> "TruncPoly":
        return power(self, n, TruncPoly.constant(1, self.p, self.vars,
                                                 self.trunc))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return (self.p, self.vars, self.trunc, self.terms) == \
               (other.p, other.vars, other.trunc, other.terms)

    def __hash__(self) -> int:
        return hash((self.p, self.vars, self.trunc, frozenset(self.terms.items())))

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        """Canonical text, terms in descending graded-lex order."""
        return format_terms(self.vars, (
            (exps, self.terms[exps])
            for exps in sorted(self.terms, key=grlex_key, reverse=True)))

    def __repr__(self) -> str:
        return f"TruncPoly({self.serialize()!r})"


# -- expression parser -------------------------------------------------------
#
# Grammar (ASCII):
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ['^' INT]
#   atom   := INT | NAME | '(' expr ')'
#
# `^` requires a nonnegative integer literal exponent.

# A NAME token; ``RingDescriptor`` accepts only variable names it matches
# whole, so every variable parses back as itself.
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<name>{_NAME.pattern})|(?P<op>[-+*^()]))")

# Deepest accepted parenthesis nesting: the parser recurses at every level,
# so deeper input could exhaust the interpreter's stack.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    depth = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        depth += {"(": 1, ")": -1}.get(m.group(kind), 0)
        if depth > MAX_NESTING:
            raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], p: int,
                 vars: tuple[str, ...], trunc: int):
        self.tokens = tokens
        self.i = 0
        self.p = p
        self.vars = vars
        self.trunc = trunc

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> TruncPoly:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> TruncPoly:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> TruncPoly:
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer literal", pos)
            self.advance()
            return base ** int(value)
        return base

    def atom(self) -> TruncPoly:
        kind, value, pos = self.advance()
        if kind == "int":
            return TruncPoly.constant(int(value), self.p, self.vars, self.trunc)
        if kind == "name":
            if value not in self.vars:
                raise PolyParseError(f"unknown variable '{value}'", pos)
            return TruncPoly.variable(value, self.p, self.vars, self.trunc)
        if kind == "op" and value == "(":
            inner = self.expr()
            kind, value, pos = self.advance()
            if not (kind == "op" and value == ")"):
                raise PolyParseError("expected ')'", pos)
            return inner
        raise PolyParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_poly(text: str, ring) -> TruncPoly:
    """Parse an expression string into a TruncPoly over ``ring``.

    ``ring`` is any object with attributes ``p``, ``vars`` and ``D`` (a
    RingDescriptor works); the result is reduced mod p and truncated at D.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, ring.p, tuple(ring.vars), ring.D)
    result = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"unexpected token {value!r}", pos)
    return result


def monomials_below(nvars: int, trunc: int) -> list[Exponents]:
    """All exponent tuples of total degree < trunc, ascending graded-lex.

    Built one variable at a time from the front: prefixing e to the tuples
    of degree d - e, for e = 0..d in turn, keeps each degree in ascending
    lex order."""
    by_degree = [[()] if d == 0 else [] for d in range(trunc)]
    for _ in range(nvars):
        by_degree = [[(e,) + rest for e in range(d + 1)
                      for rest in by_degree[d - e]] for d in range(trunc)]
    return [exps for tuples in by_degree for exps in tuples]

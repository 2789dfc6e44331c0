"""Sparse multivariate polynomial arithmetic over a prime field, truncated at a
fixed total degree.

A :class:`TruncPoly` stores finitely many (exponent tuple, coefficient) pairs
with all total degrees below the truncation order ``D``; sums and products
silently drop every term of degree >= D.  This is the user-facing term
representation; dense coordinate vectors for linear algebra live in
:mod:`pertlab.rings`.
"""

from __future__ import annotations

import re
from typing import Mapping

from .errors import PolyParseError, RingMismatchError

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing the graded lexicographic order (x1 > x2 > ...)."""
    return (sum(exps), exps)


def _normalized(terms: Mapping[Exponents, int], p: int, trunc: int) -> dict[Exponents, int]:
    out: dict[Exponents, int] = {}
    for exps, c in terms.items():
        if sum(exps) >= trunc:
            continue
        c %= p
        if c:
            out[exps] = c
    return out


def power(base, n: int, one):
    """base ** n by square-and-multiply, ``one`` being the identity of
    base's ring; ValueError for n < 0."""
    if n < 0:
        raise ValueError("negative exponent")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class TruncPoly:
    """A polynomial over F_p with every term of total degree < D.

    Instances are immutable; arithmetic returns new objects.  The context
    (p, vars, D) travels with the polynomial so that mixed-context operands
    are rejected.
    """

    __slots__ = ("p", "vars", "trunc", "terms")

    def __init__(self, p: int, vars: tuple[str, ...], trunc: int,
                 terms: Mapping[Exponents, int]):
        self.p = p
        self.vars = tuple(vars)
        self.trunc = trunc
        self.terms = _normalized(terms, p, trunc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, vars: tuple[str, ...], trunc: int) -> "TruncPoly":
        return cls(p, vars, trunc, {})

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
        return TruncPoly(self.p, self.vars, self.trunc, terms)

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(self.p, self.vars, self.trunc,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        return self + (-other)

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._check_context(other)
        terms: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) >= self.trunc:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return TruncPoly(self.p, self.vars, self.trunc, terms)

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
        """Canonical text: terms in descending graded-lex order, least
        nonnegative residue coefficients, `^` for powers."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[exps]
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

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

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
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

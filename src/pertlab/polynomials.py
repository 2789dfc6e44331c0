"""The expression parser and the monomials below a truncation order.

The parser evaluates an expression in a ring's own polynomial arithmetic
(:class:`pertlab.rings.Poly`, vectors over the monomials below ``D``): each
integer literal and variable is a unit term of the ring, and sums, products
and powers are the ring's, which record the least degree that truncation
dropped so that no re-reading at a higher order misses a term.  A
polynomial's text and its lift to another order are the ring's
(``RingDescriptor._format`` and ``RingDescriptor._read``).
"""

from __future__ import annotations

import re

from .errors import PolyParseError

Exponents = tuple[int, ...]


def _lowest(*degrees: int | None) -> int | None:
    """The least of the degrees that are not None; None if there is none."""
    return min((d for d in degrees if d is not None), default=None)


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
    def __init__(self, tokens: list[tuple[str, str, int]], ring):
        self.tokens = tokens
        self.i = 0
        self.ring = ring

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
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

    def term(self):
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self):
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

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return self.ring.term(0, int(value))
        if kind == "name":
            if value not in self.ring.vars:
                raise PolyParseError(f"unknown variable '{value}'", pos)
            return self.ring.term(
                int(self.ring.var_cols[self.ring.vars.index(value)]))
        if kind == "op" and value == "(":
            inner = self.expr()
            kind, value, pos = self.advance()
            if not (kind == "op" and value == ")"):
                raise PolyParseError("expected ')'", pos)
            return inner
        raise PolyParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_poly(text: str, ring):
    """Parse an expression string into a ``rings.Poly`` over ``ring``, a
    ``RingDescriptor`` whose monomial tables exist: reduced mod p and
    truncated at D, with no normal form taken."""
    parser = _Parser(_tokenize(text), ring)
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

"""Parser and truncated arithmetic."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import NaiveModel
from pertlab.errors import PolyParseError, RingMismatchError, TruncationError
from pertlab.polynomials import MAX_NESTING, monomials_below, parse_poly
from pertlab.rings import Poly, build_ring

F5XYZ = build_ring(5, ("x", "y", "z"), [], 6)
F5XY = build_ring(5, ("x", "y"), [], 6)


def _terms(poly) -> dict:
    """The nonzero terms of a polynomial's defining vector, by exponents."""
    return {poly.ring.monomials[c]: int(poly.raw[c])
            for c in np.nonzero(poly.raw)[0]}


def _vector(ring, terms: dict) -> np.ndarray:
    """The coordinate vector over ``ring``'s monomials of a sparse
    polynomial all of whose terms lie below its D."""
    cols = {e: i for i, e in enumerate(ring.monomials)}
    vec = np.zeros(ring.M, dtype=np.int64)
    for exps, c in terms.items():
        vec[cols[exps]] = c
    return vec


def test_parse_two_term():
    poly = parse_poly("x^2*y + 3*z", F5XYZ)
    assert isinstance(poly, Poly) and poly.dropped is None
    assert _terms(poly) == {(2, 1, 0): 1, (0, 0, 1): 3}


def test_parse_leading_unary_minus():
    """A leading minus negates the first term only."""
    assert _terms(parse_poly("-x + y", F5XY)) == {(1, 0): 4, (0, 1): 1}


def test_parse_binomial_square():
    poly = parse_poly("(x+y)^2", F5XY)
    assert _terms(poly) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_unknown_variable_offset():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + w", F5XY)
    assert "unknown variable 'w'" in str(err.value)
    assert err.value.offset == 4


def test_exponent_must_be_literal():
    with pytest.raises(PolyParseError):
        parse_poly("x^y", F5XY)
    with pytest.raises(PolyParseError):
        parse_poly("x^(2)", F5XY)


def test_malformed_rejected():
    for bad in ("x +", "(x", "x**2", "", "2x", "x$y"):
        with pytest.raises(PolyParseError):
            parse_poly(bad, F5XY)


def test_nesting_cap():
    capped = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert np.array_equal(parse_poly(capped, F5XY).raw,
                          parse_poly("x", F5XY).raw)
    with pytest.raises(PolyParseError) as err:
        parse_poly("(" * 400 + "x" + ")" * 400, F5XY)
    assert "nested deeper" in str(err.value)
    assert err.value.offset == MAX_NESTING


def test_additive_inverse():
    x = parse_poly("x", F5XY)
    assert not (x + -x).raw.any() and not (x - x).raw.any()


def test_truncation_in_product():
    ring = build_ring(5, ("x", "y"), [], 4)
    a = parse_poly("x^3", ring)
    b = parse_poly("y", ring)
    assert not (a * b).raw.any()


def test_char_two_square():
    ring = build_ring(2, ("x", "y"), [], 6)
    sq = parse_poly("x + y", ring) ** 2
    assert np.array_equal(sq.raw, parse_poly("x^2 + y^2", ring).raw)


def test_pow_zero_is_one():
    x = parse_poly("x", F5XY)
    assert _terms(x ** 0) == {(0, 0): 1}


def test_mixed_context_rejected():
    with pytest.raises(RingMismatchError):
        parse_poly("x", F5XY) + parse_poly("x", F5XYZ)
    with pytest.raises(RingMismatchError):
        parse_poly("x", F5XY) * parse_poly("x", build_ring(5, ("x", "y"),
                                                           [], 6))


def test_serialize_descending_grlex():
    poly = parse_poly("(x+y)^2", F5XY)
    assert poly.serialize() == "x^2 + 2*x*y + y^2"
    assert parse_poly("x^2*y + 3*z", F5XYZ).serialize() == "x^2*y + 3*z"


def test_serialize_parse_fixed_point():
    for text in ("x^2*y + 3*z", "(x+y)^2 + z^3", "4*x + 4*y", "0", "3",
                 "x*y*z + 2*z^2"):
        poly = parse_poly(text, F5XYZ)
        canon = poly.serialize()
        assert parse_poly(canon, F5XYZ).serialize() == canon


@pytest.mark.parametrize("nvars", range(6))
def test_monomials_below_is_sorted_brute_force(nvars):
    """Every exponent tuple of degree < trunc, in graded-lex order; with no
    variables, only the constant monomial."""
    for trunc in range(7):
        want = sorted((e for e in product(range(trunc), repeat=nvars)
                       if sum(e) < trunc), key=lambda e: (sum(e), e))
        assert monomials_below(nvars, trunc) == want


# -- algebraic laws, randomized ------------------------------------------------

def polys(ring):
    """Polynomials over ``ring`` with up to five terms below its D."""
    terms = st.dictionaries(st.integers(0, ring.M - 1),
                            st.integers(0, ring.p - 1), max_size=5)

    def poly(cols):
        raw = np.zeros(ring.M, dtype=np.uint8)
        raw[list(cols)] = list(cols.values())
        return Poly(ring, raw)

    return terms.map(poly)


@settings(max_examples=60, deadline=None)
@given(polys(F5XY), polys(F5XY), polys(F5XY))
def test_ring_laws(a, b, c):
    assert np.array_equal((a * b).raw, (b * a).raw)
    assert np.array_equal(((a * b) * c).raw, (a * (b * c)).raw)
    assert np.array_equal((a * (b + c)).raw, (a * b + a * c).raw)


@settings(max_examples=40, deadline=None)
@given(polys(F5XY))
def test_truncation_tower(a):
    # truncating at D then at D' < D equals truncating at D' directly
    at5, at3 = F5XY.rebuild(5), F5XY.rebuild(3)
    via = at3.element(at5.element(a))
    assert np.array_equal(via.raw, at3.element(a).raw)
    assert via.dropped == at3.element(a).dropped


def test_power_is_repeated_product():
    f = parse_poly("x + 2*y + 1", F5XY)
    prod = F5XY.term(0)
    for n in range(7):
        assert np.array_equal((f ** n).raw, prod.raw)
        prod = prod * f
    with pytest.raises(ValueError, match="negative exponent"):
        f ** -1


def test_truncation_records_lowest_dropped_degree():
    at8 = build_ring(5, ("x", "y"), [], 8)
    assert parse_poly("x*y + y^7", at8).dropped is None
    # Square-and-multiply squares no further than the exponent needs.
    assert parse_poly("x^5", at8).dropped is None
    lossy = parse_poly("x*y - y^9", at8)
    assert lossy.serialize() == "x*y" and lossy.dropped == 8
    assert (lossy + parse_poly("x", at8)).dropped == 8
    assert (-lossy).dropped == 8
    assert (parse_poly("x^4", at8) * parse_poly("y^5", at8)).dropped == 9
    assert at8.rebuild(8).element(lossy).serialize() == "x*y"
    with pytest.raises(TruncationError, match=r"'x\*y' dropped a term of "
                       r"degree >= 8 at D = 8, so it cannot be read at D = 9"):
        at8.rebuild(9).element(lossy)
    at12 = at8.rebuild(12)
    lifted = at12.element(parse_poly("x^5 + y", at8))
    assert np.array_equal(lifted.raw, parse_poly("x^5 + y", at12).raw)
    assert at8.rebuild(5).element(lifted).dropped == 5


def _text(terms: dict) -> str:
    return " + ".join(f"{c}*x^{i}*y^{j}" for (i, j), c in terms.items()) or "0"


_TERMS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         st.integers(1, 4), max_size=4)


@settings(max_examples=60, deadline=None)
@given(_TERMS, _TERMS, st.integers(2, 9))
def test_truncated_product_never_reads_wrong_at_a_higher_order(a, b, t):
    """A product taken at order t either reads as the exact product (the
    oracle's, below degree 20) at every higher order or refuses to be read
    there."""
    exact = NaiveModel(5, 2, 20, []).mul(a, b)
    low = build_ring(5, ("x", "y"), [], t)
    prod = parse_poly(_text(a), low) * parse_poly(_text(b), low)
    for trunc in range(t, 20):
        ring = low.rebuild(trunc)
        try:
            lifted = ring.element(prod)
        except TruncationError:
            assert prod.dropped < trunc
            continue
        assert np.array_equal(lifted.raw, _vector(ring, {
            e: c for e, c in exact.items() if sum(e) < trunc}))


# -- the parser against the oracle ------------------------------------------------

@st.composite
def _expressions(draw, model, names, depth=2):
    """An expression of the parser's grammar, with its value in ``model``:
    a leading unary minus, binary + and -, *, ^ with a literal exponent,
    and parenthesized subexpressions down to ``depth`` levels."""
    one = (0,) * len(names)

    def atom():
        kind = draw(st.sampled_from(["int", "name", "paren"][:3 if depth
                                                            else 2]))
        if kind == "int":
            c = draw(st.integers(0, 300))
            return str(c), model.clean({one: c})
        if kind == "name":
            i = draw(st.integers(0, len(names) - 1))
            return names[i], model.clean({tuple(int(j == i) for j in
                                                range(len(names))): 1})
        text, value = draw(_expressions(model, names, depth - 1))
        return f"({text})", value

    def factor():
        text, value = atom()
        if draw(st.booleans()):
            n = draw(st.integers(0, 4))
            text, power = f"{text}^{n}", model.clean({one: 1})
            for _ in range(n):
                power = model.mul(power, value)
            value = power
        return text, value

    def term():
        text, value = factor()
        for _ in range(draw(st.integers(0, 2))):
            t, v = factor()
            text, value = f"{text} * {t}", model.mul(value, v)
        return text, value

    text, value = term()
    if draw(st.booleans()):
        text, value = f"-{text}", model.scale(value, -1)
    for _ in range(draw(st.integers(0, 2))):
        sign = draw(st.sampled_from("+-"))
        t, v = term()
        text = f"{text} {sign} {t}"
        value = model.add(value, v if sign == "+" else model.scale(v, -1))
    return text, value


@st.composite
def _parses(draw):
    p = draw(st.sampled_from([2, 5, 251]))
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    D = draw(st.integers(3, 8))
    model = NaiveModel(p, len(names), D, [])
    return build_ring(p, names, [], D), draw(_expressions(model, names))


@settings(max_examples=80, deadline=None)
@given(_parses())
def test_parser_matches_the_oracle_on_random_expressions(case):
    """The parser evaluates an expression tree in the ring's arithmetic;
    the oracle's dict polynomials, truncated at D, give the same value."""
    ring, (text, value) = case
    assert np.array_equal(parse_poly(text, ring).raw, _vector(ring, value))

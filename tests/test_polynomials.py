"""Parser and truncated arithmetic."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pertlab.errors import PolyParseError, RingMismatchError, TruncationError
from pertlab.polynomials import (MAX_NESTING, TruncPoly, grlex_key,
                                 monomials_below, parse_poly)


class Ctx:
    def __init__(self, p, vars, D):
        self.p, self.vars, self.D = p, vars, D


F5XYZ = Ctx(5, ("x", "y", "z"), 6)
F5XY = Ctx(5, ("x", "y"), 6)


def test_parse_two_term():
    poly = parse_poly("x^2*y + 3*z", F5XYZ)
    assert poly.terms == {(2, 1, 0): 1, (0, 0, 1): 3}


def test_parse_leading_unary_minus():
    """A leading minus negates the first term only."""
    assert parse_poly("-x + y", F5XY).terms == {(1, 0): 4, (0, 1): 1}


def test_parse_binomial_square():
    poly = parse_poly("(x+y)^2", F5XY)
    assert poly.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


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
    assert parse_poly(capped, F5XY) == parse_poly("x", F5XY)
    with pytest.raises(PolyParseError) as err:
        parse_poly("(" * 400 + "x" + ")" * 400, F5XY)
    assert "nested deeper" in str(err.value)
    assert err.value.offset == MAX_NESTING


def test_additive_inverse():
    x = parse_poly("x", F5XY)
    assert (x + -x).is_zero()


def test_truncation_in_product():
    ctx = Ctx(5, ("x", "y"), 4)
    a = parse_poly("x^3", ctx)
    b = parse_poly("y", ctx)
    assert (a * b).is_zero()


def test_char_two_square():
    ctx = Ctx(2, ("x", "y"), 6)
    sq = parse_poly("x + y", ctx) ** 2
    assert sq == parse_poly("x^2 + y^2", ctx)


def test_pow_zero_is_one():
    x = parse_poly("x", F5XY)
    assert (x ** 0).constant_term() == 1


def test_mixed_context_rejected():
    with pytest.raises(RingMismatchError):
        parse_poly("x", F5XY) + parse_poly("x", F5XYZ)


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
                       if sum(e) < trunc), key=grlex_key)
        assert monomials_below(nvars, trunc) == want


# -- algebraic laws, randomized ------------------------------------------------

def polys(ctx):
    coeff = st.integers(0, ctx.p - 1)
    exps = st.tuples(*[st.integers(0, ctx.D - 1)] * len(ctx.vars))
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda terms: TruncPoly(ctx.p, ctx.vars, ctx.D, terms))


@settings(max_examples=60, deadline=None)
@given(polys(F5XY), polys(F5XY), polys(F5XY))
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys(F5XY))
def test_truncation_tower(a):
    # truncating at D then at D' < D equals truncating at D' directly
    lower = TruncPoly(a.p, a.vars, 3, a.terms)
    via = TruncPoly(a.p, a.vars, 3, TruncPoly(a.p, a.vars, 5, a.terms).terms)
    assert lower == via


def test_power_is_repeated_product():
    f = parse_poly("x + 2*y + 1", F5XY)
    prod = TruncPoly.constant(1, 5, ("x", "y"), 6)
    for n in range(7):
        assert f ** n == prod
        prod = prod * f
    with pytest.raises(ValueError, match="negative exponent"):
        f ** -1


def test_truncation_records_lowest_dropped_degree():
    at8 = Ctx(5, ("x", "y"), 8)
    assert parse_poly("x*y + y^7", at8).dropped is None
    # Square-and-multiply squares no further than the exponent needs.
    assert parse_poly("x^5", at8).dropped is None
    lossy = parse_poly("x*y - y^9", at8)
    assert lossy.serialize() == "x*y" and lossy.dropped == 8
    assert (lossy + parse_poly("x", at8)).dropped == 8
    assert (-lossy).dropped == 8
    assert (parse_poly("x^4", at8) * parse_poly("y^5", at8)).dropped == 9
    assert lossy.at(8) == lossy
    with pytest.raises(TruncationError, match=r"'x\*y' dropped a term of "
                       r"degree >= 8 at D = 8, so it cannot be read at D = 9"):
        lossy.at(9)
    lifted = parse_poly("x^5 + y", at8).at(12)
    assert lifted == parse_poly("x^5 + y", Ctx(5, ("x", "y"), 12))
    assert lifted.at(5).dropped == 5


_TERMS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         st.integers(1, 4), max_size=4)


@settings(max_examples=60, deadline=None)
@given(_TERMS, _TERMS, st.integers(2, 9))
def test_truncated_product_never_reads_wrong_at_a_higher_order(a, b, t):
    """A product taken at order t either reads as the exact product at every
    higher order or refuses to be read there."""
    exact = TruncPoly(5, ("x", "y"), 20, a) * TruncPoly(5, ("x", "y"), 20, b)
    low = TruncPoly(5, ("x", "y"), t, a) * TruncPoly(5, ("x", "y"), t, b)
    for trunc in range(t, 20):
        try:
            lifted = low.at(trunc)
        except TruncationError:
            assert low.dropped < trunc
            continue
        assert lifted == exact.at(trunc)

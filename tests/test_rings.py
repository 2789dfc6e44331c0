"""Truncated model construction, normal forms, certificates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pertlab import linalg
from pertlab.certify import TWO_LEVEL, UNCERTIFIED, two_level_value
from pertlab.errors import RingConstructionError, TruncationError
from pertlab.ideals import mult_matrix, zero_ideal, ideal_colon
from pertlab.polynomials import TruncPoly
from pertlab.rings import (MAX_KEY_TABLE, MAX_MONOMIALS, Element, build_ring,
                           nakayama_contains_power,
                           subspace_of_ideal)


def test_build_ring_dimensions():
    assert build_ring(5, ("x", "y"), [], 3).dim == 6
    assert build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 3).dim == 8


def test_build_ring_rejects_bad_input():
    with pytest.raises(RingConstructionError):
        build_ring(4, ("x",), [], 3)
    with pytest.raises(RingConstructionError):
        build_ring(5, ("x", "y"), ["x + 1"], 3)
    with pytest.raises(RingConstructionError):
        build_ring(5, ("x", "y"), [], 1)
    with pytest.raises(RingConstructionError):
        build_ring(5, ("x", "x"), [], 3)


@pytest.mark.parametrize("p", [65537, 2147483647, 10 ** 18 + 9])
def test_build_ring_rejects_primes_past_the_exactness_limit(p):
    with pytest.raises(RingConstructionError, match="largest supported prime"):
        build_ring(p, ("x", "y"), [], 3)


def test_build_ring_accepts_the_largest_supported_prime():
    ring = build_ring(65521, ("x", "y"), ["x*y"], 4)
    assert ring.element("x*y").is_zero()
    f = ring.element("x + 65520*y")
    assert np.array_equal((f * f).vec, ring.element("x^2 + y^2").vec)


def test_build_ring_rejects_more_than_max_monomials():
    # M = C(D + 1, 2) in two variables: 9,870 at D = 140, 10,011 at D = 141.
    assert build_ring(5, ("x", "y"), [], 140).M == 9870 <= MAX_MONOMIALS
    with pytest.raises(RingConstructionError, match="MAX_MONOMIALS"):
        build_ring(5, ("x", "y"), [], 141)
    with pytest.raises(RingConstructionError, match="MAX_MONOMIALS"):
        build_ring(5, ("x", "y"), [], 10 ** 30)
    ring = build_ring(5, ("x", "y", "z", "w"), ["x*y"], 13)
    assert ring.rebuild(15).M == 3060
    with pytest.raises(RingConstructionError, match="MAX_MONOMIALS"):
        ring.rebuild(10 ** 30)


def test_build_ring_rejects_an_empty_variable_list():
    with pytest.raises(RingConstructionError, match="at least one variable"):
        build_ring(2, (), [], 4)


@pytest.mark.parametrize("nvars", [20, 41])
def test_build_ring_rejects_key_tables_past_the_cap(nvars):
    """M = nvars + 1 at D = 2, far below MAX_MONOMIALS, but the exponent-key
    table would hold 2 * 3^(nvars-1) + 1 entries (past int64 at 41)."""
    names = tuple(f"x{i}" for i in range(nvars))
    assert 2 * 3 ** (nvars - 1) + 1 > MAX_KEY_TABLE
    with pytest.raises(RingConstructionError, match="MAX_KEY_TABLE"):
        build_ring(5, names, [], 2)


def test_build_ring_deterministic():
    a = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 5)
    b = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 5)
    assert np.array_equal(a.base_subspace.rows, b.base_subspace.rows)
    assert a.monomials == b.monomials


def test_normal_form_idempotent():
    ring = build_ring(3, ("x", "y"), ["x^2 + y^2"], 6)
    rng = np.random.default_rng(2)
    for _ in range(25):
        vec = rng.integers(0, 3, ring.M).astype(np.int64)
        once = ring._normal_form(vec)
        twice = ring._normal_form(once.copy())
        assert np.array_equal(once, twice)


def test_order_and_power_membership():
    ring = build_ring(5, ("x", "y"), ["y - x^2"], 8)
    y = ring.element("y")
    assert y.order() == 2  # y rewrites to x^2
    assert ring.element("x").order() == 1
    assert ring.zero().order() == ring.D
    power2 = ring.power_span(2)
    assert power2.contains_vector(y.vec)
    assert not ring.power_span(3).contains_vector(y.vec)


def test_subspace_invariance_under_generators():
    ring = build_ring(5, ("x", "y"), [], 4)
    s1 = subspace_of_ideal(ring, [ring.element("x"), ring.element("x + y")])
    s2 = subspace_of_ideal(ring, [ring.element("y"), ring.element("x")])
    s3 = subspace_of_ideal(ring, [ring.element("3*x"), ring.element("y"),
                                  ring.element("x")])
    assert s1 == s2 == s3
    ring3 = build_ring(5, ("x", "y"), [], 3)
    assert subspace_of_ideal(ring3, [ring3.element("x")]).rank == 3


def test_empty_generators_give_base_subspace():
    ring = build_ring(5, ("x", "y"), [], 4)
    assert subspace_of_ideal(ring, []).rank == 0
    ring2 = build_ring(5, ("x", "y"), ["x*y"], 4)
    assert subspace_of_ideal(ring2, []) == ring2.base_subspace


def test_nakayama_examples():
    ring = build_ring(3, ("x", "y"), [], 6)
    m_sub = subspace_of_ideal(ring, [ring.element("x"), ring.element("y")])
    assert nakayama_contains_power(ring, m_sub, 1)
    a_sub = subspace_of_ideal(ring, [ring.element("x^2"), ring.element("y^3")])
    assert not nakayama_contains_power(ring, a_sub, 3)
    assert nakayama_contains_power(ring, a_sub, 4)
    x_sub = subspace_of_ideal(ring, [ring.element("x")])
    for t in range(1, ring.D - 1):
        assert not nakayama_contains_power(ring, x_sub, t)
    with pytest.raises(TruncationError):
        nakayama_contains_power(ring, m_sub, ring.D)


def test_nakayama_soundness_at_higher_level():
    # whenever the certificate fires at D, it fires again at D+2 and the
    # degree-t monomials are direct members there
    ring = build_ring(3, ("x", "y"), ["x*y"], 6)
    sub = subspace_of_ideal(ring, [ring.element("x^2 + y^2")])
    hits = [t for t in range(1, ring.D) if nakayama_contains_power(ring, sub, t)]
    ring_hi = ring.rebuild(ring.D + 2)
    sub_hi = subspace_of_ideal(ring_hi, [ring_hi.element("x^2 + y^2")])
    for t in hits:
        assert nakayama_contains_power(ring_hi, sub_hi, t)
        for c in range(ring_hi.cut(t), ring_hi.cut(t + 1)):
            vec = np.zeros(ring_hi.M, dtype=np.int64)
            vec[c] = 1
            assert sub_hi.contains_vector(vec)


def test_truncation_compatibility():
    # a certified subspace computed at level D, restricted to degrees < D',
    # matches the level-D' computation
    ring_hi = build_ring(5, ("x", "y"), ["x*y"], 8)
    ring_lo = build_ring(5, ("x", "y"), ["x*y"], 5)
    sub_hi = subspace_of_ideal(ring_hi, [ring_hi.element("x^2"),
                                         ring_hi.element("y^2")])
    sub_lo = subspace_of_ideal(ring_lo, [ring_lo.element("x^2"),
                                         ring_lo.element("y^2")])
    cut = ring_hi.cut(5)
    restricted = sub_hi.rows[:sub_hi.prefix_rank(cut), :cut]
    assert np.array_equal(restricted, sub_lo.rows)


def test_two_level_value_stable_and_unstable():
    ring = build_ring(5, ("x", "y"), [], 4)

    def quotient_len(r):
        sub = subspace_of_ideal(r, [r.element("x^2"), r.element("x*y"),
                                    r.element("y^2")])
        return r.M - sub.rank

    cert = two_level_value(lambda r: (quotient_len(r), True), ring, 2)
    assert cert.value == 3 and cert.status == TWO_LEVEL

    def colon_rank(r):
        return ideal_colon(zero_ideal(r), r.element("x")).subspace.rank

    cert2 = two_level_value(lambda r: (colon_rank(r), True), ring, 2)
    assert cert2.status == UNCERTIFIED  # truncation junk moves with D

    degenerate = two_level_value(lambda r: (quotient_len(r), True), ring, 0)
    assert degenerate.status == TWO_LEVEL and "weak" in degenerate.note


@pytest.mark.parametrize("nvars, gens, D", [(2, ["x*y"], 9),
                                             (3, ["x*y", "x*z"], 6)])
def test_monomial_shifts_match_exponent_addition(nvars, gens, D):
    ring = build_ring(5, ("x", "y", "z")[:nvars], gens, D)
    cols = np.arange(ring.M)
    shifts = ring.monomial_shifts(cols)
    for a in cols:
        for b in cols:
            prod = tuple(u + v for u, v in zip(ring.monomials[a],
                                               ring.monomials[b]))
            want = ring.col_index[prod] if sum(prod) < D else ring.M
            assert shifts[a, b] == want


@st.composite
def rings_with_vectors(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    gens = draw(st.lists(st.sampled_from(
        ["x^2", "x^3 + x^2", f"x*{names[-1]}", f"{names[-1]}^3"]), max_size=2))
    ring = build_ring(p, names, gens, draw(st.integers(2, 6)))
    vec = np.zeros(ring.M, dtype=np.int64)
    for col, c in draw(st.dictionaries(st.integers(0, ring.M - 1),
                                       st.integers(1, p - 1),
                                       max_size=4)).items():
        vec[col] = c
    return ring, vec


def _polynomial_products(ring, vec, mus):
    """Coordinate rows of poly(vec) * mu through the dict-based TruncPoly
    product, which shares nothing with RingDescriptor.multiples."""
    poly = ring.poly_of_vector(vec)
    out = np.zeros((len(mus), ring.M), dtype=np.int64)
    for k, mu in enumerate(mus):
        monomial = TruncPoly(ring.p, ring.vars, ring.D, {ring.monomials[mu]: 1})
        out[k] = ring.vector_of_poly(poly * monomial)
    return out


@settings(max_examples=60, deadline=None)
@given(rings_with_vectors())
def test_multiples_match_polynomial_products(case):
    """The product builder equals the polynomial products for its default
    rows (the monomials whose product with vec can survive), for the
    standard monomials and for every monomial; mult_matrix is zero past the
    default rows."""
    ring, vec = case
    order = min((sum(ring.monomials[c]) for c in np.nonzero(vec)[0]),
                default=ring.D)
    default = sum(1 for m in ring.monomials if sum(m) < ring.D - order)
    for mus, rows in ((range(default), ring.multiples(vec)),
                      (ring.std_cols, ring.multiples(vec, ring.std_cols)),
                      (range(ring.M), ring.multiples(vec, np.arange(ring.M)))):
        assert np.array_equal(rows, _polynomial_products(ring, vec, mus))
    table = mult_matrix(ring, Element(ring, vec, ring.poly_of_vector(vec)))
    assert not table[default:].any()


def test_element_lift_between_levels():
    ring = build_ring(5, ("x", "y"), ["x*y"], 5)
    e = ring.element("x + 2*y^3")
    hi = ring.rebuild(8)
    lifted = hi.element(e.poly)
    assert lifted.serialize() == e.serialize()
    assert lifted.ring.D == 8


def test_element_negative_power_raises():
    """Like TruncPoly, a ring element has no negative powers."""
    x = build_ring(5, ("x", "y"), [], 5).element("x")
    assert x ** 2 == x * x
    with pytest.raises(ValueError, match="negative exponent"):
        x ** -1


@pytest.mark.parametrize("gens, D", [(["x*y"], 7), (["x^2 + y*z", "y^3"], 6),
                                     ([], 5)])
def test_subspace_unit_mask_matches_kernel(gens, D):
    """Subspace.reduce and sum_rows pass their cached unit mask; the results
    equal the kernel computing the mask itself."""
    ring = build_ring(5, ("x", "y", "z"), gens, D)
    rng = np.random.default_rng(31)
    subspaces = [ring.base_subspace, ring.power_span(2),
                 ring.ideal_subspace([ring.element("x + y^2"), ring.element("z^2")])]
    for sub in subspaces:
        assert sub.unit_rows().tolist() == [
            np.count_nonzero(row) == 1 for row in sub.rows]
        vecs = rng.integers(-5, 10, (40, ring.M))
        assert np.array_equal(sub.reduce(vecs), linalg.reduce_rows(
            vecs, sub.rows, sub.pivots, ring.p))
        extra = rng.integers(0, 5, (3, ring.M)) * (rng.random((3, ring.M)) < 0.2)
        merged = sub.sum_rows(extra)
        rows, pivots = linalg.merge(sub.rows, sub.pivots, extra, ring.p)
        assert np.array_equal(merged.rows, rows)
        assert np.array_equal(merged.pivots, pivots)

"""Truncated model construction, normal forms, certificates."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import NaiveModel
from pertlab import linalg
from pertlab.certify import TWO_LEVEL, UNCERTIFIED, two_level_value
from pertlab.errors import (RingConstructionError, RingMismatchError,
                            TruncationError)
from pertlab.ideals import mult_matrix, zero_ideal, ideal_colon
from pertlab.polynomials import parse_poly
from pertlab.rings import (MAX_KEY_TABLE, MAX_MONOMIALS, RingDescriptor,
                           Subspace, build_ring, nakayama_contains_power)


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


@pytest.mark.parametrize("name", ["2", "x^2", "x y", " y", "", "y-1", "1y"])
def test_build_ring_rejects_names_the_parser_cannot_read(name):
    """A variable must parse back as itself: "x^2" once named a variable
    whose serialization read back as x squared, and "2" made J = vars the
    unit ideal."""
    with pytest.raises(RingConstructionError) as err:
        build_ring(5, ("x", name), [], 4)
    assert f"variable name {name!r}" in str(err.value)
    assert build_ring(5, ("x", "_y1"), [], 4).variable(1).serialize() == "_y1"


@pytest.mark.parametrize("nvars", [20, 41])
def test_build_ring_rejects_key_tables_past_the_cap(nvars):
    """M = nvars + 1 at D = 2, far below MAX_MONOMIALS, but the exponent-key
    table would hold 2 * 3^(nvars-1) + 1 entries (past int64 at 41)."""
    names = tuple(f"x{i}" for i in range(nvars))
    assert 2 * 3 ** (nvars - 1) + 1 > MAX_KEY_TABLE
    with pytest.raises(RingConstructionError, match="MAX_KEY_TABLE"):
        build_ring(5, names, [], 2)


def test_ring_descriptor_checks_every_input():
    """RingDescriptor is build_ring: a composite modulus, repeated variables
    and a generator over another ring are rejected, and a polynomial
    generator of another truncation is re-read at D."""
    with pytest.raises(RingConstructionError, match="not prime"):
        RingDescriptor(4, ("x", "y"), [], 5)
    with pytest.raises(RingConstructionError, match="duplicate"):
        RingDescriptor(5, ("x", "x"), [], 5)
    with pytest.raises(RingConstructionError, match="lives over"):
        RingDescriptor(5, ("x", "y"),
                       [parse_poly("x*y", build_ring(7, ("x", "y"), [], 5))], 5)
    gen = parse_poly("x^9 + x*y", build_ring(5, ("x", "y"), [], 20))
    ring = build_ring(5, ("x", "y"), [gen], 6)
    (read,) = ring.base_gens
    assert read.ring is ring and read.serialize() == "x*y" and read.dropped == 9
    assert ring.element("x*y").is_zero() and not ring.element("x^5").is_zero()
    assert ring.dim == build_ring(5, ("x", "y"), ["x*y"], 6).dim == 11


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
    # From w = D on no coordinate is left, with generators or without.
    for r in (ring, build_ring(5, ("x", "y"), [], 8)):
        for w in (r.D, r.D + 1):
            assert r.power_span(w) == r.base_subspace


def test_subspace_invariance_under_generators():
    ring = build_ring(5, ("x", "y"), [], 4)
    s1 = ring.ideal_subspace([ring.element("x"), ring.element("x + y")])
    s2 = ring.ideal_subspace([ring.element("y"), ring.element("x")])
    s3 = ring.ideal_subspace([ring.element("3*x"), ring.element("y"),
                              ring.element("x")])
    assert s1 == s2 == s3
    ring3 = build_ring(5, ("x", "y"), [], 3)
    assert ring3.ideal_subspace([ring3.element("x")]).rank == 3


def test_empty_generators_give_base_subspace():
    ring = build_ring(5, ("x", "y"), [], 4)
    assert ring.ideal_subspace([]).rank == 0
    ring2 = build_ring(5, ("x", "y"), ["x*y"], 4)
    assert ring2.ideal_subspace([]) == ring2.base_subspace


def test_nakayama_examples():
    ring = build_ring(3, ("x", "y"), [], 6)
    m_sub = ring.ideal_subspace([ring.element("x"), ring.element("y")])
    assert nakayama_contains_power(ring, m_sub, 1)
    a_sub = ring.ideal_subspace([ring.element("x^2"), ring.element("y^3")])
    assert not nakayama_contains_power(ring, a_sub, 3)
    assert nakayama_contains_power(ring, a_sub, 4)
    x_sub = ring.ideal_subspace([ring.element("x")])
    for t in range(1, ring.D - 1):
        assert not nakayama_contains_power(ring, x_sub, t)
    with pytest.raises(TruncationError):
        nakayama_contains_power(ring, m_sub, ring.D)


def test_nakayama_soundness_at_higher_level():
    # whenever the certificate fires at D, it fires again at D+2 and the
    # degree-t monomials are direct members there
    ring = build_ring(3, ("x", "y"), ["x*y"], 6)
    sub = ring.ideal_subspace([ring.element("x^2 + y^2")])
    hits = [t for t in range(1, ring.D) if nakayama_contains_power(ring, sub, t)]
    ring_hi = ring.rebuild(ring.D + 2)
    sub_hi = ring_hi.ideal_subspace([ring_hi.element("x^2 + y^2")])
    for t in hits:
        assert nakayama_contains_power(ring_hi, sub_hi, t)
        for c in range(ring_hi.cut(t), ring_hi.cut(t + 1)):
            vec = np.zeros(ring_hi.M, dtype=np.int64)
            vec[c] = 1
            assert sub_hi.contains_vector(vec)


@st.composite
def small_ideal_subspaces(draw):
    """An ideal subspace of a few sparse nonunit generators, with low-order
    terms, in a ring over p in {2, 3, 5, 7} in 1-3 variables at D 3-7."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    base = draw(st.lists(st.sampled_from([f"{names[0]}^4",
                                          f"{names[0]}*{names[-1]}"]),
                         max_size=1))
    ring = build_ring(p, names, base, draw(st.integers(3, 7)))
    low = ring.cut(3)

    def element():
        terms = draw(st.dictionaries(st.integers(1, max(low, 2) - 1),
                                     st.integers(1, p - 1),
                                     min_size=1, max_size=3))
        vec = np.zeros(ring.M, dtype=np.int64)
        vec[list(terms)] = list(terms.values())
        return ring.element(vec)

    return ring, ring.ideal_subspace(
        [element() for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=200, deadline=None)
@given(small_ideal_subspaces())
def test_nakayama_certificate_is_a_pivot_count(case):
    """m^t lies in the subspace modulo m^(t+1) exactly when every column of
    degree t is a pivot: a nonpivot column of degree t has its unit vector
    outside the span, and when all of them are pivots their RREF rows are
    those unit vectors up to degree t."""
    ring, sub = case
    for t in range(ring.D):
        degree_t = np.arange(ring.cut(t), ring.cut(t + 1))
        assert (nakayama_contains_power(ring, sub, t)
                == bool(np.isin(degree_t, sub.pivots).all())), t


def test_truncation_compatibility():
    # a certified subspace computed at level D, restricted to degrees < D',
    # matches the level-D' computation
    ring_hi = build_ring(5, ("x", "y"), ["x*y"], 8)
    ring_lo = build_ring(5, ("x", "y"), ["x*y"], 5)
    sub_hi = ring_hi.ideal_subspace([ring_hi.element("x^2"),
                                     ring_hi.element("y^2")])
    sub_lo = ring_lo.ideal_subspace([ring_lo.element("x^2"),
                                     ring_lo.element("y^2")])
    cut = ring_hi.cut(5)
    restricted = sub_hi.rows[:np.searchsorted(sub_hi.pivots, cut), :cut]
    assert np.array_equal(restricted, sub_lo.rows)


@pytest.mark.parametrize("fill", [0.5, 2.7, np.nan, 1 + 2j],
                         ids=["half", "2.7", "nan", "complex"])
def test_coordinate_vectors_hold_integers(fill):
    """A float, NaN or complex vector is refused, not cast: 0.5 once read
    as 0 and 2.7 as 2, NaN as 0 with a RuntimeWarning, and a complex vector
    raised a bare TypeError."""
    ring = build_ring(5, ("x", "y"), [], 4)
    with pytest.raises(RingMismatchError, match="10 integer entries"):
        ring.element(np.full(ring.M, fill))


def test_integer_coordinate_vectors_are_read_mod_p():
    """Signed, unsigned and bool arrays and Python int lists are read."""
    ring = build_ring(5, ("x", "y"), [], 4)
    ints = [7, -1, 0, 5, 3, 0, 0, 0, 0, 11]
    for vec in (ints, np.array(ints), (np.array(ints) % 5).astype(np.uint8),
                np.array(ints) % 2 == 1):
        want = np.asarray(vec).astype(np.int64) % 5
        assert np.array_equal(ring.element(vec).vec, want)


def test_two_level_value_stable_and_unstable():
    ring = build_ring(5, ("x", "y"), [], 4)
    ring_hi = ring.rebuild(ring.D + 2)
    levels = (ring.D, ring_hi.D)

    def quotient_len(r):
        sub = r.ideal_subspace([r.element("x^2"), r.element("x*y"),
                                r.element("y^2")])
        return r.M - sub.rank

    cert = two_level_value((quotient_len(ring), True),
                           (quotient_len(ring_hi), True), levels)
    assert cert.value == 3 and cert.status == TWO_LEVEL

    def colon_rank(r):
        return ideal_colon(zero_ideal(r), r.element("x")).subspace.rank

    cert2 = two_level_value((colon_rank(ring), True),
                            (colon_rank(ring_hi), True), levels)
    assert cert2.status == UNCERTIFIED  # truncation junk moves with D


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
            want = ring.monomials.index(prod) if sum(prod) < D else ring.M
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


def _poly_of(ring, vec) -> dict:
    """The oracle's sparse polynomial with coordinate vector ``vec``."""
    return {ring.monomials[c]: int(vec[c]) for c in np.nonzero(vec)[0]}


def _vector_of(ring, poly: dict) -> np.ndarray:
    """The coordinate vector of an oracle polynomial with terms below D."""
    vec = np.zeros(ring.M, dtype=np.int64)
    for exps, c in poly.items():
        vec[ring.monomials.index(exps)] = c
    return vec


def _oracle_product(ring, a: dict, b: dict) -> np.ndarray:
    """The coordinate vector of a * b through the oracle's dict product,
    which shares nothing with the ring's arithmetic."""
    return _vector_of(ring, NaiveModel(ring.p, len(ring.vars), ring.D,
                                       []).mul(a, b))


def _polynomial_products(ring, vec, mus):
    """Coordinate rows of poly(vec) * mu through the oracle's product."""
    poly = _poly_of(ring, vec)
    out = np.zeros((len(mus), ring.M), dtype=np.int64)
    for k, mu in enumerate(mus):
        out[k] = _oracle_product(ring, poly, {ring.monomials[mu]: 1})
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
    table = mult_matrix(ring, ring.element(vec))
    assert not table[default:].any()


def test_element_lift_between_levels():
    ring = build_ring(5, ("x", "y"), ["x*y"], 5)
    e = ring.element("x + 2*y^3")
    hi = ring.rebuild(8)
    lifted = hi.element(e)
    assert lifted.serialize() == e.serialize()
    assert lifted.ring.D == 8


def test_element_negative_power_raises():
    """Like a parsed polynomial, a ring element has no negative powers."""
    x = build_ring(5, ("x", "y"), [], 5).element("x")
    assert x ** 2 == x * x
    with pytest.raises(ValueError, match="negative exponent"):
        x ** -1


@pytest.mark.parametrize("gens, D", [(["x*y"], 7), (["x^2 + y*z", "y^3"], 6),
                                     ([], 5)])
def test_subspace_unit_mask_matches_kernel(gens, D):
    """Subspace.reduce and sum_rows pass their compact form, unit mask
    included; the results equal the kernel on the basis it eliminates from
    the dense rows."""
    ring = build_ring(5, ("x", "y", "z"), gens, D)
    rng = np.random.default_rng(31)
    subspaces = [ring.base_subspace, ring.power_span(2),
                 ring.ideal_subspace([ring.element("x + y^2"), ring.element("z^2")])]
    for sub in subspaces:
        assert sub.unit.tolist() == [
            np.count_nonzero(row) == 1 for row in sub.rows]
        vecs = rng.integers(-5, 10, (40, ring.M))
        basis, _ = linalg.rref(sub.rows, ring.p)
        assert np.array_equal(sub.reduce(vecs), linalg.reduce_rows(
            vecs, basis, ring.p))
        extra = rng.integers(0, 5, (3, ring.M)) * (rng.random((3, ring.M)) < 0.2)
        merged = sub.sum_rows(extra)
        rows, pivots = linalg.merge(basis, extra, ring.p)
        assert np.array_equal(merged.rows, rows.rows)
        assert np.array_equal(merged.pivots, pivots)


def test_sum_that_adds_nothing_returns_self():
    """sum_rows of no rows, of zero rows or of rows already in the span, and
    the sum with a subspace inside, give back the subspace itself: merge
    hands back the basis it did not extend."""
    ring = build_ring(5, ("x", "y", "z"), ["x^2 + y*z"], 6)
    sub = ring.ideal_subspace([ring.element("x + y^2")])
    assert 0 < np.count_nonzero(sub.unit) < sub.rank
    inside = 3 * sub.rows[::2].astype(np.int64) + sub.rows[1::2][0]
    for extra in (np.zeros((0, ring.M)), np.zeros((2, ring.M)), inside):
        assert sub.sum_rows(extra) is sub
    assert sub.sum_rows(ring.base_subspace.rows) is sub


# -- narrow storage against the int64 path ---------------------------------------

NARROW_PRIMES = [2, 3, 251, 257, 65521]


@st.composite
def rings_with_subspaces(draw):
    """A ring over one of NARROW_PRIMES with two ideal subspaces whose
    generators carry coefficients up to p - 1, the top of the narrow dtype
    at p = 251 and p = 65521; the first subspace has polynomial rows unless
    the defining ideal absorbs them."""
    p = draw(st.sampled_from(NARROW_PRIMES))
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    gens = draw(st.lists(st.sampled_from(["x*y", "x^2 + y^3", f"{names[-1]}^3"]),
                         max_size=2))
    ring = build_ring(p, names, gens, draw(st.integers(3, 5)))
    coeffs = st.just(p - 1) | st.integers(1, p - 1)

    def element():
        terms = draw(st.dictionaries(st.integers(1, ring.M - 1), coeffs,
                                     min_size=2, max_size=4))
        vec = np.zeros(ring.M, dtype=np.int64)
        vec[list(terms)] = list(terms.values())
        return ring.element(vec)

    return ring, [ring.ideal_subspace([element() for _ in range(count)])
                  for count in (draw(st.integers(1, 2)), draw(st.integers(0, 2)))]


@settings(max_examples=60, deadline=None)
@given(rings_with_subspaces(), st.integers(0, 2 ** 32 - 1))
def test_narrow_subspaces_match_the_int64_path(case, seed):
    """Every method of the compact Subspace, the Nakayama certificate and
    the raw product give what the kernel gives on the bases it eliminates
    from int64 copies of the materialized rows; Subspace.reduce hands
    reduce_rows the compact basis, of the dense shape (rank, M)."""
    ring, (a, b) = case
    p = ring.p
    wa, wb = a.rows.astype(np.int64), b.rows.astype(np.int64)
    sa, sb = linalg.rref(wa, p)[0], linalg.rref(wb, p)[0]
    for sub in (a, b):
        assert sub.rows.dtype == (np.uint8 if p <= 251 else np.uint16)
        assert not sub.rows.flags.writeable
        with pytest.raises(ValueError):
            sub.rows[...] = 0
    rng = np.random.default_rng(seed)
    vecs = rng.integers(-p, 2 * p, (6, ring.M))
    extra = rng.integers(0, p, (3, ring.M)) * (rng.random((3, ring.M)) < 0.3)
    with mock.patch.object(linalg, "reduce_rows",
                           wraps=linalg.reduce_rows) as spy:
        normal = a.reduce(vecs)
    assert spy.call_args.args[1] is a
    assert spy.call_args.args[1].shape == (a.rank, ring.M)
    assert np.array_equal(normal, linalg.reduce_rows(vecs, sa, p))
    assert a.sum_rows(extra) == Subspace(ring, linalg.merge(sa, extra, p)[0])
    assert a.sum_rows(b.rows) == Subspace(
        ring, linalg.rref(np.vstack([wa, wb]), p)[0])
    assert a.intersect(b) == Subspace(
        ring, linalg.intersect_rowspaces(sa, sb, p)[0])
    assert (not a.reduce(b.dense(), in_place=True).any(),
            not b.reduce(a.dense(), in_place=True).any()) == (
        not linalg.reduce_rows(wb, sa, p).any(),
        not linalg.reduce_rows(wa, sb, p).any())
    assert (a == b) == np.array_equal(wa, wb)
    rebuilt = Subspace(ring, sa)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    for t in range(1, ring.D):
        lo, hi = ring.cut(t), ring.cut(t + 1)
        keep = np.searchsorted(a.pivots, hi)
        unit_vectors = np.eye(ring.M, dtype=np.int64)[lo:hi, :hi]
        assert nakayama_contains_power(ring, a, t) == (not linalg.reduce_rows(
            unit_vectors, linalg.rref(wa[:keep, :hi], p)[0], p).any())
    vec = rng.integers(0, p, ring.M)
    vec[rng.integers(0, ring.M, 3)] = p - 1
    assert np.array_equal(ring.rows_times(a.rows, vec),
                          ring.rows_times(wa, vec))


@pytest.mark.parametrize("p", [251, 65521])
def test_multiples_keep_top_coefficients_exact(p):
    """Coefficients of p - 1 fill the narrow dtype (250 of uint8's 255 at
    p = 251): the product tables, and the ideal they span, must equal the
    polynomial products computed in int64."""
    ring = build_ring(p, ("x", "y", "z"), ["x*y"], 5)
    vec = np.zeros(ring.M, dtype=np.int64)
    vec[[1, 3, 5, 9]] = [p - 1, p - 1, 2, p - 2]
    elem = ring.element(vec)
    every = np.arange(ring.M)
    for mus, rows in ((ring.std_cols, ring.multiples(elem.vec, ring.std_cols)),
                      (every, mult_matrix(ring, elem))):
        assert rows.dtype == linalg.narrow_dtype(p)
        assert np.array_equal(rows, _polynomial_products(ring, elem.vec, mus))
    spanned = np.vstack([ring.base_subspace.rows.astype(np.int64),
                         _polynomial_products(ring, elem.vec, every)])
    assert np.array_equal(ring.ideal_subspace([elem]).rows,
                          linalg.rref(spanned, p)[0].rows)


@pytest.mark.parametrize("p", [251, 65521])
def test_ring_products_keep_top_coefficients_exact(p):
    """rows_times (by each variable too) and Element.__mul__ on narrow rows
    and coefficients of p - 1: at p = 251 a product such as 250 * 250, or a
    sum of two residues, wraps in uint8, so a narrow scatter that does not
    widen what it multiplies differs from the int64 polynomial products."""
    ring = build_ring(p, ("x", "y", "z"), ["x*y"], 5)
    rng = np.random.default_rng(41)
    rows = np.where(rng.random((6, ring.M)) < 0.5, p - 1,
                    rng.integers(0, p, (6, ring.M))).astype(
                        linalg.narrow_dtype(p))
    vec = np.zeros(ring.M, dtype=np.int64)
    vec[[0, 1, 3, 5, 9]] = [p - 1, p - 1, p - 1, 2, p - 2]

    def products(factor):
        return np.array([_oracle_product(ring, _poly_of(ring, row), factor)
                         for row in rows.astype(np.int64)])

    times = ring.rows_times(rows, vec)
    assert times.dtype == linalg.narrow_dtype(p)
    assert np.array_equal(times, products(_poly_of(ring, vec)))
    for v, name in enumerate(ring.vars):
        shifted = ring.rows_times(rows, ring.variable(v).raw)
        assert shifted.dtype == linalg.narrow_dtype(p)
        assert np.array_equal(shifted, products(
            {tuple(int(w == name) for w in ring.vars): 1}))
    a, b = ring.element(vec), ring.element(rows[0])
    pa, pb = _poly_of(ring, vec), _poly_of(ring, rows[0])
    assert np.array_equal((a * b).vec,
                          ring.element(_oracle_product(ring, pa, pb)).vec)
    assert np.array_equal((a * a).vec,
                          ring.element(_oracle_product(ring, pa, pa)).vec)


# -- narrow kernel outputs at the top of uint8 --------------------------------------

def _oracle_dict(elem) -> dict:
    return _poly_of(elem.ring, elem.vec)


def test_element_arithmetic_at_p_251_matches_oracle():
    """Coefficients whose sums and products pass 255: Element vectors are
    widened from the narrow normal forms, so nothing wraps in uint8."""
    p = 251
    ring = build_ring(p, ("x", "y"), ["x^3", "y^3"], 7)
    model = NaiveModel(p, 2, 7, [{(3, 0): 1}, {(0, 3): 1}])
    a = ring.element("200*x + 250*y + 180*x*y + 240*x^2*y")
    b = ring.element("150*x + 100*y + 90*x*y + 230*x^2*y")
    A, B = _oracle_dict(a), _oracle_dict(b)
    for got, want in ((a + b, model.add(A, B)), (a * b, model.mul(A, B)),
                      (a * a + b, model.add(model.mul(A, A), B))):
        assert got.vec.dtype == np.int64 and not got.vec.flags.writeable
        assert got.vec.min() >= 0 and got.vec.max() < p
        diff = model.add(_oracle_dict(got), model.scale(want, -1))
        assert model.contains(model.base_span, diff)
    assert (a + b).vec[ring.monomials.index((1, 0))] == (200 + 150) % p


def test_subspace_rows_are_compact_and_own_their_data():
    """A subspace keeps a narrow copy of its polynomial rows alone, also when
    eliminated from a view of a larger array, so no kernel buffer stays
    alive; its dense rows are materialized afresh."""
    ring = build_ring(251, ("x", "y"), ["x*y"], 6)
    f = ring.element("200*x + 250*y^2")
    subs = [ring.base_subspace, ring.ideal_subspace([f]), ring.power_span(2),
            ring.ideal_subspace([f]).sum_rows(ring.power_span(3).rows),
            ring.ideal_subspace([f]).intersect(ring.power_span(2))]
    # Four rows of a larger array, each with a tail on the last column.
    rows = np.eye(ring.M, dtype=np.uint8)
    rows[:, -1] = 7
    subs.append(Subspace(ring, linalg.rref(rows[:4], ring.p)[0]))
    assert subs[-1].poly.shape[0] == 4
    for sub in subs:
        assert sub.poly.base is None and sub.poly.flags.c_contiguous
        assert sub.poly.dtype == np.uint8 and not sub.poly.flags.writeable
        assert sub.poly.shape == (np.count_nonzero(~sub.unit), ring.M)
        assert sub.rows.base is None and sub.rows.flags.c_contiguous
        assert sub.rows.dtype == np.uint8 and not sub.rows.flags.writeable
        assert sub.rows is not sub.rows


def test_rebuild_refuses_a_generator_truncated_below_the_new_order():
    # x^9 drops at D = 8; reading the stored x*y at D = 10 would model
    # (x*y) + m^10 instead of (x*y - x^9) + m^10.
    assert build_ring(5, ("x", "y"), ["x*y - x^9"], 10).base_gens[0] \
        .serialize() == "4*x^9 + x*y"
    low = build_ring(5, ("x", "y"), ["x*y - x^9"], 8)
    with pytest.raises(TruncationError, match="degree >= 8 at D = 8"):
        low.rebuild(10)
    (cut,), (parsed,) = (low.rebuild(7).base_gens, build_ring(
        5, ("x", "y"), ["x*y - x^9"], 7).base_gens)
    assert np.array_equal(cut.raw, parsed.raw)
    assert cut.dropped == parsed.dropped == 8
    exact = build_ring(5, ("x", "y"), ["x*y - x^7"], 8).rebuild(10)
    assert exact.base_subspace.rows.tobytes() == build_ring(
        5, ("x", "y"), ["x*y - x^7"], 10).base_subspace.rows.tobytes()


def test_element_lift_refuses_a_dropped_input_term():
    low = build_ring(5, ("x", "y"), ["x*y"], 8)
    high = low.rebuild(10)
    with pytest.raises(TruncationError, match="degree >= 8"):
        high.element(low.element("x + y^9"))
    with pytest.raises(TruncationError, match="degree >= 8"):
        high.element(low.element("x^4") * low.element("y^4"))
    assert high.element(low.element("x + y^7")) == high.element("x + y^7")


@st.composite
def elements_with_references(draw):
    """Elements at D on a 2- or 3-variable ring, each beside its exact
    value mod m^(D + 4) in the oracle: parsed strings, with terms up to a
    few degrees past D, then sums, products and powers of earlier ones,
    built alike on both sides."""
    p = draw(st.sampled_from([2, 3, 5, 251]))
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    D = draw(st.integers(4, 7))
    ring = build_ring(p, names, draw(st.lists(
        st.sampled_from(["x*y", f"{names[-1]}^2"]), max_size=1)), D)
    model = NaiveModel(p, len(names), D + 4, [])
    top = (D + 3) // len(names) + 1

    def text():
        terms = draw(st.lists(st.tuples(
            st.integers(1, p - 1),
            st.lists(st.integers(0, top), min_size=len(names),
                     max_size=len(names))), min_size=1, max_size=3))
        value = {}
        for c, exps in terms:
            value = model.add(value, {tuple(exps): c})
        return " + ".join("*".join([str(c)] + [f"{v}^{e}" for v, e
                                               in zip(names, exps)])
                          for c, exps in terms), value

    pairs = []
    for source in draw(st.lists(st.sampled_from("s+*^"), min_size=1,
                                max_size=6)):
        if source == "s" or not pairs:
            t, value = text()
            pairs.append((ring.element(t), value))
            continue
        (a, va), (b, vb) = (pairs[draw(st.integers(0, len(pairs) - 1))]
                            for _ in range(2))
        if source == "+":
            pairs.append((a + b, model.add(va, vb)))
        elif source == "*":
            pairs.append((a * b, model.mul(va, vb)))
        else:
            n = draw(st.integers(0, 3))
            value = model.clean({(0,) * len(names): 1})
            for _ in range(n):
                value = model.mul(value, va)
            pairs.append((a ** n, value))
    return ring, pairs


@settings(max_examples=60, deadline=None)
@given(elements_with_references())
def test_element_lift_matches_the_polynomial_reference(case):
    """Lifting to every order D - 2..D + 3 either gives the element whose
    defining vector is the oracle's exact value cut to that order, or
    raises TruncationError, which it may only do when a term dropped at D
    could lie below that order."""
    ring, pairs = case
    for new_d in range(ring.D - 2, ring.D + 4):
        other = ring.rebuild(new_d)
        for elem, exact in pairs:
            want = _vector_of(other, {e: c for e, c in exact.items()
                                      if sum(e) < new_d})
            try:
                lifted = other.element(elem)
            except TruncationError:
                assert elem.dropped is not None and elem.dropped < new_d
                continue
            assert np.array_equal(lifted.raw, want)
            assert lifted == other.element(want)

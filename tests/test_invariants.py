"""Hilbert tables, Artin-Rees numbers, Koszul homology, filter-regularity."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pertlab import linalg
from pertlab.catalog import CATALOG
from pertlab.certify import EXACT, TWO_LEVEL
from pertlab.ideals import (IdealHandle, IdealPowers, certificate_level,
                            ideal, ideal_colon, ideal_length, ideal_product,
                            ideal_sum, maximal_ideal, unit_ideal, zero_ideal)
from pertlab.invariants import (ar_number, filter_regular_check,
                                filter_regular_sequence_check,
                                gr_hilbert_function, hs_table,
                                koszul_homology_length, koszul_report)
from pertlab.rings import RingDescriptor, build_ring
from pertlab.verifiers import (Workspace, bound_N_one_element,
                               check_control_colon)


@pytest.fixture(scope="module")
def plane():
    return build_ring(5, ("x", "y"), [], 11)


@pytest.fixture(scope="module")
def branched():
    return build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 11)


# -- Hilbert functions ---------------------------------------------------------

def test_hs_values_regular_line(plane):
    j = maximal_ideal(plane)
    i = ideal(plane, ["x"])
    for n in range(8):
        assert hs_table(i, j, n).entries[n].value == n + 1


def test_hs_values_branched(branched):
    j = maximal_ideal(branched)
    i = ideal(branched, ["x + y", "z"])
    table = hs_table(i, j, 6)
    assert table.values() == (1, 2, 2, 2, 2, 2, 2)
    assert all(e.is_certified() for e in table.entries)


def test_hs_unit_ideal(plane):
    table = hs_table(unit_ideal(plane), maximal_ideal(plane), 4)
    assert table.values() == (0, 0, 0, 0, 0)


def test_gr_tables(plane, branched):
    jp = maximal_ideal(plane)
    assert gr_hilbert_function(ideal(plane, ["x"]), jp, 8).values() == (1,) * 9
    jb = maximal_ideal(branched)
    assert gr_hilbert_function(ideal(branched, ["x + y", "z"]), jb, 6).values() \
        == (1, 1, 0, 0, 0, 0, 0)
    assert gr_hilbert_function(ideal(plane, ["x", "y"]), jp, 4).values() \
        == (1, 0, 0, 0, 0)


def test_gr_sums_to_hs(plane):
    j = maximal_ideal(plane)
    i = ideal(plane, ["x^2 + y^3"])
    hs = hs_table(i, j, 7)
    gr = gr_hilbert_function(i, j, 7, IdealPowers(j, 8))
    for n in range(8):
        assert sum(gr.values()[: n + 1]) == hs.values()[n]
        assert gr.values()[n] >= 0
    # monotone: HS is nondecreasing
    assert all(hs.values()[n] <= hs.values()[n + 1] for n in range(7))


# -- Artin-Rees ------------------------------------------------------------------

def test_ar_examples(plane):
    j = maximal_ideal(plane)
    assert ar_number(zero_ideal(plane), j, 6).value == 0
    k = ar_number(ideal(plane, ["x"]), j, 6)
    assert k.value == 1 and k.is_certified()
    assert "s=0 fails" in k.note
    assert ar_number(ideal(plane, ["x", "y"]), j, 6).value == 1


def test_ar_branched(branched):
    j = maximal_ideal(branched)
    k = ar_number(ideal(branched, ["x + y", "z"]), j, 6)
    assert k.is_certified() and k.value is not None


# -- Koszul homology --------------------------------------------------------------

def test_koszul_reference_values():
    plane8 = build_ring(5, ("x", "y"), [], 8)
    fs = (plane8.element("x"), plane8.element("y"))
    h1 = koszul_homology_length(fs, 1)
    assert (h1.value, h1.is_certified()) == (0, True)

    fat = build_ring(5, ("x", "y"), ["x^2"], 8)
    h1_fat = koszul_homology_length((fat.element("x"), fat.element("y")), 1)
    assert (h1_fat.value, h1_fat.is_certified()) == (1, True)

    branched8 = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 8)
    fs3 = (branched8.element("x + y"), branched8.element("z"))
    h2 = koszul_homology_length(fs3, 2)
    assert (h2.value, h2.is_certified()) == (0, True)


def test_koszul_index_range(plane):
    fs = (plane.element("x"),)
    with pytest.raises(ValueError):
        koszul_homology_length(fs, 2)
    with pytest.raises(ValueError):
        koszul_homology_length(fs, 0)


def test_koszul_regular_sequence_vanishing_and_finiteness():
    plane8 = build_ring(5, ("x", "y"), [], 8)
    report = koszul_report((plane8.element("x"), plane8.element("y")))
    assert tuple(cv.value for cv in report.lengths) == (0, 0)
    assert all(report.finite)


def test_koszul_h0_consistency():
    from pertlab.invariants import _koszul_boundary, _reduced_mult_matrix
    from pertlab import linalg
    plane8 = build_ring(5, ("x", "y"), [], 8)
    fs = (plane8.element("x^2"), plane8.element("y^3"))
    # H_0 computed from the complex equals the certified quotient length
    mats = [_reduced_mult_matrix(f) for f in fs]
    d1 = _koszul_boundary(plane8, mats, 1)
    h0 = plane8.dim - linalg.rank(d1, plane8.p)
    handle = IdealHandle(plane8, fs)
    assert h0 == ideal_length(handle).value == 6


# -- filter-regularity -------------------------------------------------------------

def test_filter_regular_branched_facts():
    r = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 8)
    ok_z, h_z = filter_regular_check(zero_ideal(r), r.element("z"))
    assert not ok_z
    ok_xy, h_xy = filter_regular_check(zero_ideal(r), r.element("x + y"))
    assert ok_xy and h_xy.value == 1 and h_xy.is_certified()

    seq = filter_regular_sequence_check((r.element("x + y"), r.element("z")))
    assert seq.passed and seq.first_failure is None

    permuted = filter_regular_sequence_check((r.element("z"), r.element("x + y")))
    assert not permuted.passed and permuted.first_failure == 1


def test_filter_regular_simple_cases():
    plane8 = build_ring(5, ("x", "y"), [], 8)
    ok, h = filter_regular_check(zero_ideal(plane8), plane8.element("x"))
    assert ok and h.value == 1
    assert filter_regular_sequence_check((plane8.element("x"),
                                          plane8.element("y"))).passed

    node = build_ring(5, ("x", "y"), ["x*y"], 8)
    assert not filter_regular_check(zero_ideal(node), node.element("y"))[0]
    ok_d, h_d = filter_regular_check(zero_ideal(node), node.element("x + y"))
    assert ok_d and h_d.value == 1

    fat = build_ring(5, ("x", "y"), ["x^2"], 8)
    assert not filter_regular_check(zero_ideal(fat), fat.element("x"))[0]


def test_filter_regular_sheds_truncation_junk():
    # (0 : x^2) vanishes upstream, so the exponent is 1 even though the
    # truncated colon contains boundary junk killed only by m^2
    plane8 = build_ring(5, ("x", "y"), [], 8)
    ok, h = filter_regular_check(zero_ideal(plane8), plane8.element("x^2"))
    assert ok and h.value == 1


def test_filter_regular_unit_degenerate(plane):
    ok, h = filter_regular_check(zero_ideal(plane), plane.element("1 + x"))
    assert ok and "degenerate" in h.note


def test_leading_element_stays_filter_regular_on_tail():
    # on every catalog-style case where (f1, f2) passes, f1 must pass
    # against the ideal generated by the tail
    cases = [
        (build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 8), "x + y", "z"),
        (build_ring(5, ("x", "y"), [], 8), "x", "y"),
    ]
    for ring, f1_text, f2_text in cases:
        f1, f2 = ring.element(f1_text), ring.element(f2_text)
        assert filter_regular_sequence_check((f1, f2)).passed
        tail = IdealHandle(ring, (f2,))
        assert filter_regular_check(tail, f1)[0]


# -- colon identities --------------------------------------------------------------

def _colon_identity_case(ring, f_text, n_max):
    j = maximal_ideal(ring)
    f = ring.element(f_text)
    powers = IdealPowers(j, n_max)
    k = ar_number(IdealHandle(ring, (f,)), j, n_max, powers).value
    zero_colon = ideal_colon(zero_ideal(ring), f)
    for n in range(k, n_max + 1):
        jn = powers.handle(n)
        lhs = ideal_colon(jn, f)
        rhs = ideal_sum(ideal_product(powers.handle(n - k),
                                      ideal_colon(powers.handle(k), f)),
                        zero_colon)
        assert lhs.equals(rhs), (f_text, n)
        # length identity: len(R/((f) + J^n)) = len((J^n : f)) - len(J^n)
        quotient = ideal_length(ideal_sum(IdealHandle(ring, (f,)), jn)).value
        codim_colon = ring.M - lhs.subspace.rank
        codim_jn = ring.M - jn.subspace.rank
        assert quotient == codim_jn - codim_colon, (f_text, n)


def test_colon_identities_regular_line(plane):
    _colon_identity_case(plane, "x", 6)


def test_colon_identities_node_diagonal():
    node = build_ring(5, ("x", "y"), ["x*y"], 11)
    _colon_identity_case(node, "x + y", 6)


# -- truncation-level spread ------------------------------------------------------

@pytest.mark.parametrize("catalog_id", sorted(CATALOG))
def test_delta_below_one_rejected_and_levels_are_d_and_d_plus_delta(catalog_id):
    """Every two-level entry point rejects delta < 1, and every value it
    returns was compared at D and D + delta."""
    entry = CATALOG[catalog_id]
    ring = build_ring(entry.p, entry.vars, entry.base_gens, 8)
    fs = tuple(ring.element(e) for e in entry.f_exprs)
    j = IdealHandle(ring, tuple(ring.element(g) for g in entry.j_exprs))
    runs = {
        "ar_number": lambda d: [ar_number(IdealHandle(ring, fs), j, 3,
                                          delta=d)],
        "filter_regular_check": lambda d: [filter_regular_check(
            IdealHandle(ring, fs[:-1]), fs[-1], delta=d)[1]],
        "koszul_homology_length": lambda d: [koszul_homology_length(
            fs, 1, delta=d)],
        "koszul_report": lambda d: list(koszul_report(fs, delta=d).lengths),
        # The verifiers' D + delta model itself.
        "Workspace.ring_hi": lambda d: [Workspace(ring, fs, j, 3,
                                                  delta=d).ring_hi],
    }
    if filter_regular_check(IdealHandle(ring, ()), fs[0])[0]:
        # Only a filter-regular f has an explicit threshold.
        runs["bound_N_one_element"] = lambda d: [
            getattr(bound_N_one_element(fs[0], j, delta=d), name)
            for name in ("k", "h", "n_bound")]
    stable = 0
    for name, run in runs.items():
        for bad in (0, -1):
            with pytest.raises(ValueError):
                run(bad)
        for delta in (1, 2, 3):
            for cert in run(delta):
                if isinstance(cert, RingDescriptor):
                    assert cert.D == ring.D + delta, (name, delta)
                    continue
                assert cert.levels == (ring.D, ring.D + delta), (name, delta)
                stable += cert.status == TWO_LEVEL
    assert stable


def test_unit_element_rejects_negative_delta():
    ring = build_ring(5, ("x", "y"), [], 8)
    unit = ring.element("1 + x")
    ok, cert = filter_regular_check(IdealHandle(ring, ()), unit, delta=2)
    assert ok and cert.status == TWO_LEVEL and "unit" in cert.note
    with pytest.raises(ValueError):
        filter_regular_check(IdealHandle(ring, ()), unit, delta=-1)


def test_koszul_report_at_p_251_matches_oracle():
    """Coefficients near the top of uint8 (p = 251), and of a uint16 prime
    (p = 257), reach the unsigned Koszul boundary through narrow normal
    forms.  On the Artinian ring F_p[x,y]/(x^3, y^3) the truncation is
    exact, H_2 = (0 : (f1, f2)) and, the Euler characteristic being zero,
    H_1 = H_0 + H_2."""
    from oracle import NaiveModel
    D = 10
    for p in (251, 257):
        ring = build_ring(p, ("x", "y"), ["x^3", "y^3"], D)
        fs = (ring.element("200*x + 250*y^2"),
              ring.element("150*x + 230*x*y"))
        report = koszul_report(fs)
        model = NaiveModel(p, 2, D, [{(3, 0): 1}, {(0, 3): 1}])
        F = [{(1, 0): 200, (0, 2): 250}, {(1, 0): 150, (1, 1): 230}]
        base = model.base_span
        h0 = model.length(model.ideal_span(F))
        h2 = (len(model.intersection(model.colon(base, F[0]),
                                     model.colon(base, F[1])))
              - len(base))
        assert [(c.value, c.status) for c in report.lengths] == [
            (h0 + h2, EXACT), (h2, EXACT)], p
        assert h2 > 0 and all(report.finite), p


def test_koszul_h2_of_an_artinian_ring_reads_its_socle():
    """F_5[x,y]/(x^5, y^5) contains m^9, so at D = 10 the truncation is the
    ring itself and H_2 of (x, y) is (0 : m), spanned by the socle x^4 y^4:
    length 1, as the oracle computes.  That class sits at order 8, so the
    order profile opens with a run of zeros that is the widest run at both
    D and D + 2; the widest plateau certified 0, and the raw reading of a
    model that is the ring gives 1."""
    from oracle import NaiveModel
    ring = build_ring(5, ("x", "y"), ["x^5", "y^5"], 10)
    model = NaiveModel(5, 2, 10, [{(5, 0): 1}, {(0, 5): 1}])
    h2 = (len(model.intersection(model.colon(model.base_span, {(1, 0): 1}),
                                 model.colon(model.base_span, {(0, 1): 1})))
          - len(model.base_span))
    assert h2 == 1
    report = koszul_report((ring.element("x"), ring.element("y")))
    assert report.lengths[1].value == h2


def _euler_characteristic(fs: tuple) -> tuple[int, set]:
    """chi = sum over i of (-1)^i l(H_i(f; R)), with H_0 = R/(f), from the
    readings pertlab certifies, and the statuses of those readings."""
    readings = ((ideal_length(IdealHandle(fs[0].ring, fs)),)
                + koszul_report(fs).lengths)
    return (sum((-1) ** i * c.value for i, c in enumerate(readings)),
            {c.status for c in readings})


@pytest.mark.parametrize("catalog_id, multiplicity", [
    ("regular-pair", 1), ("remark-2-4", 1), ("node-diagonal", 2)])
def test_euler_characteristic_is_the_multiplicity(catalog_id, multiplicity):
    """Where (f) + B is m-primary and r = dim R, the Euler characteristic
    of the Koszul complex is the multiplicity e((f); R) (Serre), an
    identity between readings taken at D = 11 and in its D + 2 lift."""
    entry = CATALOG[catalog_id]
    ring = build_ring(entry.p, entry.vars, entry.base_gens, 11)
    chi, statuses = _euler_characteristic(
        tuple(ring.element(e) for e in entry.f_exprs))
    assert statuses <= {EXACT, TWO_LEVEL}
    assert chi == multiplicity


def test_euler_characteristic_of_an_artinian_ring_is_zero():
    """R = F_5[x,y]/(x^5, y^5) is Artinian, so chi = 0 for (x, y).  The
    plateau readings gave 1 - 2 + 0 = -1 at D = 10, for the reason given in
    test_koszul_h2_of_an_artinian_ring_reads_its_socle."""
    ring = build_ring(5, ("x", "y"), ["x^5", "y^5"], 10)
    assert _euler_characteristic((ring.element("x"), ring.element("y")))[0] == 0


# -- Koszul identities on Artinian rings ----------------------------------------

@st.composite
def _artinian_sequences(draw):
    """F_p[x, y(, z)]/(x_i^a_i) at D = t or t + 1, where t = sum(a_i - 1) + 1
    is the least t with m^t in the base ideal, so the model is the ring
    itself, and r = 1..n elements of m, every term of degree below D."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    exps = draw(st.lists(st.integers(2, 5 if len(names) == 2 else 3),
                         min_size=len(names), max_size=len(names)))
    D = sum(a - 1 for a in exps) + 1 + draw(st.integers(0, 1))
    term = st.builds(lambda c, mono: f"{c}*" + "*".join(mono),
                     st.integers(1, p - 1),
                     st.lists(st.sampled_from(names), min_size=1,
                              max_size=min(3, D - 1)))
    fs = draw(st.lists(st.lists(term, min_size=1, max_size=2).map(" + ".join),
                       min_size=1, max_size=len(names)))
    return p, names, tuple(f"{v}^{a}" for v, a in zip(names, exps)), D, fs


# (x, y) on F_5[x,y]/(x^5, y^5) at D = 10, whose H_2 the widest plateau
# read as 0 (test_koszul_h2_of_an_artinian_ring_reads_its_socle).
_SOCLE_CASE = (5, ("x", "y"), ("x^5", "y^5"), 10, ["x", "y"])


def _artinian_readings(case) -> list:
    """The readings of l(H_i(f; R)) for i = 0..r, H_0 = R/(f), each with
    its index, that are certified (exact or two-level-stable)."""
    p, names, gens, D, fs = case
    ring = build_ring(p, names, gens, D)
    elems = tuple(map(ring.element, fs))
    readings = ((ideal_length(IdealHandle(ring, elems)),)
                + koszul_report(elems).lengths)
    return [(i, c.value) for i, c in enumerate(readings)
            if c.status in (EXACT, TWO_LEVEL)]


@settings(max_examples=25, deadline=None)
@example(case=_SOCLE_CASE)
@given(case=_artinian_sequences())
def test_koszul_rigidity_on_artinian_rings(case):
    """Rigidity: H_i = 0 implies H_j = 0 for every j >= i."""
    readings = _artinian_readings(case)
    zeros = [i for i, value in readings if value == 0]
    assert all(value == 0 for i, value in readings if zeros and i >= zeros[0])


@settings(max_examples=25, deadline=None)
@example(case=_SOCLE_CASE)
@given(case=_artinian_sequences())
def test_koszul_euler_characteristic_of_artinian_rings_is_zero(case):
    """R is Artinian and r >= 1, so chi = sum of (-1)^i l(H_i) = 0 where
    every length is certified; H_r certified 0 breaks it."""
    readings = _artinian_readings(case)
    if len(readings) == len(case[4]) + 1:
        assert sum((-1) ** i * value for i, value in readings) == 0


@settings(max_examples=25, deadline=None)
@example(case=_SOCLE_CASE)
@given(case=_artinian_sequences())
def test_koszul_top_homology_of_artinian_rings_is_nonzero(case):
    """R is Artinian, so H_r = (0 : (f)) contains the socle and is not 0."""
    readings = _artinian_readings(case)
    r = len(case[4])
    assert all(value != 0 for i, value in readings if i == r)


def _terms(poly) -> dict:
    """The nonzero terms of a polynomial's defining vector, by exponents."""
    return {poly.ring.monomials[c]: int(poly.raw[c])
            for c in np.nonzero(poly.raw)[0]}


@settings(max_examples=25, deadline=None)
@example(case=_SOCLE_CASE, extra=0, scale=0)
@given(case=_artinian_sequences(), extra=st.integers(0, 1),
       scale=st.integers(0, 3))
def test_artinian_readings_match_the_oracle(case, extra, scale):
    """Audit of every reading on an Artinian ring, D from t to t + 2: each
    certified Koszul length, filter-regularity exponent (clamped to 1) and
    control-colon length and exponent equals the brute-force oracle's, and
    each is exact, since the model is the ring itself.  The control colon
    perturbs the i-th element by scale * x_i^2."""
    from oracle import NaiveModel
    p, names, gens, D, fs = case
    D += extra
    ring = build_ring(p, names, gens, D)
    elems = tuple(map(ring.element, fs))
    model = NaiveModel(p, len(names), D, [_terms(g) for g in ring.base_gens])
    F = [_terms(e) for e in elems]

    report = koszul_report(elems)
    for i, cert in enumerate(report.lengths, start=1):
        if cert.is_certified():
            assert cert.value == model.koszul_length(F, i), ("H", i)
    assert {c.status for c in report.lengths} == {EXACT}
    assert all(report.finite)

    for step in filter_regular_sequence_check(elems).steps:
        span = model.ideal_span(F[:step.index - 1])
        colon = model.colon(span, F[step.index - 1])
        assert step.passed and step.exponent.status == EXACT
        assert step.exponent.value == max(
            model.annihilator_exponent(span, colon), 1), step.index

    eps = tuple(ring.element(f"{scale}*{names[k % len(names)]}^2")
                for k in range(len(elems)))
    record = check_control_colon(Workspace(ring, elems, maximal_ideal(ring),
                                           2), eps)
    pert = [_terms(f + e) for f, e in zip(elems, eps)]
    assert len(record.rows) == len(pert)
    for k, got in enumerate(record.rows):
        span = model.ideal_span(pert[:k] + pert[k + 1:])
        colon = model.colon(span, pert[k])
        assert (got["value_orig"], got["value_pert"], got["certification"]) \
            == (len(colon) - len(span),
                model.annihilator_exponent(span, colon), EXACT), k

    # At D = t the model is the ring but shows no certificate yet; its
    # D + 2 lift does.
    for d in range(2, D + 3):
        other = build_ring(p, names, gens, d)
        assert other.is_exact == (
            certificate_level(other.base_subspace) is not None), d
    assert other.is_exact


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([2, 5, 251]), nvars=st.integers(2, 3),
       D=st.integers(2, 9), data=st.data())
def test_a_model_is_exact_only_with_a_base_certificate(p, nvars, D, data):
    """``is_exact`` is the base subspace's Nakayama certificate, read as a
    pivot count: never on a ring whose base ideal lies in (x), as every
    catalog ring's does, and never on the catalog at D = 6..12."""
    names = ("x", "y", "z")[:nvars]
    monomial = st.lists(st.sampled_from(names), max_size=3).map(
        lambda m: "*".join(("x",) + tuple(m)))
    gens = data.draw(st.lists(monomial, max_size=3))
    ring = build_ring(p, names, gens, D)
    assert not ring.is_exact
    assert certificate_level(ring.base_subspace) is None
    for entry in CATALOG.values():
        for d in range(6, 13):
            assert not build_ring(entry.p, entry.vars, entry.base_gens,
                                  d).is_exact, (entry, d)


def test_koszul_leading_zero_plateau_is_read_exactly():
    """At D = 8 the H_2 order profile of the sequence above opens with a
    run of zeros (orders below its lowest class) wider than its run at the
    true length 2, so its plateau reads 0 at D and 2 at D + 2.  No standard
    monomial of F_251[x,y]/(x^3, y^3) has degree 7, so the model is the
    ring itself and its raw length, 2 as the oracle gives, is exact."""
    from oracle import NaiveModel
    ring = build_ring(251, ("x", "y"), ["x^3", "y^3"], 8)
    assert ring.is_exact
    fs = (ring.element("200*x + 250*y^2"), ring.element("150*x + 230*x*y"))
    model = NaiveModel(251, 2, 8, [{(3, 0): 1}, {(0, 3): 1}])
    h2 = (len(model.intersection(
        model.colon(model.base_span, {(1, 0): 200, (0, 2): 250}),
        model.colon(model.base_span, {(1, 0): 150, (1, 1): 230})))
        - len(model.base_span))
    cert = koszul_homology_length(fs, 2)
    assert (cert.value, cert.status, cert.note) == (h2, EXACT, "") == (
        2, EXACT, "")


# -- invariance under a linear change of coordinates ----------------------------

def _substitute(exprs: tuple, names: tuple, sigma: np.ndarray) -> tuple:
    """Each expression with x_i replaced by sum_j sigma[i, j] x_j."""
    images = {v: "(" + " + ".join(f"{c}*{w}" for c, w in zip(row, names) if c)
              + ")" for v, row in zip(names, sigma.tolist())}
    pattern = re.compile(r"\b(" + "|".join(names) + r")\b")
    return tuple(pattern.sub(lambda m: images[m.group(1)], e) for e in exprs)


def _readings(p, names, gens, fs, js, D, n_max=3) -> tuple:
    """Every reading with its status: the hs and gr tables of R/(f) along
    J, the Koszul lengths of f with their finiteness flags, the Artin-Rees
    number and the filter-regularity steps of f."""
    ring = build_ring(p, names, gens, D)
    ws = Workspace(ring, tuple(map(ring.element, fs)),
                   IdealHandle(ring, tuple(map(ring.element, js))), n_max)
    koszul = koszul_report(ws.fs)

    def read(c):
        return c.value, c.status

    return (tuple(map(read, hs_table(ws.i_handle, ws.j, n_max,
                                     ws.powers).entries)),
            tuple(map(read, ws.gr_orig.entries)),
            tuple(map(read, koszul.lengths)), koszul.finite, read(ws.ar_value),
            tuple((s.passed, *read(s.exponent))
                  for s in ws.sequence_report.steps))


def _invertible(draw, p: int, n: int) -> np.ndarray:
    """A random sigma in GL_n(F_p), drawn as P L U: a permutation, a unit
    lower triangular matrix and an upper triangular one with a nonzero
    diagonal (every invertible matrix has this form)."""
    def entries(lo, k):
        return np.array(draw(st.lists(st.integers(lo, p - 1), min_size=k,
                                      max_size=k)), dtype=np.int64)

    perm = np.eye(n, dtype=np.int64)[draw(st.permutations(range(n)))]
    lower = np.tril(entries(0, n * n).reshape(n, n), -1) + np.eye(n, dtype=int)
    upper = np.triu(entries(0, n * n).reshape(n, n), 1) + np.diag(entries(1, n))
    sigma = perm @ lower @ upper % p
    assert linalg.rank(sigma, p) == n
    return sigma


def _assert_coordinate_free(p, names, gens, fs, js, D, sigma) -> None:
    """sigma maps the defining ideal B, f and J to sigma(B), sigma(f) and
    sigma(J), and m^D to itself, so it keeps every reading as it is."""
    twisted = (_substitute(exprs, names, sigma) for exprs in (gens, fs, js))
    assert _readings(p, names, *twisted, D) == _readings(p, names, gens, fs,
                                                          js, D)


@pytest.mark.parametrize("catalog_id", sorted(CATALOG))
@settings(max_examples=3, deadline=None)
@given(data=st.data(), D=st.integers(6, 12))
def test_catalog_readings_survive_a_change_of_coordinates(catalog_id, data, D):
    entry = CATALOG[catalog_id]
    sigma = _invertible(data.draw, entry.p, len(entry.vars))
    _assert_coordinate_free(entry.p, entry.vars, entry.base_gens,
                            entry.f_exprs, entry.j_exprs, D, sigma)


@st.composite
def _small_rings(draw):
    """F_p[x, y(, z)] with up to two generators of degree 2-3, one or two
    elements f and an ideal J (m or one of degree 1-2), as expressions."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]

    def polys(lo, hi, least, most):
        term = st.builds(lambda c, mono: f"{c}*" + "*".join(mono),
                         st.integers(1, p - 1),
                         st.lists(st.sampled_from(names), min_size=lo,
                                  max_size=hi))
        return tuple(draw(st.lists(st.lists(term, min_size=1, max_size=2).map(
            " + ".join), min_size=least, max_size=most)))

    js = names if draw(st.booleans()) else polys(1, 2, 1, 3)
    return p, names, polys(2, 3, 0, 2), polys(1, 2, 1, 2), js


@settings(max_examples=12, deadline=None)
@given(ring=_small_rings(), data=st.data(), D=st.integers(6, 12))
def test_random_ring_readings_survive_a_change_of_coordinates(ring, data, D):
    p, names, gens, fs, js = ring
    _assert_coordinate_free(p, names, gens, fs, js, D,
                            _invertible(data.draw, p, len(names)))

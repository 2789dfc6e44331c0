"""Ideal arithmetic: worked examples plus structural invariants."""

from __future__ import annotations

import numpy as np
import pytest

from pertlab.certify import EXACT
from pertlab.errors import RingMismatchError
from pertlab.ideals import (IdealHandle, IdealPowers, ideal, ideal_colon,
                            ideal_intersection, ideal_length,
                            ideal_power, ideal_product, ideal_sum,
                            m_primary_level, maximal_ideal, unit_ideal,
                            zero_ideal)
from pertlab.invariants import (colon_plateaus, filter_regular_check, hs_table,
                                koszul_report)
from pertlab.rings import build_ring
from pertlab.verifiers import Workspace, check_main_equality


@pytest.fixture(scope="module")
def f5xy():
    return build_ring(5, ("x", "y"), [], 6)


@pytest.fixture(scope="module")
def branched():
    # two lines and a transversal line through the origin in 3-space
    return build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 6)


def test_combine_examples(f5xy):
    r = f5xy
    assert ideal_sum(ideal(r, ["x"]), ideal(r, ["y"])).equals(ideal(r, ["x", "y"]))
    sq = ideal_power(ideal(r, ["x", "y"]), 2)
    assert sq.equals(ideal(r, ["x^2", "x*y", "y^2"]))
    assert ideal_product(ideal(r, ["x"]), unit_ideal(r)).equals(ideal(r, ["x"]))
    assert ideal_power(ideal(r, ["x"]), 0).is_unit()
    with pytest.raises(ValueError):
        ideal_power(ideal(r, ["x"]), -1)


def test_mixed_ring_rejected(f5xy, branched):
    with pytest.raises(RingMismatchError):
        ideal_sum(ideal(f5xy, ["x"]), ideal(branched, ["x"]))


@pytest.mark.parametrize("call", [
    lambda r, s: koszul_report((r.element("x"), s.element("y"))),
    lambda r, s: check_main_equality(
        Workspace(r, (r.element("x + y"),), maximal_ideal(s), 4),
        (r.element("x^3"),)),
    lambda r, s: hs_table(ideal(r, ["x + y"]), maximal_ideal(s), 4),
    lambda r, s: hs_table(ideal(r, ["x + y"]), maximal_ideal(r), 4,
                          IdealPowers(maximal_ideal(s), 5)),
    lambda r, s: filter_regular_check(zero_ideal(r),
                                      r.rebuild(10).element("x + y^9")),
    lambda r, s: filter_regular_check(zero_ideal(r), s.element("y")),
    lambda r, s: filter_regular_check(zero_ideal(r), s.element("1 + x")),
    lambda r, s: colon_plateaus(zero_ideal(r).subspace, s.element("y")),
], ids=["koszul", "main-equality", "hs-table", "hs-table-powers",
        "colon-at-another-D", "colon-in-another-ring", "unit-in-another-ring",
        "colon-plateaus"])
def test_operands_from_another_ring_rejected(call):
    """Each call takes an operand from F_5[x,y]/(x^2), or from a rebuild at
    D = 10, into a computation over F_5[x,y]/(x*y) at D = 8.  Unchecked,
    the Koszul lengths were read, the main equality verified and the tables
    certified exact, the colon at D = 10 raised numpy's IndexError, and the
    colon readings in the other ring, and a unit f there, answered from a
    foreign vector."""
    r = build_ring(5, ("x", "y"), ["x*y"], 8)
    with pytest.raises(RingMismatchError):
        call(r, build_ring(5, ("x", "y"), ["x^2"], 8))


def test_handle_built_from_a_generator_keeps_it(f5xy):
    """The ring check once consumed a generator argument before the handle
    stored it, leaving the zero ideal."""
    r = f5xy
    handle = IdealHandle(r, (r.element(g) for g in ["x", "y"]))
    assert len(handle.gens) == 2
    assert handle.subspace.rank == ideal(r, ["x", "y"]).subspace.rank == 20


def test_intersection_examples():
    r4 = build_ring(5, ("x", "y"), [], 4)
    inter = ideal_intersection(ideal(r4, ["x"]), ideal(r4, ["y"]))
    assert inter.equals(ideal(r4, ["x*y"]))
    assert inter.subspace.rank == 3  # xy, x^2 y, x y^2
    a = ideal(r4, ["x^2", "y"])
    assert ideal_intersection(a, a).equals(a)


def test_intersection_power_with_principal(f5xy):
    r = f5xy
    powers = IdealPowers(maximal_ideal(r), r.D - 1)
    x = ideal(r, ["x"])
    for n in range(1, r.D - 1):
        lhs = ideal_intersection(powers.handle(n), x)
        rhs_gens = [r.element("x") * g for g in powers.handle(n - 1).gens]
        rhs = ideal(r, []) if not rhs_gens else ideal_sum(
            zero_ideal(r), ideal(r, [g.serialize() for g in rhs_gens]))
        assert lhs.equals(rhs)


def test_colon_examples(f5xy):
    r = f5xy
    col = ideal_colon(ideal(r, ["x^2", "y^4"]), r.element("x"))
    assert col.contains_element(r.element("x"))
    assert col.contains_element(r.element("y^4"))
    assert not col.contains_element(r.element("y^3"))
    a = ideal(r, ["x^2", "x*y"])
    assert ideal_colon(a, r.element("1")).equals(a)
    degenerate = ideal_colon(a, r.zero())
    assert degenerate.is_unit() and "degenerate" in degenerate.note


def test_colon_in_branched_model(branched):
    col = ideal_colon(zero_ideal(branched), branched.element("z"))
    assert col.contains_element(branched.element("x"))


def test_colon_by_ideal(f5xy):
    r = f5xy
    a = ideal(r, ["x^2*y^2"])
    col = ideal_colon(a, ideal(r, ["x", "y"]))
    # x^2 y^2 itself survives; x^2 y fails because x^2 y * x leaves the ideal
    assert col.contains_element(r.element("x^2*y^2"))
    assert not col.contains_element(r.element("x^2*y"))
    assert not col.contains_element(r.element("x*y"))
    col2 = ideal_colon(ideal(r, ["x^2"]), ideal(r, ["x", "y"]))
    assert col2.contains_element(r.element("x^2"))
    assert not col2.contains_element(r.element("x"))


def test_length_examples(branched):
    r5 = build_ring(5, ("x", "y"), [], 6)
    sq = ideal_power(ideal(r5, ["x", "y"]), 2)
    assert (ideal_length(sq).value, ideal_length(sq).status) == (3, EXACT)
    assert ideal_length(ideal(r5, ["x^2", "y^3"])).value == 6
    assert ideal_length(ideal(branched, ["x + y", "z"])).value == 2
    not_primary = ideal_length(ideal(r5, ["x"]))
    assert not_primary.value is None and not not_primary.is_certified()


def test_m_primary_level_examples(f5xy):
    f3 = build_ring(3, ("x", "y"), [], 6)
    assert m_primary_level(ideal(f3, ["x", "y"])).value == 1
    assert m_primary_level(ideal(f3, ["x^2", "y^3"])).value == 4
    assert m_primary_level(ideal(f3, ["x"])).value is None


def test_contains_examples(f5xy):
    r = f5xy
    assert ideal(r, ["x", "y"]).contains_element(r.element("x"))
    assert not ideal(r, ["x^2", "y^3"]).contains_element(r.element("x*y^2"))
    top = r.element(f"y^{r.D - 1}")
    assert not ideal(r, ["x"]).contains_element(top)


def test_length_plus_rank_is_ambient_dim(f5xy):
    r = f5xy
    rng = np.random.default_rng(21)
    for _ in range(10):
        exprs = [f"x^{rng.integers(1, 3)} + {rng.integers(0, 5)}*y^{rng.integers(1, 3)}"
                 for _ in range(2)]
        handle = ideal(r, exprs)
        assert handle.subspace.rank + (r.M - handle.subspace.rank) == r.M
        value = ideal_length(handle)
        if value.value is not None:
            assert value.value == r.M - handle.subspace.rank


def test_modular_law_smoke(f5xy):
    r = f5xy
    rng = np.random.default_rng(33)
    pool = ["x^2", "y^2", "x*y", "x^2 + y^2", "x^3", "y^3", "x + y"]
    for _ in range(8):
        picks = rng.choice(len(pool), 3, replace=False)
        a, b, c = (ideal(r, [pool[int(i)]]) for i in picks)
        lhs = ideal_intersection(a, ideal_sum(b, c)).subspace
        rhs = ideal_sum(ideal_intersection(a, b),
                        ideal_intersection(a, c)).subspace
        assert not lhs.reduce(rhs.dense(), in_place=True).any()


def test_colon_times_divisor_inside(f5xy):
    r = f5xy
    rng = np.random.default_rng(55)
    pool = ["x^2", "y^3", "x*y + y^2", "x^2 + 2*y^2", "x^3 + x*y^2"]
    for _ in range(8):
        a = ideal(r, [pool[int(i)] for i in rng.choice(len(pool), 2,
                                                       replace=False)])
        f = r.element(pool[int(rng.integers(0, len(pool)))])
        col = ideal_colon(a, f)
        prod = ideal_product(col, ideal(r, [f.serialize()]))
        assert not a.subspace.reduce(prod.subspace.dense(),
                                     in_place=True).any()


def test_trivial_artin_rees_inclusion(branched):
    r = branched
    powers = IdealPowers(maximal_ideal(r), 4)
    i_handle = ideal(r, ["x + y"])
    for n in range(1, 5):
        lhs = ideal_intersection(powers.handle(n), i_handle)
        for s in range(n + 1):
            rhs = ideal_product(powers.handle(n - s),
                                ideal_intersection(powers.handle(s), i_handle))
            assert not lhs.subspace.reduce(rhs.subspace.dense(),
                                           in_place=True).any()


def test_ideal_powers_maximal_fast_path(branched):
    powers = IdealPowers(maximal_ideal(branched), 4)
    direct = ideal_power(maximal_ideal(branched), 3)
    assert powers.handle(3).equals(direct)
    assert powers.cert_level(3) == 3


def test_is_unit_returns_a_bool(f5xy):
    assert zero_ideal(f5xy).is_unit() is False
    assert ideal(f5xy, ["x", "y"]).is_unit() is False
    assert unit_ideal(f5xy).is_unit() is True


def test_colon_by_an_element_that_is_zero_in_the_ring():
    """x*y vanishes in F_5[x,y]/(xy): the colon is the unit subspace, built
    directly, and zero is not filter-regular on this one-dimensional ring."""
    from oracle import NaiveModel
    from pertlab import cli, linalg
    from pertlab.ideals import colon_subspace
    from pertlab.invariants import filter_regular_check
    ring = build_ring(5, ("x", "y"), ["x*y"], 6)
    f = ring.element("x*y")
    assert f.is_zero()
    colon = colon_subspace(ring.base_subspace, f)
    rows, pivots = linalg.rref(np.eye(ring.M, dtype=np.int64), ring.p)
    assert np.array_equal(colon.rows, rows.rows)
    assert np.array_equal(colon.pivots, pivots)
    # Every row a unit row: the mask holds them, and no dense row is kept.
    assert colon.unit.all() and colon.poly.shape == (0, ring.M)
    assert colon.poly.dtype == linalg.narrow_dtype(ring.p)
    assert not (colon.pivots.flags.writeable or colon.unit.flags.writeable
                or colon.poly.flags.writeable)
    assert colon == ring.power_span(0)
    model = NaiveModel(5, 2, 6, [{(1, 1): 1}])
    assert len(model.colon(model.base_span, {})) == colon.rank == ring.M

    passed, exponent = filter_regular_check(zero_ideal(ring), f)
    assert not passed and exponent.value is None
    report = cli.run_manifest(
        "[manifest]\nformat-version = 1\n\n[ring]\np = 5\nvars = x, y\n"
        "gens = x*y\nD = 6\n\n[task]\ncommand = check-filter-regular\n"
        "f = x*y\n")
    assert [(r["n"], r["status"]) for r in report.rows()] == [(1, "false")]

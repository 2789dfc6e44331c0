"""Verifier verdicts on worked examples."""

from __future__ import annotations

import pytest

from pertlab.certify import TWO_LEVEL, UNCERTIFIED, CertifiedValue
from pertlab.errors import FilterRegularityError, PertlabError
from pertlab.harness import ExperimentConfig, build_workspace
from pertlab.ideals import ideal, maximal_ideal
from pertlab.rings import build_ring
from pertlab.verifiers import (VERIFIED, VIOLATED, INCONCLUSIVE, Workspace,
                               bound_N_one_element, check_control_colon,
                               check_main_equality,
                               check_perturbed_filter_regular,
                               check_surjection_monotonicity, judge,
                               report_ar_comparison)


@pytest.fixture(scope="module")
def plane_ws():
    ring = build_ring(5, ("x", "y"), [], 11)
    return Workspace(ring, (ring.element("x"),), maximal_ideal(ring), 8)


@pytest.fixture(scope="module")
def node_negative_ws():
    ring = build_ring(5, ("x", "y"), ["x*y"], 13)
    return Workspace(ring, (ring.element("y"),), maximal_ideal(ring), 10)


@pytest.fixture(scope="module")
def branched_ws():
    ring = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 11)
    return Workspace(ring, (ring.element("x + y"), ring.element("z")),
                     maximal_ideal(ring), 8)


def test_bound_regular_line(plane_ws):
    report = bound_N_one_element(plane_ws.fs[0], plane_ws.j)
    assert (report.t.value, report.k.value, report.h.value) == (1, 1, 1)
    assert report.n_bound.value == 2
    assert report.n_bound.is_certified()


def test_bound_rejects_non_filter_regular():
    fat = build_ring(5, ("x", "y"), ["x^2"], 8)
    with pytest.raises(FilterRegularityError):
        bound_N_one_element(fat.element("x"), maximal_ideal(fat))


def test_bound_branched_diagonal():
    ring = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 11)
    report = bound_N_one_element(ring.element("x + y"), maximal_ideal(ring))
    assert report.h.value == 1 and report.t.value == 1
    assert report.n_bound.value == max(report.k.value + 1, 1)


def test_main_equality_verified(plane_ws):
    ring = plane_ws.ring
    rec = check_main_equality(plane_ws, (ring.element("y^2"),))
    assert rec.outcome == VERIFIED
    rec0 = check_main_equality(plane_ws, (ring.zero(),))
    assert rec0.outcome == VERIFIED


def test_main_equality_negative_control(node_negative_ws):
    ws = node_negative_ws
    ring = ws.ring
    for depth in range(1, 9):
        rec = check_main_equality(ws, (ring.element(f"x^{depth}"),))
        assert rec.outcome == VIOLATED
        # perturbed quotient has total length depth+1, so the first graded
        # mismatch sits one past the perturbation order
        assert rec.witness == depth + 1
        assert "negative control" in rec.note


def test_monotone_refinement(plane_ws):
    # verified at n_max implies agreement on every prefix
    ring = plane_ws.ring
    rec = check_main_equality(plane_ws, (ring.element("y^3"),))
    assert rec.outcome == VERIFIED
    for row in rec.rows:
        assert row["status"] == "match"


def test_monotonicity_equality_case(plane_ws):
    rec = check_surjection_monotonicity(plane_ws, (plane_ws.ring.element("y^2"),))
    assert rec.outcome == VERIFIED


def test_monotonicity_strict_drop():
    ring = build_ring(5, ("x", "y"), ["x*y"], 11)
    ws = Workspace(ring, (ring.element("y"),), maximal_ideal(ring), 8)
    rec = check_surjection_monotonicity(ws, (ring.element("x^3"),))
    assert rec.outcome == VERIFIED
    orig = [row["value_orig"] for row in rec.rows]
    pert = [row["value_pert"] for row in rec.rows]
    assert orig == [1] * 9
    assert pert == [1, 1, 1, 1, 0, 0, 0, 0, 0]


def test_monotonicity_precondition_unmet(node_negative_ws):
    ws = node_negative_ws
    rec = check_surjection_monotonicity(ws, (ws.ring.element("y"),))
    # k = 1 here, so a depth-1 perturbation misses J^2
    assert rec.outcome == INCONCLUSIVE
    assert "precondition" in rec.note


def test_monotonicity_zero_perturbation(branched_ws):
    zeros = (branched_ws.ring.zero(), branched_ws.ring.zero())
    assert check_surjection_monotonicity(branched_ws, zeros).outcome == VERIFIED


def test_control_colon_regular_pair():
    ring = build_ring(5, ("x", "y"), [], 8)
    ws = Workspace(ring, (ring.element("x"), ring.element("y")),
                   maximal_ideal(ring), 6)
    rec = check_control_colon(ws, (ring.element("y^3"), ring.element("x^3")))
    assert rec.outcome == VERIFIED
    assert "h = 0" in rec.note


def test_control_colon_branched(branched_ws):
    zeros = (branched_ws.ring.zero(), branched_ws.ring.zero())
    rec = check_control_colon(branched_ws, zeros)
    assert rec.outcome == VERIFIED
    assert branched_ws.h1.value == 1


def test_control_colon_single_element(plane_ws):
    rec = check_control_colon(plane_ws, (plane_ws.ring.zero(),))
    assert rec.outcome == VERIFIED


def test_preservation_examples(branched_ws):
    ring = branched_ws.ring
    zeros = (ring.zero(), ring.zero())
    assert check_perturbed_filter_regular(branched_ws, zeros).outcome == VERIFIED
    deep = (ring.element("y^3"), ring.element("x^3"))
    assert check_perturbed_filter_regular(branched_ws, deep).outcome == VERIFIED
    plane = build_ring(5, ("x", "y"), [], 8)
    ws = Workspace(plane, (plane.element("x"),), maximal_ideal(plane), 6)
    rec = check_perturbed_filter_regular(ws, (plane.element("y"),))
    assert rec.outcome == VERIFIED
    assert "orders (1,)" in rec.note


def test_ar_comparison_data_only(plane_ws):
    ring = plane_ws.ring
    rec = report_ar_comparison(plane_ws, (ring.element("y^2"),))
    assert rec.outcome == VERIFIED
    assert rec.rows[0]["value_orig"] == rec.rows[0]["value_pert"] == 1
    rec0 = report_ar_comparison(plane_ws, (ring.zero(),))
    assert rec0.rows[0]["value_orig"] == rec0.rows[0]["value_pert"]


def test_verdict_context_embedding(plane_ws):
    rec = check_main_equality(plane_ws, (plane_ws.ring.element("y^2"),))
    tagged = rec.with_context(2, 7, 99)
    assert all(row["N"] == 2 and row["sample"] == 7 and row["seed"] == 99
               for row in tagged.rows)


def _failing_never_read():
    raise AssertionError("failing indices read for an unresolved claim")
    yield


@pytest.mark.parametrize("resolved, failing, expected", [
    ((), (), (VERIFIED, None)),
    ((True, True), (), (VERIFIED, None)),
    ((True, True, True), (0, 2), (VIOLATED, 0)),
    ((True, True), (2, 1), (VIOLATED, 2)),
    ((True, False), (1,), (INCONCLUSIVE, None)),
])
def test_judge_outcome_rule(resolved, failing, expected):
    assert judge(resolved, failing) == expected
    assert judge(iter(resolved), iter(failing)) == expected


def test_judge_reads_no_failure_of_an_unresolved_claim():
    assert judge((True, False), _failing_never_read()) == (INCONCLUSIVE, None)


def test_control_colon_witness_is_first_failing_index():
    # Both colons (x : y) and (y : x) over (x^2, y^2) are nonzero, so both
    # exceed a bound h = 0; the witness names the first.
    ring = build_ring(5, ("x", "y"), ["x^2", "y^2"], 10)
    ws = Workspace(ring, (ring.element("x"), ring.element("y")),
                   ideal(ring, ("x", "y")), 4)
    ws.h1 = CertifiedValue(0, TWO_LEVEL, (10, 12))
    rec = check_control_colon(ws, (ring.zero(), ring.zero()))
    assert [r["status"] for r in rec.rows] == ["exceeds", "exceeds"]
    assert (rec.outcome, rec.witness) == (VIOLATED, 1)


@pytest.fixture
def line_in_plane():
    """F_5[x, y] at D = 8 with f = (x) and J = (x, y)."""
    ring = build_ring(5, ("x", "y"), [], 8)
    return Workspace(ring, (ring.element("x"),), ideal(ring, ("x", "y")), 4)


def test_main_equality_uncertified_tables():
    # J = (x) is not m-primary, so no table entry carries a certificate.
    ring = build_ring(5, ("x", "y"), [], 8)
    ws = Workspace(ring, (ring.element("x"),), ideal(ring, ("x",)), 4)
    rec = check_main_equality(ws, (ring.element("y^3"),))
    assert rec.outcome == INCONCLUSIVE and rec.witness is None
    assert rec.note == "uncertified table entries"
    assert rec.certification == UNCERTIFIED


def test_monotonicity_unresolved_artin_rees(line_in_plane):
    ws = line_in_plane
    ws.ar_value = CertifiedValue(None, UNCERTIFIED, (8, 10))
    rec = check_surjection_monotonicity(ws, (ws.ring.element("y^3"),))
    assert rec.outcome == INCONCLUSIVE
    assert rec.note.startswith("Artin-Rees number unresolved")
    assert rec.certification == UNCERTIFIED


def test_ar_comparison_differing_values(line_in_plane):
    ws = line_in_plane
    ws.ar_value = CertifiedValue(None, UNCERTIFIED, (8, 10))
    rec = report_ar_comparison(ws, (ws.ring.element("y^3"),))
    assert rec.rows[0]["status"] == "differs"
    assert rec.outcome == INCONCLUSIVE


def test_control_colon_unresolved_row():
    # y is not filter-regular on the node, so its colon reads no plateau.
    ws = build_workspace(ExperimentConfig.from_catalog("node-branch"))
    ws.h1 = CertifiedValue(0, TWO_LEVEL, (ws.ring.D, ws.ring.D + 2))
    rec = check_control_colon(ws, (ws.ring.zero(),))
    assert [r["status"] for r in rec.rows] == ["unresolved"]
    assert rec.outcome == INCONCLUSIVE and rec.witness is None


def test_bound_without_primary_certificate():
    ring = build_ring(5, ("x", "y"), [], 8)
    with pytest.raises(PertlabError, match="no m-primary certificate"):
        bound_N_one_element(ring.element("x"), ideal(ring, ("x",)))

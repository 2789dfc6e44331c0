"""Sampling, threshold search, experiment orchestration, determinism."""

from __future__ import annotations

import pytest

from pertlab import catalog
from pertlab.catalog import CATALOG
from pertlab.errors import PertlabError
from pertlab.harness import (ExperimentConfig, RingSpec, build_workspace,
                             find_min_N, resolve_ring, run_experiment,
                             sample_in_power)
from pertlab.ideals import IdealHandle
from pertlab.rings import build_ring
from pertlab.verifiers import VIOLATED, Workspace


@pytest.fixture(scope="module")
def plane():
    return build_ring(5, ("x", "y"), [], 8)


def test_sampling_deterministic(plane):
    a = sample_in_power(plane, 2, seed=9, count=3)
    b = sample_in_power(plane, 2, seed=9, count=3)
    assert [e.serialize() for e in a] == [e.serialize() for e in b]
    c = sample_in_power(plane, 2, seed=10, count=3)
    assert [e.serialize() for e in a] != [e.serialize() for e in c]


def test_sampling_support(plane):
    for e in sample_in_power(plane, 2, seed=4, count=10):
        assert e.is_zero() or e.order() >= 2
    top = sample_in_power(plane, plane.D - 1, seed=4, count=5)
    for e in top:
        assert e.is_zero() or e.order() == plane.D - 1
    with pytest.raises(Exception):
        sample_in_power(plane, plane.D, seed=1, count=1)


def test_sampling_spawn_keys_independent(plane):
    a = sample_in_power(plane, 2, seed=9, count=1, spawn=(2, 0))
    b = sample_in_power(plane, 2, seed=9, count=1, spawn=(2, 1))
    assert a[0].serialize() != b[0].serialize()


def test_find_min_n_needs_an_n_range():
    config = ExperimentConfig.from_catalog("regular-line", samples=1)
    with pytest.raises(PertlabError, match="find-min-n needs an N range"):
        find_min_N(config)


@pytest.mark.parametrize("run", [find_min_N, run_experiment])
def test_a_sampled_run_refuses_zero_samples(run):
    """With no draw a sweep once verified every depth, and regular-line
    reported N* = 1 where its threshold is 2."""
    config = ExperimentConfig.from_catalog("regular-line", n_range=(1, 3),
                                           samples=0, n_max=4)
    with pytest.raises(PertlabError, match="samples must be at least 1, got 0"):
        run(config)


def test_catalog_get_names_the_known_ids():
    with pytest.raises(KeyError, match="unknown catalog id 'nope'; known: "
                                       + ", ".join(sorted(CATALOG))):
        catalog.get("nope")


def test_resolve_ring_auto_d():
    spec = RingSpec(5, ("x", "y"), (), None)
    ring = resolve_ring(spec, ("x", "y"), 8)
    assert ring.D == 11  # t_J = 1, so 1 * 9 + 2
    ring_small = resolve_ring(spec, ("x", "y"), 2)
    assert ring_small.D == 8  # floor of the selection rule


@pytest.mark.parametrize("catalog_id", sorted(CATALOG))
def test_catalog_filter_regular_expectation(catalog_id):
    """Each catalog entry's documented filter-regularity is what its
    workspace finds at the resolved D."""
    ws = build_workspace(ExperimentConfig.from_catalog(catalog_id))
    assert ws.sequence_report.passed == CATALOG[catalog_id].filter_regular


def test_find_min_n_regular_line():
    cfg = ExperimentConfig.from_catalog("regular-line", n_range=(1, 4),
                                        samples=10, seed=42)
    report = find_min_N(cfg)
    assert report.n_star is not None and report.n_star <= 2
    assert report.theoretical.n_bound.value == 2
    assert report.bound_consistent


def test_find_min_n_negative_control_not_found():
    cfg = ExperimentConfig.from_catalog("node-branch", n_range=(1, 6),
                                        samples=4, seed=3, n_max=10)
    report = find_min_N(cfg)
    assert report.n_star is None


def test_find_min_n_stable_range_gives_first_n():
    # when every sample in the range verifies, the threshold is the range floor
    cfg = ExperimentConfig.from_catalog("regular-line", n_range=(3, 4),
                                        samples=6, seed=5)
    report = find_min_N(cfg)
    assert report.n_star == 3


def test_run_experiment_remark_catalog():
    cfg = ExperimentConfig.from_catalog("remark-2-4", n_range=None, samples=0,
                                        seed=1, n_max=6)
    report = run_experiment(cfg)
    by_note = {rec.note: rec for rec in report.records
               if rec.claim == "filter-regular"}
    base = next(v for k, v in by_note.items() if k.startswith("sequence base"))
    z_alone = next(v for k, v in by_note.items() if "z-alone" in k)
    permuted = next(v for k, v in by_note.items() if "permuted" in k)
    assert "filter-regular" in base.note and "fails" not in base.note
    assert "fails at index 1" in z_alone.note
    assert "fails at index 1" in permuted.note


def test_run_experiment_is_pure_function_of_config():
    cfg = ExperimentConfig.from_catalog("node-diagonal", n_range=(1, 3),
                                        samples=5, seed=11, n_max=6)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.records == r2.records
    assert r1.n_star == r2.n_star
    assert r1 == r2


def test_delta_two_vs_four_agree_on_catalog():
    for cid in ("regular-line", "node-diagonal"):
        values = []
        for delta in (2, 4):
            cfg = ExperimentConfig.from_catalog(cid, n_range=None, samples=0,
                                                seed=0, n_max=4, delta=delta)
            report = run_experiment(cfg)
            values.append(tuple(
                (row["claim"], row["n"], row["value_orig"])
                for rec in report.records for row in rec.rows
                if rec.claim in ("filter-regular", "bound-n")))
        assert values[0] == values[1]


def test_monotonicity_never_violated_on_catalog_samples():
    # ideal-power sampling puts every draw inside J^(k+1)
    from sampling import sample_in_ideal_power
    from pertlab.verifiers import check_surjection_monotonicity
    trials = 0
    for cid, entry in sorted(CATALOG.items()):
        ring = build_ring(entry.p, entry.vars, list(entry.base_gens), 9)
        fs = tuple(ring.element(e) for e in entry.f_exprs)
        j = IdealHandle(ring, tuple(ring.element(g) for g in entry.j_exprs))
        ws = Workspace(ring, fs, j, 6)
        k = ws.ar_value.value
        for s in range(4):
            eps = sample_in_ideal_power(ws, k + 1, seed=100 + s, count=len(fs))
            rec = check_surjection_monotonicity(ws, eps)
            assert rec.outcome != VIOLATED, (cid, s)
            trials += 1
    assert trials == 6 * 4


def test_empty_range_skips_sweep():
    cfg = ExperimentConfig.from_catalog("regular-line", n_range=None,
                                        samples=0, seed=0, n_max=4)
    report = run_experiment(cfg)
    assert report.n_star is None
    claims = {rec.claim for rec in report.records}
    assert "main-equality" not in claims
    assert "filter-regular" in claims and "bound-n" in claims


def test_nstar_monotone_in_nmax():
    # enlarging the comparison window can only raise the threshold
    stars = []
    for n_max in (4, 8):
        cfg = ExperimentConfig.from_catalog("node-diagonal", n_range=(1, 4),
                                            samples=8, seed=2, n_max=n_max)
        stars.append(find_min_N(cfg).n_star)
    assert stars[0] is not None and stars[1] is not None
    assert stars[0] <= stars[1]

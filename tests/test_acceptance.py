"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Budgets are wall-clock seconds measured around the computational
core of each criterion.
"""

from __future__ import annotations

import time

import numpy as np

from oracle import NaiveModel
from sampling import sample_in_ideal_power
from pertlab.catalog import CATALOG
from pertlab.certify import EXACT
from pertlab.cli import emit_csv, run_manifest
from pertlab.harness import (ExperimentConfig, find_min_N, run_experiment,
                             sample_in_power)
from pertlab.ideals import (IdealHandle, IdealPowers, ideal, ideal_colon,
                            ideal_intersection, ideal_length, ideal_power,
                            ideal_product, ideal_sum, maximal_ideal,
                            zero_ideal)
from pertlab.invariants import (ar_number, filter_regular_check,
                                filter_regular_sequence_check,
                                koszul_homology_length)
from pertlab.rings import build_ring
from pertlab.verifiers import (VERIFIED, VIOLATED, Workspace,
                               bound_N_one_element, check_main_equality,
                               check_surjection_monotonicity)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- criterion 1 -----------------------------------------------------------------

def _random_poly_text(rng, nvars: int, trunc: int, p: int) -> str:
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        exps = [int(rng.integers(0, trunc)) for _ in range(nvars)]
        while sum(exps) >= trunc:
            exps[int(rng.integers(0, nvars))] -= 1
        coeff = int(rng.integers(1, p))
        mono = "*".join([str(coeff)] + [f"{v}^{e}"
                                        for v, e in zip("xy", exps) if e > 0])
        terms.append(mono)
    return " + ".join(terms)


def _as_dict(elem) -> dict:
    return {exps: int(c) for exps, c in elem.to_poly().terms.items()}


def _spans_match(model: NaiveModel, span, subspace) -> bool:
    if len(span) != subspace.rank:
        return False
    ring = subspace.ring
    for row in subspace.rows:
        vec = {ring.monomials[c]: int(row[c]) for c in np.nonzero(row)[0]}
        if not model.contains(span, vec):
            return False
    return True


def test_criterion_1_kernel_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    for instance in range(100):
        p = int(rng.choice([2, 3]))
        trunc = int(rng.integers(3, 6))
        ring = build_ring(p, ("x", "y"), [], trunc)
        model = NaiveModel(p, 2, trunc, [])
        texts_a = [_random_poly_text(rng, 2, trunc, p) for _ in range(2)]
        texts_b = [_random_poly_text(rng, 2, trunc, p)]
        a = ideal(ring, texts_a)
        b = ideal(ring, texts_b)
        da = [_as_dict(g) for g in a.gens]
        db = [_as_dict(g) for g in b.gens]

        assert _spans_match(model, model.ideal_span(da), a.subspace)
        total = ideal_sum(a, b)
        assert _spans_match(model, model.ideal_sum(da, db), total.subspace)
        prod = ideal_product(a, b)
        assert _spans_match(model, model.ideal_span(
            model.ideal_product_gens(da, db)), prod.subspace)
        square = ideal_power(b, 2)
        assert _spans_match(model, model.ideal_span(
            model.ideal_power_gens(db, 2)), square.subspace)
        inter = ideal_intersection(a, b)
        naive_inter = model.intersection(model.ideal_span(da),
                                         model.ideal_span(db))
        assert _spans_match(model, naive_inter, inter.subspace)
        col = ideal_colon(a, b.gens[0])
        naive_col = model.colon(model.ideal_span(da), db[0])
        assert _spans_match(model, naive_col, col.subspace)
        # lengths: codimensions agree always; certified values match them
        naive_len = model.length(model.ideal_span(da))
        assert ring.M - a.subspace.rank == naive_len
        cert = ideal_length(a)
        if cert.value is not None:
            assert cert.value == naive_len
        checked += 1
    elapsed = time.monotonic() - started
    _report("criterion-1 kernel-oracle equivalence",
            checked == 100 and elapsed < 10.0,
            f"{checked} instances, {elapsed:.1f}s")


# -- criterion 2 -----------------------------------------------------------------

def test_criterion_2_remark_reproduction():
    ring = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 8)
    z = ring.element("z")
    xy = ring.element("x + y")
    single = filter_regular_check(zero_ideal(ring), z)[0]
    good = filter_regular_sequence_check((xy, z))
    bad = filter_regular_sequence_check((z, xy))
    ok = (single is False and good.passed
          and not bad.passed and bad.first_failure == 1)
    _report("criterion-2 remark reproduction", ok,
            f"z:{single} (x+y,z):{good.passed} permuted fail@{bad.first_failure}")


# -- criterion 3 -----------------------------------------------------------------

def test_criterion_3_one_element_end_to_end():
    started = time.monotonic()
    ring = build_ring(5, ("x", "y"), [], 11)
    f = ring.element("x")
    j = maximal_ideal(ring)
    bound = bound_N_one_element(f, j)
    values = (bound.t.value, bound.k.value, bound.h.value, bound.n_bound.value)
    ws = Workspace(ring, (f,), j, 8)
    verdicts = []
    for s in range(20):
        eps = sample_in_power(ring, 2, seed=2024, count=1, spawn=(2, s))
        rec = check_main_equality(ws, eps)
        verdicts.append(rec.outcome == VERIFIED and rec.certification == EXACT)
    elapsed = time.monotonic() - started
    ok = values == (1, 1, 1, 2) and all(verdicts) and elapsed < 5.0
    _report("criterion-3 one-element theorem", ok,
            f"t,k,h,N={values}, {sum(verdicts)}/20 verified, {elapsed:.1f}s")


# -- criterion 4 -----------------------------------------------------------------

def test_criterion_4_main_theorem_desk_scale():
    started = time.monotonic()
    cfg = ExperimentConfig.from_catalog("remark-2-4", n_range=(1, 6),
                                        samples=20, seed=42, n_max=8)
    report = find_min_N(cfg)
    elapsed = time.monotonic() - started
    aux = [r for r in report.records
           if r.claim in ("preservation", "control-colon")]
    aux_ok = (len(aux) == 40 and all(r.outcome == VERIFIED for r in aux))
    main_at_star = [r for r in report.records
                    if r.claim == "main-equality"
                    and r.rows and r.rows[0]["N"] == report.n_star]
    exact_tables = all(r.certification == EXACT for r in main_at_star)
    ok = (report.n_star is not None and report.n_star <= 6
          and aux_ok and exact_tables and elapsed < 60.0)
    _report("criterion-4 main theorem r=2", ok,
            f"N*={report.n_star}, aux verified {sum(r.outcome == VERIFIED for r in aux)}/40, "
            f"{elapsed:.1f}s")


# -- criterion 5 -----------------------------------------------------------------

def test_criterion_5_monotonicity_never_violated():
    trials = 0
    violations = 0
    per_entry = 34  # 6 catalog entries x 34 = 204 >= 200 trials
    for cid in sorted(CATALOG):
        entry = CATALOG[cid]
        ring = build_ring(entry.p, entry.vars, list(entry.base_gens), 9)
        fs = tuple(ring.element(e) for e in entry.f_exprs)
        j = IdealHandle(ring, tuple(ring.element(g) for g in entry.j_exprs))
        ws = Workspace(ring, fs, j, 6)
        depth = ws.ar_value.value + 1
        for s in range(per_entry):
            eps = sample_in_ideal_power(ws, depth, seed=7000 + s,
                                        count=len(fs))
            rec = check_surjection_monotonicity(ws, eps)
            if rec.outcome == VIOLATED:
                violations += 1
            trials += 1
    _report("criterion-5 monotonicity unconditional",
            trials >= 200 and violations == 0,
            f"{trials} trials, {violations} violations")


# -- criterion 6 -----------------------------------------------------------------

def test_criterion_6_negative_control():
    ring = build_ring(5, ("x", "y"), ["x*y"], 13)
    ws = Workspace(ring, (ring.element("y"),), maximal_ideal(ring), 10)
    ok = True
    details = []
    for depth in range(1, 9):
        eps = (ring.element(f"x^{depth}"),)
        pert = ws.gr_perturbed(eps)
        main = check_main_equality(ws, eps)
        # the perturbed quotient is a truncated line of total length depth+1,
        # so the first graded mismatch sits at depth+1
        expected_witness = depth + 1
        mono = check_surjection_monotonicity(ws, eps)
        pointwise = all(p <= o for p, o in zip(pert.values(),
                                               ws.gr_orig.values()))
        step_ok = (main.outcome == VIOLATED
                   and main.witness == expected_witness
                   and mono.outcome != VIOLATED
                   and pointwise)
        details.append(f"N={depth}:{main.witness}")
        ok = ok and step_ok
    _report("criterion-6 negative control", ok, " ".join(details))


# -- criterion 7 -----------------------------------------------------------------

def test_criterion_7_koszul_values():
    plane = build_ring(5, ("x", "y"), [], 8)
    fat = build_ring(5, ("x", "y"), ["x^2"], 8)
    branched = build_ring(5, ("x", "y", "z"), ["x*y", "x*z"], 8)
    h1 = koszul_homology_length((plane.element("x"), plane.element("y")), 1)
    h1_fat = koszul_homology_length((fat.element("x"), fat.element("y")), 1)
    h2 = koszul_homology_length((branched.element("x + y"),
                                 branched.element("z")), 2)
    ok = all([
        h1.value == 0 and h1.is_certified() and h1.levels == (8, 10),
        h1_fat.value == 1 and h1_fat.is_certified(),
        h2.value == 0 and h2.is_certified(),
    ])
    _report("criterion-7 Koszul values", ok,
            f"H1={h1.value}, H1'={h1_fat.value}, H2={h2.value}")


# -- criterion 8 -----------------------------------------------------------------

def test_criterion_8_colon_identities():
    cases = [
        (build_ring(5, ("x", "y"), [], 11), "x"),
        (build_ring(5, ("x", "y"), ["x*y"], 11), "x + y"),
    ]
    n_max = 6
    ok = True
    for ring, f_text in cases:
        f = ring.element(f_text)
        j = maximal_ideal(ring)
        powers = IdealPowers(j, n_max)
        k = ar_number(IdealHandle(ring, (f,)), j, n_max, powers).value
        zero_col = ideal_colon(zero_ideal(ring), f)
        for n in range(k, n_max + 1):
            jn = powers.handle(n)
            lhs = ideal_colon(jn, f)
            rhs = ideal_sum(ideal_product(powers.handle(n - k),
                                          ideal_colon(powers.handle(k), f)),
                            zero_col)
            quotient = ideal_length(ideal_sum(IdealHandle(ring, (f,)), jn))
            codim_diff = lhs.subspace.rank - jn.subspace.rank
            ok = ok and lhs.equals(rhs) and quotient.status == EXACT \
                and quotient.value == codim_diff
    _report("criterion-8 colon identities", ok)


# -- criterion 9 -----------------------------------------------------------------

def test_criterion_9_determinism_and_stability():
    manifest = """
[manifest]
format-version = 1

[task]
command = experiment
catalog = node-diagonal
n_max = 6
N = 1..3
samples = 5
seed = 11
delta = 2
"""
    csv_a = emit_csv(run_manifest(manifest))
    csv_b = emit_csv(run_manifest(manifest))
    byte_identical = csv_a == csv_b

    stable = True
    for cid in sorted(CATALOG):
        values = []
        for delta in (2, 4):
            cfg = ExperimentConfig.from_catalog(cid, n_range=None, samples=0,
                                                seed=0, n_max=4, delta=delta)
            rep = run_experiment(cfg)
            values.append(tuple(
                (row["claim"], row["n"], row["value_orig"], row["status"])
                for rec in rep.records for row in rec.rows))
        stable = stable and values[0] == values[1]
    _report("criterion-9 determinism and stability",
            byte_identical and stable,
            f"csv identical: {byte_identical}, delta-stable: {stable}")

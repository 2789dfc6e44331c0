"""Seeded randomized experiments.

A fully specified :class:`ExperimentConfig` determines every random draw, so
identical configs produce identical reports (timing aside).  Randomness
comes from numpy's PCG64 generator keyed through ``SeedSequence`` with the
(config seed, N, sample index) tuple, which makes samples independent of
evaluation order and safe to compute in parallel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .catalog import get as catalog_get
from .errors import PertlabError
from .ideals import IdealHandle, m_primary_level
from .invariants import filter_regular_sequence_check
from .rings import Element, RingDescriptor, build_ring, default_truncation
from .verifiers import (BoundReport, VerdictRecord, Workspace, INCONCLUSIVE,
                        VERIFIED, VIOLATED, bound_N_one_element,
                        check_control_colon, check_main_equality,
                        check_perturbed_filter_regular,
                        check_surjection_monotonicity, inputs_digest,
                        report_ar_comparison, row, sequence_rows, verdict)


@dataclass(frozen=True)
class RingSpec:
    p: int
    vars: tuple[str, ...]
    base_gens: tuple[str, ...]
    D: int | None = None          # None means "auto"


@dataclass(frozen=True)
class ExperimentConfig:
    ring: RingSpec
    f_exprs: tuple[str, ...]
    j_exprs: tuple[str, ...]
    n_max: int = 8
    n_range: tuple[int, int] | None = None    # inclusive sweep bounds
    samples: int = 20
    seed: int = 0
    delta: int = 2
    catalog_id: str | None = None

    @classmethod
    def from_catalog(cls, catalog_id: str, **overrides) -> "ExperimentConfig":
        entry = catalog_get(catalog_id)
        base = cls(ring=RingSpec(entry.p, entry.vars, entry.base_gens, None),
                   f_exprs=entry.f_exprs, j_exprs=entry.j_exprs,
                   catalog_id=catalog_id)
        return replace(base, **overrides)


@dataclass(frozen=True)
class ExperimentReport:
    """The records of one command's run, with what the run resolved on the
    way; every command returns one."""

    command: str
    config: ExperimentConfig
    resolved_D: int
    records: tuple[VerdictRecord, ...]
    n_star: int | None = None
    theoretical: BoundReport | None = None
    bound_consistent: bool | None = None
    timing_s: float = 0.0

    def rows(self) -> list[dict]:
        return [dict(r) for rec in self.records for r in rec.rows]

    def exit_code(self) -> int:
        return 1 if any(r.outcome == VIOLATED for r in self.records) else 0


def resolve_ring(spec: RingSpec, j_exprs: tuple[str, ...],
                 n_max: int) -> RingDescriptor:
    """Build the ring, resolving D = auto through the default selection rule
    (probe the primary level of J at a small order first)."""
    if spec.D is not None:
        return build_ring(spec.p, spec.vars, spec.base_gens, spec.D)
    probe = build_ring(spec.p, spec.vars, spec.base_gens, 8)
    j_probe = IdealHandle(probe, tuple(probe.element(g) for g in j_exprs))
    t_j = m_primary_level(j_probe).value
    if t_j is None:
        raise PertlabError("J is not certified m-primary at the probe level; "
                           "give D explicitly")
    d = default_truncation(t_j, n_max)
    if d == probe.D:
        return probe
    return build_ring(spec.p, spec.vars, spec.base_gens, d)


def _rng_for(seed: int, spawn: tuple[int, int] | None) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn or ())))


def sample_in_power(ring: RingDescriptor, n: int, seed: int,
                    count: int, spawn: tuple[int, int] | None = None
                    ) -> tuple[Element, ...]:
    """Uniform random elements supported on monomials of degree in [n, D).

    Deterministic per seed; the optional spawn key threads (N, sample index)
    so sweep draws are independent of evaluation order.
    """
    if n >= ring.D:
        raise PertlabError(f"sampling order {n} needs to stay below D={ring.D}")
    rng = _rng_for(seed, spawn)
    lo = ring.cut(n)
    out = []
    for _ in range(count):
        vec = np.zeros(ring.M, dtype=np.int64)
        vec[lo:] = rng.integers(0, ring.p, ring.M - lo)
        out.append(ring.element(ring.poly_of_vector(vec)))
    return tuple(out)


def sample_in_ideal_power(ws: Workspace, power: int, seed: int,
                          count: int, spawn: tuple[int, int] | None = None
                          ) -> tuple[Element, ...]:
    """Uniform random combinations of an echelon basis of J^power."""
    sub = ws.powers.subspace(power)
    rng = _rng_for(seed, spawn)
    out = []
    for _ in range(count):
        coeffs = rng.integers(0, ws.ring.p, sub.rank)
        vec = (coeffs @ sub.rows) % ws.ring.p
        out.append(ws.ring.element(ws.ring.poly_of_vector(vec)))
    return tuple(out)


def _sweep(ws: Workspace, config: ExperimentConfig
           ) -> tuple[list[VerdictRecord], dict[tuple[int, int], str]]:
    """Main equality plus monotonicity for every (N, sample); the two share
    one perturbed table."""
    records: list[VerdictRecord] = []
    main_outcomes: dict[tuple[int, int], str] = {}
    lo, hi = config.n_range
    for n in range(lo, hi + 1):
        for s in range(config.samples):
            eps = sample_in_power(ws.ring, n, config.seed, len(ws.fs),
                                  spawn=(n, s))
            pert = ws.gr_perturbed(eps)
            main = check_main_equality(ws, eps, pert_table=pert)
            mono = check_surjection_monotonicity(ws, eps, pert_table=pert)
            records.append(main.with_context(n, s, config.seed))
            records.append(mono.with_context(n, s, config.seed))
            main_outcomes[(n, s)] = main.outcome
    return records, main_outcomes


def _minimal_stable_n(main_outcomes: dict[tuple[int, int], str],
                      config: ExperimentConfig) -> int | None:
    """Least N in range such that every sample at every N' >= N verified."""
    lo, hi = config.n_range
    n_star = None
    for n in range(hi, lo - 1, -1):
        if all(main_outcomes[(n, s)] == VERIFIED for s in range(config.samples)):
            n_star = n
        else:
            break
    return n_star


def build_workspace(config: ExperimentConfig) -> Workspace:
    """Resolve the ring and read the sequence and J into a Workspace."""
    ring = resolve_ring(config.ring, config.j_exprs, config.n_max)
    fs = tuple(ring.element(e) for e in config.f_exprs)
    j = IdealHandle(ring, tuple(ring.element(g) for g in config.j_exprs))
    return Workspace(ring, fs, j, config.n_max, config.delta)


def _sweep_to_threshold(ws: Workspace, config: ExperimentConfig
                        ) -> tuple[list[VerdictRecord], int | None]:
    """The N sweep, its empirical threshold N*, and the auxiliary
    verifiers at N*: preservation and control colons for every sample, and
    the Artin-Rees comparison for sample 0."""
    records, main_outcomes = _sweep(ws, config)
    n_star = _minimal_stable_n(main_outcomes, config)
    if n_star is None:
        return records, None
    for s in range(config.samples):
        eps = sample_in_power(ws.ring, n_star, config.seed, len(ws.fs),
                              spawn=(n_star, s))
        records.append(check_perturbed_filter_regular(ws, eps)
                       .with_context(n_star, s, config.seed))
        records.append(check_control_colon(ws, eps)
                       .with_context(n_star, s, config.seed))
    eps0 = sample_in_power(ws.ring, n_star, config.seed, len(ws.fs),
                           spawn=(n_star, 0))
    records.append(report_ar_comparison(ws, eps0)
                   .with_context(n_star, 0, config.seed))
    return records, n_star


def _theoretical_bound(ws: Workspace, config: ExperimentConfig,
                       n_star: int | None
                       ) -> tuple[BoundReport | None, bool | None]:
    """The explicit threshold of a single filter-regular element, and
    whether the empirical N* of a sweep stays within it."""
    if len(ws.fs) != 1 or not ws.sequence_report.passed:
        return None, None
    theoretical = bound_N_one_element(ws.fs[0], ws.j, delta=config.delta)
    if config.n_range is None or theoretical.n_bound.value is None:
        return theoretical, None
    return theoretical, (n_star is not None
                         and n_star <= theoretical.n_bound.value)


def find_min_N(config: ExperimentConfig) -> ExperimentReport:
    """Sweep perturbation depths, locate the empirical stability threshold,
    and run the auxiliary verifiers at that threshold.

    For a single filter-regular element the report also carries the explicit
    theoretical threshold and checks the empirical one does not exceed it.
    """
    started = time.monotonic()
    if config.n_range is None:
        raise PertlabError("find-min-n needs an N range")
    ws = build_workspace(config)
    records, n_star = _sweep_to_threshold(ws, config)
    bound = _theoretical_bound(ws, config, n_star)
    rows = [row("min-n", n="N*",
                value_orig=n_star if n_star is not None else "",
                status="found" if n_star is not None else "not found in range")]
    if bound[0] is not None:
        rows.append(row("min-n", n="N-theoretical",
                        value_orig=bound[0].n_bound.value,
                        status="bound", certification=bound[0].n_bound.status))
    records.append(verdict(
        "min-n", VERIFIED if n_star is not None else INCONCLUSIVE,
        inputs_digest(ws.ring, ws.fs, None, ws.j, repr(config)), rows,
        witness=n_star,
        note=("empirical threshold found" if n_star is not None
              else "no stable N in range"),
        rests_on=[r.certification for r in records])
        .with_context(None, None, config.seed))
    return ExperimentReport("find-min-n", config, ws.ring.D, tuple(records),
                            n_star, *bound,
                            timing_s=time.monotonic() - started)


def bound_record(ws: Workspace, theoretical: BoundReport) -> VerdictRecord:
    """The explicit one-element threshold with its ingredients t, k, h."""
    return verdict("bound-n", VERIFIED,
                   inputs_digest(ws.ring, ws.fs, None, ws.j, "bound"),
                   theoretical.rows(), note="explicit one-element threshold")


def filter_regular_record(ring: RingDescriptor, seq: tuple[Element, ...],
                          report, tag: str, seed: int | None) -> VerdictRecord:
    """One row per checked step of a filter-regularity report; ``tag``
    keys the digest."""
    return verdict(
        "filter-regular", VERIFIED, inputs_digest(ring, seq, None, None, tag),
        sequence_rows("filter-regular", report, ("true", "false")),
        note=("filter-regular" if report.passed
              else f"fails at index {report.first_failure}")
    ).with_context(None, None, seed)


def _catalog_checks(ws: Workspace, config: ExperimentConfig
                    ) -> list[VerdictRecord]:
    """Filter-regularity status rows for the configured sequence and any
    extra sequences attached to the catalog entry."""
    records = []
    sequences: list[tuple[str, tuple[Element, ...]]] = [
        ("base", ws.fs)]
    if config.catalog_id:
        entry = catalog_get(config.catalog_id)
        for label, exprs in entry.extra_sequences:
            sequences.append((label, tuple(ws.ring.element(e) for e in exprs)))
    for label, seq in sequences:
        report = (ws.sequence_report if label == "base"
                  else filter_regular_sequence_check(seq, delta=config.delta))
        record = filter_regular_record(ws.ring, seq, report, label, config.seed)
        records.append(replace(record, note=f"sequence {label}: {record.note}"))
    return records


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Catalog checks, the N sweep with all verifiers, and the threshold
    search, aggregated into one report that is a pure function of the
    config."""
    started = time.monotonic()
    ws = build_workspace(config)
    records = _catalog_checks(ws, config)
    n_star = None
    if config.n_range is not None:
        sweep_records, n_star = _sweep_to_threshold(ws, config)
        records.extend(sweep_records)
    bound = _theoretical_bound(ws, config, n_star)
    if bound[0] is not None:
        records.append(bound_record(ws, bound[0]))
    return ExperimentReport("experiment", config, ws.ring.D, tuple(records),
                            n_star, *bound,
                            timing_s=time.monotonic() - started)

"""Seeded randomized experiments.

A fully specified :class:`ExperimentConfig` determines every random draw, so
identical configs produce equal reports.  Randomness comes from numpy's
PCG64 generator keyed through ``SeedSequence`` with the (config seed, N,
sample index) tuple, which makes samples independent of evaluation order and
safe to compute in parallel.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .catalog import get as catalog_get
from .errors import PertlabError
from .ideals import IdealHandle, m_primary_level
from .invariants import filter_regular_sequence_check
from .rings import Element, RingDescriptor, build_ring, default_truncation
from .verifiers import (BoundReport, VerdictRecord, Workspace, INCONCLUSIVE,
                        VERIFIED, VIOLATED, bound_N_one_element, bound_record,
                        check_control_colon, check_main_equality,
                        check_perturbed_filter_regular,
                        check_surjection_monotonicity, filter_regular_record,
                        inputs_digest, report_ar_comparison, row, verdict)


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
    way; every command returns one, a pure function of its config."""

    command: str
    config: ExperimentConfig
    resolved_D: int
    records: tuple[VerdictRecord, ...]
    n_star: int | None = None
    theoretical: BoundReport | None = None
    bound_consistent: bool | None = None

    def rows(self) -> list[dict]:
        """Every record's rows, stamped with the run's seed."""
        return [{**r, "seed": self.config.seed}
                for rec in self.records for r in rec.rows]

    def exit_code(self) -> int:
        return 1 if any(r.outcome == VIOLATED for r in self.records) else 0


def resolve_ring(spec: RingSpec, j_exprs: tuple[str, ...], n_max: int,
                 f_exprs: tuple[str, ...] = ()) -> RingDescriptor:
    """Build the ring, resolving D = auto through the default selection rule
    on the primary level t of J, probed at a small order first.  When J has
    no certificate there, t is the level of (f) + J, which the theorem asks
    to be m-primary: m^(t(n+1)) lies in (f) + J^(n+1), so every table entry
    is still certified."""
    if spec.D is not None:
        return build_ring(spec.p, spec.vars, spec.base_gens, spec.D)
    probe = build_ring(spec.p, spec.vars, spec.base_gens, 8)
    j_gens = tuple(probe.element(g) for g in j_exprs)
    t = m_primary_level(IdealHandle(probe, j_gens)).value
    if t is None and f_exprs:
        t = m_primary_level(IdealHandle(probe, j_gens + tuple(
            probe.element(f) for f in f_exprs))).value
    if t is None:
        raise PertlabError("neither J nor (f) + J is certified m-primary at "
                           "the probe level; give D explicitly")
    d = default_truncation(t, n_max)
    if d == probe.D:
        return probe
    return build_ring(spec.p, spec.vars, spec.base_gens, d)


def sample_in_power(ring: RingDescriptor, n: int, seed: int,
                    count: int, spawn: tuple[int, int] | None = None
                    ) -> tuple[Element, ...]:
    """Uniform random elements supported on monomials of degree in [n, D).

    Deterministic per seed; the optional spawn key threads (N, sample index)
    so sweep draws are independent of evaluation order.
    """
    if n >= ring.D:
        raise PertlabError(f"sampling order {n} needs to stay below D={ring.D}")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn or ())))
    lo = ring.cut(n)
    out = []
    for _ in range(count):
        vec = np.zeros(ring.M, dtype=np.int64)
        vec[lo:] = rng.integers(0, ring.p, ring.M - lo)
        out.append(ring.element(vec))
    return tuple(out)


def sample_records(ws: Workspace, config: ExperimentConfig, n: int,
                   checks: tuple[Callable, ...]) -> list[VerdictRecord]:
    """Each check's record on every sample of the config at depth n, stamped
    (n, sample); sample s is drawn with spawn key (n, s).  No draw verifies
    nothing, so a config with fewer than one sample is refused."""
    if config.samples < 1:
        raise PertlabError(f"samples must be at least 1, got {config.samples}")
    records = []
    for s in range(config.samples):
        eps = sample_in_power(ws.ring, n, config.seed, len(ws.fs),
                              spawn=(n, s))
        records.extend(check(ws, eps).with_context(n, s) for check in checks)
    return records


def build_workspace(config: ExperimentConfig) -> Workspace:
    """Resolve the ring and read the sequence and J into a Workspace."""
    ring = resolve_ring(config.ring, config.j_exprs, config.n_max,
                        config.f_exprs)
    fs = tuple(ring.element(e) for e in config.f_exprs)
    j = IdealHandle(ring, tuple(ring.element(g) for g in config.j_exprs))
    return Workspace(ring, fs, j, config.n_max, config.delta)


def _sweep_to_threshold(ws: Workspace, config: ExperimentConfig
                        ) -> tuple[list[VerdictRecord], int | None]:
    """The N sweep (main equality and monotonicity on every sample), its
    empirical threshold N*, the least depth from which every main equality
    verified, and the auxiliary verifiers at N*: preservation and control
    colons for every sample, and the Artin-Rees comparison for sample 0."""
    records: list[VerdictRecord] = []
    n_star = None
    lo, hi = config.n_range
    for n in range(lo, hi + 1):
        at_n = sample_records(ws, config, n, (check_main_equality,
                                              check_surjection_monotonicity))
        records.extend(at_n)
        if any(r.claim == "main-equality" and r.outcome != VERIFIED
               for r in at_n):
            n_star = None
        elif n_star is None:
            n_star = n
    if n_star is None:
        return records, None
    records.extend(sample_records(ws, config, n_star, (
        check_perturbed_filter_regular, check_control_colon)))
    records.extend(sample_records(ws, replace(config, samples=1), n_star,
                                  (report_ar_comparison,)))
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
        rests_on=[r.certification for r in records]))
    return ExperimentReport("find-min-n", config, ws.ring.D, tuple(records),
                            n_star, *bound)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Filter-regularity rows for the configured sequence and each extra
    sequence of its catalog entry, the N sweep with all verifiers, and the
    threshold search, aggregated into one report that is a pure function
    of the config."""
    ws = build_workspace(config)
    extra = (catalog_get(config.catalog_id).extra_sequences
             if config.catalog_id else ())
    sequences = [("base", ws.fs)] + [
        (label, tuple(map(ws.ring.element, exprs))) for label, exprs in extra]
    records = []
    for label, seq in sequences:
        report = (ws.sequence_report if label == "base"
                  else filter_regular_sequence_check(seq, delta=config.delta))
        record = filter_regular_record(ws.ring, seq, report, label)
        records.append(replace(record, note=f"sequence {label}: {record.note}"))
    n_star = None
    if config.n_range is not None:
        sweep_records, n_star = _sweep_to_threshold(ws, config)
        records.extend(sweep_records)
    bound = _theoretical_bound(ws, config, n_star)
    if bound[0] is not None:
        records.append(bound_record(ws, bound[0]))
    return ExperimentReport("experiment", config, ws.ring.D, tuple(records),
                            n_star, *bound)

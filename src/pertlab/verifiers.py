"""Executable forms of the perturbation-stability results.

Each verifier consumes a base sequence, a perturbation list and an ideal J,
and returns a :class:`VerdictRecord` with outcome verified / violated /
inconclusive.  A claim checked index by index (table degree n or sequence
position i) is judged by :func:`judge`, the one outcome rule: inconclusive,
with no witness, when some index is unresolved, so no truncation artifact
passes for a counterexample; otherwise violated, its witness the first
failing index; otherwise verified.

:func:`verdict` is the only record builder, here and in the harness and the
command line.  A record's certification is the weakest of its rows'
certifications and of the statuses it rests on, so no record is certified
better than the numbers behind it.

A :class:`Workspace` shares the expensive per-configuration structures
(ideal powers, the unperturbed tables, Artin-Rees numbers, Koszul lengths,
and the rebuilt higher-truncation ring) across many perturbation samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

from .certify import UNCERTIFIED, CertifiedValue, two_level_value, weakest
from .errors import FilterRegularityError, PertlabError
from .ideals import (IdealHandle, IdealPowers, ideal_sum, m_primary_level,
                     zero_ideal)
from .invariants import (HilbertTable, SequenceReport, ar_number,
                         colon_plateaus, filter_regular_check,
                         filter_regular_sequence_check, gr_hilbert_function,
                         koszul_homology_length)
from .rings import Element, RingDescriptor

VERIFIED = "verified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class VerdictRecord:
    """Outcome of one verifier run, with CSV-ready detail rows; built by
    :func:`verdict`."""

    claim: str
    outcome: str
    witness: int | None
    digest: str
    certification: str
    note: str = ""
    rows: tuple[dict, ...] = ()

    def with_context(self, n_pert: int | None, sample: int) -> "VerdictRecord":
        """The rows stamped with the perturbation depth (None for none) and
        the sample index; the report stamps the run's seed."""
        return replace(self, rows=tuple(
            {**row, "N": "" if n_pert is None else n_pert, "sample": sample}
            for row in self.rows))


@dataclass(frozen=True)
class BoundReport:
    """Explicit one-element threshold: N = max(t(k+1), h)."""

    t: CertifiedValue
    k: CertifiedValue
    h: CertifiedValue
    n_bound: CertifiedValue

    def rows(self) -> tuple[dict, ...]:
        return tuple(row("bound-n", n=name, value_orig=cv.value, status="ok",
                         certification=cv.status)
                     for name, cv in (("t", self.t), ("k", self.k),
                                      ("h", self.h), ("N", self.n_bound)))


def row(claim: str, n="", value_orig="", value_pert="", status="",
        certification="") -> dict:
    """One CSV row but its seed, which the report stamps; ``certification``
    is empty on rows that carry no certified number."""
    return {"claim": claim, "N": "", "sample": "", "n": n,
            "value_orig": "" if value_orig is None else value_orig,
            "value_pert": "" if value_pert is None else value_pert,
            "status": status, "certification": certification}


def verdict(claim: str, outcome: str, digest: str, rows=(), *,
            witness: int | None = None, note: str = "",
            rests_on=()) -> VerdictRecord:
    """A record certified as the weakest of its rows' certifications and of
    ``rests_on``, the statuses of values the outcome depends on that no row
    shows."""
    rows = tuple(rows)
    certification = weakest([r["certification"] for r in rows
                             if r["certification"]] + list(rests_on))
    return VerdictRecord(claim, outcome, witness, digest, certification,
                         note, rows)


def judge(resolved, failing) -> tuple[str, int | None]:
    """(outcome, witness) from a resolved flag per index and the failing
    indices in order, which are not read when some index is unresolved."""
    if not all(resolved):
        return INCONCLUSIVE, None
    witness = next(iter(failing), None)
    return (VERIFIED if witness is None else VIOLATED), witness


def sequence_rows(claim: str, report: SequenceReport,
                  labels: tuple[str, str]) -> list[dict]:
    """One row per checked step of a filter-regularity report, its status
    ``labels[0]`` for a passing step and ``labels[1]`` for a failing one."""
    return [row(claim, n=step.index, value_orig=step.exponent.value,
                status=labels[0] if step.passed else labels[1],
                certification=step.exponent.status)
            for step in report.steps]


def inputs_digest(ring: RingDescriptor, fs: tuple[Element, ...],
                  eps: tuple[Element, ...] | None,
                  j: IdealHandle | None, extra: str = "") -> str:
    """A record's input key: ``repr(ring)``, the tag ``extra``, the group
    sizes, then the little-endian normal-form vector of each element of
    ``fs``, ``eps`` and J's generators."""
    groups = (fs, eps or (), j.gens if j else ())
    h = hashlib.sha256(repr((ring, extra, *map(len, groups))).encode())
    for e in (e for group in groups for e in group):
        h.update(e.vec.astype("<i8").tobytes())
    return h.hexdigest()[:16]


class Workspace:
    """Cached context for one (ring, sequence, J) configuration."""

    def __init__(self, ring: RingDescriptor, fs: tuple[Element, ...],
                 j: IdealHandle, n_max: int, delta: int = 2):
        self.ring = ring
        self.fs = fs
        self.j = j
        self.n_max = n_max
        self.delta = delta
        self._last_pert: tuple[tuple[bytes, ...], HilbertTable] | None = None

    @cached_property
    def powers(self) -> IdealPowers:
        return IdealPowers(self.j, self.n_max + 1)

    @cached_property
    def i_handle(self) -> IdealHandle:
        return IdealHandle(self.ring, self.fs)

    @cached_property
    def sequence_report(self) -> SequenceReport:
        return filter_regular_sequence_check(self.fs, delta=self.delta)

    @cached_property
    def gr_orig(self) -> HilbertTable:
        return gr_hilbert_function(self.i_handle, self.j, self.n_max, self.powers)

    @cached_property
    def ar_value(self) -> CertifiedValue:
        return ar_number(self.i_handle, self.j, self.n_max, self.powers,
                         delta=self.delta)

    @cached_property
    def h1(self) -> CertifiedValue:
        return koszul_homology_length(self.fs, 1, delta=self.delta)

    @cached_property
    def ring_hi(self) -> RingDescriptor:
        return self.ring.above(self.delta)

    def perturbed(self, eps: tuple[Element, ...]) -> tuple[Element, ...]:
        if len(eps) != len(self.fs):
            raise PertlabError("perturbation list length differs from the sequence")
        return tuple(f + e for f, e in zip(self.fs, eps))

    def gr_perturbed(self, eps: tuple[Element, ...]) -> HilbertTable:
        """The gr table of R/(f + eps); the last sample's table is kept, so
        the verifiers that compare it against gr_orig compute it once."""
        key = tuple(e.vec.tobytes() for e in eps)
        if self._last_pert is None or self._last_pert[0] != key:
            handle = IdealHandle(self.ring, self.perturbed(eps))
            self._last_pert = key, gr_hilbert_function(
                handle, self.j, self.n_max, self.powers)
        return self._last_pert[1]


def _compare_tables(ws: Workspace, eps: tuple[Element, ...], claim: str,
                    digest: str, fails, note: str = "",
                    rests_on=()) -> VerdictRecord:
    """Compare the gr tables of the original and perturbed quotients entry
    by entry; degree n fails when ``fails(orig, pert)``."""
    pert = ws.gr_perturbed(eps)
    orig = ws.gr_orig
    pairs = list(zip(orig.entries, pert.entries))
    rows = [row(claim, n=n, value_orig=a.value, value_pert=b.value,
                status="match" if a.value == b.value else "mismatch",
                certification=weakest((a.status, b.status)))
            for n, (a, b) in enumerate(pairs)]
    outcome, witness = judge(
        (a.is_certified() and b.is_certified() for a, b in pairs),
        (n for n, (a, b) in enumerate(pairs) if fails(a.value, b.value)))
    if outcome == INCONCLUSIVE:
        note = "; ".join(filter(None, ("uncertified table entries", note)))
    return verdict(claim, outcome, digest, rows, witness=witness, note=note,
                   rests_on=rests_on)


def check_main_equality(ws: Workspace,
                        eps: tuple[Element, ...]) -> VerdictRecord:
    """Do the gr tables of the original and perturbed quotients agree in all
    degrees up to n_max?  Runs with non-filter-regular input are permitted and
    labeled negative controls."""
    digest = inputs_digest(ws.ring, ws.fs, eps, ws.j, f"n_max={ws.n_max}")
    note = "" if ws.sequence_report.passed else "negative control: base sequence " \
                                               "is not filter-regular"
    return _compare_tables(ws, eps, "main-equality", digest,
                           fails=lambda orig, pert: pert != orig, note=note)


def check_surjection_monotonicity(ws: Workspace,
                                  eps: tuple[Element, ...]) -> VerdictRecord:
    """Perturbing inside J^(k+1), k the Artin-Rees number of the ideal, can
    only shrink the gr table pointwise.  Unconditional: no filter-regularity
    hypothesis.  The verdict rests on k, so it is never certified better
    than k."""
    digest = inputs_digest(ws.ring, ws.fs, eps, ws.j, "monotonicity")
    k = ws.ar_value
    if k.value is None:
        return verdict("monotonicity", INCONCLUSIVE, digest,
                       note=f"Artin-Rees number unresolved: {k.note}",
                       rests_on=(k.status,))
    depth = k.value + 1
    power = ws.powers.handle(depth)  # extends the cache on demand
    for idx, e in enumerate(eps):
        if not power.contains_element(e):
            return verdict("monotonicity", INCONCLUSIVE, digest,
                           witness=idx + 1, rests_on=(k.status,),
                           note=f"precondition unmet: perturbation {idx + 1} "
                                f"is not in J^{depth}")
    return _compare_tables(ws, eps, "monotonicity", digest,
                           fails=lambda orig, pert: pert > orig,
                           rests_on=(k.status,))


def check_control_colon(ws: Workspace, eps: tuple[Element, ...]) -> VerdictRecord:
    """Colon quotients of the perturbed sequence stay bounded by the first
    Koszul homology length h of the base sequence, and are killed by m^h.
    Each (A : f)/A, f the i-th element and A the ideal of the others, is
    read at D and in the sequence's one D + delta lift; a row whose reading
    is not uncertified is resolved, its values the certified ones."""
    digest = inputs_digest(ws.ring, ws.fs, eps, None, "control-colon")
    h = ws.h1
    if not h.is_certified():
        return verdict("control-colon", INCONCLUSIVE, digest,
                       note=f"H_1 length unresolved: {h.note}",
                       rests_on=(h.status,))
    pert_lo = ws.perturbed(eps)
    pert_hi = tuple(ws.ring_hi.element(e) for e in pert_lo)
    levels = (ws.ring.D, ws.ring_hi.D)
    rows = []
    for i in range(len(pert_lo)):
        readings = []
        for pert in (pert_lo, pert_hi):
            omit = IdealHandle(pert[i].ring, pert[:i] + pert[i + 1:]).subspace
            (l_val, l_ok), (h_val, h_ok) = colon_plateaus(omit, pert[i])
            readings.append(((l_val, h_val), l_ok and h_ok))
        cert = two_level_value(*readings, levels)
        resolved = cert.status != UNCERTIFIED
        l_val, h_val = cert.value if resolved else readings[0][0]
        ok = resolved and l_val <= h.value and h_val <= h.value
        status = "ok" if ok else ("exceeds" if resolved else "unresolved")
        rows.append(row("control-colon", n=i + 1, value_orig=l_val,
                        value_pert=h_val, status=status,
                        certification=cert.status))
    outcome, witness = judge((r["status"] != "unresolved" for r in rows),
                             (r["n"] for r in rows if r["status"] == "exceeds"))
    return verdict("control-colon", outcome, digest, rows, witness=witness,
                   note=f"bound h = {h.value} from the first Koszul homology",
                   rests_on=(h.status,))


def check_perturbed_filter_regular(ws: Workspace,
                                   eps: tuple[Element, ...]) -> VerdictRecord:
    """Does the perturbed sequence stay filter-regular?  The record keeps the
    order of each perturbation for empirical threshold mapping."""
    digest = inputs_digest(ws.ring, ws.fs, eps, None, "preservation")
    report = filter_regular_sequence_check(ws.perturbed(eps), delta=ws.delta)
    orders = tuple(e.order() for e in eps)
    outcome, witness = judge(
        (s.exponent.status != UNCERTIFIED for s in report.steps),
        (s.index for s in report.steps if not s.passed))
    return verdict("preservation", outcome, digest,
                   sequence_rows("preservation", report, ("pass", "fail")),
                   witness=witness, note=f"perturbation orders {orders}")


def report_ar_comparison(ws: Workspace, eps: tuple[Element, ...]) -> VerdictRecord:
    """Artin-Rees numbers of the original and perturbed ideals, reported as
    data: preservation of the Artin-Rees number is an open suspicion, so
    disagreement is recorded, never judged a violation."""
    digest = inputs_digest(ws.ring, ws.fs, eps, ws.j, "ar-comparison")
    orig = ws.ar_value
    pert_handle = IdealHandle(ws.ring, ws.perturbed(eps))
    pert = ar_number(pert_handle, ws.j, ws.n_max, ws.powers, delta=ws.delta)
    rows = (row("ar-comparison", n=0, value_orig=orig.value,
                value_pert=pert.value,
                status="equal" if orig.value == pert.value else "differs",
                certification=weakest((orig.status, pert.status))),)
    agree = (orig.is_certified() and pert.is_certified()
             and orig.value == pert.value)
    note = ("values agree on this window" if agree
            else "no preservation claim is asserted")
    return verdict("ar-comparison", VERIFIED if agree else INCONCLUSIVE,
                   digest, rows, note=f"data only: {note}")


def bound_N_one_element(f: Element, j: IdealHandle,
                        delta: int = 2) -> BoundReport:
    """Explicit threshold for a single filter-regular element: with
    t the primary level of (f) + J, k its Artin-Rees number and h the
    annihilation exponent of (0 : f), every perturbation of order at least
    N = max(t(k+1), h) preserves the gr table."""
    ring = f.ring
    passed, h = filter_regular_check(zero_ideal(ring), f, delta=delta)
    if not passed:
        raise FilterRegularityError(
            "element is not filter-regular: (0 : f) is not annihilated by any "
            "power of the maximal ideal at a stable plateau")
    f_ideal = IdealHandle(ring, (f,))
    j_replaced = ideal_sum(f_ideal, j)
    t = m_primary_level(j_replaced)
    if t.value is None:
        raise PertlabError("(f) + J carries no m-primary certificate at this "
                           "truncation; raise D")
    window = 2 * t.value + 4
    k = ar_number(f_ideal, j_replaced, window, delta=delta)
    if k.value is None:
        raise PertlabError(f"Artin-Rees number not found within window {window}")
    n_val = max(t.value * (k.value + 1), h.value)
    n_cert = CertifiedValue(n_val, weakest((t.status, k.status, h.status)),
                            (ring.D, ring.D + delta),
                            note="max(t(k+1), h)")
    return BoundReport(t, k, h, n_cert)

"""Manifest-driven command line front end.

A manifest is a flat, sectioned key-value file (``configparser`` syntax)
that fully determines a run: the ring, named ideals, and one task.
``parse_manifest`` checks it in full and resolves it into the run's
:class:`ExperimentConfig` (catalog fixture, named ideals, every task key)
before any ring is built.  All randomness flows from the manifest seed, so
reports are artifacts of record: re-running a manifest reproduces
byte-identical CSV output.

Exit codes: 0 clean, 1 at least one violated verdict, 2 operational error
(a malformed manifest, a file that cannot be read as UTF-8, an unwritable
``--out``, an allocation that fails).  A computed falsehood (e.g.
``check-filter-regular`` answering "false") is a result, not a violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

from .catalog import CATALOG
from .errors import ManifestError, PertlabError
from .harness import (ExperimentConfig, ExperimentReport, RingSpec,
                      bound_record, build_workspace, filter_regular_record,
                      find_min_N, run_experiment, sample_records)
from .invariants import gr_hilbert_function, hs_table, koszul_report
from .verifiers import (VERIFIED, VerdictRecord, Workspace,
                        bound_N_one_element, check_control_colon,
                        check_main_equality, check_perturbed_filter_regular,
                        check_surjection_monotonicity, inputs_digest, row,
                        verdict)

FORMAT_VERSION = 1

CSV_COLUMNS = ("claim", "N", "sample", "n", "value_orig", "value_pert",
               "status", "certification", "seed")

COMMANDS = ("check-filter-regular", "hilbert", "ar-number", "koszul",
            "bound-n", "verify", "find-min-n", "experiment")

VERIFY_CLAIMS = ("main", "monotonicity", "control-colon", "preservation")

# Largest accepted ``samples``: each sample is a full perturbed computation,
# so the cap only keeps a mistyped count from running without end.  At
# least one sample is needed, or a threshold would be found on no evidence.
MAX_SAMPLES = 1_000

# (lowest, highest) value of each integer task key, None for no cap; a
# capped key's cap is the module constant MAX_<KEY>, which its error names.
# Each key given overrides the ExperimentConfig field of the same name.
TASK_INTS = {"n_max": (0, None), "samples": (1, MAX_SAMPLES),
             "seed": (0, None), "delta": (1, None)}

# The keys parse_manifest reads in each section; [ideals] names are free.
SECTION_KEYS = {
    "manifest": ("format-version",),
    "ring": ("p", "vars", "gens", "D"),
    "ideals": None,
    "task": ("command", "catalog", "f", "J", "N", "claim", "epsilon",
             *TASK_INTS),
}


@dataclass(frozen=True)
class Manifest:
    """A checked manifest: its command, the run's resolved configuration,
    and the keys only ``verify`` reads."""

    command: str
    config: ExperimentConfig
    claim: str | None = None
    epsilon: tuple[str, ...] | None = None


def _split_list(value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _int(key: str, raw: str, lo: int | None = None,
         hi: int | None = None) -> int:
    """An integer manifest value in lo..hi, else a ManifestError."""
    try:
        value = int(raw)
    except ValueError:
        raise ManifestError(f"{key} must be an integer, got {raw.strip()!r}") \
            from None
    if hi is not None and not lo <= value <= hi:
        raise ManifestError(f"{key} must lie in {lo}..MAX_{key.upper()} = "
                            f"{hi}, got {value}")
    if lo is not None and value < lo:
        raise ManifestError(f"{key} must be "
                            + ("non-negative" if lo == 0 else f"at least {lo}")
                            + f", got {value}")
    return value


def _ring_spec(section: dict[str, str], fixture: RingSpec | None = None,
               catalog: str | None = None) -> RingSpec:
    """The ring of a [ring] section.  Under a catalog task the ring is
    ``fixture``, the catalog's: the section may set D alone, and a p, vars
    or gens it gives must be the fixture's, whitespace aside."""
    d_raw = section.get("D", "auto").strip()
    d = None if d_raw == "auto" else _int("D", d_raw)
    given = {key: _int(key, section[key]) if key == "p"
             else _split_list(section[key])
             for key in ("p", "vars", "gens") if key in section}
    if fixture is None:
        for key in ("p", "vars"):
            if key not in given:
                raise ManifestError(f"bad ring section: no {key!r}; only a "
                                    f"catalog task may leave it out")
        return RingSpec(given["p"], given["vars"], given.get("gens", ()), d)
    fixed = {"p": fixture.p, "vars": fixture.vars,
             "gens": tuple(g.replace(" ", "") for g in fixture.base_gens)}
    if "gens" in given:
        given["gens"] = tuple(g.replace(" ", "") for g in given["gens"])
    for key, value in given.items():
        if value != fixed[key]:
            raise ManifestError(
                f"[ring] {key} = {section[key].strip()} differs from catalog "
                f"{catalog}; under a catalog, [ring] may set D alone")
    return replace(fixture, D=d)


def parse_manifest(text: str) -> Manifest:
    """Check a manifest in full and resolve its run's configuration."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep key case (D, N)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ManifestError(f"manifest parse error: {exc}") from exc

    if not cp.has_section("manifest") or not cp.has_option("manifest",
                                                           "format-version"):
        raise ManifestError("missing [manifest] section with format-version")
    version = _int("format-version", cp.get("manifest", "format-version"))
    if version != FORMAT_VERSION:
        raise ManifestError(f"unsupported format-version {version}")
    for section in cp.sections():
        if section not in SECTION_KEYS:
            raise ManifestError(f"unknown section [{section}]; known: "
                                + ", ".join(SECTION_KEYS))
        known = SECTION_KEYS[section]
        for key in cp.options(section):
            if known is not None and key not in known:
                raise ManifestError(f"unknown key {key!r} in [{section}]; "
                                    "known: " + ", ".join(known))

    ring_keys = dict(cp.items("ring")) if cp.has_section("ring") else None
    ideals = dict(cp.items("ideals")) if cp.has_section("ideals") else {}

    if not cp.has_section("task") or not cp.has_option("task", "command"):
        raise ManifestError("missing [task] section with a command")
    task = dict(cp.items("task"))
    command = task["command"].strip()
    if command not in COMMANDS:
        raise ManifestError(f"unknown command {command!r}; known: "
                            + ", ".join(COMMANDS))
    for key in ("claim", "epsilon"):
        if key in task and command != "verify":
            raise ManifestError(f"key {key!r} in [task] applies only to "
                                f"command = verify, not {command}")

    fields = {key: _int(key, task[key], *bounds)
              for key, bounds in TASK_INTS.items() if key in task}
    if "N" in task:  # a depth range; a single depth a is the range a..a
        raw = task["N"].strip()
        ends = tuple(_int("N", end, 0) for end in raw.split("..", 1))
        if ends[0] > ends[-1]:
            raise ManifestError(f"N range {raw} is reversed: its low end "
                                f"exceeds its high end")
        fields["n_range"] = (ends[0], ends[-1])
    f = _split_list(task.get("f", ""))
    if f:
        fields["f_exprs"] = f
    j_ref = task.get("J", "").strip()
    if j_ref:  # a name from [ideals], else an inline expression list
        fields["j_exprs"] = _split_list(ideals.get(j_ref, j_ref))

    catalog = task.get("catalog")
    if catalog:
        if catalog not in CATALOG:
            raise ManifestError(f"unknown catalog id {catalog!r}; known: "
                                + ", ".join(sorted(CATALOG)))
        config = ExperimentConfig.from_catalog(catalog, **fields)
        if ring_keys is not None:
            config = replace(config, ring=_ring_spec(ring_keys, config.ring,
                                                     catalog))
    elif ring_keys is None:
        raise ManifestError("no [ring] section and no catalog reference")
    elif "f_exprs" not in fields:
        raise ManifestError("task needs f = <comma separated expressions>")
    else:
        ring = _ring_spec(ring_keys)
        config = ExperimentConfig(**{"ring": ring, "j_exprs": ring.vars,
                                     **fields})
    # Once n >= D - 1, J^(n+1) lies in m^D, which vanishes in the model, so
    # every entry past n = D - 1 repeats that one: a larger n_max than an
    # explicit D only costs time.
    if "n_max" in fields and config.ring.D is not None \
            and config.n_max > config.ring.D:
        raise ManifestError(f"n_max = {config.n_max} exceeds the explicit "
                            f"D = {config.ring.D}")
    epsilon = task.get("epsilon")
    m = Manifest(command, config, task.get("claim"),
                 None if epsilon is None else _split_list(epsilon))
    if command == "bound-n" and len(config.f_exprs) != 1:
        raise ManifestError("bound-n needs exactly one element in f")
    if command == "verify" and (m.claim or "main") not in VERIFY_CLAIMS:
        raise ManifestError(f"unknown claim {m.claim!r}; known: "
                            + ", ".join(VERIFY_CLAIMS))
    depths = config.n_range
    if command == "verify" and (depths[0] != depths[1] if depths
                                else m.epsilon is None):
        raise ManifestError("verify needs either epsilon = ... or "
                            "a single N for sampling")
    if command == "verify" and m.epsilon is not None \
            and len(m.epsilon) != len(config.f_exprs):
        raise ManifestError(f"epsilon lists {len(m.epsilon)} perturbations "
                            f"but f lists {len(config.f_exprs)}")
    # Sampled perturbations of order N live below D.
    if (depths and m.epsilon is None and config.ring.D is not None
            and command in ("experiment", "find-min-n", "verify")
            and depths[1] >= config.ring.D):
        raise ManifestError(f"sampling depth N = {depths[1]} reaches the "
                            f"explicit D = {config.ring.D}")
    return m


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _resolve_config(m: Manifest) -> ExperimentConfig:
    """The run's configuration, resolved by ``parse_manifest``."""
    return m.config


# Direct commands: handler(ws, manifest) -> records; the report stamps the
# seed.
# Handlers name the invariants and verifiers they call inside their bodies,
# so those module globals are looked up at call time.

def _filter_regular_records(ws: Workspace, m: Manifest) -> list[VerdictRecord]:
    return [filter_regular_record(ws.ring, ws.fs, ws.sequence_report, "cli")]


def _table_records(ws: Workspace, m: Manifest) -> list[VerdictRecord]:
    i_handle = ws.i_handle
    hs = hs_table(i_handle, ws.j, m.config.n_max, ws.powers)
    gr = gr_hilbert_function(i_handle, ws.j, m.config.n_max, ws.powers)
    return [verdict(claim, VERIFIED,
                    inputs_digest(ws.ring, ws.fs, None, ws.j, claim),
                    [row(claim, n=n, value_orig=e.value, status="ok",
                         certification=e.status)
                     for n, e in enumerate(table.entries)],
                    note=f"convention {table.convention}")
            for claim, table in (("hs-table", hs), ("gr-table", gr))]


def _ar_records(ws: Workspace, m: Manifest) -> list[VerdictRecord]:
    value = ws.ar_value
    rows = [row("ar-number", n=0, value_orig=value.value,
                status="ok" if value.value is not None else "not found",
                certification=value.status)]
    return [verdict("ar-number", VERIFIED,
                    inputs_digest(ws.ring, ws.fs, None, ws.j, "ar"), rows,
                    note=value.note)]


def _koszul_records(ws: Workspace, m: Manifest) -> list[VerdictRecord]:
    report = koszul_report(ws.fs, delta=m.config.delta)
    rows = [row("koszul", n=i, value_orig=cv.value,
                status="finite" if fin else "unflagged",
                certification=cv.status)
            for i, (cv, fin) in enumerate(zip(report.lengths, report.finite),
                                          start=1)]
    return [verdict("koszul", VERIFIED,
                    inputs_digest(ws.ring, ws.fs, None, None, "koszul"), rows)]


def _bound_records(ws: Workspace, m: Manifest) -> list[VerdictRecord]:
    report = bound_N_one_element(ws.fs[0], ws.j, delta=m.config.delta)
    return [bound_record(ws, report)]


def _verify_records(ws: Workspace, m: Manifest) -> list[VerdictRecord]:
    n = m.config.n_range[0] if m.config.n_range else None
    checker = {
        "main": check_main_equality,
        "monotonicity": check_surjection_monotonicity,
        "control-colon": check_control_colon,
        "preservation": check_perturbed_filter_regular,
    }[m.claim or "main"]
    if m.epsilon is None:
        return sample_records(ws, m.config, n, (checker,))
    eps = tuple(ws.ring.element(e) for e in m.epsilon)
    for expr, e in zip(m.epsilon, eps):
        if n is not None and e.order() < n:
            raise ManifestError(f"perturbation {expr!r} has order "
                                f"{e.order()}, below N = {n}")
    return [checker(ws, eps).with_context(n, 0)]


_DIRECT_COMMANDS = {
    "check-filter-regular": _filter_regular_records,
    "hilbert": _table_records,
    "ar-number": _ar_records,
    "koszul": _koszul_records,
    "bound-n": _bound_records,
    "verify": _verify_records,
}


def execute(m: Manifest) -> ExperimentReport:
    if m.command not in _DIRECT_COMMANDS:
        return (run_experiment if m.command == "experiment"
                else find_min_N)(m.config)
    ws = build_workspace(m.config)
    records = tuple(_DIRECT_COMMANDS[m.command](ws, m))
    return ExperimentReport(m.command, m.config, ws.ring.D, records)


def run_manifest(text: str) -> ExperimentReport:
    """Execute a manifest given as its text; reading a file is ``main``'s
    job."""
    return execute(parse_manifest(text))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def emit_csv(result: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in result.rows():
        writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    return buf.getvalue()


def emit_table(result: ExperimentReport, elapsed_s: float) -> str:
    """Aligned rows and a footer: command, resolved D, outcomes, thresholds
    and ``elapsed_s``, the run's wall time."""
    rendered = [{c: str(row.get(c, "")) for c in CSV_COLUMNS}
                for row in result.rows()]
    widths = {c: max([len(c)] + [len(r[c]) for r in rendered])
              for c in CSV_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in CSV_COLUMNS),
             "  ".join("-" * widths[c] for c in CSV_COLUMNS)]
    lines += ["  ".join(r[c].ljust(widths[c]) for c in CSV_COLUMNS)
              for r in rendered]
    lines += ["", f"command: {result.command}   resolved D: {result.resolved_D}"]
    outcomes = sorted(Counter(rec.outcome for rec in result.records).items())
    lines.append("outcomes: " + ", ".join(f"{k}={v}" for k, v in outcomes))
    if result.n_star is not None:
        lines.append(f"empirical N* = {result.n_star}")
    if result.theoretical is not None:
        held = result.bound_consistent  # None without a sweep to compare
        lines.append(f"theoretical N = {result.theoretical.n_bound.value}   "
                     f"bound consistent: {'n/a' if held is None else held}")
    lines.append(f"elapsed: {elapsed_s:.2f}s")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pertlab",
        description="Run a manifest: exact perturbation-stability "
                    "computations over truncated local rings.")
    parser.add_argument("manifest", help="path to a manifest file")
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    parser.add_argument("--out", help="write the report to this file")
    args = parser.parse_args(argv)
    try:
        started = time.monotonic()
        with open(args.manifest, "r", encoding="utf-8") as fh:
            try:
                source = fh.read()
            except UnicodeDecodeError as exc:
                raise ManifestError(f"{args.manifest} is not UTF-8 text: "
                                    f"{exc}") from None
        result = run_manifest(source)
        text = (emit_csv(result) if args.format == "csv"
                else emit_table(result, time.monotonic() - started))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
    except (PertlabError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return result.exit_code()


if __name__ == "__main__":
    sys.exit(main())

"""Manifest-driven command line front end.

A manifest is a flat, sectioned key-value file (``configparser`` syntax)
that fully determines a run: the ring, named ideals, and one task.  All
randomness flows from the manifest seed, so reports are artifacts of
record: re-running a manifest reproduces byte-identical CSV output.

Exit codes: 0 clean, 1 at least one violated verdict, 2 operational error.
A computed falsehood (e.g. ``check-filter-regular`` answering "false") is a
result, not a violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import sys
import time
from dataclasses import dataclass, replace

from .catalog import CATALOG
from .errors import ManifestError, PertlabError
from .harness import (ExperimentConfig, ExperimentReport, RingSpec,
                      bound_record, build_workspace, filter_regular_record,
                      find_min_N, run_experiment, sample_in_power)
from .invariants import (filter_regular_sequence_check, gr_hilbert_function,
                         hs_table, koszul_report)
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


@dataclass(frozen=True)
class TaskSpec:
    command: str
    f: tuple[str, ...] = ()
    j: str = ""
    n_max: int | None = None
    n_range: tuple[int, int] | None = None
    n_single: int | None = None
    samples: int | None = None
    seed: int | None = None
    delta: int | None = None
    claim: str | None = None
    epsilon: tuple[str, ...] | None = None
    catalog: str | None = None


@dataclass(frozen=True)
class Manifest:
    format_version: int
    ring: RingSpec | None
    ideals: tuple[tuple[str, tuple[str, ...]], ...]
    task: TaskSpec


def _split_list(value: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in value.split(",") if p.strip())
    return parts


def _int(key: str, raw: str) -> int:
    """An integer manifest field; anything else is a ManifestError."""
    try:
        return int(raw)
    except ValueError:
        raise ManifestError(f"{key} must be an integer, got {raw.strip()!r}") \
            from None


def parse_manifest(text: str) -> Manifest:
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

    ring = None
    if cp.has_section("ring"):
        try:
            p = _int("p", cp.get("ring", "p"))
            vars_ = _split_list(cp.get("ring", "vars"))
        except configparser.NoOptionError as exc:
            raise ManifestError(f"bad ring section: {exc}") from exc
        gens = _split_list(cp.get("ring", "gens", fallback=""))
        d_raw = cp.get("ring", "D", fallback="auto").strip()
        d = None if d_raw == "auto" else _int("D", d_raw)
        ring = RingSpec(p, vars_, gens, d)

    ideals = []
    if cp.has_section("ideals"):
        for name, value in cp.items("ideals"):
            ideals.append((name, _split_list(value)))

    if not cp.has_section("task") or not cp.has_option("task", "command"):
        raise ManifestError("missing [task] section with a command")
    command = cp.get("task", "command").strip()
    if command not in COMMANDS:
        raise ManifestError(f"unknown command {command!r}; known: "
                            + ", ".join(COMMANDS))

    def opt_int(key: str) -> int | None:
        return (_int(key, cp.get("task", key)) if cp.has_option("task", key)
                else None)

    n_range = None
    n_single = None
    if cp.has_option("task", "N"):
        raw = cp.get("task", "N").strip()
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            n_range = (_int("N", lo), _int("N", hi))
        else:
            n_single = _int("N", raw)
        if min(n_range or (n_single,)) < 0:
            raise ManifestError(f"N must be non-negative, got {raw}")
        if n_range is not None and n_range[0] > n_range[1]:
            raise ManifestError(f"N range {raw} is reversed: its low end "
                                f"exceeds its high end")
    delta = opt_int("delta")
    if delta is not None and delta < 1:
        raise ManifestError(f"delta must be at least 1, got {delta}")
    seed = opt_int("seed")
    if seed is not None and seed < 0:
        raise ManifestError(f"seed must be non-negative, got {seed}")
    samples = opt_int("samples")
    if samples is not None and not 1 <= samples <= MAX_SAMPLES:
        raise ManifestError(f"samples must lie in 1..MAX_SAMPLES = "
                            f"{MAX_SAMPLES}, got {samples}")
    n_max = opt_int("n_max")
    if n_max is not None and n_max < 0:
        raise ManifestError(f"n_max must be non-negative, got {n_max}")
    # Once n >= D - 1, J^(n+1) lies in m^D, which vanishes in the model, so
    # every entry past n = D - 1 repeats that one: a larger n_max than an
    # explicit D only costs time.
    if (n_max is not None and ring is not None and ring.D is not None
            and n_max > ring.D):
        raise ManifestError(f"n_max = {n_max} exceeds the explicit D = {ring.D}")

    task = TaskSpec(
        command=command,
        f=_split_list(cp.get("task", "f", fallback="")),
        j=cp.get("task", "J", fallback="").strip(),
        n_max=n_max,
        n_range=n_range,
        n_single=n_single,
        samples=samples,
        seed=seed,
        delta=delta,
        claim=cp.get("task", "claim", fallback=None),
        epsilon=_split_list(cp.get("task", "epsilon"))
        if cp.has_option("task", "epsilon") else None,
        catalog=cp.get("task", "catalog", fallback=None),
    )
    return Manifest(version, ring, tuple(ideals), task)


def serialize_manifest(m: Manifest) -> str:
    lines = ["[manifest]", f"format-version = {m.format_version}", ""]
    if m.ring is not None:
        lines += ["[ring]", f"p = {m.ring.p}",
                  f"vars = {', '.join(m.ring.vars)}"]
        if m.ring.base_gens:
            lines.append(f"gens = {', '.join(m.ring.base_gens)}")
        lines.append(f"D = {'auto' if m.ring.D is None else m.ring.D}")
        lines.append("")
    if m.ideals:
        lines.append("[ideals]")
        for name, gens in m.ideals:
            lines.append(f"{name} = {', '.join(gens)}")
        lines.append("")
    t = m.task
    lines += ["[task]", f"command = {t.command}"]
    if t.catalog:
        lines.append(f"catalog = {t.catalog}")
    if t.f:
        lines.append(f"f = {', '.join(t.f)}")
    if t.j:
        lines.append(f"J = {t.j}")
    if t.n_max is not None:
        lines.append(f"n_max = {t.n_max}")
    if t.n_range is not None:
        lines.append(f"N = {t.n_range[0]}..{t.n_range[1]}")
    elif t.n_single is not None:
        lines.append(f"N = {t.n_single}")
    if t.samples is not None:
        lines.append(f"samples = {t.samples}")
    if t.seed is not None:
        lines.append(f"seed = {t.seed}")
    if t.delta is not None:
        lines.append(f"delta = {t.delta}")
    if t.claim:
        lines.append(f"claim = {t.claim}")
    if t.epsilon is not None:
        lines.append(f"epsilon = {', '.join(t.epsilon)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _resolve_config(m: Manifest) -> ExperimentConfig:
    t = m.task
    if t.catalog:
        if t.catalog not in CATALOG:
            raise ManifestError(f"unknown catalog id {t.catalog!r}; known: "
                                + ", ".join(sorted(CATALOG)))
        cfg = ExperimentConfig.from_catalog(t.catalog)
        if m.ring is not None and m.ring.D is not None:
            cfg = replace(cfg, ring=replace(cfg.ring, D=m.ring.D))
    else:
        if m.ring is None:
            raise ManifestError("no [ring] section and no catalog reference")
        if not t.f:
            raise ManifestError("task needs f = <comma separated expressions>")
        j_exprs = _resolve_ideal(m, t.j) if t.j else m.ring.vars
        cfg = ExperimentConfig(ring=m.ring, f_exprs=t.f, j_exprs=j_exprs)
    overrides = {}
    if t.f and t.catalog:
        overrides["f_exprs"] = t.f
    if t.j and t.catalog:
        overrides["j_exprs"] = _resolve_ideal(m, t.j)
    if t.n_max is not None:
        overrides["n_max"] = t.n_max
    if t.n_range is not None:
        overrides["n_range"] = t.n_range
    if t.samples is not None:
        overrides["samples"] = t.samples
    if t.seed is not None:
        overrides["seed"] = t.seed
    if t.delta is not None:
        overrides["delta"] = t.delta
    return replace(cfg, **overrides)


def _resolve_ideal(m: Manifest, ref: str) -> tuple[str, ...]:
    for name, gens in m.ideals:
        if name == ref:
            return gens
    # not a name: treat as inline expression list
    return _split_list(ref)


# Direct commands: handler(ws, cfg, task) -> records carrying the seed.
# Handlers name the invariants and verifiers they call inside their bodies,
# so those module globals are looked up at call time.

def _filter_regular_records(ws: Workspace, cfg: ExperimentConfig,
                            t: TaskSpec) -> list[VerdictRecord]:
    report = filter_regular_sequence_check(ws.fs, delta=cfg.delta)
    return [filter_regular_record(ws.ring, ws.fs, report, "cli", cfg.seed)]


def _table_records(ws: Workspace, cfg: ExperimentConfig,
                   t: TaskSpec) -> list[VerdictRecord]:
    i_handle = ws.i_handle
    hs = hs_table(i_handle, ws.j, cfg.n_max, ws.powers)
    gr = gr_hilbert_function(i_handle, ws.j, cfg.n_max, ws.powers)
    return [verdict(claim, VERIFIED,
                    inputs_digest(ws.ring, ws.fs, None, ws.j, claim),
                    [row(claim, n=n, value_orig=e.value, status="ok",
                         certification=e.status)
                     for n, e in enumerate(table.entries)],
                    note=f"convention {table.convention}")
            .with_context(None, None, cfg.seed)
            for claim, table in (("hs-table", hs), ("gr-table", gr))]


def _ar_records(ws: Workspace, cfg: ExperimentConfig,
                t: TaskSpec) -> list[VerdictRecord]:
    value = ws.ar_value
    rows = [row("ar-number", n=0, value_orig=value.value,
                status="ok" if value.value is not None else "not found",
                certification=value.status)]
    return [verdict("ar-number", VERIFIED,
                    inputs_digest(ws.ring, ws.fs, None, ws.j, "ar"), rows,
                    note=value.note).with_context(None, None, cfg.seed)]


def _koszul_records(ws: Workspace, cfg: ExperimentConfig,
                    t: TaskSpec) -> list[VerdictRecord]:
    report = koszul_report(ws.fs, delta=cfg.delta)
    rows = [row("koszul", n=i, value_orig=cv.value,
                status="finite" if fin else "unflagged",
                certification=cv.status)
            for i, (cv, fin) in enumerate(zip(report.lengths, report.finite),
                                          start=1)]
    return [verdict("koszul", VERIFIED,
                    inputs_digest(ws.ring, ws.fs, None, None, "koszul"), rows)
            .with_context(None, None, cfg.seed)]


def _bound_records(ws: Workspace, cfg: ExperimentConfig,
                   t: TaskSpec) -> list[VerdictRecord]:
    if len(ws.fs) != 1:
        raise ManifestError("bound-n needs exactly one element in f")
    report = bound_N_one_element(ws.fs[0], ws.j, delta=cfg.delta)
    return [bound_record(ws, report).with_context(None, None, cfg.seed)]


def _verify_records(ws: Workspace, cfg: ExperimentConfig,
                    t: TaskSpec) -> list[VerdictRecord]:
    checker = {
        "main": check_main_equality,
        "monotonicity": check_surjection_monotonicity,
        "control-colon": check_control_colon,
        "preservation": check_perturbed_filter_regular,
    }.get(t.claim or "main")
    if checker is None:
        raise ManifestError(f"unknown claim {t.claim!r}; known: "
                            + ", ".join(VERIFY_CLAIMS))
    if t.epsilon is not None:
        eps_list = [tuple(ws.ring.element(e) for e in t.epsilon)]
    elif t.n_single is None:
        raise ManifestError("verify needs either epsilon = ... or "
                            "a single N for sampling")
    else:
        eps_list = [sample_in_power(ws.ring, t.n_single, cfg.seed, len(ws.fs),
                                    spawn=(t.n_single, s))
                    for s in range(cfg.samples)]
    return [checker(ws, eps).with_context(t.n_single, s, cfg.seed)
            for s, eps in enumerate(eps_list)]


_DIRECT_COMMANDS = {
    "check-filter-regular": _filter_regular_records,
    "hilbert": _table_records,
    "ar-number": _ar_records,
    "koszul": _koszul_records,
    "bound-n": _bound_records,
    "verify": _verify_records,
}


def execute(m: Manifest) -> ExperimentReport:
    started = time.monotonic()
    t = m.task
    cfg = _resolve_config(m)
    if t.command not in _DIRECT_COMMANDS:
        return (run_experiment if t.command == "experiment"
                else find_min_N)(cfg)
    ws = build_workspace(cfg)
    records = tuple(_DIRECT_COMMANDS[t.command](ws, cfg, t))
    return ExperimentReport(t.command, cfg, ws.ring.D, records,
                            timing_s=time.monotonic() - started)


def run_manifest(source: str) -> ExperimentReport:
    """Execute a manifest given as text or a file path."""
    text = source
    if "\n" not in source and not source.lstrip().startswith("["):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    manifest = parse_manifest(text)
    return execute(manifest)


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


def emit_table(result: ExperimentReport) -> str:
    rows = result.rows()
    widths = {c: len(c) for c in CSV_COLUMNS}
    rendered = []
    for row in rows:
        r = {c: str(row.get(c, "")) for c in CSV_COLUMNS}
        rendered.append(r)
        for c in CSV_COLUMNS:
            widths[c] = max(widths[c], len(r[c]))
    lines = ["  ".join(c.ljust(widths[c]) for c in CSV_COLUMNS)]
    lines.append("  ".join("-" * widths[c] for c in CSV_COLUMNS))
    for r in rendered:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in CSV_COLUMNS))
    lines.append("")
    lines.append(f"command: {result.command}   resolved D: {result.resolved_D}")
    outcomes: dict[str, int] = {}
    for rec in result.records:
        outcomes[rec.outcome] = outcomes.get(rec.outcome, 0) + 1
    lines.append("outcomes: " + ", ".join(f"{k}={v}"
                                          for k, v in sorted(outcomes.items())))
    if result.n_star is not None:
        lines.append(f"empirical N* = {result.n_star}")
    if result.theoretical is not None:
        lines.append(f"theoretical N = {result.theoretical.n_bound.value}")
    lines.append(f"elapsed: {result.timing_s:.2f}s")
    return "\n".join(lines) + "\n"


def emit_report(result: ExperimentReport, format: str) -> str:
    """Render a run in the requested format; both formats carry the same
    numeric content (the table adds a human summary footer)."""
    if format == "csv":
        return emit_csv(result)
    if format == "table":
        return emit_table(result)
    raise ValueError(f"unknown format {format!r}")


def emit_plot_data(result: ExperimentReport) -> str:
    """(n, value) pairs per Hilbert-style table row, for external plotting."""
    lines = []
    for row in result.rows():
        claim = row.get("claim", "")
        if claim in ("hs-table", "gr-table", "main-equality", "monotonicity"):
            n = row.get("n", "")
            if n == "":
                continue
            value = row.get("value_orig", "")
            if value != "":
                lines.append(f"{claim}\t{n}\t{value}")
            pert = row.get("value_pert", "")
            if pert != "":
                lines.append(f"{claim}-pert\t{n}\t{pert}")
    return "\n".join(lines) + ("\n" if lines else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pertlab",
        description="Run a manifest: exact perturbation-stability "
                    "computations over truncated local rings.")
    parser.add_argument("manifest", help="path to a manifest file")
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    parser.add_argument("--out", help="write the report to this file")
    parser.add_argument("--emit-plot-data", action="store_true",
                        help="append (n, value) pairs per Hilbert table")
    args = parser.parse_args(argv)
    try:
        result = run_manifest(args.manifest)
    except PertlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_report(result, args.format)
    if args.emit_plot_data:
        text += "\n# plot data (claim, n, value)\n" + emit_plot_data(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return result.exit_code()


if __name__ == "__main__":
    sys.exit(main())

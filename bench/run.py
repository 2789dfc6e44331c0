#!/usr/bin/env python3
"""pertlab benchmark: times the library the way its command-line users run it.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-remark [--seed 42] [--seconds 20] [--trace 0|1]
    python3 bench/run.py --record      # rewrite bench/reference.json

One run measures one workload.  Every pass runs all of the workload's
manifests through ``pertlab.cli.run_manifest`` and ``emit_csv`` in a fresh
process (``bench/worker.py``), one pass at a time, so ``linalg._INV_CACHE``
and peak RSS never carry over.  The seed selects one of the ten recorded
manifest seeds (``workloads.manifest_seed``).

* ``--trace 0``: a block of five fresh set-up probes before every untraced
  pass and after the last, passes until ``--seconds`` have elapsed (at
  least two).  Reports the end-to-end metrics.
* ``--trace 1``: untraced and traced passes in turn until ``--seconds`` have
  elapsed (at least two of each).  Reports the per-layer metrics; the exact
  counters must equal the reference's in every traced pass, and
  ``trace.overhead_s`` is the median over the pairs of traced minus
  untraced pass time.

Every operation (one manifest execution) is checked against
``bench/reference.json`` at its manifest seed: its exit code and the sha256
of its CSV.  An operation that raises, exits with another code or gives
another digest counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_PROBES_PER_BLOCK = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
EXACT_SUFFIXES = (".calls", ".rows_in", ".rank_ratio", ".gflop",
                  ".distinct_ratio")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    """Environment of every pass: this checkout's ``src`` on the path and one
    BLAS thread per usable core."""
    nproc = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc)


def run_child(job: dict, env: dict) -> dict | None:
    """Run one job in a fresh worker process; None if the process failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr[-3000:], file=sys.stderr)
        return None
    out = json.loads(proc.stdout.splitlines()[-1])
    if Path(out["pertlab_file"]).resolve().parent.parent != (ROOT / "src").resolve():
        raise BenchError(f"pertlab was imported from {out['pertlab_file']}, "
                         f"not from {ROOT / 'src'}")
    return out


def check_pass(out: dict | None, manifests, reference: dict) -> list[str]:
    """Failure messages, one per failed operation of the pass."""
    if out is None:
        return [f"{name}: pass process failed" for name, _text in manifests]
    failures = []
    for (name, _text), op in zip(manifests, out["ops"]):
        ref = reference[name]
        if op["exit_code"] is None:
            failures.append(f"{name}: raised\n{op['error']}")
        elif op["exit_code"] != ref["exit_code"]:
            failures.append(f"{name}: exit code {op['exit_code']}, "
                            f"expected {ref['exit_code']}")
        elif op["sha256"] != ref["sha256"]:
            failures.append(f"{name}: CSV differs from reference")
    return failures


def layer_metrics(layers: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    spans, counts, distinct = layers["spans"], layers["counts"], layers["distinct"]
    out = {}
    for metric in names:
        base, kind = metric.rsplit(".", 1)
        if kind in ("calls", "self_s", "total_s"):
            out[metric] = spans.get(base, {}).get(kind, 0)
        elif metric == "linalg.rref.rows_in":
            out[metric] = counts.get("linalg.rref.rows_in", 0)
        elif metric == "linalg.rref.rank_ratio":
            rows_in = counts.get("linalg.rref.rows_in", 0)
            out[metric] = counts.get("linalg.rref.rank_out", 0) / rows_in if rows_in else 0.0
        elif metric == "linalg.reduce_rows.gflop":
            out[metric] = counts.get("linalg.reduce_rows.flop", 0) / 1e9
        elif kind == "distinct_ratio":
            unique, calls = distinct[base]
            out[metric] = unique / calls if calls else 0.0
        elif metric == "trace.unattributed_s":
            out[metric] = layers["unattributed_s"]
        elif metric != "trace.overhead_s":
            raise BenchError(f"no rule computes per-layer metric {metric}")
    return out


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[max(math.ceil(pct / 100 * n) - 1, 0)]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    mseed = workloads.manifest_seed(seed)
    manifests = workloads.build(workload, mseed)
    reference = json.loads(REFERENCE.read_text())["workloads"][workload][str(mseed)]
    env = child_env()
    failures: list[str] = []     # one entry per failed operation
    problems: list[str] = []     # other failed checks
    attempted = 0
    digests: dict | None = None

    def one_pass(traced: bool) -> dict | None:
        nonlocal attempted, digests
        out = run_child({"mode": "pass", "trace": traced,
                         "manifests": manifests}, env)
        attempted += len(manifests)
        failures.extend(check_pass(out, manifests, reference["ops"]))
        if out is not None:
            if digests is None:
                digests = {op["name"]: op.get("sha256") for op in out["ops"]}
                print("env " + json.dumps(out["env"], sort_keys=True))
            label = "traced" if traced else "untraced"
            print(f"pass {label}: wall {out['wall_s']:.3f} s, "
                  f"peak rss {out['peak_rss_mb']:.1f} MB", flush=True)
        return out

    metrics: dict[str, float] = {}
    started = time.monotonic()
    if not trace:
        probes: list[float] = []

        def setup_block() -> None:
            for _ in range(SETUP_PROBES_PER_BLOCK):
                probe = run_child({"mode": "setup", "manifests": manifests}, env)
                if probe is None:
                    raise BenchError("set-up probe failed; is src/pertlab importable?")
                probes.append(probe["setup_s"])

        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - started < seconds:
            setup_block()
            out = one_pass(False)
            if out is None:
                break
            passes.append(out)
        setup_block()
        if not passes:
            raise BenchError("no pass completed")
        print(f"setup_s median {statistics.median(probes):.4f} over {len(probes)} probes")
        walls = [p["wall_s"] for p in passes]
        tail = tail_percentile(walls)
        print(f"wall_s median {statistics.median(walls):.4f} over {len(walls)} passes; "
              + (f"p{tail[0]} {tail[1]:.4f}" if tail else
                 "no percentile has ten passes beyond it"))
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(probes),
                   "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    else:
        names = [m["name"] for m in spec["per_layer"]]
        untraced, traced = [], []
        while len(traced) < MIN_PASSES or time.monotonic() - started < seconds:
            base, out = one_pass(False), one_pass(True)
            if base is None or out is None:
                break
            untraced.append(base)
            traced.append(out)
        if len(traced) < MIN_PASSES:
            raise BenchError("a traced or untraced pass failed to complete")
        per_pass = [layer_metrics(p["layers"], names) for p in traced]
        exact = [n for n in names if n.endswith(EXACT_SUFFIXES)]
        for values in per_pass:
            for name in exact:
                if values[name] != reference["counters"][name]:
                    problems.append(f"counter {name} = {values[name]}, "
                                    f"reference {reference['counters'][name]}")
        metrics = {name: per_pass[0][name] if name in exact
                   else statistics.median(p[name] for p in per_pass)
                   for name in names if name != "trace.overhead_s"}
        # Each traced pass follows an untraced one; the median of the paired
        # differences cancels slow drift of the host's speed.
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        attributed = sum(v["self_s"] for v in traced[0]["layers"]["spans"].values())
        print(f"traced wall {traced[0]['wall_s']:.4f} s = span self time "
              f"{attributed:.4f} s + unattributed "
              f"{traced[0]['layers']['unattributed_s']:.4f} s")

    for name, digest in (digests or {}).items():
        print(f"digest {workload} seed={mseed} {name} {digest}")
    for failure in failures + problems:
        print("FAILED " + failure)
    print(f"fail_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted})")
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def record(spec: dict) -> None:
    """Write the reference exit codes, digests and counters at every
    recorded manifest seed."""
    env = child_env()
    names = [m["name"] for m in spec["per_layer"]]
    data = {"seeds": list(workloads.RECORDED_SEEDS),
            "workloads": {w: {} for w in workloads.WORKLOADS}}
    for mseed in workloads.RECORDED_SEEDS:
        for workload in workloads.WORKLOADS:
            manifests = workloads.build(workload, mseed)
            out = run_child({"mode": "pass", "trace": True,
                             "manifests": manifests}, env)
            if out is None:
                raise BenchError(f"{workload} at seed {mseed}: pass failed")
            if any(op["exit_code"] is None for op in out["ops"]):
                raise BenchError(f"{workload} at seed {mseed}: an operation raised")
            metrics = layer_metrics(out["layers"], names)
            data["workloads"][workload][str(mseed)] = {
                "ops": {op["name"]: {"exit_code": op["exit_code"],
                                     "sha256": op["sha256"]}
                        for op in out["ops"]},
                "counters": {n: metrics[n] for n in names
                             if n.endswith(EXACT_SUFFIXES)},
            }
            print(f"{workload} seed {mseed}: recorded {len(out['ops'])} operations",
                  flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json at every recorded seed")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "pertlab" / "__init__.py").is_file():
            raise BenchError(f"no pertlab sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.record:
            record(spec)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        result = measure(args.workload, args.seed, seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(result["metrics"]):
        print("benchmark error: measured metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": units[name]}
                         for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: a set-up probe or one workload pass.

Reads a job as JSON on stdin and prints one JSON object on stdout.  The
runner (``bench/run.py``) starts a fresh process for every job, so caches
and peak resident memory never carry over from one pass to the next.

Jobs:

* ``{"mode": "setup", "manifests": [[name, text], ...]}`` times
  ``import pertlab`` plus, for each manifest, ``parse_manifest`` and
  ``harness.resolve_ring``: what a command-line user pays before the first
  invariant.
* ``{"mode": "pass", "trace": false, "manifests": [...]}`` runs every
  manifest through ``cli.run_manifest`` and ``cli.emit_csv`` and reports the
  pass time, peak RSS, and each operation's exit code and CSV sha256.  With
  ``"trace": true`` the public functions of each module are wrapped first and
  the per-layer split is added.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy is linked against.

    The symbol is looked up through numpy's own extension module, whose
    dependency tree holds the BLAS library it loaded.
    """
    import ctypes

    import numpy as np
    core = np._core if hasattr(np, "_core") else np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            return int(getter())
    return None


def environment() -> dict:
    import os
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0))}


def run_setup(manifests) -> dict:
    started = time.perf_counter()
    import pertlab
    from pertlab import cli, harness
    imported = time.perf_counter()
    for _name, text in manifests:
        # The same ring resolution the command runs before its first invariant.
        config = cli._resolve_config(cli.parse_manifest(text))
        harness.resolve_ring(config.ring, config.j_exprs, config.n_max)
    done = time.perf_counter()
    return {"setup_s": done - started, "import_s": imported - started,
            "pertlab_file": pertlab.__file__}


def run_pass(manifests, trace: bool) -> dict:
    import pertlab
    from pertlab import cli
    tracer = None
    if trace:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()
    outputs = []
    started = time.perf_counter()
    for name, text in manifests:
        try:
            result = cli.run_manifest(text)
            outputs.append((name, result.exit_code(), cli.emit_csv(result)))
        except Exception:  # an operation that raises counts as failed
            outputs.append((name, None, traceback.format_exc(limit=3)))
    wall = time.perf_counter() - started
    ops = []
    for name, code, text in outputs:
        if code is None:
            ops.append({"name": name, "exit_code": None, "error": text})
        else:
            ops.append({"name": name, "exit_code": code,
                        "sha256": hashlib.sha256(text.encode()).hexdigest()})
    out = {"wall_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "ops": ops, "pertlab_file": pertlab.__file__}
    if tracer is not None:
        out["layers"] = tracer.summary(started, started + wall)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    if job["mode"] == "setup":
        out = run_setup(job["manifests"])
    else:
        out = run_pass(job["manifests"], job.get("trace", False))
    out["env"] = environment()
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

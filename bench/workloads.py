"""The benchmark's workloads, each a fixed list of named manifests.

Every manifest's ``seed`` key is set from the benchmark seed, so one seed
fixes every random draw of a pass.  The benchmark seed is folded into the
ten manifest seeds 42-51, for which ``bench/reference.json`` holds every
operation's exit code and CSV digest, so that every run is checked in full.
The default seed 42 reproduces the shipped ``remark-2-4.cfg``.  The files
under ``bench/manifests`` are copies of the shipped manifests, kept here so
that the inputs stay fixed even when the shipped examples change.
"""

from __future__ import annotations

import re
from pathlib import Path

DEFAULT_SEED = 42
RECORDED_SEEDS = tuple(range(DEFAULT_SEED, DEFAULT_SEED + 10))

# Why each workload is in the benchmark is stated in BENCHMARK.json.
WORKLOADS = ("sweep-remark", "scale-4var", "catalog-battery")

_MANIFEST_DIR = Path(__file__).resolve().parent / "manifests"
_SEED_LINE = re.compile(r"^seed\s*=.*$", re.MULTILINE)

CATALOG_IDS = ("regular-pair", "regular-line", "remark-2-4", "node-diagonal",
               "node-branch", "fat-line")
# Single-element entries whose element is filter-regular; bound-n rejects
# the others by design.
BOUND_N_IDS = ("regular-line", "node-diagonal")
SHIPPED_SMALL = ("bound-n", "filter-regular", "hilbert")

SCALE_RING = """[ring]
p = 5
vars = x, y, z, w
gens = x*y
D = 13

[ideals]
J = x, y, z, w
"""


def _shipped(name: str, seed: int) -> str:
    text = (_MANIFEST_DIR / f"{name}.cfg").read_text(encoding="utf-8")
    if not _SEED_LINE.search(text):
        raise ValueError(f"manifest {name} has no seed key")
    return _SEED_LINE.sub(f"seed = {seed}", text)


def _manifest(task: dict, ring: str = "") -> str:
    lines = ["[manifest]", "format-version = 1", ""]
    if ring:
        lines.append(ring)
    lines.append("[task]")
    lines += [f"{key} = {value}" for key, value in task.items()]
    return "\n".join(lines) + "\n"


def _catalog_battery(seed: int) -> list[tuple[str, str]]:
    common = {"n_max": 8, "delta": 2, "seed": seed}
    ops = []
    for cid in CATALOG_IDS:
        for command in ("check-filter-regular", "hilbert", "ar-number",
                        "koszul"):
            ops.append((f"{command}/{cid}", _manifest(
                {"command": command, "catalog": cid, **common})))
        if cid in BOUND_N_IDS:
            ops.append((f"bound-n/{cid}", _manifest(
                {"command": "bound-n", "catalog": cid, **common})))
        for claim in ("control-colon", "preservation"):
            ops.append((f"verify-{claim}/{cid}", _manifest(
                {"command": "verify", "catalog": cid, "claim": claim,
                 "N": 3, "samples": 4, **common})))
    ops += [(f"shipped/{name}", _shipped(name, seed)) for name in SHIPPED_SMALL]
    return ops


def manifest_seed(seed: int) -> int:
    """The recorded manifest seed that a benchmark seed selects."""
    return RECORDED_SEEDS[(seed - DEFAULT_SEED) % len(RECORDED_SEEDS)]


def build(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (operation name, manifest text) pairs of one workload pass."""
    if workload == "sweep-remark":
        return [("experiment/remark-2-4", _shipped("remark-2-4", seed))]
    if workload == "scale-4var":
        return [
            ("hilbert/scale-4var", _manifest(
                {"command": "hilbert", "f": "x + y, z, w", "J": "J",
                 "n_max": 6, "seed": seed}, SCALE_RING)),
            ("check-filter-regular/scale-4var", _manifest(
                {"command": "check-filter-regular", "f": "x + y",
                 "seed": seed}, SCALE_RING)),
        ]
    if workload == "catalog-battery":
        return _catalog_battery(seed)
    raise KeyError(f"unknown workload {workload!r}; known: "
                   + ", ".join(WORKLOADS))

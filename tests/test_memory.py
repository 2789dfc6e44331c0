"""Memory budget of the largest shipped-scale ring.

Stored bases and every elimination output are narrow (uint8 at p = 5), the
M x M product tables are dropped before each elimination, and ``rref``
writes its sorted rows to its output a chunk at a time; an int64 or full
float copy of any of them brought back by a later change shows here as a
peak over budget.
"""

from __future__ import annotations

import tracemalloc

import pytest

from pertlab import cli

# F_5[x,y,z,w]/(xy) at D = 13: M = 1,820, and 3,060 in the D + 2 rebuild of
# the filter-regularity check.
SCALE_RING = """[manifest]
format-version = 1

[ring]
p = 5
vars = x, y, z, w
gens = x*y
D = 13

[ideals]
J = x, y, z, w

[task]
"""

TASKS = {
    "hilbert": "command = hilbert\nf = x + y, z, w\nJ = J\nn_max = 6\n",
    "check-filter-regular": "command = check-filter-regular\nf = x + y\n",
}

# With int64 bases and product tables the two peaks were 430 and 485 MiB;
# narrow storage brought them to about 97 and 178 MiB, and narrow elimination
# outputs to about 61 MiB (hilbert) and 71 MiB (check-filter-regular).
# Kernels built in one elimination leave both peaks where they were (60.8
# and 71.0 MiB): neither peak lies in a nullspace.
BUDGET_MIB = 128


@pytest.mark.parametrize("command", sorted(TASKS))
def test_scale_ring_peak_memory_within_budget(command):
    tracemalloc.start()
    try:
        report = cli.run_manifest(SCALE_RING + TASKS[command])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows()
    assert peak < BUDGET_MIB * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MiB"

"""Memory budgets: the largest shipped-scale ring, and each entry point of
the elimination kernel on a block past several chunks.

Stored bases, the kernel's growing basis and every elimination output
keep their unit rows as a pivot mask and only their polynomial rows, narrow
(uint8 at p = 5); the M x M product tables are reduced where they stand and
dropped before each elimination, and the kernel widens at most ``_CHUNK``
rows of a block at a time, and only rows that a polynomial pivot or an
elimination needs.  An int64 or full float copy of any of them brought back
by a later change, a second copy of a block, or a float chunk where narrow
work suffices, shows here as a peak over budget.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pertlab import cli, linalg

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
# Kernels built in one elimination left both peaks there.  A narrow rref
# basis and work buffers of at most one chunk brought them to about 46 and
# 37 MiB, the hilbert peak then being the cached J = m power spans, each
# about M x M in uint8.  Subspaces stored with their unit rows as a pivot
# mask bring them to about 23 and 22 MiB: the peaks are now transient
# eliminations, of an ideal subspace's stacked generators (hilbert) and of
# the colon's nullspace in the D + 2 rebuild (check-filter-regular).
# Compact eliminations, whose rref and merge grow and return staircases and
# whose stacked inputs and product blocks exist once, bring them to about
# 16 and 15 MiB.  The budget is the larger plus about 30%.
BUDGET_MIB = 20


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


P, NROWS, NCOLS = 5, 2000, 3000
# One float32 work buffer of a chunk: 2.9 MiB.  A whole-block float copy is
# four narrow blocks (22.9 MiB) and an int64 copy eight, more than any
# budget below leaves spare.
CHUNK_BUFFER = linalg._CHUNK * NCOLS * 4


def staircase_block(rng):
    """A dense uint8 block of full rank whose rows lead at distinct columns,
    shuffled: every basis row is polynomial, and each chunk still takes one
    round of ``_echelon``."""
    lead = np.sort(rng.choice(NCOLS, NROWS, replace=False))
    block = rng.integers(0, P, (NROWS, NCOLS)).astype(np.uint8)
    block[np.arange(NCOLS)[None, :] < lead[:, None]] = 0
    block[np.arange(NROWS), lead] = 1
    block = block[rng.permutation(NROWS)]
    block.flags.writeable = False
    return block


def dense_block():
    """A seeded random uint8 block: its rows share their leading columns,
    so each chunk takes many rounds of ``_echelon``."""
    block = np.random.default_rng(43).integers(0, P, (NROWS, NCOLS),
                                               dtype=np.uint8)
    block.flags.writeable = False
    return block


@pytest.fixture(scope="module")
def blocks():
    rng = np.random.default_rng(31)
    block, other = staircase_block(rng), staircase_block(rng)
    return (block, linalg.rref(block, P), linalg.rref(other, P),
            linalg.rref(other[:linalg._CHUNK], P), dense_block())


ENTRY_POINTS = {
    "rref": lambda block, a, b, head, dense: linalg.rref(block, P)[0].rows,
    "rref-dense":
        lambda block, a, b, head, dense: linalg.rref(dense, P)[0].rows,
    "reduce_rows":
        lambda block, a, b, head, dense: linalg.reduce_rows(block, b[0], P),
    "merge": lambda block, a, b, head, dense:
        linalg.merge(head[0], block, P)[0].rows,
    "intersect_rowspaces": lambda block, a, b, head, dense:
        linalg.intersect_rowspaces(a[0], b[0], P)[0].rows,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_peak_is_narrow_arrays_and_a_few_chunks(entry, blocks):
    """The peak of each entry point on a 2,000 x 3,000 uint8 block, and of
    rref on a dense one of many ``_echelon`` rounds, stays below its narrow
    output, plus two narrow blocks (the basis under construction and, in
    merge, the reduced rows it eliminates; in intersect_rowspaces, the
    reduced rows), plus six chunk buffers."""
    block = blocks[0]
    tracemalloc.start()
    try:
        out = ENTRY_POINTS[entry](*blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.dtype == np.uint8 and out.shape[1] == NCOLS
    budget = out.nbytes + 2 * block.nbytes + 6 * CHUNK_BUFFER
    assert peak < budget, (f"peak {peak / 2 ** 20:.1f} MiB, budget "
                           f"{budget / 2 ** 20:.1f} MiB")


def unit_basis(rng):
    """An RREF basis of NROWS unit rows e_c, as ``Subspace`` stores it: a
    ``Staircase`` of pivots and unit mask alone."""
    pivots = np.sort(rng.choice(NCOLS, NROWS, replace=False))
    rows = np.zeros((NROWS, NCOLS), dtype=np.uint8)
    rows[np.arange(NROWS), pivots] = 1
    return linalg.rref(rows, P)[0]


NARROW_ONLY = {
    "reduce_rows-unit-basis":
        lambda block, canonical, units: linalg.reduce_rows(block, units, P),
    "rref-canonical-block":
        lambda block, canonical, units: linalg.rref(canonical, P)[0],
}


@pytest.mark.parametrize("case", sorted(NARROW_ONLY))
def test_narrow_first_allocates_no_float_chunk(case, blocks):
    """Unit rows are cleared, and chunks already in RREF enter the basis,
    in the narrow dtype: reduce_rows of the 2,000 x 3,000 block against an
    all-unit basis, and rref of the block's canonical form, each peak below
    their narrow output plus one chunk buffer, which a float32 chunk of the
    block alone fills."""
    block, (canonical, _), *_ = blocks
    canonical = canonical.rows
    units = unit_basis(np.random.default_rng(41))
    tracemalloc.start()
    try:
        out = NARROW_ONLY[case](block, canonical, units)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if isinstance(out, linalg.Staircase):
        out = out.rows
    assert out.dtype == np.uint8 and out.shape == (NROWS, NCOLS)
    budget = out.nbytes + CHUNK_BUFFER
    assert peak < budget, (f"peak {peak / 2 ** 20:.2f} MiB, budget "
                           f"{budget / 2 ** 20:.2f} MiB")

"""Random perturbations inside a power of J, for the monotonicity tests,
whose precondition asks for perturbations in J^(k+1)."""

from __future__ import annotations

import numpy as np


def sample_in_ideal_power(ws, power: int, seed: int, count: int) -> tuple:
    """Uniform random combinations of an echelon basis of J^power, drawn
    from the workspace ``ws``; deterministic per seed."""
    sub = ws.powers.subspace(power)
    rows = sub.rows  # materialized once: each read builds the dense form
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        coeffs = rng.integers(0, ws.ring.p, sub.rank)
        # Blocks of 256 rows: the narrow basis is widened to int64 one block
        # at a time, never whole.
        vec = sum((coeffs[s:s + 256] @ rows[s:s + 256]
                   for s in range(0, sub.rank, 256)),
                  np.zeros(ws.ring.M, dtype=np.int64)) % ws.ring.p
        out.append(ws.ring.element(vec))
    return tuple(out)

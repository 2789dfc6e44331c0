"""Exact Gaussian elimination over GF(p), vectorized with numpy.

Inputs are integer arrays; entries outside [0, p) are reduced first.  Outputs
are int64 arrays with entries in [0, p).  Reduced row echelon forms are
canonical for a fixed column order and read-only, so rowspace equality is
plain array equality.

Inside, residues live in a float work dtype so that every product runs
through BLAS with delayed reduction.  A product with inner dimension k sums k
terms of at most (p-1)^2, so it is exact in float32 when
(p-1) + k(p-1)^2 < 2^23 and in float64 when it is below 2^52; the bit to
spare keeps the reduction x - p*floor(x/p) exact too.  No inner dimension
exceeds the column count, so the work dtype follows from p and the column
count alone, and a pair past the float64 bound raises ValueError.  Primes
are limited to p <= MAX_PRIME = 65521 (``build_ring`` enforces it), which
keeps float64 exact below 10^6 columns; p <= 5 stays in float32 far past any
ring this package can build.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256
MAX_PRIME = 65521


def _work_dtype(p: int, k: int) -> np.dtype:
    """Narrowest float dtype in which k-term products of residues mod p,
    and their reduction, are exact."""
    worst = (p - 1) + k * (p - 1) ** 2
    if worst < 2 ** 23:
        return np.dtype(np.float32)
    if worst < 2 ** 52:
        return np.dtype(np.float64)
    raise ValueError(f"no exact float dtype for p = {p} with {k} columns")


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce integer-valued floats within the exactness bound mod p, in place."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _residues(a, p: int, dtype: np.dtype) -> np.ndarray:
    """``a`` mod p in ``dtype``; the reduction is skipped when a min/max
    check shows every entry already in [0, p)."""
    a = np.asarray(a)
    if a.dtype != dtype:
        a = np.asarray(a, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= p):
        a = np.asarray(a, dtype=np.int64) % p
    return a.astype(dtype, copy=False)


def work_copy(rows: np.ndarray, p: int) -> np.ndarray:
    """A copy of residue rows in the work dtype of their column count."""
    return rows.astype(_work_dtype(p, rows.shape[-1]))


def _inverse_table(p: int) -> np.ndarray:
    """a^(p-2) mod p for every residue a, by vectorized square-and-multiply."""
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} exceeds MAX_PRIME = {MAX_PRIME}")
    base = np.arange(p, dtype=np.int64)
    inv = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    inv[0] = 0
    return inv


_INV_CACHE: dict[int, np.ndarray] = {}


def inverses_mod(p: int) -> np.ndarray:
    table = _INV_CACHE.get(p)
    if table is None:
        table = _inverse_table(p)
        _INV_CACHE[p] = table
    return table


def _clear(rows: np.ndarray, cols: np.ndarray, basis: np.ndarray,
           p: int) -> np.ndarray:
    """Subtract from each row its entries at ``cols`` times the basis rows
    whose unit columns they are, in place; only rows with such an entry are
    touched."""
    coeffs = rows[:, cols]
    hit = coeffs.any(axis=1)
    if hit.all():
        rows -= coeffs @ basis
        _mod(rows, p)
    elif hit.any():
        rows[hit] = _mod(rows[hit] - coeffs[hit] @ basis, p)
    return rows


def _echelon(block: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF of nonzero residue rows in the work dtype; (rows, pivots) sorted
    by pivot.

    Works in rounds.  A round takes, for each distinct leading column, the
    first row leading there and scales it to a leading 1.  On their leading
    columns these rows form a unit upper triangular U; with N = I - U
    nilpotent, U^-1 = (I+N)(I+N^2)(I+N^4)..., so log2 k squarings reduce the
    k rows among themselves.  One product then clears their columns from
    every other row.  Rows with distinct leading columns, the common case for
    the sparse blocks of ideal subspaces, thus cost one round in all.
    """
    inv = inverses_mod(p)
    done = block[:0]
    done_piv = np.zeros(0, dtype=np.int64)
    rest = block
    while rest.shape[0]:
        lead = (rest != 0).argmax(axis=1)
        piv, first = np.unique(lead, return_index=True)
        sel = rest[first]
        scale = inv[sel[np.arange(piv.size), piv].astype(np.intp)]
        sel = _mod(sel * scale.astype(block.dtype)[:, None], p)
        nil = _mod(-sel[:, piv], p)
        np.fill_diagonal(nil, 0)
        while nil.any():
            sel = _mod(sel + nil @ sel, p)
            nil = _mod(nil @ nil, p)
        keep = np.ones(rest.shape[0], dtype=bool)
        keep[first] = False
        rest = _clear(rest[keep], piv, sel, p)
        rest = rest[rest.any(axis=1)]
        done = np.vstack([_clear(done, piv, sel, p), sel])
        done_piv = np.concatenate([done_piv, piv])
    order = np.argsort(done_piv, kind="stable")
    return done[order], done_piv[order]


def _canonical(rows: np.ndarray, pivots: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 copies of an RREF, the form every caller receives."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    rows.flags.writeable = False
    pivots.flags.writeable = False
    return rows, pivots


def reduce_rows(block: np.ndarray, rows: np.ndarray, pivots: np.ndarray,
                p: int, rows_work: np.ndarray | None = None) -> np.ndarray:
    """Normal form of each row of ``block`` against an RREF basis.

    One pass suffices because ``rows`` is fully reduced: subtracting
    coeffs @ rows clears every pivot column exactly.  The result is int64,
    except that a ``block`` already in the work dtype stays in it, which lets
    ``rref`` keep its chunks in float.  ``rows_work`` may carry a cached
    work-dtype copy of the basis (see ``work_copy``).
    """
    dtype = _work_dtype(p, rows.shape[-1])
    keep_work = np.asarray(block).dtype == dtype
    out = _residues(block, p, dtype)
    if rows.shape[0] and out.shape[0]:
        coeffs = out[:, pivots]
        if coeffs.any():
            if rows_work is None:
                rows_work = rows.astype(dtype, copy=False)
            prod = coeffs @ rows_work
            np.subtract(out, prod, out=prod)
            out = _mod(prod, p)
    return out if keep_work else out.astype(np.int64)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical reduced row echelon form.

    Returns (rows, pivots) with zero rows dropped and rows sorted by pivot
    column.  Processes input in chunks: each chunk is reduced against the
    accumulated basis with a single matmul before local elimination.  The
    basis stays in the work dtype until the end.
    """
    mat = np.atleast_2d(np.asarray(mat))
    nrows, ncols = mat.shape
    work = _residues(mat, p, _work_dtype(p, ncols))
    # Basis rows in order of discovery, with their pivots alongside; the
    # order does not matter to reduce_rows, so they are sorted once at the end.
    basis = np.empty((min(nrows, ncols), ncols), dtype=work.dtype)
    pivots = np.empty(basis.shape[0], dtype=np.int64)
    r = 0
    for start in range(0, nrows, _CHUNK):
        chunk = reduce_rows(work[start:start + _CHUNK], basis[:r], pivots[:r], p)
        chunk = chunk[np.any(chunk, axis=1)]
        if chunk.shape[0] == 0:
            continue
        new_rows, new_pivots = _echelon(chunk, p)
        _clear(basis[:r], new_pivots, new_rows, p)
        k = new_pivots.size
        basis[r:r + k] = new_rows
        pivots[r:r + k] = new_pivots
        r += k
    order = np.argsort(pivots[:r])
    return _canonical(basis[order], pivots[order])


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def merge(rows: np.ndarray, pivots: np.ndarray, extra: np.ndarray,
          p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF of rowspace(rows) + rowspace(extra), reusing the existing RREF."""
    if rows.shape[0] == 0:
        return rref(extra, p)
    if extra.shape[0] == 0:
        return rows, pivots
    rows_w = work_copy(rows, p)
    reduced = reduce_rows(_residues(extra, p, rows_w.dtype), rows_w, pivots, p)
    reduced = reduced[np.any(reduced, axis=1)]
    if reduced.shape[0] == 0:
        return rows, pivots
    new_rows, new_pivots = rref(reduced, p)
    merged = np.vstack([_clear(rows_w, new_pivots, work_copy(new_rows, p), p),
                        new_rows])
    merged_piv = np.concatenate([pivots, new_pivots])
    order = np.argsort(merged_piv, kind="stable")
    return _canonical(merged[order], merged_piv[order])


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows, in RREF) of {v : mat @ v = 0}."""
    mat = np.atleast_2d(np.asarray(mat))
    ncols = mat.shape[1]
    rows, pivots = rref(mat, p)
    free = np.setdiff1d(np.arange(ncols), pivots)
    if free.size == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    kernel = np.zeros((free.size, ncols), dtype=np.int64)
    kernel[np.arange(free.size), free] = 1
    if pivots.size:
        kernel[:, pivots] = (-rows[:, free].T) % p
    # Rows are already independent; canonicalize for downstream equality.
    return rref(kernel, p)[0]


def left_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {c : c @ mat = 0} as rows."""
    return nullspace(np.ascontiguousarray(np.asarray(mat).T), p)


def intersect_rowspaces(rows_a: np.ndarray, piv_a: np.ndarray,
                        rows_b: np.ndarray, piv_b: np.ndarray,
                        p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF basis of the intersection of two rowspaces.

    Works through the cokernel of the side with fewer non-pivot columns:
    v = c @ A lies in B iff c kills the reduction of A's rows modulo B.
    """
    ncols = rows_a.shape[1]
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        empty = np.zeros((0, ncols), dtype=np.int64)
        return empty, np.zeros(0, dtype=np.int64)
    # Prefer reducing against the side whose cokernel is smaller.
    if (ncols - piv_b.size) > (ncols - piv_a.size):
        rows_a, piv_a, rows_b, piv_b = rows_b, piv_b, rows_a, piv_a
    rows_a_w = work_copy(rows_a, p)
    residue = reduce_rows(rows_a_w, work_copy(rows_b, p), piv_b, p)
    nonpiv = np.setdiff1d(np.arange(ncols), piv_b)
    combos = left_nullspace(residue[:, nonpiv], p)
    if combos.shape[0] == 0:
        empty = np.zeros((0, ncols), dtype=np.int64)
        return empty, np.zeros(0, dtype=np.int64)
    return rref(_mod(combos.astype(rows_a_w.dtype) @ rows_a_w, p), p)

"""Exact Gaussian elimination over GF(p), vectorized with numpy.

Inputs are integer arrays; entries outside [0, p) are reduced first.  Outputs
are narrow residues: read-only arrays in the unsigned dtype of
``narrow_dtype(p)`` (uint8 for p <= 251, uint16 up to MAX_PRIME), an eighth
or a quarter of int64, with entries in [0, p).  Every entry point accepts
such arrays as they are (see ``narrow``); the one caller that does signed
arithmetic on an output, the ring's Element vectors, widens it first.
Reduced row echelon forms are canonical for a fixed column order, so
rowspace equality is plain array equality.

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

The bases of ideal subspaces are mostly monomials.  A *unit row* of a basis
is a row whose only nonzero entry is its pivot 1; subtracting multiples of
it from other rows just zeroes its pivot column, which is exact in any
dtype.  Every clearing step (``reduce_rows``, and through it ``merge`` and
``intersect_rowspaces``; ``rref``'s basis updates; each round of
``_echelon``, whose unit rows also stay out of the triangular inversion)
applies unit rows that way.  Only the polynomial rows whose pivot column
holds an entry enter a float product, with just the rows holding one, so
the exactness bound above concerns those products alone.  ``rref`` tracks
the unit mask of its growing basis; ``reduce_rows`` and ``merge`` accept a
cached one (see ``unit_rows``).

Work buffers are bounded: no float or int64 copy of more than ``_CHUNK``
rows of a block exists, except that a block handed in already in the work
dtype, as ``rref`` hands its chunks to ``reduce_rows``, is cleared whole.
A basis has one dense form, its canonical narrow RREF, and ``rref`` grows
its basis in that form too.  ``_clear`` converts to the work dtype only the
live polynomial basis rows it multiplies, ``_CHUNK`` of them at a time;
``reduce_rows`` widens, clears and narrows a block ``_CHUNK`` rows at a
time; and ``rref`` and ``merge`` widen just the polynomial basis rows that
new pivots touch, a chunk at a time.  Products split over chunks of their
inner dimension add up exactly, since together they have the inner
dimension of one product.

Kernels take one elimination.  ``nullspace`` eliminates the matrix with
its columns reversed; read forwards, that RREF gives the kernel rows
already in RREF (the argument is in its docstring).  ``_echelon`` returns a
block already in RREF after one check, so re-reducing such a kernel, as
``nullspace`` itself and ``colon_subspace`` still do until ROADMAP item 2
deletes both calls, costs no round.
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


def narrow_dtype(p: int) -> np.dtype:
    """Narrowest unsigned dtype holding every residue mod p."""
    return np.dtype(np.uint8 if p <= 256 else np.uint16)


def narrow(rows, p: int) -> np.ndarray:
    """Read-only residue rows in ``narrow_dtype(p)``; entries must already
    lie in [0, p).  Rows already in that form are returned as they are."""
    rows = np.asarray(rows)
    dtype = narrow_dtype(p)
    if rows.dtype == dtype and not rows.flags.writeable:
        return rows
    rows = np.array(rows, dtype=dtype)
    rows.flags.writeable = False
    return rows


def _residues(a, p: int, dtype: np.dtype) -> np.ndarray:
    """``a`` mod p in ``dtype``; the reduction is skipped when a min/max
    check shows every entry already in [0, p), so a narrow block in range
    goes to ``dtype`` without an int64 copy.  An unsigned block cannot be
    negative, so only its maximum is checked."""
    a = np.asarray(a)
    if a.size and ((a.dtype.kind != "u" and a.min() < 0) or a.max() >= p):
        a = np.asarray(a, dtype=np.int64) % p
    return a.astype(dtype, copy=False)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the residue rows whose only nonzero entry is a 1: the unit
    rows of an echelon basis.

    Entries lie in [0, p), so a row sums to 1 exactly when it is such a
    row; the sum is at most (p-1) times the column count, inside the
    exactness bound of the work dtype.
    """
    return rows.sum(axis=1) == 1


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
           unit: np.ndarray, p: int, copy: bool = False) -> np.ndarray:
    """Subtract from each row its entries at ``cols`` times the basis rows
    whose unit columns they are.  Returns the cleared rows: ``rows`` changed
    in place or, with ``copy``, a copy made only when some entry changes.

    Basis rows whose column is zero in every row act on nothing.  Of the
    others, those marked in ``unit`` are e_c and only zero their column c;
    the rest enter a product, for the rows with an entry at one of their
    columns, converted to the dtype of ``rows`` ``_CHUNK`` basis rows at a
    time.  The partial products together have the inner dimension of one
    product, so they add up exactly before the one reduction.  The
    polynomial basis rows vanish on every other column of ``cols``, so the
    two steps commute.
    """
    # Residues are >= 0, so a column maximum of 0 marks a zero column.
    live = rows.max(axis=0, initial=0)[cols] > 0
    if not live.any():
        return rows
    if copy:
        rows = rows.copy()
    poly = np.flatnonzero(live & ~unit)
    if poly.size:
        coeffs = rows[:, cols[poly]]
        hit = coeffs.any(axis=1)
        every = hit.all()
        acc = rows if every else rows[hit]
        if not every:
            coeffs = coeffs[hit]
        whole = poly.size == basis.shape[0]
        for start in range(0, poly.size, _CHUNK):
            stop = start + _CHUNK
            sub = basis[start:stop] if whole else basis[poly[start:stop]]
            acc -= coeffs[:, start:stop] @ sub.astype(rows.dtype, copy=False)
        _mod(acc, p)
        if not every:
            rows[hit] = acc
    zero = live & unit
    if zero.any():
        keep = np.ones(rows.shape[1], dtype=rows.dtype)
        keep[cols[zero]] = 0
        rows *= keep
    return rows


def _echelon(block: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF of nonzero residue rows in the work dtype; (rows, pivots) sorted
    by pivot.

    Works in rounds.  A round takes, for each distinct leading column, the
    first row leading there and scales it to a leading 1.  Its unit rows
    reduce the others by zeroing their columns.  On their leading columns
    the remaining k rows form a unit upper triangular U; with N = I - U
    nilpotent, U^-1 = (I+N)(I+N^2)(I+N^4)..., so log2 k squarings reduce the
    k rows among themselves.  One product then clears the round's columns
    from every other row.  Rows with distinct leading columns, the common
    case for the sparse blocks of ideal subspaces, thus cost one round in all.

    A block already in RREF (leading columns strictly increasing, each
    leading entry 1 and the only nonzero of its column) is returned as it
    is, after one check instead of a round: the kernel rows ``nullspace``
    builds, and the kernels ``colon_subspace`` re-reduces, are such blocks.
    """
    lead = (block != 0).argmax(axis=1)
    if (np.all(lead[1:] > lead[:-1])
            and np.all(block[np.arange(lead.size), lead] == 1)
            and np.all(block[:, lead].sum(axis=0) == 1)):
        return block, lead
    inv = inverses_mod(p)
    done = block[:0]
    done_piv = np.zeros(0, dtype=np.int64)
    rest = block
    while rest.shape[0]:
        piv, first = np.unique(lead, return_index=True)
        sel = rest[first]
        scale = inv[sel[np.arange(piv.size), piv].astype(np.intp)]
        sel = _mod(sel * scale.astype(block.dtype)[:, None], p)
        unit = unit_rows(sel)
        poly = np.flatnonzero(~unit)
        if poly.size:
            sub = sel[poly]
            sub[:, piv[unit]] = 0
            nil = _mod(-sub[:, piv[poly]], p)
            np.fill_diagonal(nil, 0)
            while nil.any():
                sub = _mod(sub + nil @ sub, p)
                nil = _mod(nil @ nil, p)
            sel[poly] = sub
        keep = np.ones(rest.shape[0], dtype=bool)
        keep[first] = False
        rest = _clear(rest[keep], piv, sel, unit, p)
        rest = rest[rest.any(axis=1)]
        lead = (rest != 0).argmax(axis=1)
        done = np.vstack([_clear(done, piv, sel, unit, p), sel])
        done_piv = np.concatenate([done_piv, piv])
    order = np.argsort(done_piv, kind="stable")
    return done[order], done_piv[order]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _empty(ncols: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The RREF of the zero space: no rows, no pivots."""
    return (_read_only(np.zeros((0, ncols), dtype=narrow_dtype(p))),
            _read_only(np.zeros(0, dtype=np.int64)))


def reduce_rows(block: np.ndarray, rows: np.ndarray, pivots: np.ndarray,
                p: int, unit: np.ndarray | None = None) -> np.ndarray:
    """Normal form of each row of ``block`` against an RREF basis.

    One pass suffices because ``rows`` is fully reduced: subtracting
    coeffs @ rows clears every pivot column exactly.  The result is narrow:
    ``block`` is converted to the work dtype, cleared and written to it
    ``_CHUNK`` rows at a time, so no wide copy of more rows exists.  A
    ``block`` already in the work dtype, one of ``rref``'s chunks, is
    cleared whole and stays in that dtype.  ``unit`` may carry the cached
    unit-row mask of the basis (see ``unit_rows``); of the basis itself,
    ``_clear`` converts to the work dtype only the polynomial rows it
    multiplies.  ``block`` itself is never written.
    """
    dtype = _work_dtype(p, rows.shape[-1])
    block = np.asarray(block)
    if rows.shape[0] and unit is None:
        unit = unit_rows(rows)

    def cleared(part: np.ndarray) -> np.ndarray:
        out = _residues(part, p, dtype)
        if rows.shape[0] and out.shape[0]:
            out = _clear(out, pivots, rows, unit, p,
                         copy=np.may_share_memory(out, part))
        return out

    if block.dtype == dtype:
        return cleared(block)
    out = np.empty(block.shape, dtype=narrow_dtype(p))
    for start in range(0, block.shape[0], _CHUNK):
        out[start:start + _CHUNK] = cleared(block[start:start + _CHUNK])
    return _read_only(out)


def _touched(rows: np.ndarray, poly: np.ndarray, new_rows: np.ndarray,
             new_pivots: np.ndarray, new_unit: np.ndarray, p: int):
    """Yield (indices, cleared rows) for the rows ``poly`` of a narrow basis
    that hold an entry at one of ``new_pivots``, cleared against the new
    rows in the work dtype ``_CHUNK`` rows at a time and yielded narrow, so
    that a part the caller still holds costs no wide buffer.  The other
    rows do not change."""
    dtype = _work_dtype(p, rows.shape[1])
    poly = poly[rows[np.ix_(poly, new_pivots)].any(axis=1)]
    for start in range(0, poly.size, _CHUNK):
        part = poly[start:start + _CHUNK]
        yield part, _clear(rows[part].astype(dtype), new_pivots, new_rows,
                           new_unit, p).astype(rows.dtype)


def _extend(basis: np.ndarray, pivots: np.ndarray, unit: np.ndarray, r: int,
            rows: np.ndarray, p: int) -> int:
    """Add the rowspace of ``rows`` to the RREF held, in order of discovery,
    in the first ``r`` rows of ``basis``, ``pivots`` and ``unit``; returns
    the new rank.  The chunk's work buffers die with the call."""
    chunk = reduce_rows(_residues(rows, p, _work_dtype(p, basis.shape[1])),
                        basis[:r], pivots[:r], p, unit=unit[:r])
    chunk = chunk[np.any(chunk, axis=1)]
    if chunk.shape[0] == 0:
        return r
    new_rows, new_pivots = _echelon(chunk, p)
    del chunk
    new_unit = unit_rows(new_rows)
    # A unit basis row vanishes on every new pivot column, so only the
    # polynomial rows can change, and only their masks are recounted.
    for part, cleared in _touched(basis, np.flatnonzero(~unit[:r]),
                                  new_rows, new_pivots, new_unit, p):
        basis[part] = cleared
        unit[part] = unit_rows(cleared)
    k = new_pivots.size
    basis[r:r + k] = new_rows
    pivots[r:r + k] = new_pivots
    unit[r:r + k] = new_unit
    return r + k


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical reduced row echelon form.

    Returns (rows, pivots) with zero rows dropped and rows sorted by pivot
    column.  Processes input in chunks: each chunk is converted to the work
    dtype and reduced against the accumulated basis in one ``reduce_rows``
    call before local elimination.  The basis is narrow; of it, only the
    polynomial rows that a chunk's pivots touch are widened, ``_CHUNK`` rows
    at a time, to be cleared.  So no wide copy of more than ``_CHUNK`` rows
    of the input or of the basis exists.
    """
    mat = np.atleast_2d(np.asarray(mat))
    nrows, ncols = mat.shape
    _work_dtype(p, ncols)  # raises past the exactness bound, rows or none
    # Basis rows in order of discovery, with their pivots and unit mask
    # alongside; the order does not matter to reduce_rows, so they are
    # sorted once at the end.
    basis = np.empty((min(nrows, ncols), ncols), dtype=narrow_dtype(p))
    pivots = np.empty(basis.shape[0], dtype=np.int64)
    unit = np.empty(basis.shape[0], dtype=bool)
    r = 0
    for start in range(0, nrows, _CHUNK):
        r = _extend(basis, pivots, unit, r, mat[start:start + _CHUNK], p)
    order = np.argsort(pivots[:r])
    return _read_only(basis[order]), _read_only(pivots[order])


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def merge(rows: np.ndarray, pivots: np.ndarray, extra: np.ndarray,
          p: int, unit: np.ndarray | None = None
          ) -> tuple[np.ndarray, np.ndarray]:
    """RREF of rowspace(rows) + rowspace(extra), reusing the existing RREF;
    ``unit`` may carry the cached unit-row mask of ``rows``.  When ``extra``
    adds nothing, ``rows`` and ``pivots`` come back as they are, narrowed.
    ``extra`` goes to ``reduce_rows`` as it is, which widens it a chunk at a
    time.  Old and new rows go straight to their sorted places in the
    output; the old polynomial rows that the new pivots touch pass through
    the work dtype ``_CHUNK`` rows at a time."""
    if rows.shape[0] == 0:
        return rref(extra, p)
    if extra.shape[0] == 0:
        return narrow(rows, p), pivots
    if unit is None:
        unit = unit_rows(rows)
    reduced = reduce_rows(extra, rows, pivots, p, unit=unit)
    reduced = reduced[np.any(reduced, axis=1)]
    if reduced.shape[0] == 0:
        return narrow(rows, p), pivots
    new_rows, new_pivots = rref(reduced, p)
    del reduced
    merged_piv = np.concatenate([pivots, new_pivots])
    order = np.argsort(merged_piv, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    out = np.empty((order.size, rows.shape[1]), dtype=narrow_dtype(p))
    out[place[:rows.shape[0]]] = rows
    out[place[rows.shape[0]:]] = new_rows
    # As in rref, only the polynomial rows of the old basis can change.
    for part, cleared in _touched(rows, np.flatnonzero(~unit), new_rows,
                                  new_pivots, unit_rows(new_rows), p):
        out[place[part]] = cleared
    return _read_only(out), _read_only(merged_piv[order])


def nonpivots(pivots: np.ndarray, ncols: int) -> np.ndarray:
    """The columns below ``ncols`` that are not in ``pivots``, ascending."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows, in RREF) of {v : mat @ v = 0}, from one elimination.

    The leading columns of the kernel's RREF are the complement of the
    columns where rows of rowspace(mat) can end.  So ``mat`` is eliminated
    with its columns reversed: read back in forward order, that RREF has
    rows r_i whose *last* nonzero is a 1 at t_i, and the columns T = {t_i}
    hold an identity.  For each column q outside T the row
    e_q - sum_i r_i[q] e_{t_i} is orthogonal to every r_i, and r_i[q] != 0
    only when t_i > q, so its leading entry is the 1 at q.  These rows,
    sorted by q, are the kernel's RREF as they stand.  The reversed
    elimination has the same shape, chunks and rank as ``rref(mat)``.
    """
    mat = np.atleast_2d(np.asarray(mat))
    ncols = mat.shape[1]
    rows, pivots = rref(mat[:, ::-1], p)
    rows, ends = rows[:, ::-1], ncols - 1 - pivots
    free = nonpivots(ends, ncols)
    if free.size == 0:
        return _empty(ncols, p)[0]
    kernel = np.zeros((free.size, ncols), dtype=narrow_dtype(p))
    kernel[np.arange(free.size), free] = 1
    if ends.size:
        # -x mod p, kept unsigned: p - x lies in [1, p] for a residue x.
        kernel[:, ends] = (p - rows[:, free].T) % p
    # Already canonical, so this elimination passes each chunk through.
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
    A's rows are reduced narrow, and the spanning rows combos @ A are formed
    ``_CHUNK`` output rows at a time, each from products over ``_CHUNK``
    rows of A.  A has at most ncols rows, so the partial products add up
    exactly in the work dtype before the one reduction of each chunk.
    """
    ncols = rows_a.shape[1]
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return _empty(ncols, p)
    # Prefer reducing against the side whose cokernel is smaller.
    if (ncols - piv_b.size) > (ncols - piv_a.size):
        rows_a, piv_a, rows_b, piv_b = rows_b, piv_b, rows_a, piv_a
    residue = reduce_rows(rows_a, rows_b, piv_b, p)
    combos = left_nullspace(residue[:, nonpivots(piv_b, ncols)], p)
    if combos.shape[0] == 0:
        return _empty(ncols, p)
    dtype = _work_dtype(p, ncols)
    span = np.empty((combos.shape[0], ncols), dtype=narrow_dtype(p))
    for start in range(0, combos.shape[0], _CHUNK):
        part = combos[start:start + _CHUNK]
        acc = np.zeros((part.shape[0], ncols), dtype=dtype)
        for inner in range(0, rows_a.shape[0], _CHUNK):
            stop = inner + _CHUNK
            acc += (part[:, inner:stop].astype(dtype)
                    @ rows_a[inner:stop].astype(dtype))
        span[start:start + _CHUNK] = _mod(acc, p)
    return rref(span, p)

"""Exact Gaussian elimination over GF(p), vectorized with numpy.

Inputs are integer arrays; entries outside [0, p) are reduced first.  Outputs
are narrow residues: read-only arrays in the unsigned dtype of
``narrow_dtype(p)`` (uint8 for p <= 251, uint16 up to MAX_PRIME), an eighth
or a quarter of int64, with entries in [0, p).  Every entry point accepts
such arrays as they are (see ``narrow``); the one caller that does signed
arithmetic on an output, the ring's Element vectors, widens it first.
Reduced row echelon forms are canonical for a fixed column order, so
rowspace equality is plain array equality.

Residues stay narrow by default and are widened to a float work dtype only
for a product, which then runs through BLAS with delayed reduction.  A
product with inner dimension k sums k terms of at most (p-1)^2, so it is
exact in float32 when (p-1) + k(p-1)^2 < 2^23 and in float64 when it is
below 2^52; the bit to spare keeps the reduction x - p*floor(x/p) exact
too.  No inner dimension exceeds the column count, so the work dtype
follows from p and the column count alone, and a pair past the float64
bound raises ValueError.  Primes are limited to p <= MAX_PRIME = 65521
(``build_ring`` enforces it), which keeps float64 exact below 10^6 columns;
p <= 5 stays in float32 far past any ring this package can build.

The bases of ideal subspaces are mostly monomials.  A *unit row* of a basis
is a row whose only nonzero entry is its pivot 1; subtracting multiples of
it from other rows just zeroes its pivot column, which is exact in any
dtype.  ``_reduce`` zeroes all the unit pivot columns of a narrow block
with one multiply by a 0/1 column mask, and widens only the rows that hold
an entry on a polynomial pivot, for a product with just the polynomial
basis rows whose columns they hold; so the exactness bound above concerns
those products alone.  ``rref`` tracks the unit mask of its growing basis,
computed once per chunk.  A unit row is known by its pivot, so a basis is
held whole by its pivots, its unit-row mask and its polynomial rows, which
is all ``_reduce`` reads: that compact form is a ``Staircase``.
``reduce_rows``, ``merge`` and ``intersect_rowspaces`` take a basis in
either form, a ``Staircase`` as it is, and compact a dense one
(``staircase``).

Work buffers are bounded: no float or int64 copy of more than ``_CHUNK``
rows of a block or of a basis exists.  Residues are widened in two places
only.  ``_reduce``, the one routine that clears rows against a basis,
widens the rows of a block that hit a polynomial pivot, and the live
polynomial basis rows it multiplies, ``_CHUNK`` at a time; the partial
products add up exactly, since together they have the inner dimension of
one product.  It serves ``reduce_rows``, ``rref``'s input chunks, the
basis rows that new pivots touch in ``rref`` and ``merge`` (cleared in
place, a chunk at a time), the spanning rows of ``intersect_rowspaces``
and the rounds of ``_echelon``.  ``_echelon`` takes and returns narrow
rows and widens only each round's pivot rows, at most a chunk, to scale
them and reduce them among themselves; a chunk already in RREF enters the
basis as it is.  Stored bases (``rings.Subspace``) are staircases, never
densified inside the kernel, except a compact A side of
``intersect_rowspaces``, which is a block to reduce too.  Elimination
outputs are dense canonical narrow RREFs, compacted once where a subspace
is built; ``rref`` grows its basis in that dense form, and hands
``_reduce`` its polynomial rows gathered once per chunk.

Kernels take one elimination.  ``nullspace`` eliminates the matrix with
its columns reversed; read forwards, that RREF gives the kernel rows
already in RREF (the argument is in its docstring).  ``_echelon`` returns a
block already in RREF after one check, and ``rref`` returns a basis found
in pivot order without sorting it, so re-reducing such a kernel, as
``nullspace`` itself and ``colon_subspace`` still do until ROADMAP item 2
deletes both calls, costs no round and no widening.
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
    """A fresh copy of ``a`` mod p in ``dtype``.  When a min/max check shows
    every entry already in [0, p), the block goes to ``dtype`` in one copy;
    otherwise it is reduced in int64 ``_CHUNK`` rows at a time, so no int64
    copy of more rows exists.  An unsigned block cannot be negative, so only
    its maximum is checked."""
    if not a.size or ((a.dtype.kind == "u" or a.min() >= 0) and a.max() < p):
        return a.astype(dtype)
    out = np.empty(a.shape, dtype=dtype)
    for start in range(0, a.shape[0], _CHUNK):
        out[start:start + _CHUNK] = np.asarray(
            a[start:start + _CHUNK], dtype=np.int64) % p
    return out


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the residue rows whose only nonzero entry is a 1: the unit
    rows of an echelon basis.

    Entries lie in [0, p), so a row sums to 1 exactly when it is such a
    row.  Narrow rows are summed in uint32, exact while the dtype's maximum
    times the column count stays below 2^32 (65,537 columns in uint16),
    instead of numpy's default uint64; work-dtype rows sum in their own
    dtype, inside its exactness bound.
    """
    acc = None
    if (rows.dtype.kind == "u"
            and rows.shape[-1] * np.iinfo(rows.dtype).max < 2 ** 32):
        acc = np.uint32
    return rows.sum(axis=1, dtype=acc) == 1


class Staircase:
    """An RREF basis in compact form: ``pivots`` ascending, the mask
    ``unit`` of its unit rows, and ``poly``, its other rows, full width in
    pivot order.  A unit row is its pivot alone, so the mask stores it.
    ``shape`` is that of the dense basis, and ``rows`` materializes the
    dense basis afresh on each read.  The kernel's basis parameters take
    this form as it is (see ``staircase``)."""

    __slots__ = ("pivots", "unit", "poly", "shape")

    def __init__(self, pivots: np.ndarray, unit: np.ndarray, poly: np.ndarray):
        self.pivots = pivots
        self.unit = unit
        self.poly = poly
        self.shape = (pivots.size, poly.shape[1])

    @property
    def rows(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.poly.dtype)
        at = self.unit.nonzero()[0]
        out[at, self.pivots[at]] = 1
        out[~self.unit] = self.poly
        return _read_only(out)


def staircase(rows, pivots: np.ndarray, unit: np.ndarray | None = None
              ) -> Staircase:
    """The basis given by its dense RREF ``rows`` and ``pivots`` as a
    ``Staircase``; ``unit`` may carry its unit-row mask.  A ``Staircase``
    comes back as it is.  The polynomial rows are gathered into a copy,
    unless every row is polynomial."""
    if isinstance(rows, Staircase):
        return rows
    if unit is None:
        unit = unit_rows(rows)
    return Staircase(pivots, unit, rows[~unit] if unit.any() else rows)


_INV_CACHE: dict[int, np.ndarray] = {}


def inverses_mod(p: int) -> np.ndarray:
    """a^(p-2) mod p for every residue a, by vectorized square-and-multiply,
    computed once per prime."""
    if p in _INV_CACHE:
        return _INV_CACHE[p]
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
    _INV_CACHE[p] = inv
    return inv


def _echelon(block: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF of nonzero narrow residue rows; (rows, pivots) sorted by pivot,
    the rows narrow.

    A block already in RREF is returned as it is after one check: its
    leading columns strictly increase and each holds the row's leading
    entry and nothing else.  Leading entries are >= 1 and residues >= 0, so
    a leading column sums to 1 exactly when it is such a column; the column
    sums are taken in uint32, exact below 65,537 rows.  ``rref``'s chunks
    that reduction left canonical, and the kernels ``nullspace`` builds,
    are such blocks.

    Any other block is eliminated in rounds.  A round takes, for each
    distinct leading column, the first row leading there, widens those
    pivot rows to the work dtype and scales those whose leading entry is
    not 1.  Its unit rows reduce the others by zeroing their columns.  On
    their leading columns the remaining k rows form a unit upper triangular
    U; with N = I - U nilpotent, U^-1 = (I+N)(I+N^2)(I+N^4)..., so log2 k
    squarings reduce the k rows among themselves.  The round's rows go back
    narrow, and ``_reduce`` clears their columns from every other row.
    When every row leads at a column of its own, the common case for the
    sparse blocks of ideal subspaces, the first round is the last: no row
    is left over to clear, and the round's rows, sorted by pivot, are the
    result.
    """
    lead = (block != 0).argmax(axis=1)
    if (np.all(lead[1:] > lead[:-1])
            and np.all(block.sum(axis=0, dtype=np.uint32)[lead] == 1)):
        return block, lead
    inv = inverses_mod(p)
    dtype = _work_dtype(p, block.shape[1])
    rest, done = block, None
    while True:
        order = np.argsort(lead, kind="stable")
        ordered = lead[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        piv = ordered[first]
        sel = rest[order[first]].astype(dtype)
        leading = sel[np.arange(piv.size), piv]
        scale = leading != 1
        if scale.any():
            factor = inv[leading[scale].astype(np.intp)].astype(dtype)
            sel[scale] = _mod(sel[scale] * factor[:, None], p)
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
        sel = sel.astype(narrow_dtype(p))
        if done is None and first.all():  # one round: sorted by pivot
            return sel, piv
        found = staircase(sel, piv, unit)
        if done is None:
            done, done_piv = sel, piv
        else:
            done = np.vstack([_reduce(done, found, p), sel])
            done_piv = np.concatenate([done_piv, piv])
        if first.all():
            break
        rest = _reduce(rest[order[~first]], found, p)
        rest = rest[rest.any(axis=1)]
        if not rest.shape[0]:
            break
        lead = (rest != 0).argmax(axis=1)
    order = np.argsort(done_piv, kind="stable")
    return done[order], done_piv[order]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _empty(ncols: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The RREF of the zero space: no rows, no pivots."""
    return (_read_only(np.zeros((0, ncols), dtype=narrow_dtype(p))),
            _read_only(np.zeros(0, dtype=np.int64)))


def _reduce(out: np.ndarray, basis: Staircase, p: int) -> np.ndarray:
    """Normal form, in place, of each row of the writable narrow residue
    array ``out`` against an RREF ``basis``; returns ``out``.

    Unit rows take no arithmetic: one in-place multiply by a 0/1 column
    mask zeroes all their pivot columns in the narrow dtype.  Only the rows
    holding an entry on a polynomial pivot are widened to the work dtype,
    at most ``_CHUNK`` at a time, and narrowed back after one product with
    the polynomial basis rows whose pivots they hold, widened ``_CHUNK``
    basis rows at a time.  The partial products together have the inner
    dimension of one product, so they add up exactly before the one
    reduction.  The polynomial basis rows vanish on the unit pivot columns,
    so the two steps commute.
    """
    dtype = _work_dtype(p, basis.shape[1])
    unit, poly = basis.unit, basis.poly
    if unit.any():
        keep = np.ones(out.shape[1], dtype=out.dtype)
        keep[basis.pivots[unit]] = 0
        out *= keep
    if not poly.shape[0]:
        return out
    poly_piv = basis.pivots[~unit]
    for start in range(0, out.shape[0], _CHUNK):
        part = out[start:start + _CHUNK]
        coeffs = part[:, poly_piv]
        hit = np.flatnonzero(coeffs.any(axis=1))
        if not hit.size:
            continue
        coeffs = coeffs[hit]
        live = np.flatnonzero(coeffs.any(axis=0))
        acc = part[hit].astype(dtype)
        for at in range(0, live.size, _CHUNK):
            take = live[at:at + _CHUNK]
            acc -= (coeffs[:, take].astype(dtype) @ poly[take].astype(dtype))
        part[hit] = _mod(acc, p)
    return out


def reduce_rows(block: np.ndarray, rows, pivots: np.ndarray,
                p: int) -> np.ndarray:
    """Normal form of each row of ``block`` against an RREF basis, narrow
    and read-only.

    The basis is ``rows`` with pivots ``pivots``: its dense rows, or the
    basis as a ``Staircase``, taken as it is.  One pass suffices because
    the basis is fully reduced: subtracting coeffs @ rows clears every
    pivot column exactly.  ``block`` is copied narrow, reduced mod p
    ``_CHUNK`` rows at a time where it leaves [0, p), and cleared in that
    copy (``_reduce``); it is never written.  Of the basis, only the
    polynomial rows a product uses are widened.
    """
    basis = staircase(rows, pivots)
    block = _residues(np.asarray(block), p, narrow_dtype(p))
    return _read_only(_reduce(block, basis, p))


def _touched(basis: Staircase, new_pivots: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``basis`` that hold an entry at one of
    ``new_pivots``.  New rows are reduced against the basis, so a unit row
    vanishes on every new pivot column: only polynomial rows can be
    touched."""
    poly = np.flatnonzero(~basis.unit)
    if not poly.size:
        return poly
    return poly[basis.poly[:, new_pivots].any(axis=1)]


def _reduce_at(out: np.ndarray, index: np.ndarray, basis: Staircase,
               p: int) -> np.ndarray:
    """Clear, in place, the rows ``index`` of the writable narrow array
    ``out`` against an RREF ``basis`` by ``_reduce``, gathering at most
    ``_CHUNK`` of them at a time; returns their new unit-row mask."""
    now_unit = np.empty(index.size, dtype=bool)
    for start in range(0, index.size, _CHUNK):
        at = index[start:start + _CHUNK]
        part = _reduce(out[at], basis, p)
        out[at] = part
        now_unit[start:start + _CHUNK] = unit_rows(part)
    return now_unit


def _extend(basis: np.ndarray, pivots: np.ndarray, unit: np.ndarray, r: int,
            rows: np.ndarray, p: int) -> int:
    """Add the rowspace of ``rows`` to the RREF held, in order of discovery,
    in the first ``r`` rows of ``basis``, ``pivots`` and ``unit``; returns
    the new rank.  The reduced chunk goes to ``_echelon`` narrow and comes
    back narrow, as it is when already in RREF; its unit-row mask is
    computed once, for clearing the touched basis rows and for the basis.
    The chunk's work buffers die with the call."""
    held = staircase(basis[:r], pivots[:r], unit[:r])
    chunk = reduce_rows(rows, held, pivots[:r], p)
    chunk = chunk[np.any(chunk, axis=1)]
    if chunk.shape[0] == 0:
        return r
    new_rows, new_pivots = _echelon(chunk, p)
    new_unit = unit_rows(new_rows)
    part = _touched(held, new_pivots)
    del held
    if part.size:
        unit[part] = _reduce_at(basis, part,
                                staircase(new_rows, new_pivots, new_unit), p)
    k = new_pivots.size
    basis[r:r + k] = new_rows
    pivots[r:r + k] = new_pivots
    unit[r:r + k] = new_unit
    return r + k


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical reduced row echelon form.

    Returns (rows, pivots) with zero rows dropped and rows sorted by pivot
    column.  Processes input in chunks: each chunk goes to ``reduce_rows``
    as it is, to be reduced against the accumulated basis, and ``_echelon``
    eliminates its surviving rows, widening only each round's pivot rows.
    The basis is narrow; the polynomial rows that a chunk's pivots touch are
    cleared in place through ``_reduce``.  So no wide copy of more than
    ``_CHUNK`` rows of the input or of the basis exists.
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
    if r == basis.shape[0] and np.all(pivots[1:] > pivots[:-1]):
        # Every row found, in pivot order, as for a canonical input: the
        # basis is the output as it stands.
        return _read_only(basis), _read_only(pivots)
    order = np.argsort(pivots[:r])
    return _read_only(basis[order]), _read_only(pivots[order])


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def merge(rows, pivots: np.ndarray, extra: np.ndarray,
          p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF of rowspace(rows) + rowspace(extra), reusing the existing RREF
    ``rows`` with pivots ``pivots``, dense or a ``Staircase`` (see
    ``reduce_rows``).  When ``extra`` adds nothing, ``rows`` and ``pivots``
    come back as they are, dense rows narrowed.  ``extra`` goes to
    ``reduce_rows`` as it is.  Old and new rows go straight to their sorted
    places in the dense output, the old unit rows set from their pivots;
    the old polynomial rows that the new pivots touch are cleared through
    ``_reduce``."""
    if rows.shape[0] == 0:
        return rref(extra, p)
    if extra.shape[0] == 0:
        return _unchanged(rows, pivots, p)
    basis = staircase(rows, pivots)
    reduced = reduce_rows(extra, basis, pivots, p)
    reduced = reduced[np.any(reduced, axis=1)]
    if reduced.shape[0] == 0:
        return _unchanged(rows, pivots, p)
    new_rows, new_pivots = rref(reduced, p)
    del reduced
    merged_piv = np.concatenate([pivots, new_pivots])
    order = np.argsort(merged_piv, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    out = np.zeros((order.size, basis.shape[1]), dtype=narrow_dtype(p))
    old = place[:pivots.size]
    out[old[basis.unit], pivots[basis.unit]] = 1
    out[old[~basis.unit]] = basis.poly
    out[place[pivots.size:]] = new_rows
    touched = _touched(basis, new_pivots)
    if touched.size:
        _reduce_at(out, old[touched], staircase(new_rows, new_pivots), p)
    return _read_only(out), _read_only(merged_piv[order])


def _unchanged(rows, pivots: np.ndarray, p: int):
    if isinstance(rows, Staircase):
        return rows, pivots
    return narrow(rows, p), pivots


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


def intersect_rowspaces(rows_a, piv_a: np.ndarray, rows_b, piv_b: np.ndarray,
                        p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF basis of the intersection of two rowspaces, each given by its
    RREF rows and pivots, dense or a ``Staircase`` (see ``reduce_rows``).

    Works through the cokernel of the side with fewer non-pivot columns:
    v = c @ A lies in B iff c kills the reduction of A's rows modulo B.
    The spanning rows combos @ A need no product: A is in RREF, so they
    equal combos on A's pivot columns, and off them they are the normal
    form against A of the rows holding -combos on those columns, since
    that reduction adds back exactly combos @ A.  So the span is one
    ``_reduce`` call and one assignment to the pivot columns.
    """
    ncols = rows_a.shape[1]
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return _empty(ncols, p)
    # Prefer reducing against the side whose cokernel is smaller.
    if (ncols - piv_b.size) > (ncols - piv_a.size):
        rows_a, piv_a, rows_b, piv_b = rows_b, piv_b, rows_a, piv_a
    # A is the block reduced here, so a compact A is materialized for it.
    residue = reduce_rows(rows_a.rows if isinstance(rows_a, Staircase)
                          else rows_a, rows_b, piv_b, p)
    combos = left_nullspace(residue[:, nonpivots(piv_b, ncols)], p)
    if combos.shape[0] == 0:
        return _empty(ncols, p)
    span = np.zeros((combos.shape[0], ncols), dtype=narrow_dtype(p))
    # -x mod p, kept unsigned: p - x lies in [1, p] for a residue x.
    span[:, piv_a] = (p - combos) % p
    span = _reduce(span, staircase(rows_a, piv_a), p)
    span[:, piv_a] = combos
    return rref(span, p)

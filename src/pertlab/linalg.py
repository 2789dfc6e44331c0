"""Exact Gaussian elimination over GF(p), vectorized with numpy.

Inputs are integer arrays; entries outside [0, p) are reduced first.  Outputs
are narrow residues: read-only arrays in the unsigned dtype of
``narrow_dtype(p)`` (uint8 for p <= 251, uint16 up to MAX_PRIME), an eighth
or a quarter of int64, with entries in [0, p).  Every entry point accepts
such arrays as they are; the one caller that does signed arithmetic on an
output, the ring's Element vectors, widens it first.
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
those products alone.  A unit row is known by its pivot, so a basis is
held whole by its pivots, its unit-row mask and its polynomial rows, which
is all ``_reduce`` reads: that compact form is a ``Staircase``, the one
form of a basis.  ``rref``, ``merge``, ``intersect_rowspaces`` and
``_echelon`` return it, and ``reduce_rows``, ``merge`` and
``intersect_rowspaces`` take it as it is; no dense basis is compacted.

Work buffers are bounded: no float or int64 copy of more than ``_CHUNK``
rows of a block or of a basis exists.  Residues are widened in two places
only.  ``_reduce``, the one routine that clears rows against a basis,
widens the rows of a block that hit a polynomial pivot, and the live
polynomial basis rows it multiplies, ``_CHUNK`` at a time; the partial
products add up exactly, since together they have the inner dimension of
one product.  It serves ``reduce_rows``, ``rref``'s input chunks, the
basis rows that new pivots touch in ``rref`` and ``merge`` (cleared in
place, a chunk at a time), the spanning rows of ``intersect_rowspaces``
and the rounds of ``_echelon``.  ``_echelon`` takes narrow rows and
widens only each round's polynomial pivot rows, at most a chunk, to scale
them and reduce them among themselves; a chunk already in RREF enters the
basis as it is.

Elimination outputs are compact.  ``rref`` grows its basis as a
staircase: pivots and unit mask, and only the polynomial rows, in a narrow
buffer grown in place; a polynomial row that later pivots clear down to
its pivot moves to the mask.  One routine (``_Growing.absorb``) joins new
rows to a basis: a chunk's to ``rref``'s, a round's to its chunk's in
``_echelon``, and ``merge``'s reduced new rows to its basis.  Stored bases
(``rings.Subspace``) adopt these fields as they are.
What is still dense is a block that is an input itself, built for one
operation: a stacked elimination input, a product block, a basis
materialized (``Staircase.rows`` or ``dense``) to be multiplied or
reduced, and a kernel that ``nullspace`` returns.  A block built only to
be reduced goes to ``reduce_rows`` with ``in_place``, which clears it
where it stands; a caller's array passed without it is never written.

Kernels take one elimination.  ``nullspace`` eliminates the matrix with
its columns reversed; read forwards, that RREF gives the kernel rows
already in RREF (the argument is in its docstring).  ``_echelon`` passes a
block already in RREF after one check, sharing its rows, and ``rref``
returns a basis found in pivot order without sorting it, so re-reducing
such a kernel, as ``nullspace`` itself and ``colon_subspace`` still do
until ROADMAP item 2 deletes both calls, costs no round and no widening.
Of the reversed RREF only the polynomial rows are read: a unit row is
zero on every free column.
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


def _residues(a, p: int, dtype: np.dtype) -> np.ndarray:
    """A fresh copy of ``a`` mod p in ``dtype``.  When a min/max check shows
    every entry already in [0, p), the block goes to ``dtype`` in one copy;
    otherwise it is reduced in int64 ``_CHUNK`` rows at a time, so no int64
    copy of more rows exists.  An unsigned block cannot be negative, so only
    its maximum is checked."""
    if not a.size or ((a.dtype.kind == "u" or a.min() >= 0) and a.max() < p):
        return a.astype(dtype, order="C")
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
    top = (1 << 8 * rows.dtype.itemsize) - 1  # an unsigned dtype's maximum
    if rows.dtype.kind == "u" and rows.shape[-1] * top < 2 ** 32:
        acc = np.uint32
    return rows.sum(axis=1, dtype=acc) == 1


class Staircase:
    """An RREF basis in compact form: ``pivots`` ascending, the mask
    ``unit`` of its unit rows, and ``poly``, its other rows, full width in
    pivot order.  A unit row is its pivot alone, so the mask stores it.
    ``shape`` is that of the dense basis; ``dense`` writes the dense basis
    out, and ``rows`` materializes it read-only, afresh on each read.
    Every elimination returns this form, and every basis parameter of the
    kernel takes it."""

    __slots__ = ("pivots", "unit", "poly", "shape")

    def __init__(self, pivots: np.ndarray, unit: np.ndarray, poly: np.ndarray):
        self.pivots = pivots
        self.unit = unit
        self.poly = poly
        self.shape = (pivots.size, poly.shape[1])

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The dense RREF, written into ``out`` (zeros of this shape) or
        into a fresh writable array."""
        if out is None:
            out = np.zeros(self.shape, dtype=self.poly.dtype)
        at = self.unit.nonzero()[0]
        out[at, self.pivots[at]] = 1
        out[~self.unit] = self.poly
        return out

    @property
    def rows(self) -> np.ndarray:
        return _read_only(self.dense())

    def prefix(self, cut: int) -> "Staircase":
        """The rows with pivot below ``cut``, on the first ``cut`` columns,
        as views: a basis to reduce by.  A polynomial row may lose its tail
        there and become a unit row; clearing by it as a polynomial row is
        still exact."""
        keep = int(np.searchsorted(self.pivots, cut))
        unit = self.unit[:keep]
        return Staircase(self.pivots[:keep], unit,
                         self.poly[:np.count_nonzero(~unit), :cut])


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


def _echelon(block: np.ndarray, p: int) -> Staircase:
    """RREF of nonzero narrow residue rows, as a ``Staircase`` with narrow
    polynomial rows.

    A block already in RREF passes after one check, its rows shared (with
    no unit rows, the block is the polynomial rows): its leading columns
    strictly increase and each holds the row's leading entry and nothing
    else.  Leading entries are >= 1 and residues >= 0, so a leading column
    sums to 1 exactly when it is such a column; the column sums are taken
    in uint32, exact below 65,537 rows.  ``rref``'s chunks that reduction
    left canonical, and the kernels ``nullspace`` builds, are such blocks.

    Any other block is eliminated in rounds.  A round takes, for each
    distinct leading column, the first row leading there.  Those with one
    nonzero entry become unit rows in the narrow dtype; only the other k
    are widened, scaled and cleared on the unit rows' columns.  On their
    leading columns they form a unit upper triangular U; with N = I - U
    nilpotent, U^-1 = (I+N)(I+N^2)(I+N^4)..., so log2 k squarings reduce
    them among themselves.  The round's rows, narrow again, join the
    block's basis (``_Growing.absorb``), and ``_reduce`` clears their
    columns from the rows left over.  When every row leads at a column of
    its own, the common case for the sparse blocks of ideal subspaces, the
    first round is the last.
    """
    lead = (block != 0).argmax(axis=1)
    if (np.all(lead[1:] > lead[:-1])
            and np.all(block.sum(axis=0, dtype=np.uint32)[lead] == 1)):
        unit = unit_rows(block)
        return Staircase(lead, unit, block[~unit] if unit.any() else block)
    inv = inverses_mod(p)
    dtype = _work_dtype(p, block.shape[1])
    found = _Growing(block.shape[0], block.shape[1], p)
    rest = block
    while rest.shape[0]:
        order = np.argsort(lead, kind="stable")
        ordered = lead[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        piv = ordered[first]
        sel = rest[order[first]]
        single = np.count_nonzero(sel, axis=1) == 1
        sel[single, piv[single]] = 1
        poly = np.flatnonzero(~single)
        if poly.size:
            sub = sel[poly].astype(dtype)
            leading = sub[np.arange(poly.size), piv[poly]]
            scale = leading != 1
            if scale.any():
                factor = inv[leading[scale].astype(np.intp)].astype(dtype)
                sub[scale] = _mod(sub[scale] * factor[:, None], p)
            sub[:, piv[single]] = 0
            nil = _mod(-sub[:, piv[poly]], p)
            np.fill_diagonal(nil, 0)
            while nil.any():
                sub = _mod(sub + nil @ sub, p)
                nil = _mod(nil @ nil, p)
            sel[poly] = sub
        # Taken after the solve, which can leave a row its pivot alone: a
        # stale mask would make equal subspaces compare unequal.
        unit = unit_rows(sel)
        new = Staircase(piv, unit, sel[~unit])
        found.absorb(new, p)
        if first.all():
            break
        rest = _reduce(rest[order[~first]], new, p)
        rest = rest[rest.any(axis=1)]
        lead = (rest != 0).argmax(axis=1)
    return found.result()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def unit_basis(pivots: np.ndarray, ncols: int, p: int) -> Staircase:
    """The RREF whose rows are the unit rows at ``pivots`` (ascending, and
    made read-only): with no pivots the zero space, with every column the
    whole space."""
    return Staircase(_read_only(pivots),
                     _read_only(np.ones(pivots.size, dtype=bool)),
                     _read_only(np.zeros((0, ncols), dtype=narrow_dtype(p))))


def _empty(ncols: int, p: int) -> tuple[Staircase, np.ndarray]:
    """The RREF of the zero space and its pivots."""
    basis = unit_basis(np.zeros(0, dtype=np.int64), ncols, p)
    return basis, basis.pivots


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays, with numpy's broadcasting, exact in
    the work dtype of the inner dimension; the result is narrow."""
    dtype = _work_dtype(p, a.shape[-1])
    return _mod(a.astype(dtype) @ b.astype(dtype), p).astype(narrow_dtype(p))


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


def reduce_rows(block: np.ndarray, basis: Staircase, p: int, *,
                in_place: bool = False) -> np.ndarray:
    """Normal form of each row of ``block`` against the RREF ``basis``,
    narrow and read-only.

    One pass suffices because the basis is fully reduced: subtracting
    coeffs @ rows clears every pivot column exactly.  ``block`` is copied
    narrow, reduced mod p ``_CHUNK`` rows at a time where it leaves [0, p),
    and cleared in that copy (``_reduce``); it is never written.  With
    ``in_place``, ``block`` must be a writable narrow residue array, built
    only to be reduced: it is cleared where it stands and comes back
    read-only.  Of the basis, only the polynomial rows a product uses are
    widened.
    """
    if not in_place:
        block = _residues(np.asarray(block), p, narrow_dtype(p))
    elif block.dtype != narrow_dtype(p) or not block.flags.writeable:
        raise ValueError("an in-place reduction needs a writable block "
                         "in narrow_dtype(p)")
    return _read_only(_reduce(block, basis, p))


class _Growing:
    """An RREF basis under construction, compact: ``pivots`` and the
    unit-row mask ``unit`` in order of discovery, in the first ``r``
    entries of buffers of the largest possible rank, and the polynomial
    rows in that order, the first ``npoly`` rows of ``poly``.

    ``poly`` grows in place by the rows each chunk or round adds
    (``ndarray.resize``, a realloc), so no second copy of it exists while
    it grows, and no spare capacity is touched (a doubling buffer,
    zero-filled as it grows, raises peak RSS).  Resizing is safe because
    each view of ``poly`` dies within the call that made it.
    """

    def __init__(self, size: int, ncols: int, p: int):
        self.pivots = np.empty(size, dtype=np.int64)
        self.unit = np.empty(size, dtype=bool)
        self.poly = np.empty((0, ncols), dtype=narrow_dtype(p))
        self.r = self.npoly = 0

    def extend(self, rows: np.ndarray, p: int) -> None:
        """Add the rowspace of ``rows``: the chunk goes to ``reduce_rows``
        as it is, ``_echelon`` gives the staircase of its surviving rows,
        and ``absorb`` joins it.  The chunk's work buffers die with the
        call."""
        # The basis so far, as views, in order of discovery; the order does
        # not matter to ``_reduce``.
        held = Staircase(self.pivots[:self.r], self.unit[:self.r],
                         self.poly[:self.npoly])
        chunk = reduce_rows(rows, held, p)
        del held
        chunk = chunk[np.any(chunk, axis=1)]
        if chunk.shape[0]:
            self.absorb(_echelon(chunk, p), p)

    def absorb(self, new: Staircase, p: int) -> None:
        """Add the RREF basis ``new``, whose rows vanish on every pivot
        held.  So a unit row held vanishes on every new pivot column, and
        only the polynomial rows that the new pivots touch need clearing:
        ``_reduce`` clears the run from the first to the last in place (a
        row between them that the new pivots miss stays as it is), and
        those left with their pivot alone move to the mask."""
        r, npoly = self.r, self.npoly
        touched = np.flatnonzero(
            self.poly[:npoly][:, new.pivots].any(axis=1))
        if touched.size:
            run = _reduce(self.poly[touched[0]:touched[-1] + 1], new, p)
            gone = touched[unit_rows(run)[touched - touched[0]]]
            if gone.size:
                self.unit[np.flatnonzero(~self.unit[:r])[gone]] = True
                keep = np.ones(npoly, dtype=bool)
                keep[gone] = False
                self.poly[:npoly - gone.size] = self.poly[:npoly][keep]
                npoly -= gone.size
        k, extra = new.pivots.size, new.poly.shape[0]
        self.pivots[r:r + k] = new.pivots
        self.unit[r:r + k] = new.unit
        if extra:
            if npoly + extra > self.poly.shape[0]:
                self.poly.resize((npoly + extra, self.poly.shape[1]),
                                 refcheck=False)
            self.poly[npoly:npoly + extra] = new.poly
        self.r, self.npoly = r + k, npoly + extra

    def result(self) -> Staircase:
        """The basis sorted by pivot, its arrays read-only and tight: rows
        that moved to the mask leave spare rows at the end of ``poly``."""
        pivots, unit = self.pivots[:self.r], self.unit[:self.r]
        poly = self.poly
        if np.all(pivots[1:] > pivots[:-1]):
            # Found in pivot order, as for a canonical input.
            if poly.shape[0] > self.npoly:
                poly.resize((self.npoly, poly.shape[1]), refcheck=False)
        else:
            poly = poly[np.argsort(pivots[~unit])]
            order = np.argsort(pivots)
            pivots, unit = pivots[order], unit[order]
        return Staircase(_read_only(pivots), _read_only(unit),
                         _read_only(poly))


def rref(mat: np.ndarray, p: int) -> tuple[Staircase, np.ndarray]:
    """Canonical reduced row echelon form, as a ``Staircase`` and its
    pivots: zero rows dropped, rows sorted by pivot column.

    Processes input in chunks of ``_CHUNK`` rows, each reduced against the
    basis found so far and eliminated by ``_echelon``, widening only each
    round's pivot rows.  The basis grows compact (``_Growing``): its unit
    rows are pivots in a mask, and only its polynomial rows are stored, in
    the narrow dtype.  So no wide copy of more than ``_CHUNK`` rows of the
    input or of the basis exists, and no dense copy of the basis at all.
    """
    mat = np.atleast_2d(np.asarray(mat))
    nrows, ncols = mat.shape
    _work_dtype(p, ncols)  # raises past the exactness bound, rows or none
    basis = _Growing(min(nrows, ncols), ncols, p)
    for start in range(0, nrows, _CHUNK):
        basis.extend(mat[start:start + _CHUNK], p)
    out = basis.result()
    return out, out.pivots


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def merge(basis: Staircase, extra: np.ndarray,
          p: int) -> tuple[Staircase, np.ndarray]:
    """RREF of rowspace(basis) + rowspace(extra), as a ``Staircase`` and its
    pivots, reusing the RREF ``basis``; when ``extra`` adds nothing,
    ``basis`` itself comes back.  ``extra`` goes to ``reduce_rows`` as it
    is, and the RREF of what survives joins the basis the way ``rref``
    joins a chunk's (``_Growing.absorb``)."""
    if basis.shape[0] == 0:
        return rref(extra, p)
    if extra.shape[0] == 0:
        return basis, basis.pivots
    reduced = reduce_rows(extra, basis, p)
    reduced = reduced[np.any(reduced, axis=1)]
    if reduced.shape[0] == 0:
        return basis, basis.pivots
    new = rref(reduced, p)[0]
    del reduced
    grown = _Growing(basis.shape[0] + new.shape[0], basis.shape[1], p)
    grown.absorb(basis, p)
    grown.absorb(new, p)
    del new
    out = grown.result()
    return out, out.pivots


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
    rev, pivots = rref(mat[:, ::-1], p)
    ends = ncols - 1 - pivots
    free = nonpivots(ends, ncols)
    if free.size == 0:
        return _empty(ncols, p)[0].rows
    kernel = unit_basis(free, ncols, p).dense()
    # A unit r_i is zero off t_i, so on every q outside T: only the
    # polynomial rows enter, read at the reversed free columns.
    # -x mod p, kept unsigned: p - x lies in [1, p] for a residue x.
    kernel[:, ends[~rev.unit]] = (p - rev.poly[:, ncols - 1 - free].T) % p
    del rev
    # Already canonical, so this elimination passes each chunk through.
    basis = rref(kernel, p)[0]
    del kernel
    return basis.rows


def left_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {c : c @ mat = 0} as rows.  ``nullspace`` takes the
    transpose as a view: each chunk it eliminates is copied anyway."""
    return nullspace(np.asarray(mat).T, p)


def intersect_rowspaces(a: Staircase, b: Staircase,
                        p: int) -> tuple[Staircase, np.ndarray]:
    """RREF basis of the intersection of the rowspaces of the RREF bases
    ``a`` and ``b``, as a ``Staircase`` and its pivots.

    Works through the cokernel of the side with fewer non-pivot columns:
    v = c @ A lies in B iff c kills the reduction of A's rows modulo B.
    The spanning rows combos @ A need no product: A is in RREF, so they
    equal combos on A's pivot columns, and off them they are the normal
    form against A of the rows holding -combos on those columns, since
    that reduction adds back exactly combos @ A.  So the span is one
    ``_reduce`` call and one assignment to the pivot columns.
    """
    ncols = a.shape[1]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return _empty(ncols, p)
    # Prefer reducing against the side whose cokernel is smaller.
    if b.shape[0] < a.shape[0]:
        a, b = b, a
    # A is the block reduced here: it is materialized and cleared where it
    # stands.  Only the residue's columns off B's pivots stay alive for the
    # nullspace's elimination.
    residue = reduce_rows(a.dense(), b, p, in_place=True)
    residue = residue[:, nonpivots(b.pivots, ncols)]
    combos = left_nullspace(residue, p)
    del residue
    if combos.shape[0] == 0:
        return _empty(ncols, p)
    span = np.zeros((combos.shape[0], ncols), dtype=narrow_dtype(p))
    # -x mod p, kept unsigned: p - x lies in [1, p] for a residue x.
    span[:, a.pivots] = (p - combos) % p
    span = _reduce(span, a, p)
    span[:, a.pivots] = combos
    return rref(span, p)

"""Exact linear algebra kernel, cross-checked against the naive oracle."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pertlab import linalg


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, (rows, cols)).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_idempotent_and_canonical(p):
    rng = np.random.default_rng(11)
    for _ in range(20):
        mat = random_matrix(rng, rng.integers(1, 12), rng.integers(1, 10), p)
        rows, pivots = linalg.rref(mat, p)
        rows = rows.rows
        again, pivots2 = linalg.rref(rows, p)
        assert np.array_equal(rows, again.rows)
        assert np.array_equal(pivots, pivots2)
        # pivot columns are unit columns
        for i, c in enumerate(pivots):
            col = rows[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


@pytest.mark.parametrize("p", [2, 5])
def test_rref_preserves_rowspace(p):
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = random_matrix(rng, 8, 6, p)
        rows, pivots = linalg.rref(mat, p)
        # every original row reduces to zero against the RREF
        assert not linalg.reduce_rows(mat, rows, p).any()


def test_rref_row_order_invariance():
    rng = np.random.default_rng(3)
    mat = random_matrix(rng, 10, 7, 5)
    rows, _ = linalg.rref(mat, 5)
    rows2, _ = linalg.rref(mat[::-1], 5)
    assert np.array_equal(rows.rows, rows2.rows)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace(p):
    rng = np.random.default_rng(5)
    for _ in range(20):
        mat = random_matrix(rng, 6, 9, p)
        kernel = linalg.nullspace(mat, p)
        if kernel.shape[0]:
            assert not ((mat @ kernel.T) % p).any()
        rank = linalg.rank(mat, p)
        assert kernel.shape[0] == 9 - rank


def test_merge_matches_batch_rref():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_matrix(rng, 5, 8, 3)
        b = random_matrix(rng, 4, 8, 3)
        rows_a, piv_a = linalg.rref(a, 3)
        merged, piv = linalg.merge(rows_a, b, 3)
        direct, piv_direct = linalg.rref(np.vstack([a, b]), 3)
        assert np.array_equal(merged.rows, direct.rows)
        assert np.array_equal(piv, piv_direct)


def test_intersection_against_definition():
    rng = np.random.default_rng(13)
    p = 3
    for _ in range(25):
        a = random_matrix(rng, 4, 7, p)
        b = random_matrix(rng, 4, 7, p)
        rows_a, piv_a = linalg.rref(a, p)
        rows_b, piv_b = linalg.rref(b, p)
        inter, piv = linalg.intersect_rowspaces(rows_a, rows_b, p)
        inter = inter.rows
        # every intersection vector lies in both rowspaces
        if inter.shape[0]:
            assert not linalg.reduce_rows(inter, rows_a, p).any()
            assert not linalg.reduce_rows(inter, rows_b, p).any()
        # dimension formula: dim(A) + dim(B) = dim(A+B) + dim(A&B)
        union_rank = linalg.rank(np.vstack([a, b]), p)
        assert inter.shape[0] == rows_a.shape[0] + rows_b.shape[0] - union_rank


def test_left_nullspace():
    mat = np.array([[1, 2], [2, 4], [0, 1]], dtype=np.int64)  # row1 = 2*row0
    left = linalg.left_nullspace(mat, 5)
    assert left.shape[0] == 1
    assert not ((left @ mat) % 5).any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_inverses(p):
    inv = linalg.inverses_mod(p)
    for a in range(1, p):
        assert (a * inv[a]) % p == 1
    assert inv[0] == 0


# -- cross-check against a pure-int elimination --------------------------------

def ref_rref(mat, p):
    """RREF by inserting one row at a time into a reduced basis, in Python ints."""
    basis = {}                      # pivot column -> row with a 1 there
    for row in np.asarray(mat).tolist():
        row = [int(v) % p for v in row]
        for c, b in basis.items():
            if row[c]:
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, b)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        row = [x * inv % p for x in row]
        for c, b in basis.items():
            if b[lead]:
                f = b[lead]
                basis[c] = [(x - f * y) % p for x, y in zip(b, row)]
        basis[lead] = row
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def ref_nullspace(mat, p, ncols):
    rows, pivots = ref_rref(mat, p)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in zip(rows, pivots):
            v[c] = -r[f] % p
        kernel.append(v)
    return ref_rref(kernel, p)[0]


def ref_intersection(a, b, p, ncols):
    """Zassenhaus: rows (0 | w) of the RREF of [[a, a], [b, 0]] span the
    intersection of the rowspaces of a and b."""
    stacked = [list(r) + list(r) for r in a] + [list(r) + [0] * ncols for r in b]
    rows, pivots = ref_rref(stacked, p)
    return ref_rref([r[ncols:] for r, c in zip(rows, pivots) if c >= ncols], p)


def assert_canonical(basis, pivots, expected_rows, expected_pivots, ncols, p):
    """An RREF returned as a ``Staircase`` (``basis``) and its pivots: its
    dense rows, pivots, unit mask and polynomial rows are the expected
    RREF's."""
    rows = basis.rows
    assert np.array_equal(basis.pivots, pivots)
    assert basis.unit.tolist() == linalg.unit_rows(rows).tolist()
    assert np.array_equal(basis.poly, rows[~basis.unit])
    assert basis.poly.dtype == linalg.narrow_dtype(p)
    assert rows.dtype == linalg.narrow_dtype(p) and not rows.flags.writeable
    assert rows.shape == (len(expected_rows), ncols)
    assert rows.tolist() == expected_rows
    assert pivots.tolist() == expected_pivots


PRIMES = [2, 3, 5, 7, 32003, 65521]


def monomial_rows(rng, p, n, c, tall=False):
    """Scaled unit rows a e_j mixed with a few sparse polynomial rows, the
    shape of ideal subspaces.

    The tall variant ignores ``n`` and fills three chunks of ``rref`` (over
    512 rows): polynomial rows among monomials of some early columns;
    monomials of part of the other columns, which turn some carried basis
    rows into unit rows and leave others polynomial; then a few polynomial
    rows that reduce against both kinds.
    """
    def block(rows, cols, npoly):
        mat = np.zeros((rows, c), dtype=np.int64)
        if cols.size:
            mat[np.arange(rows), rng.choice(cols, rows)] = rng.integers(1, p, rows)
        poly = rng.choice(rows, min(npoly, rows), replace=False)
        mat[poly] = rng.integers(0, p, (poly.size, c)) * (
            rng.random((poly.size, c)) < 0.3)
        return mat

    if tall:
        late = rng.random(c) < 0.5
        early = np.flatnonzero(~late)
        mat = np.vstack([
            block(256, early, int(rng.integers(1, 4))),
            block(256, np.flatnonzero(late & (rng.random(c) < 0.5)), 0),
            block(int(rng.integers(1, 80)), early, int(rng.integers(1, 4)))])
    else:
        mat = block(n, np.arange(c), int(rng.integers(0, 4)))
    if rng.random() < 0.5:
        mat = mat + p * rng.integers(-3, 4, mat.shape)
    return mat


@st.composite
def residue_matrices(draw, p=None, cols=None):
    """(p, matrix) pairs of the shapes that stress the batched kernel, with
    entries that may lie outside [0, p)."""
    p = p or draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["random", "sparse", "low-rank", "dense",
                                 "same-lead", "tall", "zero", "empty",
                                 "monomial", "tall-monomial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(1, 24))
    c = cols if cols is not None else int(rng.integers(1, 16))
    if kind == "tall":
        n = int(rng.integers(257, 600))
    elif kind == "dense":
        n = c if cols is not None else int(rng.integers(16, 40))
        c = n
    elif kind == "empty":
        n = 0
    elif kind in ("monomial", "tall-monomial"):
        if cols is None:
            c = int(rng.integers(1, 40))
        return p, monomial_rows(rng, p, n, c, tall=kind == "tall-monomial")
    mat = rng.integers(0, p, (n, c))
    if kind == "sparse":
        mat *= rng.random((n, c)) < 0.15
    elif kind in ("low-rank", "tall"):
        r = int(rng.integers(0, min(n, c) + 1))
        mat = (rng.integers(0, p, (n, r)) @ rng.integers(0, p, (r, c))) % p
    elif kind == "same-lead":
        lead = int(rng.integers(0, c))
        mat[:, :lead] = 0
        mat[:, lead] = rng.integers(1, p, n)
    elif kind == "zero":
        mat[:] = 0
    if draw(st.booleans()):
        mat = mat + p * rng.integers(-3, 4, mat.shape)
    return p, mat.astype(np.int64)


@settings(max_examples=120, deadline=None)
@given(residue_matrices())
def test_rref_rank_nullspace_match_reference(case):
    p, mat = case
    ncols = mat.shape[1]
    rows, pivots = linalg.rref(mat, p)
    ref_rows, ref_pivots = ref_rref(mat, p)
    assert_canonical(rows, pivots, ref_rows, ref_pivots, ncols, p)
    assert linalg.rank(mat, p) == len(ref_rows)
    kernel = linalg.nullspace(mat, p)
    assert kernel.dtype == linalg.narrow_dtype(p) and not kernel.flags.writeable
    assert kernel.tolist() == ref_nullspace(mat, p, ncols)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_merge_and_intersection_match_reference(data):
    p, a = data.draw(residue_matrices())
    ncols = a.shape[1]
    _, b = data.draw(residue_matrices(p=p, cols=ncols))
    rows_a, piv_a = linalg.rref(a, p)
    rows_b, piv_b = linalg.rref(b, p)
    merged, merged_piv = linalg.merge(rows_a, b, p)
    ref_rows, ref_pivots = ref_rref(np.vstack([a, b]), p)
    assert_canonical(merged, merged_piv, ref_rows, ref_pivots, ncols, p)
    inter, inter_piv = linalg.intersect_rowspaces(rows_a, rows_b, p)
    ref_inter, ref_inter_piv = ref_intersection(rows_a.rows.tolist(),
                                                rows_b.rows.tolist(), p, ncols)
    inter = inter.rows
    assert inter.dtype == linalg.narrow_dtype(p) and not inter.flags.writeable
    assert inter.reshape(-1, ncols).tolist() == ref_inter
    assert inter_piv.tolist() == ref_inter_piv


@pytest.mark.parametrize("p", [3, 65521])
def test_reduce_rows_gives_narrow_normal_forms_of_out_of_range_input(p):
    rng = np.random.default_rng(17)
    rows, pivots = linalg.rref(rng.integers(0, p, (5, 9)), p)
    block = rng.integers(-5 * p, 5 * p, (7, 9))
    out = linalg.reduce_rows(block, rows, p)
    assert out.dtype == linalg.narrow_dtype(p) and not out.flags.writeable
    assert out.min() >= 0 and out.max() < p
    # A normal form vanishes on the pivots and differs from its row by an
    # element of the rowspace; together these determine it.
    assert not out[:, pivots].any()
    for row, normal in zip(block.tolist(), out.tolist()):
        diff = [a - b for a, b in zip(row, normal)]
        assert len(ref_rref(rows.rows.tolist() + [diff], p)[0]) == rows.shape[0]


def ref_normal_forms(block, rows, pivots, p):
    """Each row of ``block`` reduced against a reference RREF, in Python ints."""
    out = []
    for row in np.asarray(block).tolist():
        row = [int(v) % p for v in row]
        for basis, c in zip(rows, pivots):
            f = row[c]
            row = [(x - f * y) % p for x, y in zip(row, basis)]
        out.append(row)
    return out


BLOCK_KINDS = ["narrow", "int64", "uint16", "work"]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 5, 251, 257, 65521]), st.sampled_from(BLOCK_KINDS),
       st.integers(0, 2 ** 32 - 1))
def test_chunked_reduce_rows_matches_reference(p, kind, seed):
    """Blocks of 257-700 rows, so two or more chunks, reduce to the
    pure-int normal forms: narrow residues, int64 entries outside [0, p),
    uint16 entries up to 65535 (past p = 257), and work-dtype residues.
    Every result is narrow and read-only, and ``block`` is never written,
    even when its chunks are already in the work dtype."""
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(1, 17))
    rows, pivots = linalg.rref(monomial_rows(rng, p, int(rng.integers(1, 12)),
                                             ncols), p)
    n = int(rng.integers(257, 701))
    residues = rng.integers(0, p, (n, ncols)) * (rng.random((n, ncols)) < 0.5)
    if kind == "narrow":
        block = residues.astype(linalg.narrow_dtype(p))
    elif kind == "int64":
        block = residues + p * rng.integers(-3, 4, (n, ncols))
    elif kind == "uint16":
        block = (residues + p * rng.integers(0, 65536 // p, (n, ncols))
                 ).astype(np.uint16)
    else:
        block = residues.astype(linalg._work_dtype(p, ncols))
    block.flags.writeable = False
    before = block.copy()
    out = linalg.reduce_rows(block, rows, p)
    assert out.dtype == linalg.narrow_dtype(p) and not out.flags.writeable
    assert out.tolist() == ref_normal_forms(block, rows.rows.tolist(),
                                            pivots.tolist(), p)
    assert np.array_equal(block, before)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 251, 257, 65521]), st.data())
def test_every_entry_point_returns_narrow_residues(p, data):
    """rref, merge, reduce_rows, nullspace, left_nullspace and
    intersect_rowspaces all return read-only ``narrow_dtype(p)`` arrays equal
    to the pure-int reference, at the top of uint8 (251) and of uint16
    (65521) and just past uint8 (257)."""
    _, a = data.draw(residue_matrices(p=p))
    ncols = a.shape[1]
    _, b = data.draw(residue_matrices(p=p, cols=ncols))

    def narrow_equal(out, expected, width):
        assert out.dtype == linalg.narrow_dtype(p) and not out.flags.writeable
        assert out.shape == (len(expected), width)
        assert out.tolist() == expected

    rows, pivots = linalg.rref(a, p)
    ref_rows, ref_pivots = ref_rref(a, p)
    narrow_equal(rows.rows, ref_rows, ncols)
    merged, _ = linalg.merge(rows, b, p)
    narrow_equal(merged.rows, ref_rref(np.vstack([a, b]), p)[0], ncols)
    narrow_equal(linalg.reduce_rows(b, rows, p),
                 ref_normal_forms(b, ref_rows, ref_pivots, p), ncols)
    narrow_equal(linalg.nullspace(a, p), ref_nullspace(a, p, ncols), ncols)
    head = a[:24]   # the reference is slow on the tall kinds' cokernels
    narrow_equal(linalg.left_nullspace(head, p),
                 ref_nullspace(head.T, p, head.shape[0]), head.shape[0])
    rows_b, piv_b = linalg.rref(b, p)
    inter, _ = linalg.intersect_rowspaces(rows, rows_b, p)
    narrow_equal(inter.rows,
                 ref_intersection(ref_rows, rows_b.rows.tolist(), p, ncols)[0],
                 ncols)


@pytest.mark.parametrize("p", PRIMES)
def test_work_dtype_bound(p):
    def largest_exact_k(limit):
        return (limit - 1 - (p - 1)) // (p - 1) ** 2

    k32, k64 = largest_exact_k(2 ** 23), largest_exact_k(2 ** 52)
    if k32 >= 0:
        assert linalg._work_dtype(p, k32) == np.float32
    assert linalg._work_dtype(p, k32 + 1) == np.float64
    assert linalg._work_dtype(p, k64) == np.float64
    with pytest.raises(ValueError):
        linalg._work_dtype(p, k64 + 1)


def test_large_prime_rejected_instead_of_inexact():
    p = 2 ** 31 - 1
    with pytest.raises(ValueError):
        linalg.rref(np.array([[1, 2], [3, 4]]), p)
    with pytest.raises(ValueError):
        linalg.inverses_mod(p)


def test_unit_rows_marks_exactly_the_monomial_rows():
    rows = np.array([[1, 0, 0], [0, 2, 0], [0, 1, 1], [0, 0, 0], [0, 0, 1]])
    assert linalg.unit_rows(rows).tolist() == [True, False, False, False, True]


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("p", [2, 5, 32003])
def test_kernel_never_writes_into_its_arguments(p):
    """Inputs already in the work dtype and in range reach the kernel
    uncopied; every entry point must leave them as they were."""
    rng = np.random.default_rng(23)
    ncols = 12
    dtype = linalg._work_dtype(p, ncols)
    mat = monomial_rows(rng, p, 0, ncols, tall=True) % p
    rows, _ = linalg.rref(mat, p)
    ref_rows, ref_pivots = ref_rref(mat, p)
    work = _read_only(mat.astype(dtype))
    block = _read_only(rng.integers(0, p, (9, ncols)).astype(dtype))
    before = [work.copy(), block.copy()]

    assert_canonical(*linalg.rref(work, p), ref_rows, ref_pivots, ncols, p)
    reduced = linalg.reduce_rows(block, rows, p)
    assert np.array_equal(reduced, linalg.reduce_rows(block.astype(np.int64),
                                                      rows, p))
    half, _ = linalg.rref(mat[:150], p)
    merged, merged_piv = linalg.merge(half, work[150:], p)
    assert_canonical(merged, merged_piv, ref_rows, ref_pivots, ncols, p)
    other, _ = linalg.rref(block, p)
    inter, _ = linalg.intersect_rowspaces(rows, other, p)
    union = linalg.rank(np.vstack([rows.rows, other.rows]), p)
    assert inter.shape[0] == rows.shape[0] + other.shape[0] - union
    for original, arg in zip(before, [work, block]):
        assert np.array_equal(original, arg)


# -- narrow storage -----------------------------------------------------------------

NARROW_PRIMES = [2, 3, 251, 257, 65521]


@pytest.mark.parametrize("p", NARROW_PRIMES)
def test_narrow_dtype_holds_every_residue(p):
    dtype = linalg.narrow_dtype(p)
    assert dtype == (np.uint8 if p <= 251 else np.uint16)
    assert np.iinfo(dtype).max >= p - 1
    empty, _ = linalg.rref(np.zeros((0, 2), dtype=np.int64), p)
    rows = linalg.reduce_rows(np.array([[0, p - 1], [1, 0]]), empty, p)
    assert rows.dtype == dtype and not rows.flags.writeable
    assert rows.tolist() == [[0, p - 1], [1, 0]]


def test_residues_reduce_a_uint16_block_past_p():
    """At p = 257, uint16 entries reach 65535; they are reduced in uint16,
    with no int64 copy, to the residues Python ints give."""
    p = 257
    block = np.array([[0, 256, 257, 258], [513, 65535, 1, 65534]],
                     dtype=np.uint16)
    out = linalg._residues(block, p, np.dtype(np.float32))
    assert out.dtype == np.float32
    assert out.tolist() == [[v % p for v in row] for row in block.tolist()]
    assert block.tolist()[1][1] == 65535


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NARROW_PRIMES), st.sampled_from([np.uint8, np.uint16]),
       st.integers(0, 2 ** 32 - 1))
def test_unsigned_input_matches_int64_input(p, dtype, seed):
    """Unsigned blocks with entries up to the dtype's maximum, so past p
    wherever p fits the dtype, give every entry point what an int64 copy
    gives."""
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(1, 20))
    shape = (int(rng.integers(0, 30)), ncols)
    block = (rng.integers(0, np.iinfo(dtype).max + 1, shape)
             * (rng.random(shape) < 0.4)).astype(dtype)
    wide = block.astype(np.int64)
    work = linalg._work_dtype(p, ncols)
    assert np.array_equal(linalg._residues(block, p, work), wide % p)
    rows, pivots = linalg.rref(block, p)
    ref_rows, ref_pivots = ref_rref(wide, p)
    assert_canonical(rows, pivots, ref_rows, ref_pivots, ncols, p)
    assert np.array_equal(linalg.nullspace(block, p), linalg.nullspace(wide, p))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("p", [2, 251, 257, 65521])
def test_kernel_never_writes_into_narrow_arguments(p, dtype):
    """Read-only unsigned blocks, with entries up to the dtype's maximum,
    give every entry point what int64 copies give, and stay as they
    were."""
    rng = np.random.default_rng(29)
    ncols = 12
    top = np.iinfo(dtype).max
    mat = _read_only((monomial_rows(rng, p, 0, ncols, tall=True)
                      % (top + 1)).astype(dtype))
    block = _read_only(rng.integers(0, top + 1, (9, ncols)).astype(dtype))
    wide_mat, wide_block = mat.astype(np.int64), block.astype(np.int64)
    before = [mat.copy(), block.copy()]

    rows, pivots = linalg.rref(mat, p)
    ref_rows, ref_pivots = ref_rref(wide_mat, p)
    assert_canonical(rows, pivots, ref_rows, ref_pivots, ncols, p)
    assert np.array_equal(linalg.reduce_rows(block, rows, p),
                          linalg.reduce_rows(wide_block, rows, p))
    half, _ = linalg.rref(wide_mat[:150], p)
    merged, merged_piv = linalg.merge(half, mat[150:], p)
    assert (merged.rows.tolist() == ref_rows
            and merged_piv.tolist() == ref_pivots)
    inter = linalg.intersect_rowspaces(rows, linalg.rref(block, p)[0], p)
    wide_inter = linalg.intersect_rowspaces(
        linalg.rref(wide_mat, p)[0], linalg.rref(wide_block, p)[0], p)
    assert np.array_equal(inter[0].rows, wide_inter[0].rows)
    assert np.array_equal(inter[1], wide_inter[1])
    assert np.array_equal(linalg.nullspace(block, p),
                          linalg.nullspace(wide_block, p))
    for original, arg in zip(before, [mat, block]):
        assert np.array_equal(original, arg)


def np_rref(mat, p):
    """RREF by Gauss-Jordan in int64 numpy row operations, a pivot at a
    time: a reference for bases too large for ``ref_rref``."""
    a = np.asarray(mat, dtype=np.int64) % p
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(a[r:, c])
        if below.size == 0:
            continue
        a[[r, r + below[0]]] = a[[r + below[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a -= factors[:, None] * a[r]
        a %= p
        pivots.append(c)
        if len(pivots) == a.shape[0]:
            break
    return a[:len(pivots)], pivots


@pytest.mark.parametrize("p", [2, 5, 251, 257, 65521])
def test_bases_past_a_chunk_clear_exactly(p):
    """Dense bases of over two chunks of polynomial rows: ``_reduce`` widens
    them a chunk at a time and adds the partial products, in float32 at
    p = 2 and 5 and in float64 from p = 251.  rref, reduce_rows, merge and
    intersect_rowspaces agree with int64 arithmetic, also when the side an
    intersection's span is reduced against mixes unit and polynomial rows
    past a chunk."""
    rng = np.random.default_rng(37)
    c = 560
    mat = rng.integers(0, p, (530, c))
    basis, pivots = linalg.rref(mat, p)
    rows = basis.rows
    ref_rows, ref_pivots = np_rref(mat, p)
    assert rows.tolist() == ref_rows.tolist() and pivots.tolist() == ref_pivots
    block = rng.integers(0, p, (40, c))
    normal = (block - block[:, pivots] @ rows.astype(np.int64)) % p
    assert np.array_equal(linalg.reduce_rows(block, basis, p), normal)
    head, _ = linalg.rref(mat[:300], p)
    merged, merged_piv = linalg.merge(head, mat[300:], p)
    assert (np.array_equal(merged.rows, rows)
            and np.array_equal(merged_piv, pivots))
    other, _ = linalg.rref(rng.integers(0, p, (300, c)), p)
    inter, _ = linalg.intersect_rowspaces(basis, other, p)
    inter = inter.rows
    assert not linalg.reduce_rows(inter, basis, p).any()
    assert not linalg.reduce_rows(inter, other, p).any()
    other = other.rows
    union = linalg.rank(np.vstack([rows, other]), p)
    assert inter.shape[0] == rows.shape[0] + other.shape[0] - union

    # The smaller side A (60 unit rows, 280 polynomial rows) is the one the
    # span combos @ A is reduced against; the intersection has over a
    # chunk of rows.
    c = 440
    units = np.zeros((60, c), dtype=np.int64)
    units[np.arange(60), rng.choice(c, 60, replace=False)] = 1
    basis_a, a_piv = linalg.rref(
        np.vstack([units, rng.integers(0, p, (280, c))]), p)
    a = basis_a.rows
    unit = linalg.unit_rows(a)
    assert a.shape[0] > linalg._CHUNK and 0 < unit.sum() < a.shape[0]
    basis_b, b_piv = linalg.rref(rng.integers(0, p, (400, c)), p)
    b = basis_b.rows
    inter, inter_piv = linalg.intersect_rowspaces(basis_a, basis_b, p)
    inter = inter.rows
    # In RREF, inside both sides, and of dimension rank A + rank B minus
    # rank(A + B) = rank A + rank(B mod A), all in int64.
    assert np.all(np.diff(inter_piv) > 0)
    assert np.array_equal((inter != 0).argmax(axis=1), inter_piv)
    assert np.array_equal(inter[:, inter_piv], np.eye(inter_piv.size))
    wide = inter.astype(np.int64)
    for side, side_piv in ((a, a_piv), (b, b_piv)):
        normal = (wide - wide[:, side_piv] @ side.astype(np.int64)) % p
        assert not normal.any()
    wide = b.astype(np.int64)
    b_mod_a = (wide - wide[:, a_piv] @ a.astype(np.int64)) % p
    free = np.setdiff1d(np.arange(c), a_piv)
    union = a.shape[0] + len(np_rref(b_mod_a[:, free], p)[1])
    assert inter.shape[0] == a.shape[0] + b.shape[0] - union > linalg._CHUNK
    swapped = linalg.intersect_rowspaces(basis_b, basis_a, p)
    assert np.array_equal(swapped[0].rows, inter)


# -- canonical blocks and wide kernels -----------------------------------------

def canonical_block(p, mat):
    """The reference RREF of ``mat`` in the narrow dtype, with its pivots."""
    rows, pivots = ref_rref(mat, p)
    ncols = mat.shape[1]
    return (np.array(rows, dtype=linalg.narrow_dtype(p)).reshape(-1, ncols),
            pivots)


@settings(max_examples=80, deadline=None)
@given(residue_matrices())
def test_echelon_passes_canonical_blocks_through(case):
    p, mat = case
    block, pivots = canonical_block(p, mat)
    if block.shape[0] == 0:
        return
    # No round runs: only the rounds build a ``_Growing``.
    with mock.patch.object(linalg, "_Growing", side_effect=AssertionError):
        basis = linalg._echelon(block, p)
    assert basis.pivots.tolist() == pivots
    unit = [np.count_nonzero(row) == 1 for row in block]
    assert basis.unit.tolist() == unit
    if not any(unit):
        assert basis.poly is block
    assert basis.poly.tolist() == block[~np.array(unit)].tolist()


NEAR_CANONICAL = ["lead-not-one", "pivot-column-entry", "shared-lead",
                  "out-of-order", "zero-row"]


@settings(max_examples=150, deadline=None)
@given(residue_matrices(), st.sampled_from(NEAR_CANONICAL),
       st.integers(0, 2 ** 32 - 1))
def test_echelon_reduces_near_canonical_blocks(case, change, seed):
    """Narrow blocks one step from RREF fail the pass-through check and are
    reduced to the reference RREF of the same rows, narrow."""
    p, mat = case
    block, _ = canonical_block(p, mat)
    k, ncols = block.shape
    if k < (1 if change in ("lead-not-one", "shared-lead", "zero-row") else 2):
        return
    if change == "lead-not-one" and p == 2:
        return
    rng = np.random.default_rng(seed)
    block = block.astype(np.int64)
    lead = (block != 0).argmax(axis=1)
    i, j = rng.choice(k, 2, replace=False) if k > 1 else (0, 0)
    if change == "lead-not-one":
        block[i] = block[i] * int(rng.integers(2, p)) % p
    elif change == "pivot-column-entry":
        block[i, lead[j]] = int(rng.integers(1, p))
    elif change == "shared-lead":
        extra = block[i].copy()
        tail = np.arange(ncols) > lead[i]
        extra[tail] = (extra[tail] + rng.integers(0, p, tail.sum())) % p
        block = np.vstack([block, extra])
    elif change == "out-of-order":
        block[[i, j]] = block[[j, i]]
    else:
        block = np.vstack([block, np.zeros((1, ncols), dtype=block.dtype)])
    ref_rows, ref_pivots = ref_rref(block, p)
    if change == "zero-row":
        # ``_echelon`` takes nonzero rows; ``rref`` drops zero rows first.
        rows, piv = linalg.rref(block, p)
        assert_canonical(rows, piv, ref_rows, ref_pivots, ncols, p)
        return
    basis = linalg._echelon(block.astype(linalg.narrow_dtype(p)), p)
    unit = [sum(1 for v in row if v) == 1 for row in ref_rows]
    assert basis.poly.dtype == linalg.narrow_dtype(p)
    assert basis.pivots.tolist() == ref_pivots
    assert basis.unit.tolist() == unit
    assert basis.poly.tolist() == [row for row, u in zip(ref_rows, unit)
                                   if not u]


@st.composite
def wide_matrices(draw, p):
    """Matrices mod p with at most 20 rows and up to 300 columns: the
    transposed cokernel problems of colons, whose kernels are wide."""
    kind = draw(st.sampled_from(["random", "sparse", "low-rank", "zero",
                                 "rref", "colon"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = int(rng.integers(1, 21))
    c = int(rng.integers(1, 301))
    mat = rng.integers(0, p, (s, c))
    if kind == "sparse":
        mat *= rng.random((s, c)) < 0.05
    elif kind == "low-rank":
        r = int(rng.integers(0, min(s, c) + 1))
        mat = (rng.integers(0, p, (s, r)) @ rng.integers(0, p, (r, c))) % p
    elif kind == "zero":
        mat[:] = 0
    elif kind == "rref":
        mat = linalg.rref(mat * (rng.random((s, c)) < 0.1), p)[0].rows
    elif kind == "colon":
        # Sparse products reduced against an ideal-like basis, restricted
        # to at most 20 of its nonpivot columns and transposed.
        basis, piv = linalg.rref(monomial_rows(rng, p, c, c), p)
        nonpiv = np.setdiff1d(np.arange(c), piv)[:20]
        products = rng.integers(0, p, (c, c)) * (rng.random((c, c)) < 0.02)
        mat = linalg.reduce_rows(products, basis, p)[:, nonpiv].T
    return np.asarray(mat, dtype=np.int64).reshape(-1, c)


@pytest.mark.parametrize("p", PRIMES + [251, 257])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_wide_nullspace_matches_reference_and_is_canonical(p, data):
    mat = data.draw(wide_matrices(p))
    ncols = mat.shape[1]
    kernel = linalg.nullspace(mat, p)
    assert kernel.dtype == linalg.narrow_dtype(p) and not kernel.flags.writeable
    assert kernel.tolist() == ref_nullspace(mat, p, ncols)
    rows, _ = linalg.rref(kernel, p)
    assert np.array_equal(rows.rows, kernel)


# -- narrow-first elimination ---------------------------------------------------

NARROW_FIRST_PRIMES = [2, 5, 251, 257, 65521]
BASIS_KINDS = ["all-unit", "mixed", "all-polynomial"]


def canonical_rows(rng, p, nrows, ncols, kind):
    """A canonical RREF of ``nrows`` rows over ``ncols`` columns, built
    directly, sorted by pivot, in int64.  The rows of an all-polynomial
    basis, and about half of a mixed one's, take nonzero entries on every
    nonpivot column after their pivot; a row with no such column is a unit
    row whatever the kind."""
    piv = np.sort(rng.choice(ncols, nrows, replace=False))
    rows = np.zeros((nrows, ncols), dtype=np.int64)
    rows[np.arange(nrows), piv] = 1
    poly = {"all-unit": np.zeros(nrows, dtype=bool),
            "mixed": rng.random(nrows) < 0.5,
            "all-polynomial": np.ones(nrows, dtype=bool)}[kind]
    free = np.ones(ncols, dtype=bool)
    free[piv] = False
    tail = (free[None, :] & (np.arange(ncols)[None, :] > piv[:, None])
            & poly[:, None])
    rows[tail] = rng.integers(1, p, int(tail.sum()))
    return rows, piv


def out_of_range(rng, block, p, form):
    """``block`` (residues) as narrow residues, as int64 with negative
    entries, or as uint16 entries up to 65535, past p."""
    if form == "narrow":
        return block.astype(linalg.narrow_dtype(p))
    if form == "negative":
        return block - p * rng.integers(0, 4, block.shape)
    return (block + p * rng.integers(0, (65535 - block) // p + 1)
            ).astype(np.uint16)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NARROW_FIRST_PRIMES), st.sampled_from(BASIS_KINDS),
       st.sampled_from(["none", "some", "all"]),
       st.sampled_from(["narrow", "negative", "past-p"]),
       st.integers(0, 2 ** 32 - 1))
def test_narrow_first_kernel_matches_reference(p, kind, hits, form, seed):
    """reduce_rows, merge and rref against all-unit, mixed and
    all-polynomial bases, on blocks in which no row, some rows or every row
    holds an entry on a polynomial pivot, given as narrow residues, as
    negative int64 or as uint16 past p, equal the pure-int normal forms and
    RREFs."""
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(1, 30))
    rows, piv = canonical_rows(rng, p, int(rng.integers(0, ncols + 1)), ncols,
                               kind)
    basis, basis_piv = linalg.rref(rows, p)
    assert_canonical(basis, basis_piv, rows.tolist(), piv.tolist(), ncols, p)
    n = int(rng.integers(1, 40))
    block = rng.integers(0, p, (n, ncols)) * (rng.random((n, ncols)) < 0.5)
    poly_cols = piv[~linalg.unit_rows(rows)]
    miss = {"none": np.ones(n, dtype=bool), "all": np.zeros(n, dtype=bool),
            "some": rng.random(n) < 0.5}[hits]
    block[np.ix_(np.flatnonzero(miss), poly_cols)] = 0
    if poly_cols.size and hits == "all":
        block[np.arange(n), rng.choice(poly_cols, n)] = rng.integers(1, p, n)
    block = out_of_range(rng, block, p, form)

    normal = linalg.reduce_rows(block, basis, p)
    assert normal.dtype == linalg.narrow_dtype(p) and not normal.flags.writeable
    assert normal.tolist() == ref_normal_forms(block, rows.tolist(),
                                               piv.tolist(), p)
    merged, merged_piv = linalg.merge(basis, block, p)
    assert_canonical(merged, merged_piv,
                     *ref_rref(np.vstack([rows, block.astype(np.int64)]), p),
                     ncols, p)
    assert_canonical(*linalg.rref(block, p), *ref_rref(block, p), ncols, p)
    other, _ = linalg.rref(block, p)
    ref_inter, ref_inter_piv = ref_intersection(rows.tolist(),
                                                other.rows.tolist(), p, ncols)
    for sides in ((basis, other), (other, basis)):
        got, got_piv = linalg.intersect_rowspaces(*sides, p)
        assert got.rows.tolist() == ref_inter
        assert got_piv.tolist() == ref_inter_piv


@pytest.mark.parametrize("extra", ["no-rows", "zero-rows", "in-span"])
def test_merge_that_adds_nothing_returns_the_basis_itself(extra):
    """A merge whose extra rows are none, only zero rows, or rows already
    in the span, past a chunk of them and outside [0, p), gives back
    ``basis`` itself and its pivots, not an equal copy: ``Subspace.sum_rows``
    relies on it."""
    p, ncols = 5, 12
    rng = np.random.default_rng(53)
    rows, _ = canonical_rows(rng, p, 7, ncols, "mixed")
    basis, pivots = linalg.rref(rows, p)
    assert 0 < np.count_nonzero(basis.unit) < basis.shape[0]
    block = {"no-rows": np.zeros((0, ncols), dtype=np.int64),
             "zero-rows": np.zeros((3, ncols), dtype=np.int64),
             "in-span": rng.integers(0, p, (300, 7)) @ rows}[extra]
    merged, merged_piv = linalg.merge(basis, block, p)
    assert merged is basis and merged_piv is pivots


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(NARROW_FIRST_PRIMES), st.sampled_from(BASIS_KINDS),
       st.integers(0, 2 ** 32 - 1))
def test_canonical_chunks_enter_the_basis_as_they_are(p, kind, seed):
    """Blocks past one chunk whose chunks are already in RREF in the narrow
    dtype: a canonical block as it stands, and one whose first chunk has
    later rows mixed into its rows, so that the second chunk, unchanged by
    reduction, passes through and clears the basis rows it touches.  rref,
    and merge onto the first chunk's RREF, give the canonical block."""
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(300, 400))
    nrows = int(rng.integers(linalg._CHUNK + 1, ncols))
    rows, piv = canonical_rows(rng, p, nrows, ncols, kind)
    expected = rows.tolist(), piv.tolist()
    dtype = linalg.narrow_dtype(p)
    assert_canonical(*linalg.rref(rows.astype(dtype), p), *expected, ncols, p)

    head, later = rows[:linalg._CHUNK], rows[linalg._CHUNK:]
    mix = rng.integers(0, p, (head.shape[0], later.shape[0])) * (
        rng.random((head.shape[0], later.shape[0])) < 0.1)
    head = (head + mix @ later) % p
    block = np.vstack([head, later]).astype(dtype)
    assert_canonical(*linalg.rref(block, p), *expected, ncols, p)
    head_rows, head_piv = linalg.rref(head, p)
    assert head_piv.tolist() == piv[:linalg._CHUNK].tolist()
    assert_canonical(*linalg.merge(head_rows, later.astype(dtype), p),
                     *expected, ncols, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NARROW_FIRST_PRIMES), st.sampled_from(BASIS_KINDS),
       st.sampled_from(["lead-not-one", "pivot-column-entry"]),
       st.sampled_from(["narrow", "negative", "past-p"]),
       st.integers(0, 2 ** 32 - 1))
def test_near_canonical_chunks_are_eliminated(p, kind, change, form, seed):
    """Chunks whose leading columns strictly increase but whose block on
    them is not the identity (a leading entry other than 1, or an entry on
    a later row's leading column) sum to more than their row count there,
    so they are widened and eliminated to the canonical block."""
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(2, 40))
    nrows = int(rng.integers(1 if change == "lead-not-one" else 2, ncols + 1))
    rows, piv = canonical_rows(rng, p, nrows, ncols, kind)
    block = rows.copy()
    i, j = np.sort(rng.choice(nrows, 2, replace=False)) if nrows > 1 else (0, 0)
    if change == "lead-not-one":
        if p == 2:
            return
        block[i] = block[i] * int(rng.integers(2, p)) % p
    else:
        block[i] = (block[i] + int(rng.integers(1, p)) * block[j]) % p
    lead = (block != 0).argmax(axis=1)
    assert np.all(np.diff(lead) > 0) and block[:, lead].sum() > nrows
    assert ref_rref(block, p) == (rows.tolist(), piv.tolist())
    block = out_of_range(rng, block, p, form)
    assert_canonical(*linalg.rref(block, p), rows.tolist(), piv.tolist(),
                     ncols, p)
    first, _ = linalg.rref(block[:1], p)
    assert_canonical(*linalg.merge(first, block[1:], p), rows.tolist(),
                     piv.tolist(), ncols, p)


# -- compact eliminations ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NARROW_FIRST_PRIMES),
       st.sampled_from(["narrow", "negative", "past-p"]),
       st.integers(0, 2 ** 32 - 1))
def test_rref_staircase_matches_reference(p, form, seed):
    """rref returns a ``Staircase`` whose pivots, unit mask, polynomial rows
    and dense ``rows`` are the pure-int RREF's.  The first chunk holds
    multiples of rows e_i + tail_i, the tails on the last columns, and the
    rows after it span unit vectors there: their pivots clear the earlier
    polynomial rows, and the row whose tail they cover moves to the mask."""
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(3, 21))
    late = int(rng.integers(1, ncols - 1))
    early = ncols - late
    heads = np.sort(rng.choice(early, int(rng.integers(1, early + 1)),
                               replace=False))
    tails = rng.integers(0, p, (heads.size, late)) * (
        rng.random((heads.size, late)) < 0.5)
    covered = np.flatnonzero(rng.random(late) < 0.5)
    moved = int(rng.integers(0, late)) if not covered.size else covered[0]
    covered = np.union1d(covered, [moved])
    tails[0] = 0
    tails[0, moved] = int(rng.integers(1, p))
    base = np.zeros((heads.size, ncols), dtype=np.int64)
    base[np.arange(heads.size), heads] = 1
    base[:, early:] = tails
    n = linalg._CHUNK + int(rng.integers(0, 40))
    pick = rng.integers(0, heads.size, n)
    pick[0] = 0
    first = base[pick] * rng.integers(1, p, (n, 1)) % p
    m = int(rng.integers(1, 60))
    later = np.zeros((m, ncols), dtype=np.int64)
    spans = rng.integers(0, p, (m, covered.size))
    spans[0] = 0
    spans[0, np.flatnonzero(covered == moved)[0]] = 1
    later[:, early + covered] = spans
    mat = np.vstack([first, later])
    ref_rows, ref_pivots = ref_rref(mat, p)
    block = out_of_range(rng, mat, p, form)

    head, head_piv = linalg.rref(block[:linalg._CHUNK], p)
    assert not head.unit[np.searchsorted(head_piv, heads[0])]
    basis, pivots = linalg.rref(block, p)
    assert isinstance(basis, linalg.Staircase)
    assert basis.pivots is pivots and pivots.tolist() == ref_pivots
    assert basis.shape == (len(ref_rows), ncols)
    unit = [sum(1 for v in row if v) == 1 for row in ref_rows]
    assert basis.unit.tolist() == unit
    assert basis.unit[np.searchsorted(pivots, heads[0])]
    assert basis.poly.dtype == linalg.narrow_dtype(p)
    assert basis.poly.shape == (unit.count(False), ncols)
    assert basis.poly.tolist() == [r for r, u in zip(ref_rows, unit) if not u]
    for a in (basis.pivots, basis.unit, basis.poly):
        assert not a.flags.writeable
    assert basis.rows.tolist() == ref_rows and not basis.rows.flags.writeable
    dense = basis.dense()
    assert dense.flags.writeable and dense.tolist() == ref_rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NARROW_FIRST_PRIMES), st.sampled_from(BASIS_KINDS),
       st.integers(0, 2 ** 32 - 1))
def test_in_place_reduce_rows_equals_the_copying_form(p, kind, seed):
    """``in_place`` clears a writable narrow block where it stands, past a
    chunk of rows, to the normal forms the copying form returns; the block
    comes back read-only.  Any other block is refused."""
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(1, 30))
    rows, _ = canonical_rows(rng, p, int(rng.integers(0, ncols + 1)), ncols,
                             kind)
    n = int(rng.integers(1, 2 * linalg._CHUNK))
    block = (rng.integers(0, p, (n, ncols)) * (rng.random((n, ncols)) < 0.5)
             ).astype(linalg.narrow_dtype(p))
    basis, _ = linalg.rref(rows, p)
    expected = linalg.reduce_rows(block, basis, p)
    work = block.copy()
    out = linalg.reduce_rows(work, basis, p, in_place=True)
    assert out is work and not work.flags.writeable
    assert np.array_equal(out, expected)
    for refused in (block.astype(np.int64), _read_only(block)):
        with pytest.raises(ValueError):
            linalg.reduce_rows(refused, basis, p, in_place=True)


@pytest.mark.parametrize("p", [2, 5, 251, 257, 65521])
def test_kernel_leaves_writable_arguments_byte_identical(p):
    """Writable caller arrays, narrow or in the work dtype, past a chunk of
    rows: rref, reduce_rows and nullspace (and the entry points built on
    them) leave every byte as it was, since only the in-place form of
    reduce_rows may write."""
    rng = np.random.default_rng(47)
    ncols = 40
    mat = monomial_rows(rng, p, 0, ncols, tall=True) % p
    rows, _ = canonical_rows(rng, p, 25, ncols, "mixed")
    for dtype in (linalg.narrow_dtype(p), linalg._work_dtype(p, ncols)):
        args = [mat.astype(dtype), rows.astype(dtype),
                rng.integers(0, p, (linalg._CHUNK + 9, ncols)).astype(dtype)]
        before = [a.tobytes() for a in args]
        big = args[0]
        linalg.rref(big, p)
        basis, _ = linalg.rref(args[1], p)
        linalg.reduce_rows(big, basis, p)
        linalg.nullspace(args[2], p)
        linalg.left_nullspace(args[2][:30], p)
        linalg.merge(basis, big, p)
        linalg.intersect_rowspaces(basis, linalg.rref(args[2], p)[0], p)
        assert [a.tobytes() for a in args] == before
        assert all(a.flags.writeable for a in args)

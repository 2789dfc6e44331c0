"""Numerical invariants of the truncated model.

Hilbert-Samuel functions, associated-graded Hilbert tables, Artin-Rees
numbers over a finite window, Koszul homology lengths and filter-regularity
tests.  Quantities whose target ideal carries an m-primary certificate are
exact; the rest (Koszul homology, colons into non-primary ideals) are read
off order-filtration plateaus and certified by two-level agreement.

The plateau device: any subquotient H = U/S of the model inherits a
decreasing filtration by order, F_w H = image of (U with support in degrees
>= w).  The profile w -> length(H / F_w H) is 0 up to the lowest order of
a class, rises to the true length, stays flat through the middle orders, and
picks up boundary junk near w = D, where the classes created by the
truncation live.  The widest run is read as the value, so a leading run of
zeros wider than the true plateau gives a wrong reading at that level.  The
zero run does not move with D, so two-level agreement catches such a
reading only when the other level's true plateau is the wider.  That hazard
is left only on a model that is not the ring: an Artinian ring's model is
the ring from some D on, and there the raw last entry is read instead.
With ascending-degree echelon bases the whole profile is a pivot count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .certify import (EXACT, TWO_LEVEL, UNCERTIFIED, CertifiedValue,
                      plateau, read, two_level_value, weakest)
from .errors import PertlabError
from .ideals import (IdealHandle, IdealPowers, certificate_level,
                     colon_subspace, quotient_length)
from .rings import MAX_MONOMIALS, RingDescriptor, Subspace, same_ring


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertTable:
    """Map n -> certified value, under a named convention.

    ``hs``: entry(n) = length of R/(I + J^(n+1)).
    ``gr``: entry(n) = length of (I + J^n)/(I + J^(n+1)) = HS(n) - HS(n-1).
    """

    convention: str
    entries: tuple[CertifiedValue, ...]

    def values(self) -> tuple[int | None, ...]:
        return tuple(e.value for e in self.entries)


def hs_table(i: IdealHandle, j: IdealHandle, n_max: int,
             powers: IdealPowers | None = None) -> HilbertTable:
    """All lengths of R/(I + J^(n+1)) for n <= n_max.

    When J^(n+1) itself carries an m-primary certificate the union inherits
    it, so only a codimension (one reduction plus a small rank) is computed
    per entry; otherwise the entry falls back to a direct certificate search.
    """
    ring = i.ring
    if powers is None:
        powers = IdealPowers(j, n_max + 1)
    same_ring(ring, j, powers)
    i_sub = i.subspace
    nonpiv = i_sub.nonpivots()
    entries = []
    for n in range(n_max + 1):
        psub = powers.subspace(n + 1)
        t = powers.cert_level(n + 1)
        if t is not None:
            # The full reduction dies before the rank's elimination runs.
            extra = linalg.rank(
                i_sub.reduce(psub.dense(), in_place=True)[:, nonpiv], ring.p)
            codim = ring.M - i_sub.rank - extra
            entries.append(CertifiedValue(codim, EXACT, (ring.D,),
                                          note=f"m^{t} inside J^{n + 1}"))
        else:
            union = i_sub.sum_rows(psub.rows)
            entries.append(quotient_length(union, certificate_level(union)))
    return HilbertTable("hs", tuple(entries))


def gr_hilbert_function(i: IdealHandle, j: IdealHandle, n_max: int,
                        powers: IdealPowers | None = None) -> HilbertTable:
    """Graded dimensions of the associated graded module of R/I along J.

    Equality of two such tables up to n_max is the working proxy for an
    isomorphism of associated graded rings in degrees <= n_max.
    """
    hs = hs_table(i, j, n_max, powers)
    entries = []
    prev = CertifiedValue(0, EXACT, (i.ring.D,))
    for n in range(n_max + 1):
        cur = hs.entries[n]
        if cur.value is None or prev.value is None:
            entries.append(CertifiedValue(None, UNCERTIFIED, (i.ring.D,),
                                          note="difference of uncertified lengths"))
        else:
            entries.append(CertifiedValue(cur.value - prev.value,
                                          weakest((cur.status, prev.status)),
                                          (i.ring.D,)))
        prev = cur
    return HilbertTable("gr", tuple(entries))


# ---------------------------------------------------------------------------
# Artin-Rees numbers over a finite window
# ---------------------------------------------------------------------------

def ar_number(i: IdealHandle, j: IdealHandle, n_max: int,
              powers: IdealPowers | None = None, delta: int = 2) -> CertifiedValue:
    """Least s <= n_max with J^n * I-intersections splitting as
    J^(n-s) (J^s meet I) for every s <= n <= n_max.

    The window bounds the quantifier, so the result is a lower bound for the
    untruncated Artin-Rees number, cross-checked at truncation D + delta.  On
    a model that is the ring, with nilpotency t <= n_max, it is exact: for
    n >= t both sides are 0 (J in m) or I (J the unit ideal).
    """
    ring_hi = i.ring.above(delta)
    value, witness = _ar_window(i, j, n_max, powers)
    value_hi, _ = _ar_window(i.lift(ring_hi), j.lift(ring_hi), n_max, None)
    cert = two_level_value(
        *[(v, EXACT if ring.is_exact and n_max >= ring.nilpotency else True)
          for v, ring in ((value, i.ring), (value_hi, ring_hi))],
        (i.ring.D, ring_hi.D))
    note = "; ".join(filter(None, (witness, cert.note)))
    if cert.value is None:
        note = f"no s <= {n_max} over the window; " + note
    return replace(cert, note=note)


def _ar_window(i: IdealHandle, j: IdealHandle, n_max: int,
               powers: IdealPowers | None) -> tuple[int | None, str]:
    if powers is None:
        powers = IdealPowers(j, n_max)
    meets = [i.subspace.intersect(powers.subspace(n)) for n in range(n_max + 1)]
    witness = ""
    for s in range(n_max + 1):
        current = meets[s]
        for n in range(s + 1, n_max + 1):
            current = _times_ideal_once(j, current)
            if meets[n] != current:
                witness = f"minimality witness: s={s} fails at n={n}"
                break
        else:
            return s, "; ".join(filter(None, ("window equalities hold", witness)))
    return None, witness or f"every s <= {n_max} fails"


def _times_ideal_once(j: IdealHandle, base: Subspace) -> Subspace:
    """Subspace of J * (ideal carried by ``base``)."""
    ring = base.ring
    rows = base.rows
    # One narrow block, each product written once into its place, the
    # base ideal's rows last.
    k, top = rows.shape[0], rows.shape[0] * len(j.gens)
    stacked = np.zeros((top + ring.base_subspace.rank, ring.M),
                       dtype=linalg.narrow_dtype(ring.p))
    for at, g in enumerate(j.gens):
        ring.rows_times(rows, g.vec, out=stacked[at * k:(at + 1) * k])
    del rows
    ring.base_subspace.dense(stacked[top:])
    return Subspace(ring, linalg.rref(stacked, ring.p)[0])


# ---------------------------------------------------------------------------
# Order-filtration plateaus
# ---------------------------------------------------------------------------

def order_profile(upper: linalg.Staircase, lower: linalg.Staircase,
                  cuts: np.ndarray) -> list[int]:
    """Profile w -> length(H / F_w H) for H = upper/lower, two staircases
    in ascending order, lower inside upper; ``cuts[w]`` counts coordinates
    of order < w.  Echelon rows with pivot >= cut vanish on the first cut
    coordinates, so the profile counts pivots."""
    return (np.searchsorted(upper.pivots, cuts)
            - np.searchsorted(lower.pivots, cuts)).tolist()


def annihilator_profile(start: linalg.Staircase,
                        target: Subspace) -> list[int | None]:
    """Profile w -> least h with m^h * span(start) within
    target + (order >= w), for a basis ``start``; always finite at the
    truncated level, so the honest reading is the value on the widest
    plateau.  Each link is multiplied by the variables' coordinate vectors
    (unit rows) through ``rows_times``: no element, so no normal form."""
    ring = target.ring
    variables = linalg.unit_basis(np.sort(ring.var_cols), ring.M,
                                  ring.p).dense()
    return _annihilator_chain(
        ring, target, start, ring.cuts,
        lambda rows, v, out: ring.rows_times(rows, variables[v], out))


def _annihilator_chain(ring: RingDescriptor, target: linalg.Staircase,
                       start: linalg.Staircase, cuts: np.ndarray,
                       times_var) -> list[int | None]:
    """Annihilator profile of span(start) modulo ``target``, staircases in
    ascending order over ring or module coordinates of ``ring``.

    The h-th link of the chain m^h * span(start) lies in
    target + (order >= w) for w up to the order of its lowest surviving
    term (D once the chain dies).  ``cuts[w]`` counts the coordinates of
    order < w and ``times_var(rows, v, out)`` writes the rows times the
    v-th variable into the zeroed narrow block ``out``, so the same chain
    serves both kinds of coordinates.  Each link's products are written
    once into one block, which is reduced where it stands; the link's
    elimination is compact, and its dense rows exist only to be
    multiplied.
    """
    nvars = len(ring.vars)
    thresholds = []
    basis, piv = linalg.rref(linalg.reduce_rows(
        start.dense(), target, ring.p, in_place=True), ring.p)
    for _h in range(ring.D + 1):
        if piv.size == 0:
            break
        # Pivots ascend, so the first is the lowest surviving column.
        w = int(np.searchsorted(cuts, piv[0], side="right")) - 1
        thresholds.append(max(w, 0))
        rows = basis.rows
        k = rows.shape[0]
        nxt = np.zeros((nvars * k, rows.shape[1]), dtype=rows.dtype)
        for v in range(nvars):
            times_var(rows, v, nxt[v * k:(v + 1) * k])
        del rows, basis
        basis, piv = linalg.rref(linalg.reduce_rows(
            nxt, target, ring.p, in_place=True), ring.p)
        del nxt
    thresholds += [ring.D] * (ring.D + 1 - len(thresholds))
    return [next((h for h, t in enumerate(thresholds) if t >= w), None)
            for w in range(ring.D + 1)]


# ---------------------------------------------------------------------------
# Koszul homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KoszulReport:
    """Homology lengths for i = 1..r with finiteness flags."""

    lengths: tuple[CertifiedValue, ...]   # index 0 holds H_1
    finite: tuple[bool, ...]


def _reduced_mult_matrix(elem) -> np.ndarray:
    """Multiplication by ``elem`` on the quotient, in standard-monomial
    coordinates, as narrow residues."""
    ring = elem.ring
    rows = ring.multiples(elem.vec, ring.std_cols)
    return ring.base_subspace.reduce(rows, in_place=True)[:, ring.std_cols]


def _koszul_boundary(ring: RingDescriptor, mats: list[np.ndarray],
                     i: int) -> np.ndarray:
    """Boundary K_i -> K_(i-1) with standard alternating signs on the wedge
    basis e_{j1<...<ji}; rows indexed by (subset, ring coordinate)."""
    r = len(mats)
    d = ring.dim
    dom = list(combinations(range(r), i))
    cod = list(combinations(range(r), i - 1))
    cod_index = {s: k for k, s in enumerate(cod)}
    p = ring.p
    signed = (mats, [(p - m) % p for m in mats])  # -m mod p stays unsigned
    out = np.zeros((len(dom) * d, len(cod) * d), dtype=linalg.narrow_dtype(p))
    for a, subset in enumerate(dom):
        for t, jt in enumerate(subset):
            rest = subset[:t] + subset[t + 1:]
            b = cod_index[rest]
            out[a * d:(a + 1) * d, b * d:(b + 1) * d] = signed[t % 2][jt]
    return out


def _homology_level(fs: tuple, i: int) -> tuple[tuple[int | None, bool], bool]:
    """Reading (length, resolved) of H_i (``certify.read``) at the level of
    ``fs``, and a finiteness flag from the annihilation exponent of the
    homology subquotient."""
    ring = fs[0].ring
    d = ring.dim
    mats = [_reduced_mult_matrix(f) for f in fs]
    var_mats = [_reduced_mult_matrix(ring.variable(v))
                for v in range(len(ring.vars))]
    d_i = _koszul_boundary(ring, mats, i)
    kernel = linalg.left_nullspace(d_i, ring.p)
    # K_(r+1) = 0, so at i = r the image boundary has no rows.
    image_rows = _koszul_boundary(ring, mats, i + 1)
    ncomp = comb(len(fs), i)
    # Module coordinates sorted by (order, component, index): prefix ranks
    # then read the order filtration through the induced cuts.
    degs = np.tile(ring.deg_of_col[ring.std_cols], ncomp)
    perm = np.lexsort((np.tile(np.arange(d), ncomp),
                       np.repeat(np.arange(ncomp), d), degs))
    cuts = np.searchsorted(degs[perm], np.arange(ring.D + 1))
    upper = linalg.rref(kernel[:, perm], ring.p)[0]
    lower = linalg.rref(image_rows[:, perm], ring.p)[0]
    value, resolved = read(order_profile(upper, lower, cuts), ring.is_exact)

    finite = False
    if resolved and not ring.is_exact:
        # annihilation exponent of the homology, module-level chain (a length
        # read on a model that is the ring is finite: _koszul_lengths)
        inv_perm = np.argsort(perm)

        def times_var(rows: np.ndarray, v: int, out: np.ndarray) -> None:
            blocks = rows[:, inv_perm].reshape(rows.shape[0], ncomp, d)
            prod = linalg.matmul_mod(blocks, var_mats[v], ring.p)
            out[:] = prod.reshape(rows.shape[0], ncomp * d)[:, perm]

        h_val, h_resolved = plateau(
            _annihilator_chain(ring, lower, upper, cuts, times_var))
        if h_resolved:
            finite = h_val + max(f.order() for f in fs) + 1 <= ring.D
    return (value, resolved), finite


def _koszul_lengths(fs: tuple, delta: int, indices) -> KoszulReport:
    """H_i for i in ``indices``, read at the level of ``fs`` and at its
    D + delta lift and certified across the two, finite when it is exact or
    both levels flag it so.  Before any elimination each boundary d_k,
    k in {i, i + 1}, is sized at D + delta in ascending k: a dense
    (C(r,k) dim) x (C(r,k-1) dim) block past MAX_MONOMIALS^2 entries, the
    M x M rule, raises PertlabError."""
    same_ring(fs[0].ring, *fs)
    fs_hi = tuple(map(fs[0].ring.above(delta).element, fs))
    r, ring = len(fs), fs_hi[0].ring
    for k in sorted({k for i in indices for k in (i, i + 1)}):
        rows, cols = comb(r, k) * ring.dim, comb(r, k - 1) * ring.dim
        if rows * cols > MAX_MONOMIALS ** 2:
            raise PertlabError(f"Koszul boundary d_{k} at D = {ring.D} is "
                               f"{rows} x {cols}, past MAX_MONOMIALS^2 entries")
    results = []
    for i in indices:
        lo, finite_lo = _homology_level(fs, i)
        hi, finite_hi = _homology_level(fs_hi, i)
        cert = two_level_value(lo, hi, (fs[0].ring.D, ring.D))
        finite = finite_lo and finite_hi or cert.status == EXACT
        if cert.is_certified() and not finite:
            cert = replace(cert, note=(cert.note + "; " if cert.note else "")
                           + "finiteness flag not established")
        results.append((cert, finite))
    return KoszulReport(*zip(*results))


def koszul_homology_length(fs: tuple, i: int, delta: int = 2) -> CertifiedValue:
    """Length of the i-th Koszul homology of the sequence, junk-shed by the
    order-filtration plateau and certified across two truncation levels."""
    if not (1 <= i <= len(fs)):
        raise ValueError(f"homology index {i} out of range 1..{len(fs)}")
    return _koszul_lengths(fs, delta, (i,)).lengths[0]


def koszul_report(fs: tuple, delta: int = 2) -> KoszulReport:
    """Lengths H_1..H_r, none for r = 0, with one D + delta rebuild."""
    return (_koszul_lengths(fs, delta, range(1, len(fs) + 1)) if fs
            else KoszulReport((), ()))


# ---------------------------------------------------------------------------
# Filter-regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterRegularStep:
    index: int            # 1-based position in the sequence
    passed: bool
    exponent: CertifiedValue   # least h with m^h (I : f) inside I


@dataclass(frozen=True)
class SequenceReport:
    passed: bool
    steps: tuple[FilterRegularStep, ...]
    first_failure: int | None


def colon_plateaus(target: Subspace, f) -> tuple[tuple, tuple]:
    """Readings (value, resolved) of the length of (A : f)/A and of the
    least h with m^h (A : f) inside A, A the ideal of ``target``."""
    colon, exact = colon_subspace(target, f), target.ring.is_exact
    return (read(order_profile(colon, target, target.ring.cuts), exact),
            read(annihilator_profile(colon, target), exact))


def filter_regular_check(i: IdealHandle, f, delta: int = 2
                         ) -> tuple[bool, CertifiedValue]:
    """Is f filter-regular on R/I?  True when some power of m multiplies the
    colon (I : f) back into I; also returns the least such exponent h.

    At each level the exponent is the reading of :func:`colon_plateaus`,
    None when it does not resolve, resolved as EXACT when it is; f passes
    when the two-level result carries a value.  Degenerate inputs:
    a unit f is vacuously regular (flagged), once its D + delta model is
    built like any other f's; h is clamped to be positive.
    """
    same_ring(i.ring, f)
    ring_hi = i.ring.above(delta)
    levels = (i.ring.D, ring_hi.D)
    if f.is_unit():
        return True, CertifiedValue(1, TWO_LEVEL, levels,
                                    note="degenerate: unit element")
    lo = colon_plateaus(i.subspace, f)[1]
    hi = colon_plateaus(i.lift(ring_hi).subspace, ring_hi.element(f))[1]
    cert = two_level_value(*[(value if resolved else None, resolved or True)
                             for value, resolved in (lo, hi)], levels)
    if cert.value is None:
        return False, replace(cert, note=cert.note
                              or "no stable annihilator exponent at either level")
    return True, replace(cert, value=max(int(cert.value), 1))


def filter_regular_sequence_check(fs: tuple, delta: int = 2) -> SequenceReport:
    """Check the sequence step by step against the growing ideal; the first
    failing index (1-based) is reported."""
    steps = []
    first_failure = None
    for idx, f in enumerate(fs):
        ok, h = filter_regular_check(IdealHandle(f.ring, fs[:idx]), f,
                                     delta=delta)
        steps.append(FilterRegularStep(idx + 1, ok, h))
        if not ok:
            first_failure = idx + 1
            break
    return SequenceReport(first_failure is None, tuple(steps), first_failure)

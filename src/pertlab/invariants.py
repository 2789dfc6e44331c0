"""Numerical invariants of the truncated model.

Hilbert-Samuel functions, associated-graded Hilbert tables, Artin-Rees
numbers over a finite window, Koszul homology lengths and filter-regularity
tests.  Quantities whose target ideal carries an m-primary certificate are
exact; the rest (Koszul homology, colons into non-primary ideals) are read
off order-filtration plateaus and certified by two-level agreement.

The plateau device: any subquotient H = U/S of the model inherits a
decreasing filtration by order, F_w H = image of (U with support in degrees
>= w).  Classes created by the truncation live just below degree D, so the
profile w -> length(H / F_w H) starts at the true length, stays flat through
the middle orders, and only picks up boundary junk near w = D.  With
ascending-degree echelon bases the whole profile is a pivot count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .certify import (EXACT, TWO_LEVEL, UNCERTIFIED, CertifiedValue,
                      check_delta, plateau, two_level_value, weakest)
from .ideals import (IdealHandle, IdealPowers, certificate_level,
                     colon_subspace, quotient_length)
from .rings import RingDescriptor, Subspace


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

    def all_certified(self) -> bool:
        return all(e.is_certified() for e in self.entries)


def hilbert_samuel(i: IdealHandle, j: IdealHandle, n: int,
                   powers: IdealPowers | None = None) -> CertifiedValue:
    """Length of R/(I + J^(n+1)): entry n of :func:`hs_table`."""
    return hs_table(i, j, n, powers).entries[n]


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
    i_sub = i.subspace
    nonpiv = i_sub.nonpivots()
    entries = []
    for n in range(n_max + 1):
        psub = powers.subspace(n + 1)
        t = powers.cert_level(n + 1)
        if t is not None:
            reduced = i_sub.reduce(psub.rows)
            extra = linalg.rank(reduced[:, nonpiv], ring.p)
            codim = ring.M - i_sub.rank - extra
            entries.append(CertifiedValue(codim, EXACT, (ring.D,),
                                          note=f"m^{t} inside J^{n + 1}"))
        else:
            union = i_sub.sum(psub)
            entries.append(quotient_length(ring, union,
                                           certificate_level(ring, union)))
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
    untruncated Artin-Rees number; each tested equality also runs a
    Nakayama-quotient inclusion certificate, and the headline value is
    cross-checked at truncation D + delta.
    """
    witnesses: list[str] = []

    def window(ring: RingDescriptor) -> tuple[int | None, bool]:
        value, witness = _ar_window(i.lift(ring), j.lift(ring), n_max, powers)
        witnesses.append(witness)
        return value, True

    cert = two_level_value(window, i.ring, delta)
    note = "; ".join(filter(None, (witnesses[0], cert.note)))
    if cert.value is None:
        note = f"no s <= {n_max} over the window; " + note
    return replace(cert, note=note)


def _ar_window(i: IdealHandle, j: IdealHandle, n_max: int,
               powers: IdealPowers | None) -> tuple[int | None, str]:
    ring = i.ring
    if powers is None or powers.ring is not ring:
        powers = IdealPowers(j, n_max)
    meets = [i.subspace.intersect(powers.subspace(n)) for n in range(n_max + 1)]
    witness = ""
    for s in range(n_max + 1):
        ok = True
        current = meets[s]
        for n in range(s + 1, n_max + 1):
            current = _times_ideal_once(ring, j, current)
            if not (meets[n].rank == current.rank and meets[n] == current):
                ok = False
                witness = f"minimality witness: s={s} fails at n={n}"
                break
        if ok:
            # The Nakayama-quotient certificate (lhs inside rhs + m*lhs at
            # the working truncation) is implied by the subspace equality
            # just verified, so it passes without further computation.
            tag = "window equalities hold; quotient certificates pass"
            return s, (f"{tag}; {witness}" if witness else tag)
    return None, witness or f"every s <= {n_max} fails"


def _times_ideal_once(ring: RingDescriptor, j: IdealHandle,
                      base: Subspace) -> Subspace:
    """Subspace of J * (ideal carried by ``base``)."""
    rows = [ring.rows_times(base.rows, g.vec) for g in j.gens]
    stacked = np.vstack(rows + [ring.base_subspace.rows])
    r, piv = linalg.rref(stacked, ring.p)
    return Subspace(ring, r, piv)


# ---------------------------------------------------------------------------
# Order-filtration plateaus
# ---------------------------------------------------------------------------

def order_profile(upper: Subspace, lower: Subspace,
                  cuts: list[int]) -> list[int]:
    """Profile w -> length(H / F_w H) for the subquotient H = upper/lower.

    ``cuts[w]`` is the number of coordinates of order < w.  Requires lower
    to be contained in upper; both must be in ascending-order RREF, which
    turns the profile into pivot counting.
    """
    return [upper.prefix_rank(c) - lower.prefix_rank(c) for c in cuts]


def annihilator_profile(ring: RingDescriptor, start_rows: np.ndarray,
                        target: Subspace) -> list[int | None]:
    """Profile w -> least h with m^h * span(start_rows) within
    target + (order >= w); always finite at the truncated level, so the
    honest reading is the value on the widest plateau."""
    return _annihilator_chain(target, start_rows,
                              [ring.cut(t) for t in range(ring.D + 1)],
                              ring.rows_times_variable)


def _annihilator_chain(target: Subspace, start_rows: np.ndarray,
                       cuts: list[int], times_var) -> list[int | None]:
    """Annihilator profile of span(start_rows) modulo ``target``.

    The h-th link of the chain m^h * span(start_rows) lies in
    target + (order >= w) for w up to the order of its lowest surviving
    term (D once the chain dies).  ``cuts[w]`` counts the coordinates of
    order < w and ``times_var(rows, v)`` multiplies rows by the v-th
    variable, so the same chain serves ring and module coordinates.
    """
    ring = target.ring
    thresholds = []
    rows = linalg.rref(target.reduce(start_rows), ring.p)[0]
    for _h in range(ring.D + 1):
        if rows.shape[0] == 0:
            break
        # rows are RREF: the first row's pivot is the global minimum column.
        mincol = int(rows[0].nonzero()[0][0])
        w = int(np.searchsorted(cuts, mincol, side="right")) - 1
        thresholds.append(max(w, 0))
        nxt = np.vstack([times_var(rows, v) for v in range(len(ring.vars))])
        rows = linalg.rref(target.reduce(nxt), ring.p)[0]
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


def _reduced_mult_matrix(ring: RingDescriptor, elem) -> np.ndarray:
    """Multiplication by ``elem`` on the quotient, in standard-monomial
    coordinates."""
    rows = ring.multiples(elem.vec, ring.std_cols)
    reduced = ring.base_subspace.reduce(rows)
    return reduced[:, ring.std_cols]


def _koszul_boundary(ring: RingDescriptor, mats: list[np.ndarray],
                     i: int) -> np.ndarray:
    """Boundary K_i -> K_(i-1) with standard alternating signs on the wedge
    basis e_{j1<...<ji}; rows indexed by (subset, ring coordinate)."""
    r = len(mats)
    d = ring.dim
    dom = list(combinations(range(r), i))
    cod = list(combinations(range(r), i - 1))
    cod_index = {s: k for k, s in enumerate(cod)}
    out = np.zeros((len(dom) * d, len(cod) * d), dtype=np.int64)
    for a, subset in enumerate(dom):
        for t, jt in enumerate(subset):
            rest = subset[:t] + subset[t + 1:]
            b = cod_index[rest]
            sign = 1 if t % 2 == 0 else -1
            out[a * d:(a + 1) * d, b * d:(b + 1) * d] = (sign * mats[jt]) % ring.p
    return out


def _module_order_structures(ring: RingDescriptor, ncomp: int):
    """Column permutation sorting module coordinates by (order, component)
    and the induced cuts; prefix ranks then read the order filtration."""
    d = ring.dim
    degs = ring.deg_of_col[ring.std_cols]
    comp = np.repeat(np.arange(ncomp), d)
    deg_full = np.tile(degs, ncomp)
    idx_full = np.tile(np.arange(d), ncomp)
    perm = np.lexsort((idx_full, comp, deg_full))
    cuts = [int(np.searchsorted(deg_full[perm], w)) for w in range(ring.D + 1)]
    return perm, cuts


def _homology_level(ring: RingDescriptor, fs: tuple, i: int
                    ) -> tuple[int | None, bool, bool]:
    """Plateau length of H_i at one truncation level, whether the plateau
    is wide enough to resolve it, and a finiteness flag from the
    annihilation exponent of the homology subquotient."""
    d = ring.dim
    mats = [_reduced_mult_matrix(ring, f) for f in fs]
    var_mats = [_reduced_mult_matrix(ring, ring.variable(v))
                for v in range(len(ring.vars))]
    d_i = _koszul_boundary(ring, mats, i)
    kernel = linalg.left_nullspace(d_i, ring.p)
    # K_(r+1) = 0, so at i = r the image boundary has no rows.
    image_rows = _koszul_boundary(ring, mats, i + 1)
    ncomp = comb(len(fs), i)
    perm, cuts = _module_order_structures(ring, ncomp)
    u_rows, u_piv = linalg.rref(kernel[:, perm], ring.p)
    s_rows, s_piv = linalg.rref(image_rows[:, perm], ring.p)
    upper = Subspace(ring, u_rows, u_piv)
    lower = Subspace(ring, s_rows, s_piv)
    value, resolved = plateau(order_profile(upper, lower, cuts))

    finite = False
    if resolved:
        # annihilation exponent of the homology, module-level chain
        inv_perm = np.argsort(perm)

        def times_var(rows: np.ndarray, v: int) -> np.ndarray:
            blocks = rows[:, inv_perm].reshape(rows.shape[0], ncomp, d)
            out = (blocks.astype(np.float64) @ var_mats[v].astype(np.float64))
            out = out.astype(np.int64) % ring.p
            return out.reshape(rows.shape[0], ncomp * d)[:, perm]

        h_val, h_resolved = plateau(
            _annihilator_chain(lower, u_rows, cuts, times_var))
        if h_resolved:
            max_order = max((f.order() for f in fs), default=0)
            finite = h_val + max_order + 1 <= ring.D
    return value, resolved, finite


def _koszul_length(fs: tuple, i: int, delta: int, fs_hi: tuple | None = None
                   ) -> tuple[CertifiedValue, bool]:
    """H_i length certified across two truncation levels, plus the
    finiteness flag of every level computed; ``fs_hi`` is the sequence
    already lifted to the D + delta rebuild, when the caller holds one."""
    ring = fs[0].ring
    flags = []

    def level(level_ring: RingDescriptor) -> tuple[int | None, bool]:
        lifted = (fs_hi if fs_hi and level_ring is not ring
                  else tuple(level_ring.element(f) for f in fs))
        value, resolved, finite = _homology_level(level_ring, lifted, i)
        flags.append(finite)
        return value, resolved

    cert = two_level_value(level, ring, delta,
                           ring_hi=fs_hi[0].ring if fs_hi else None)
    finite = all(flags)
    if cert.is_certified() and not finite:
        cert = replace(cert, note=(cert.note + "; " if cert.note else "")
                       + "finiteness flag not established")
    return cert, finite


def koszul_homology_length(fs: tuple, i: int, delta: int = 2) -> CertifiedValue:
    """Length of the i-th Koszul homology of the sequence, junk-shed by the
    order-filtration plateau and certified across two truncation levels."""
    if not (1 <= i <= len(fs)):
        raise ValueError(f"homology index {i} out of range 1..{len(fs)}")
    return _koszul_length(fs, i, delta)[0]


def koszul_report(fs: tuple, delta: int = 2) -> KoszulReport:
    """All homology lengths H_1..H_r, rebuilding the D + delta ring once."""
    ring = fs[0].ring
    fs_hi = None
    if delta > 0:
        hi_ring = ring.rebuild(ring.D + delta)
        fs_hi = tuple(hi_ring.element(f.poly) for f in fs)
    results = [_koszul_length(fs, i, delta, fs_hi)
               for i in range(1, len(fs) + 1)]
    return KoszulReport(tuple(c for c, _ in results),
                        tuple(f for _, f in results))


# ---------------------------------------------------------------------------
# Filter-regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterRegularStep:
    index: int            # 1-based position in the sequence
    passed: bool
    exponent: CertifiedValue   # least h with m^h (I : f) inside I
    note: str = ""


@dataclass(frozen=True)
class SequenceReport:
    passed: bool
    steps: tuple[FilterRegularStep, ...]
    first_failure: int | None


def colon_plateaus(target: Subspace, f) -> tuple[tuple, tuple]:
    """Plateau readings (value, resolved) of the length of (A : f)/A and of
    the least h with m^h (A : f) inside A, A the ideal of ``target``."""
    ring = target.ring
    colon = colon_subspace(target, f)
    cuts = [ring.cut(w) for w in range(ring.D + 1)]
    return (plateau(order_profile(colon, target, cuts)),
            plateau(annihilator_profile(ring, colon.rows, target)))


def filter_regular_check(i: IdealHandle, f, delta: int = 2
                         ) -> tuple[bool, CertifiedValue]:
    """Is f filter-regular on R/I?  True when some power of m multiplies the
    colon (I : f) back into I; also returns the least such exponent h.

    At each level the exponent is the plateau value of
    :func:`colon_plateaus`, or None when the plateau does not resolve it;
    f passes when the two-level result carries a value.  Degenerate inputs:
    a unit f is vacuously regular (flagged); h is clamped to be positive.
    """
    ring = i.ring
    check_delta(delta)
    if f.is_unit():
        return True, CertifiedValue(1, TWO_LEVEL, (ring.D, ring.D + delta),
                                    note="degenerate: unit element")

    def exponent(level_ring: RingDescriptor) -> tuple[int | None, bool]:
        value, resolved = colon_plateaus(i.lift(level_ring).subspace,
                                         level_ring.element(f))[1]
        return (value if resolved else None), True

    cert = two_level_value(exponent, ring, delta)
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

"""Truncated models of local rings.

A local ring R = k[[x_1..x_n]]/I_0 is modeled by its truncation
R_bar = F_p[x_1..x_n]/(I_0 + m^D), a finite-dimensional F_p-algebra.  The
ambient coordinate space V is spanned by the monomials of total degree < D
in ascending graded-lex order; the defining ideal contributes an echelon
subspace B of V, and ring elements are stored as normal forms modulo B.

Because columns are sorted by ascending degree and echelon pivots sit on the
leftmost nonzero entry, the pivot of every basis row is its lowest-order
term.  Two consequences are used throughout:

* the order of an element (largest N with e in m^N) is just the minimal
  degree appearing in its normal form;
* the rank of any ideal subspace restricted to degrees < w is a pivot count,
  which makes order-filtration profiles free to evaluate.

:class:`RingDescriptor` (public name ``build_ring``) is the one constructor;
it checks every input, so each ring it returns computes in exact GF(p).
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import RingConstructionError, RingMismatchError, TruncationError
from .polynomials import TruncPoly, monomials_below, parse_poly, power


# Largest supported number M of monomials below D.  Each subspace keeps one
# dense form, its int64 RREF, and multiplication matrices and coordinate
# blocks are dense too: arrays of up to M x M entries, 0.8 GB each at the
# cap, so larger rings are rejected before any of them is built.
MAX_MONOMIALS = 10_000

# Largest supported exponent-key table.  Monomial products are looked up in
# a direct table indexed by radix-(D+1) exponent keys, which has
# 2 (D-1) (D+1)^(n-1) + 1 entries for n variables whatever M is: 128 MiB of
# int64 at the cap, reached by many variables at a small D.  The cap also
# keeps every key and every sum of two keys far inside int64.
MAX_KEY_TABLE = 2 ** 24


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def default_truncation(t_j: int, n_max: int) -> int:
    """Truncation order making every ideal I + J^(n+1), n <= n_max, carry a
    Nakayama certificate when m^t_j is contained in J."""
    return max(t_j * (n_max + 1) + 2, 8)


class Subspace:
    """A linear subspace of the ambient coordinate space, in canonical RREF.

    Membership testing is reduction to zero; equality of subspaces is plain
    array equality because the RREF is canonical for the fixed column order.
    Instances are immutable.
    """

    __slots__ = ("ring", "rows", "pivots", "_unit")

    def __init__(self, ring: "RingDescriptor", rows: np.ndarray, pivots: np.ndarray):
        self.ring = ring
        self.rows = rows
        self.pivots = pivots
        self._unit: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    def unit_rows(self) -> np.ndarray:
        """Mask of the monomial rows (see ``linalg.unit_rows``), computed
        once per subspace."""
        if self._unit is None:
            self._unit = linalg.unit_rows(self.rows)
        return self._unit

    def nonpivots(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.ring.M), self.pivots)

    def reduce(self, vectors: np.ndarray) -> np.ndarray:
        """Normal form of each row of ``vectors`` against this subspace."""
        return linalg.reduce_rows(np.atleast_2d(vectors), self.rows, self.pivots,
                                  self.ring.p, self.unit_rows())

    def contains_vector(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def contains(self, other: "Subspace") -> bool:
        if other.rank == 0:
            return True
        if other.rank > self.rank:
            return False
        return not self.reduce(other.rows).any()

    def sum_rows(self, extra: np.ndarray) -> "Subspace":
        rows, pivots = linalg.merge(self.rows, self.pivots,
                                    np.atleast_2d(extra), self.ring.p,
                                    self.unit_rows())
        return Subspace(self.ring, rows, pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ring(other)
        if self.rank >= other.rank:
            return self.sum_rows(other.rows)
        return other.sum_rows(self.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ring(other)
        rows, pivots = linalg.intersect_rowspaces(
            self.rows, self.pivots, other.rows, other.pivots, self.ring.p)
        return Subspace(self.ring, rows, pivots)

    def prefix_rank(self, cut: int) -> int:
        """Rank of the subspace projected to the first ``cut`` coordinates.

        In echelon form the rows with pivot >= cut vanish on those
        coordinates, so this is a pivot count.
        """
        return int(np.searchsorted(self.pivots, cut))

    def _check_ring(self, other: "Subspace") -> None:
        if other.ring is not self.ring:
            raise RingMismatchError("subspaces live over different rings")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((id(self.ring), self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(rank={self.rank}, dim_V={self.ring.M})"


class Element:
    """A ring element: a normal-form coordinate vector plus the defining
    polynomial it came from.

    The polynomial is kept so the element can be re-interpreted exactly in a
    rebuild of the ring at a higher truncation order.  That lift is faithful
    for elements defined by polynomials of degree < D, which covers all
    inputs (generators, perturbations, and their sums); it is documented as
    lossy for products, whose defining polynomials are themselves truncated.
    """

    __slots__ = ("ring", "vec", "poly")

    def __init__(self, ring: "RingDescriptor", vec: np.ndarray, poly: TruncPoly):
        self.ring = ring
        if vec.flags.writeable:
            vec.flags.writeable = False
        self.vec = vec
        self.poly = poly

    def is_zero(self) -> bool:
        return not self.vec.any()

    def order(self) -> int:
        """Largest N with this element in m^N; D if the element is zero."""
        support = np.nonzero(self.vec)[0]
        if support.size == 0:
            return self.ring.D
        return int(self.ring.deg_of_col[support[0]])

    def is_unit(self) -> bool:
        return self.vec[0] != 0

    def _check_ring(self, other: "Element") -> None:
        if other.ring is not self.ring:
            raise RingMismatchError("elements live over different rings")

    def __add__(self, other: "Element") -> "Element":
        self._check_ring(other)
        return Element(self.ring, self.ring._normal_form(self.vec + other.vec),
                       self.poly + other.poly)

    def __neg__(self) -> "Element":
        return Element(self.ring, (-self.vec) % self.ring.p, -self.poly)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other: "Element") -> "Element":
        self._check_ring(other)
        ring = self.ring
        a, b = self.vec, other.vec
        if np.count_nonzero(a) > np.count_nonzero(b):
            a, b = b, a
        acc = ring.rows_times(b[None, :], a)[0]
        return Element(ring, ring._normal_form(acc), self.poly * other.poly)

    def __pow__(self, n: int) -> "Element":
        return power(self, n, self.ring.one())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(self.vec, other.vec)

    def __hash__(self) -> int:
        return hash((id(self.ring), self.vec.tobytes()))

    def to_poly(self) -> TruncPoly:
        """The normal form as a sparse polynomial."""
        return self.ring.poly_of_vector(self.vec)

    def serialize(self) -> str:
        return self.to_poly().serialize()

    def __repr__(self) -> str:
        return f"Element({self.serialize()!r})"


class RingDescriptor:
    """The truncated model F_p[x_1..x_n]/(I_0 + m^D).

    The one ring constructor (``build_ring`` names it; ``rebuild`` calls
    it).  String generators are parsed, and ``TruncPoly`` ones re-read, at
    D.  Before any monomial is enumerated it raises ``RingConstructionError``
    on a p that is not prime or exceeds ``linalg.MAX_PRIME`` (past it float64
    elimination is inexact), D < 2, an empty or repeated variable list, more
    than ``MAX_MONOMIALS`` monomials, a key table past ``MAX_KEY_TABLE``
    entries, or a generator over another ring or with a constant term.

    Immutable after construction; all derived structures (exponent keys,
    echelon base subspace) are built eagerly.  Monomial products are looked
    up through the keys, so no structure grows as M^2.
    """

    def __init__(self, p: int, vars: Sequence[str],
                 base_gens: Sequence[str | TruncPoly], D: int):
        self.p = p
        self.vars = tuple(vars)
        self.D = D

        nvars = len(self.vars)
        if p > linalg.MAX_PRIME:
            raise RingConstructionError(
                f"p = {p} exceeds the largest supported prime {linalg.MAX_PRIME}")
        if not is_prime(p):
            raise RingConstructionError(f"{p} is not prime")
        if D < 2:
            raise RingConstructionError("truncation order must be at least 2")
        if nvars == 0:
            raise RingConstructionError("the ring needs at least one variable")
        if len(set(self.vars)) != nvars:
            raise RingConstructionError("duplicate variable names")
        if comb(nvars + D - 1, nvars) > MAX_MONOMIALS:
            raise RingConstructionError(
                f"D = {D} gives more than MAX_MONOMIALS = {MAX_MONOMIALS} "
                f"monomials in {nvars} variables")
        key_table = 2 * (D - 1) * (D + 1) ** (nvars - 1) + 1
        if key_table > MAX_KEY_TABLE:
            raise RingConstructionError(
                f"{nvars} variables at D = {D} need an exponent-key table of "
                f"{key_table} entries, more than MAX_KEY_TABLE = {MAX_KEY_TABLE}")
        polys = []
        for g in base_gens:
            if isinstance(g, str):
                g = parse_poly(g, self)
            elif (g.p, g.vars) != (p, self.vars):
                raise RingConstructionError(
                    f"generator {g.serialize()!r} lives over F_{g.p}{g.vars}")
            poly = TruncPoly(p, self.vars, D, g.terms)
            if poly.constant_term():
                raise RingConstructionError(
                    f"generator {poly.serialize()!r} has nonzero constant term")
            polys.append(poly)
        self.base_gen_polys = tuple(polys)
        self.monomials = monomials_below(nvars, D)
        self.M = len(self.monomials)
        self.col_index = {e: i for i, e in enumerate(self.monomials)}
        self.deg_of_col = np.array([sum(e) for e in self.monomials], dtype=np.int64)
        # cuts[w] = number of columns of degree < w, for w = 0..D (clamped above).
        self._cuts = np.searchsorted(self.deg_of_col, np.arange(D + 1))
        # Exponent keys in radix D + 1: below degree D the key of a product
        # is the sum of the keys, and _key_col maps a key back to its column.
        exps = np.array(self.monomials, dtype=np.int64)
        self._keys = exps @ (D + 1) ** np.arange(exps.shape[1], dtype=np.int64)
        self._key_col = np.full(key_table, self.M, dtype=np.int64)
        self._key_col[self._keys] = np.arange(self.M)

        stacked = np.vstack([np.zeros((0, self.M), dtype=np.int64)]
                            + [self.multiples(self.vector_of_poly(g))
                               for g in polys])
        rows, pivots = linalg.rref(stacked, p)
        self.base_subspace = Subspace(self, rows, pivots)
        if pivots.size and pivots[0] == 0:
            raise RingConstructionError("the defining ideal contains a unit; "
                                        "the model would be the zero ring")
        self.dim = self.M - rows.shape[0]
        self.std_cols = self.base_subspace.nonpivots()

    # -- construction helpers ------------------------------------------------

    def cut(self, w: int) -> int:
        """Number of coordinates of degree < w (clamped to [0, D])."""
        if w <= 0:
            return 0
        if w >= self.D:
            return self.M
        return int(self._cuts[w])

    # -- vectors and normal forms ---------------------------------------------

    def vector_of_poly(self, poly: TruncPoly) -> np.ndarray:
        vec = np.zeros(self.M, dtype=np.int64)
        for exps, c in poly.terms.items():
            vec[self.col_index[exps]] = c
        return vec

    def poly_of_vector(self, vec: np.ndarray) -> TruncPoly:
        """The sparse polynomial with coordinate vector ``vec``."""
        return TruncPoly(self.p, self.vars, self.D,
                         {self.monomials[c]: int(vec[c]) for c in np.nonzero(vec)[0]})

    def _normal_form(self, vec: np.ndarray) -> np.ndarray:
        out = self.base_subspace.reduce(vec)[0]
        out.flags.writeable = False
        return out

    def element(self, source: "str | TruncPoly | Element") -> Element:
        if isinstance(source, Element):
            if source.ring is self:
                return source
            return self.element(source.poly)  # lift via the defining polynomial
        if isinstance(source, str):
            source = parse_poly(source, self)
        if (source.p, source.vars) != (self.p, self.vars):
            raise RingMismatchError("polynomial context does not match the ring")
        if source.trunc != self.D:
            source = TruncPoly(self.p, self.vars, self.D, source.terms)
        vec = self._normal_form(self.vector_of_poly(source))
        return Element(self, vec, source)

    def zero(self) -> Element:
        return self.element(TruncPoly.zero(self.p, self.vars, self.D))

    def one(self) -> Element:
        return self.element(TruncPoly.constant(1, self.p, self.vars, self.D))

    def variable(self, i: int) -> Element:
        return self.element(TruncPoly.variable(self.vars[i], self.p, self.vars, self.D))

    # -- fast scatter products -------------------------------------------------

    def monomial_shifts(self, cols) -> np.ndarray:
        """Column of the product of basis monomials: entry (k, b) is the
        column of mu_cols[k] * mu_b, or M (a sink) when the product has
        degree >= D and drops."""
        cols = np.asarray(cols, dtype=np.int64)
        targets = self._key_col[self._keys[cols, None] + self._keys[None, :]]
        overflow = self.deg_of_col[cols, None] + self.deg_of_col[None, :] >= self.D
        targets[overflow] = self.M
        return targets

    def shift_rows(self, rows: np.ndarray, col: int) -> np.ndarray:
        """Raw product (no normal form) of each row with the basis monomial
        at ``col``; degree-overflow terms drop."""
        out = np.zeros((rows.shape[0], self.M + 1), dtype=np.int64)
        out[:, self.monomial_shifts([col])[0]] = rows
        return out[:, :self.M]

    def rows_times(self, rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Raw product mod p of each row with the coordinate vector ``vec``."""
        out = np.zeros((rows.shape[0], self.M), dtype=np.int64)
        for col in np.nonzero(vec)[0]:
            out += int(vec[col]) * self.shift_rows(rows, int(col))
        return out % self.p

    def rows_times_variable(self, rows: np.ndarray, var_idx: int) -> np.ndarray:
        """Multiply each row by the variable x_{var_idx} (raw scatter)."""
        return self.shift_rows(rows, self.col_index[
            tuple(1 if j == var_idx else 0 for j in range(len(self.vars)))])

    def multiples(self, vec: np.ndarray, mus=None) -> np.ndarray:
        """Raw products mod p (no normal form) of ``vec`` with the basis
        monomials at columns ``mus``, one row each.

        By default ``mus`` holds the monomials whose product with ``vec`` can
        survive, those of degree < D - order(vec); their rows span the ideal
        generated by ``vec`` modulo m^D.  Distinct monomials of the support
        land on distinct columns, so one scatter builds every row.
        """
        support = np.nonzero(vec)[0]
        if mus is None:
            order = int(self.deg_of_col[support[0]]) if support.size else self.D
            mus = np.arange(self.cut(self.D - order))
        cols = self.monomial_shifts(support)[:, mus].T
        rows = np.zeros((cols.shape[0], self.M + 1), dtype=np.int64)
        rows[np.arange(cols.shape[0])[:, None], cols] = vec[support]
        return rows[:, :self.M] % self.p

    # -- ideals as subspaces ----------------------------------------------------

    def ideal_subspace(self, gens: Iterable[Element]) -> Subspace:
        """Echelon basis of (generated ideal + defining ideal) inside V."""
        rows = [self.base_subspace.rows]
        for g in gens:
            if g.ring is not self:
                raise RingMismatchError("generator from a different ring")
            rows.append(self.multiples(g.vec))
        r, piv = linalg.rref(np.vstack(rows), self.p)
        return Subspace(self, r, piv)

    def power_span(self, w: int) -> Subspace:
        """Subspace of m^w: every coordinate of degree >= w, plus the base."""
        cut = self.cut(w)
        if cut == self.M:
            return self.base_subspace
        coords = np.zeros((self.M - cut, self.M), dtype=np.int64)
        coords[np.arange(self.M - cut), np.arange(cut, self.M)] = 1
        return self.base_subspace.sum_rows(coords)

    def rebuild(self, new_D: int) -> "RingDescriptor":
        """The same ring data at a different truncation order."""
        return RingDescriptor(self.p, self.vars, self.base_gen_polys, new_D)

    def spec_tuple(self) -> tuple:
        """Hashable identity of the underlying data, ignoring D."""
        return (self.p, self.vars,
                tuple(sorted(g.serialize() for g in self.base_gen_polys)))

    def __repr__(self) -> str:
        gens = ", ".join(g.serialize() for g in self.base_gen_polys) or "0"
        return (f"RingDescriptor(F_{self.p}[{', '.join(self.vars)}] / "
                f"({gens}) + m^{self.D}, dim={self.dim})")


build_ring = RingDescriptor


def subspace_of_ideal(ring: RingDescriptor, gens: Sequence[Element]) -> Subspace:
    return ring.ideal_subspace(gens)


def nakayama_contains_power(ring: RingDescriptor, subspace: Subspace,
                            t: int) -> bool:
    """Sound certificate that m^t lies inside the ideal carried by ``subspace``.

    Checks m^t within (subspace + m^(t+1)) at the working truncation; by
    Nakayama this implies containment in the untruncated ring.  A False only
    says the certificate failed at this level.
    """
    if t + 1 > ring.D:
        raise TruncationError(f"certificate needs t+1 <= D, got t={t}, D={ring.D}")
    lo, hi = ring.cut(t), ring.cut(t + 1)
    if lo == hi:
        return True
    cut = hi
    keep = subspace.prefix_rank(cut)
    low_rows = subspace.rows[:keep, :cut]
    low_piv = subspace.pivots[:keep]
    block = np.zeros((hi - lo, cut), dtype=np.int64)
    block[np.arange(hi - lo), np.arange(lo, hi)] = 1
    reduced = linalg.reduce_rows(block, low_rows, low_piv, ring.p)
    return not reduced.any()

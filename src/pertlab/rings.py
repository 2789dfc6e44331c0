"""Truncated models of local rings.

A local ring R = k[[x_1..x_n]]/I_0 is modeled by its truncation
R_bar = F_p[x_1..x_n]/(I_0 + m^D), a finite-dimensional F_p-algebra.  The
ambient coordinate space V is spanned by the monomials of total degree < D
in ascending graded-lex order; the defining ideal contributes an echelon
subspace B of V.  A polynomial (:class:`Poly`: a parsed expression or a
stored generator) is its defining vector in V, and a ring element
(:class:`Element`) adds its normal form modulo B.  A rebuild at another
order reads both through one lift, ``RingDescriptor._read``, which refuses
a polynomial that dropped a term below the new order.  The D + delta model
that certifies a reading at D (``pertlab.certify``) is built only by
``RingDescriptor.above``, which rejects delta < 1.

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

from math import comb, isqrt
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import RingConstructionError, RingMismatchError, TruncationError
from .polynomials import _NAME, _lowest, monomials_below, parse_poly


# Largest supported number M of monomials below D.  A stored subspace and
# every elimination output keep their unit rows as a pivot mask and only
# their polynomial rows, a few percent of the rank of an ideal subspace, in
# uint8 (p <= 251) or uint16.  What is built for one operation is dense and
# narrow, and exists once: multiplication matrices and ring products
# (reduced where they stand), coordinate blocks, a stacked elimination
# input, a subspace's rows materialized to eliminate or multiply, and a
# kernel; arrays of up to M x M residues, 100 MB each at the cap in uint8
# and 200 MB in uint16, so larger rings are rejected before any of them is
# built.  The elimination kernel makes no float (4 or 8 bytes a residue) or
# int64 copy of more than ``linalg._CHUNK`` rows of such a block, and a ring
# product widens, to uint16 or uint32, only the one monomial's terms it is
# adding.  A hilbert table at M = 8,855 (four variables, D = 20) peaks near
# 345 MB RSS.
MAX_MONOMIALS = 10_000

# Largest supported exponent-key table.  Monomial products are looked up in
# a direct table indexed by radix-(D+1) exponent keys, which has
# 2 (D-1) (D+1)^(n-1) + 1 entries for n variables whatever M is: 128 MiB of
# int64 at the cap, reached by many variables at a small D.  The cap also
# keeps every key and every sum of two keys far inside int64.
MAX_KEY_TABLE = 2 ** 24


def default_truncation(t_j: int, n_max: int) -> int:
    """Truncation order making every ideal I + J^(n+1), n <= n_max, carry a
    Nakayama certificate when m^t_j is contained in J."""
    return max(t_j * (n_max + 1) + 2, 8)


class Subspace(linalg.Staircase):
    """A linear subspace of the ambient coordinate space, in canonical RREF,
    stored as a ``linalg.Staircase``: pivots, unit-row mask and polynomial
    rows.

    Ideal subspaces are almost all monomials, so this is a small fraction
    of the dense form, and the kernel takes the subspace itself as a basis.
    It is built from an elimination output, a ``Staircase`` whose fields it
    adopts as they are: no copy, no unit scan.  ``rows`` (read-only) and
    ``dense`` (writable) materialize the dense RREF in
    ``linalg.narrow_dtype(p)``, afresh on each call, for a block that is an
    input itself: a stacked elimination input, a ring product, or a block
    built only to be reduced.
    Membership testing is reduction to zero; equality of subspaces is
    equality of the compact fields, because the RREF is canonical for the
    fixed column order.  Instances are immutable, and signed arithmetic on
    their rows must first promote to int64.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: "RingDescriptor", basis: linalg.Staircase):
        self.ring = ring
        # Elimination outputs' polynomial rows are a tight read-only narrow
        # array of their own.
        super().__init__(basis.pivots, basis.unit, basis.poly)

    @property
    def rank(self) -> int:
        return self.pivots.size

    def nonpivots(self) -> np.ndarray:
        return linalg.nonpivots(self.pivots, self.ring.M)

    def reduce(self, vectors: np.ndarray, in_place: bool = False) -> np.ndarray:
        """Normal form of each row of ``vectors`` against this subspace;
        ``in_place`` clears a writable narrow block built only to be
        reduced where it stands (see ``linalg.reduce_rows``)."""
        return linalg.reduce_rows(np.atleast_2d(vectors), self, self.ring.p,
                                  in_place=in_place)

    def contains_vector(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def contains(self, other: "Subspace") -> bool:
        return not self.reduce(other.dense(), in_place=True).any()

    def sum_rows(self, extra: np.ndarray) -> "Subspace":
        basis, _ = linalg.merge(self, np.atleast_2d(extra), self.ring.p)
        # merge gives a basis it did not extend back as it is.
        return self if basis is self else Subspace(self.ring, basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ring(other)
        if self.rank >= other.rank:
            return self.sum_rows(other.rows)
        return other.sum_rows(self.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ring(other)
        return Subspace(self.ring, linalg.intersect_rowspaces(
            self, other, self.ring.p)[0])

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
        return (self.ring is other.ring
                and np.array_equal(self.pivots, other.pivots)
                and np.array_equal(self.unit, other.unit)
                and np.array_equal(self.poly, other.poly))

    def __hash__(self) -> int:
        return hash((id(self.ring), self.pivots.tobytes(), self.poly.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(rank={self.rank}, dim_V={self.ring.M})"


class Poly:
    """A polynomial over the monomials below the ring's D: its defining
    vector ``raw`` (narrow, read-only) and ``dropped``, the least degree of
    a term that truncation removed from it or from its operands (None if
    none was).

    This is the package's one polynomial arithmetic: the parser evaluates
    in it, a ring keeps its generators in it, and :class:`Element` inherits
    it.  A result has its operands' class, so an element's sum or product
    takes one normal form and a parsed polynomial none.
    """

    __slots__ = ("ring", "raw", "dropped")

    def __init__(self, ring: "RingDescriptor", raw: np.ndarray,
                 dropped: int | None = None):
        raw.flags.writeable = False
        self.ring = ring
        self.raw = raw
        self.dropped = dropped

    def _check_ring(self, other: "Poly") -> None:
        if other.ring is not self.ring:
            raise RingMismatchError("elements live over different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        raw = (self.raw.astype(np.int64) + other.raw) % self.ring.p
        return type(self)(self.ring, raw.astype(self.raw.dtype),
                          _lowest(self.dropped, other.dropped))

    def __neg__(self) -> "Poly":
        raw = -self.raw.astype(np.int64) % self.ring.p
        return type(self)(self.ring, raw.astype(self.raw.dtype), self.dropped)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        ring = self.ring
        a, b = self.raw, other.raw
        if np.count_nonzero(a) > np.count_nonzero(b):
            a, b = b, a
        # The truncation drops every product of terms of degree sum >= D;
        # the degrees present in each factor, as a mask over 0..D-1.
        present = np.zeros((2, ring.D), dtype=bool)
        for mask, v in zip(present, (a, b)):
            mask[ring.deg_of_col[np.nonzero(v)[0]]] = True
        sums = np.add.outer(*map(np.flatnonzero, present))
        return type(self)(ring, ring.rows_times(b[None, :], a)[0], _lowest(
            self.dropped, other.dropped, *sums[sums >= ring.D].tolist()))

    def __pow__(self, n: int) -> "Poly":
        """Square-and-multiply; ValueError for n < 0."""
        if n < 0:
            raise ValueError("negative exponent")
        result, base = type(self)(self.ring, self.ring.term(0).raw), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # a square past the last bit is unused, and its dropped terms
                base = base * base  # would mark the result as lossy
        return result

    def serialize(self) -> str:
        return self.ring._format(self.raw)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.serialize()!r})"


class Element(Poly):
    """A ring element: a :class:`Poly` with its normal form ``vec`` modulo
    the defining ideal (int64, read-only), by which elements compare.

    A rebuild of the ring re-reads the element from ``raw``; one that
    dropped a term below the new order, such as a product or an input with
    a term of degree >= D, raises TruncationError instead of reading another
    element.  ``serialize`` formats its text from ``vec`` on each call.
    """

    __slots__ = ("vec",)

    def __init__(self, ring: "RingDescriptor", raw: np.ndarray,
                 dropped: int | None = None):
        super().__init__(ring, raw, dropped)
        self.vec = ring._normal_form(raw)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(self.vec, other.vec)

    def __hash__(self) -> int:
        return hash((id(self.ring), self.vec.tobytes()))

    def serialize(self) -> str:
        return self.ring._format(self.vec)


class RingDescriptor:
    """The truncated model F_p[x_1..x_n]/(I_0 + m^D).

    The one ring constructor (``build_ring`` names it; ``rebuild`` calls
    it).  Before any monomial is enumerated it raises
    ``RingConstructionError`` on a p that is not prime or exceeds
    ``linalg.MAX_PRIME`` (past it float64 elimination is inexact), D < 2, an
    empty or repeated variable list, a variable name that the expression
    parser would not read as one name, more than ``MAX_MONOMIALS``
    monomials, or a key table past ``MAX_KEY_TABLE`` entries.  Then, over
    the enumerated monomials, string generators are parsed at D and
    ``Poly`` ones (a rebuild's) read through the element lift, ``_read``,
    which raises ``TruncationError`` for one that dropped a term of degree
    below D; a generator over another ring or with a constant term raises
    ``RingConstructionError``.

    Immutable after construction; all derived structures (exponent keys,
    echelon base subspace) are built eagerly.  Monomial products are looked
    up through the keys, so no structure grows as M^2.
    """

    def __init__(self, p: int, vars: Sequence[str],
                 base_gens: Sequence[str | Poly], D: int):
        self.p = p
        self.vars = tuple(vars)
        self.D = D

        nvars = len(self.vars)
        if p > linalg.MAX_PRIME:
            raise RingConstructionError(
                f"p = {p} exceeds the largest supported prime {linalg.MAX_PRIME}")
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise RingConstructionError(f"{p} is not prime")
        if D < 2:
            raise RingConstructionError("truncation order must be at least 2")
        if nvars == 0:
            raise RingConstructionError("the ring needs at least one variable")
        for v in self.vars:
            if not (isinstance(v, str) and _NAME.fullmatch(v)):
                raise RingConstructionError(
                    f"variable name {v!r} is not an identifier (a letter or "
                    f"_, then letters, digits or _)")
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
        self.monomials = monomials_below(nvars, D)
        self.M = len(self.monomials)
        self.deg_of_col = np.array([sum(e) for e in self.monomials], dtype=np.int64)
        # cuts[w] = cut(w), the number of columns of degree < w, for w = 0..D.
        self.cuts = np.searchsorted(self.deg_of_col, np.arange(D + 1))
        # Exponent keys in radix D + 1: below degree D the key of a product
        # is the sum of the keys, and _key_col maps a key back to its column.
        exps = np.array(self.monomials, dtype=np.int64)
        self._keys = exps @ (D + 1) ** np.arange(exps.shape[1], dtype=np.int64)
        self._key_col = np.full(key_table, self.M, dtype=np.int64)
        self._key_col[self._keys] = np.arange(self.M)
        # The column of each variable x_i, whose key is (D + 1)^i.
        self.var_cols = self._key_col[(D + 1) ** np.arange(nvars)]

        gens = []
        for g in base_gens:
            if isinstance(g, str):
                g = parse_poly(g, self)
            elif (g.ring.p, g.ring.vars) != (p, self.vars):
                raise RingConstructionError(
                    f"generator {g.serialize()!r} lives over "
                    f"F_{g.ring.p}{g.ring.vars}")
            g = Poly(self, *self._read(g))
            if g.raw[0]:
                raise RingConstructionError(
                    f"generator {g.serialize()!r} has nonzero constant term")
            gens.append(g)
        self.base_gens = tuple(gens)
        # The ring is immutable, so its generators are serialized once.
        self._gen_text = tuple(g.serialize() for g in gens)
        stacked = self._stacked_multiples([g.raw for g in gens])
        basis, pivots = linalg.rref(stacked, p)
        self.base_subspace = Subspace(self, basis)
        if pivots.size and pivots[0] == 0:
            raise RingConstructionError("the defining ideal contains a unit; "
                                        "the model would be the zero ring")
        self.dim = self.M - basis.shape[0]
        self.std_cols = self.base_subspace.nonpivots()
        # No standard monomial of degree D - 1 (Nakayama's certificate at
        # D - 1 as a pivot count): m^D lies in I_0, the model is the ring.
        self.is_exact = not (self.deg_of_col[self.std_cols] == D - 1).any()

    # -- construction helpers ------------------------------------------------

    def cut(self, w: int) -> int:
        """Number of coordinates of degree < w: 0 for w <= 0, M for w >= D."""
        return int(np.searchsorted(self.deg_of_col, w))

    # -- vectors and normal forms ---------------------------------------------

    def _format(self, vec: np.ndarray) -> str:
        """Canonical text of the polynomial with coordinate vector ``vec``,
        read from its last column (columns ascend in graded-lex order):
        least nonnegative residues, `^` for powers."""
        parts = []
        for col in np.nonzero(vec)[0][::-1]:
            c = int(vec[col])
            factors = [v if e == 1 else f"{v}^{e}"
                       for v, e in zip(self.vars, self.monomials[col]) if e]
            parts.append("*".join(factors if c == 1 and factors
                                  else [str(c)] + factors))
        return " + ".join(parts) or "0"

    def _normal_form(self, vec: np.ndarray) -> np.ndarray:
        # int64, so that signed arithmetic on ``vec`` cannot wrap at p = 251.
        out = self.base_subspace.reduce(vec)[0].astype(np.int64)
        out.flags.writeable = False
        return out

    def element(self, source: "str | np.ndarray | Poly") -> Element:
        """The element read from an expression, from a coordinate vector
        over the monomials below D, or from a polynomial of this ring or of
        a rebuild of it at another order (see ``_read``)."""
        if isinstance(source, str):
            source = parse_poly(source, self)
        if isinstance(source, Poly):
            if isinstance(source, Element) and source.ring is self:
                return source
            return Element(self, *self._read(source))
        if np.shape(source) != (self.M,):
            raise RingMismatchError(f"a coordinate vector at D = {self.D} "
                                    f"has {self.M} entries")
        return Element(self, (np.asarray(source) % self.p).astype(
            linalg.narrow_dtype(self.p)))

    def _read(self, poly: Poly) -> tuple[np.ndarray, int | None]:
        """The defining vector and dropped degree of ``poly`` at this D, the
        lift of an element and of a stored generator alike.  The monomials
        below D are a prefix of those below any higher order, so a
        polynomial of another order is zero-padded, or cut to its prefix,
        counting cut-off terms as dropped; TruncationError when a dropped
        term could lie below D."""
        old = poly.ring
        if old is self:
            return poly.raw, poly.dropped
        if (old.p, old.vars) != (self.p, self.vars):
            raise RingMismatchError("polynomial context does not match the ring")
        if poly.dropped is not None and poly.dropped < self.D:
            raise TruncationError(
                f"{old._format(poly.raw)!r} dropped a term of degree >= "
                f"{poly.dropped} at D = {old.D}, so it cannot be read at D = "
                f"{self.D}; give a D above every input term's degree")
        raw = np.pad(poly.raw[:self.M], (0, max(self.M - old.M, 0)))
        cut = old.deg_of_col[self.M:][poly.raw[self.M:] != 0]
        return raw, _lowest(poly.dropped, *cut[:1].tolist())

    def term(self, col: int, c: int = 1) -> Poly:
        """The polynomial c times the basis monomial at column ``col``;
        column 0 holds 1."""
        raw = np.zeros(self.M, dtype=linalg.narrow_dtype(self.p))
        raw[col] = c % self.p
        return Poly(self, raw)

    def monomial(self, col: int) -> Element:
        """The basis monomial at column ``col``; column 0 holds 1."""
        return self.element(self.term(col))

    def zero(self) -> Element:
        return self.element(self.term(0, 0))

    def one(self) -> Element:
        return self.monomial(0)

    def variable(self, i: int) -> Element:
        return self.monomial(int(self.var_cols[i]))

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

    def rows_times(self, rows: np.ndarray, vec: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Raw product mod p of each row of residues with the coordinate
        vector ``vec``, in ``linalg.narrow_dtype(p)``, written into ``out``
        (zeros of that dtype and of the rows' shape) or a fresh array.

        Each monomial of the support scatters once, onto the columns where
        its products survive.  ``out`` starts as zeros, so a leading term
        with coefficient 1, such as a variable's, is a plain copy.  Every
        other product is widened: a sum of a residue and a product of two,
        below p^2, fits uint16 for p <= 251 and uint32 up to
        ``linalg.MAX_PRIME``.
        """
        p = self.p
        dtype = linalg.narrow_dtype(p)
        wide = np.uint16 if dtype == np.uint8 else np.uint32
        if out is None:
            out = np.zeros((rows.shape[0], self.M), dtype=dtype)
        support = np.nonzero(vec)[0]
        for k, (c, targets) in enumerate(zip(vec[support] % p,
                                             self.monomial_shifts(support))):
            keep = targets < self.M
            cols = targets[keep]
            if k == 0 and c == 1:
                out[:, cols] = rows[:, keep]
                continue
            acc = rows[:, keep].astype(wide) * wide(c)
            acc += out[:, cols]
            acc %= p
            out[:, cols] = acc
        return out

    def _multipliers(self, vec: np.ndarray) -> np.ndarray:
        """The columns of the monomials whose product with ``vec`` can
        survive: those of degree < D - order(vec)."""
        support = np.nonzero(vec)[0]
        order = int(self.deg_of_col[support[0]]) if support.size else self.D
        return np.arange(self.cut(self.D - order))

    def multiples(self, vec: np.ndarray, mus=None,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Raw products mod p (no normal form) of ``vec`` with the basis
        monomials at columns ``mus``, one row each, in
        ``linalg.narrow_dtype(p)``, written into ``out`` (zeros of that
        dtype, one row per monomial) or a fresh array.

        By default ``mus`` holds the monomials whose product with ``vec`` can
        survive (``_multipliers``); their rows span the ideal generated by
        ``vec`` modulo m^D.  Distinct monomials of the support land on
        distinct columns, so one scatter builds every row.
        """
        support = np.nonzero(vec)[0]
        if mus is None:
            mus = self._multipliers(vec)
        cols = self.monomial_shifts(support)[:, mus].T
        if out is None:
            out = np.zeros((cols.shape[0], self.M),
                           dtype=linalg.narrow_dtype(self.p))
        row, term = np.nonzero(cols < self.M)
        out[row, cols[row, term]] = (vec[support] % self.p)[term]
        return out

    def _stacked_multiples(self, vecs: list[np.ndarray],
                           head: linalg.Staircase | None = None) -> np.ndarray:
        """One narrow block holding the dense rows of ``head``, if given,
        then the multiples of each of ``vecs``, each written once into its
        place."""
        counts = [self._multipliers(v).size for v in vecs]
        top = head.shape[0] if head is not None else 0
        stacked = np.zeros((top + sum(counts), self.M),
                           dtype=linalg.narrow_dtype(self.p))
        if head is not None:
            head.dense(stacked[:top])
        for vec, k in zip(vecs, counts):
            self.multiples(vec, out=stacked[top:top + k])
            top += k
        return stacked

    # -- ideals as subspaces ----------------------------------------------------

    def ideal_subspace(self, gens: Iterable[Element]) -> Subspace:
        """Echelon basis of (generated ideal + defining ideal) inside V."""
        gens = list(gens)
        if any(g.ring is not self for g in gens):
            raise RingMismatchError("generator from a different ring")
        stacked = self._stacked_multiples([g.vec for g in gens],
                                          self.base_subspace)
        return Subspace(self, linalg.rref(stacked, self.p)[0])

    def power_span(self, w: int) -> Subspace:
        """Subspace of m^w: every coordinate of degree >= w, plus the base."""
        return self.base_subspace.sum_rows(linalg.unit_basis(
            np.arange(self.cut(w), self.M), self.M, self.p).dense())

    def rebuild(self, new_D: int) -> "RingDescriptor":
        """The same ring data at a different truncation order."""
        return RingDescriptor(self.p, self.vars, self.base_gens, new_D)

    def above(self, delta: int) -> "RingDescriptor":
        """The D + delta model that certifies a reading at D, the one way up
        a level; ValueError for delta < 1, which would certify nothing."""
        if delta < 1:
            raise ValueError(f"delta must be at least 1, got {delta}")
        return self.rebuild(self.D + delta)

    def spec_tuple(self) -> tuple:
        """Hashable identity of the underlying data, ignoring D."""
        return self.p, self.vars, tuple(sorted(self._gen_text))

    def __repr__(self) -> str:
        gens = ", ".join(self._gen_text) or "0"
        return (f"RingDescriptor(F_{self.p}[{', '.join(self.vars)}] / "
                f"({gens}) + m^{self.D}, dim={self.dim})")


build_ring = RingDescriptor


def nakayama_contains_power(ring: RingDescriptor, subspace: Subspace,
                            t: int) -> bool:
    """Sound certificate that m^t lies inside the ideal carried by ``subspace``.

    Checks m^t within (subspace + m^(t+1)) at the working truncation; by
    Nakayama this implies containment in the untruncated ring.  A False only
    says the certificate failed at this level.
    """
    if t + 1 > ring.D:
        raise TruncationError(f"certificate needs t+1 <= D, got t={t}, D={ring.D}")
    hi = ring.cut(t + 1)
    # Modulo m^(t+1) only the first hi coordinates count: reduce the
    # degree-t monomials by the subspace's prefix there.
    block = linalg.unit_basis(np.arange(ring.cut(t), hi), hi, ring.p).dense()
    return not linalg.reduce_rows(block, subspace.prefix(hi), ring.p,
                                  in_place=True).any()

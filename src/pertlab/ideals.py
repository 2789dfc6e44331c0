"""Ideal arithmetic over the truncated model.

An :class:`IdealHandle` is a generator list plus a lazily materialized
echelon subspace of the ambient space.  Sums, products, powers,
intersections, colons and lengths all reduce to exact linear algebra; the
certification of each numeric answer (is the truncated value the true one?)
is carried by :class:`pertlab.certify.CertifiedValue`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .certify import EXACT, UNCERTIFIED, CertifiedValue
from .errors import RingMismatchError
from .polynomials import TruncPoly
from .rings import Element, RingDescriptor, Subspace, nakayama_contains_power


class IdealHandle:
    """An ideal of the truncated ring, owned by its generator list.

    The echelon subspace is computed on first use; materialization is
    idempotent, so a rare duplicated computation under concurrency is
    harmless.  Two handles are ideal-equal modulo m^D exactly when their
    subspaces coincide.
    """

    __slots__ = ("ring", "gens", "note", "_subspace")

    def __init__(self, ring: RingDescriptor, gens: Sequence[Element],
                 note: str = ""):
        for g in gens:
            if g.ring is not ring:
                raise RingMismatchError("generator belongs to a different ring")
        self.ring = ring
        self.gens = tuple(gens)
        self.note = note
        self._subspace: Subspace | None = None

    @property
    def subspace(self) -> Subspace:
        if self._subspace is None:
            self._subspace = self.ring.ideal_subspace(self.gens)
        return self._subspace

    def contains_element(self, e: Element) -> bool:
        return self.subspace.contains_vector(e.vec)

    def equals(self, other: "IdealHandle") -> bool:
        self._check_ring(other)
        return self.subspace == other.subspace

    def is_unit(self) -> bool:
        return self.subspace.rank and self.subspace.pivots[0] == 0

    def lift(self, ring: RingDescriptor) -> "IdealHandle":
        """The generators re-read in a rebuild ``ring``; self in its own."""
        if ring is self.ring:
            return self
        return IdealHandle(ring, [ring.element(g) for g in self.gens],
                           note=self.note)

    def _check_ring(self, other: "IdealHandle") -> None:
        if other.ring is not self.ring:
            raise RingMismatchError("ideals live over different rings")

    def __repr__(self) -> str:
        gens = ", ".join(g.serialize() for g in self.gens) or "0"
        return f"IdealHandle(({gens}))"


def ideal(ring: RingDescriptor, gens: Iterable[str | Element]) -> IdealHandle:
    return IdealHandle(ring, [ring.element(g) for g in gens])


def zero_ideal(ring: RingDescriptor) -> IdealHandle:
    return IdealHandle(ring, [])


def unit_ideal(ring: RingDescriptor) -> IdealHandle:
    return IdealHandle(ring, [ring.one()])


def maximal_ideal(ring: RingDescriptor) -> IdealHandle:
    return IdealHandle(ring, [ring.variable(i) for i in range(len(ring.vars))])


def _dedupe(gens: Iterable[Element]) -> list[Element]:
    seen: dict[bytes, Element] = {}
    for g in gens:
        if g.is_zero():
            continue
        seen.setdefault(g.vec.tobytes(), g)
    return list(seen.values())


def ideal_sum(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    """Concatenated generators."""
    a._check_ring(b)
    return IdealHandle(a.ring, _dedupe(a.gens + b.gens))


def ideal_product(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    """Pairwise generator products."""
    a._check_ring(b)
    return IdealHandle(a.ring, _dedupe(g * h for g in a.gens for h in b.gens))


def ideal_power(a: IdealHandle, e: int) -> IdealHandle:
    """Iterated product; exponent 0 gives the unit ideal."""
    if e < 0:
        raise ValueError("negative ideal power")
    result = unit_ideal(a.ring)
    for _ in range(e):
        result = ideal_product(result, a)
    return result


def ideal_intersection(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    """Handle whose subspace is the intersection of the two subspaces.

    Exact for the untruncated ring whenever one side contains m^D (e.g. a
    certified power of an m-primary ideal); otherwise callers should confirm
    by two-level agreement.
    """
    a._check_ring(b)
    return _handle_of(a.subspace.intersect(b.subspace))


def _handle_of(sub: Subspace) -> IdealHandle:
    # A vector-space basis of (A + m^D)/m^D generates the ideal A + m^D.
    ring = sub.ring
    handle = IdealHandle(ring, [Element(ring, ring._normal_form(row.copy()),
                                        ring.poly_of_vector(row))
                                for row in sub.rows])
    handle._subspace = sub
    return handle


def mult_matrix(ring: RingDescriptor, elem: Element) -> np.ndarray:
    """Raw products elem * mu_j for every basis monomial, as matrix rows."""
    return ring.multiples(elem.vec, np.arange(ring.M))


def colon_subspace(target: Subspace, elem: Element) -> Subspace:
    """Solution space {g : g * elem inside target}, as a subspace.

    The target must be an ideal subspace (closed under ring multiplication),
    which makes the solution space an ideal subspace as well.
    """
    ring = target.ring
    if elem.is_zero():
        rows, piv = linalg.rref(np.eye(ring.M, dtype=np.int64), ring.p)
        return Subspace(ring, rows, piv)
    products = mult_matrix(ring, elem)
    residues = target.reduce(products)
    nonpiv = target.nonpivots()
    kernel = linalg.left_nullspace(residues[:, nonpiv], ring.p)
    rows, piv = linalg.rref(kernel, ring.p)
    return Subspace(ring, rows, piv)


def ideal_colon(a: IdealHandle, by: "Element | IdealHandle") -> IdealHandle:
    """(a : by); colon by an ideal intersects the colons by its generators,
    and an element divisor is read as the ideal it generates."""
    ring = a.ring
    if isinstance(by, Element):
        by = IdealHandle(by.ring, (by,))
    a._check_ring(by)
    divisors = [g for g in by.gens if not g.is_zero()]
    if not divisors:
        return IdealHandle(ring, [ring.one()],
                           note="degenerate: colon by the zero ideal")
    sub = colon_subspace(a.subspace, divisors[0])
    for g in divisors[1:]:
        sub = sub.intersect(colon_subspace(a.subspace, g))
    return _handle_of(sub)


def certificate_level(ring: RingDescriptor, sub: Subspace) -> int | None:
    """Least t < D whose Nakayama certificate puts m^t inside ``sub``."""
    return next((t for t in range(1, ring.D)
                 if nakayama_contains_power(ring, sub, t)), None)


def m_primary_level(a: IdealHandle) -> CertifiedValue:
    """Least t with a verified certificate m^t inside the ideal."""
    ring = a.ring
    if a.is_unit():
        # The unit ideal absorbs every power; report the lowest level.
        return CertifiedValue(1, EXACT, (ring.D,), note="unit ideal")
    t = certificate_level(ring, a.subspace)
    if t is None:
        return CertifiedValue(None, UNCERTIFIED, (ring.D,),
                              note=f"no m-primary certificate within D={ring.D}")
    return CertifiedValue(t, EXACT, (ring.D,))


def quotient_length(ring: RingDescriptor, sub: Subspace,
                    level: int | None) -> CertifiedValue:
    """Length of the quotient by the ideal carried by ``sub``: its
    codimension, exact only when ``level`` certifies m^level inside it."""
    codim = ring.M - sub.rank
    if level is not None:
        return CertifiedValue(codim, EXACT, (ring.D,), note=f"m^{level} certificate")
    return CertifiedValue(None, UNCERTIFIED, (ring.D,),
                          note=f"no m-primary certificate within D={ring.D}; "
                               f"truncated codimension {codim}")


def ideal_length(a: IdealHandle) -> CertifiedValue:
    """Length of the quotient by the ideal, exact under an m-primary
    certificate."""
    return quotient_length(a.ring, a.subspace, m_primary_level(a).value)


def ideal_contains(a: IdealHandle, e: Element) -> bool:
    """Membership modulo m^D; exact for ideals certified m-primary below D."""
    return a.contains_element(e)


class IdealPowers:
    """Cache of the powers J^0..J^top of a fixed ideal, with subspaces and
    m-primary certificate levels.

    When J equals the maximal ideal (a Nakayama argument upgrades subspace
    equality at any D >= 2 to ideal equality), powers are taken directly as
    spans of high-degree coordinates.
    """

    def __init__(self, j: IdealHandle, top: int):
        self.ring = j.ring
        self.j = j
        self._is_maximal = (j.subspace == j.ring.power_span(1))
        self.handles: list[IdealHandle] = [unit_ideal(j.ring)]
        self._cert_levels: dict[int, int | None] = {}
        self.extend(top)

    @property
    def top(self) -> int:
        return len(self.handles) - 1

    def extend(self, top: int) -> None:
        while self.top < top:
            e = self.top + 1
            if self._is_maximal:
                ring = self.ring
                gens = [ring.element(TruncPoly(ring.p, ring.vars, ring.D,
                                               {ring.monomials[c]: 1}))
                        for c in range(ring.cut(e), ring.cut(e + 1))]
                handle = IdealHandle(self.ring, _dedupe(gens))
                handle._subspace = self.ring.power_span(e)
            else:
                handle = ideal_product(self.handles[-1], self.j)
            self.handles.append(handle)

    def handle(self, e: int) -> IdealHandle:
        if e > self.top:
            self.extend(e)
        return self.handles[e]

    def subspace(self, e: int) -> Subspace:
        return self.handle(e).subspace

    def cert_level(self, e: int) -> int | None:
        """Certified t with m^t inside J^e, or None."""
        if e not in self._cert_levels:
            self._cert_levels[e] = m_primary_level(self.handle(e)).value
        return self._cert_levels[e]

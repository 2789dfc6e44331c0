"""Certification statuses and stabilization helpers.

Every integer invariant read off a truncated model carries a status:

* ``exact``: backed by a Nakayama certificate (the target ideal provably
  contains a power of the maximal ideal below the truncation order, or the
  model is the ring itself, ``RingDescriptor.is_exact``), so the model
  computes the true value.
* ``two-level-stable``: the value agrees between truncation levels D and
  D + delta.  Honest and falsifiable, but a heuristic.
* ``uncertified``: neither applies; the raw value is reported with a note.

A result built from several statuses carries the weakest of them
(:func:`weakest`), so no combination ever promotes a status.

For quantities not covered by the exactness rule (Koszul homology lengths,
colons into non-primary ideals) the raw quotient over the truncated ring is
polluted by classes supported near the truncation boundary.  Those are shed
by profiling the invariant along the order filtration, which :func:`read`
reads by one rule: on a model that is the ring, which has no boundary, the
raw last entry, resolved as EXACT; otherwise the value of the widest plateau
(:func:`plateau`, the one rule for when a plateau resolves), whose two-level
agreement is then the certificate.

Every two-level number goes through :func:`two_level_value`, a pure rule
over two readings ``(value, resolved)`` that its caller takes at D and at
D + delta: a reading resolved as EXACT at either level, D's first, is the
``exact`` value; else if both resolve and agree, the result is
``two-level-stable`` with the value at D; otherwise it is ``uncertified``,
carrying the value at D when that reading resolved and None when it did
not.  delta must be at least 1, since a value read at one level only
certifies nothing; every caller builds its D + delta model through
``RingDescriptor.above``, which raises ValueError, before its first reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

EXACT = "exact"
TWO_LEVEL = "two-level-stable"
UNCERTIFIED = "uncertified"

#: Statuses from strongest to weakest.
_STRENGTH = (EXACT, TWO_LEVEL, UNCERTIFIED)

#: Minimum plateau width for a profile value to count as resolved.
PLATEAU_MIN_WIDTH = 3


@dataclass(frozen=True)
class CertifiedValue:
    """An integer invariant with its certification status.

    ``value`` is None when the quantity could not be established (e.g. a
    length that is not provably finite at this truncation); ``note`` then
    says why.
    """

    value: int | None
    status: str
    levels: tuple[int, ...] = ()
    note: str = ""

    def is_certified(self) -> bool:
        return self.status in (EXACT, TWO_LEVEL) and self.value is not None


def weakest(statuses: Iterable[str]) -> str:
    """The weakest of ``statuses`` in the order exact > two-level-stable >
    uncertified; ``exact`` when there are none."""
    return _STRENGTH[max((_STRENGTH.index(s) for s in statuses), default=0)]


def plateau(profile: Sequence[int | None]) -> tuple[int | None, bool]:
    """Value of the longest constant run of a filtration profile, and
    whether it resolves: not None, on a run PLATEAU_MIN_WIDTH or wider.

    The final entry is the raw truncated value (no filtration window left)
    and is excluded from the search.  Ties break toward the latest run, the
    one farthest from low-order noise.
    """
    best_val: int | None = None
    best_len = 0
    for value, run in groupby(profile[:-1] if len(profile) > 1 else profile):
        width = len(list(run))
        if width >= best_len:
            best_val, best_len = value, width
    return best_val, best_val is not None and best_len >= PLATEAU_MIN_WIDTH


def read(profile: Sequence[int | None], exact: bool) -> tuple:
    """Reading (value, resolved) of a profile on a model that is the ring
    (``exact``) or is not."""
    return (profile[-1], EXACT) if exact else plateau(profile)


def two_level_value(lo: tuple[object, bool], hi: tuple[object, bool],
                    levels: tuple[int, int]) -> CertifiedValue:
    """Certify an invariant from its readings ``(value, resolved)`` at the
    truncation levels ``levels = (D, D + delta)``, ``lo`` at D and ``hi`` at
    D + delta.  Disagreement is surfaced in the note, never dropped.
    """
    for value, ok in (lo, hi):
        if ok == EXACT:
            return CertifiedValue(value, EXACT, levels)
    (value_lo, ok_lo), (value_hi, ok_hi) = lo, hi
    if ok_lo and ok_hi and value_lo == value_hi:
        return CertifiedValue(value_lo, TWO_LEVEL, levels)
    shown = [repr(v) if ok else "unresolved" for v, ok in (lo, hi)]
    return CertifiedValue(value_lo if ok_lo else None, UNCERTIFIED, levels,
                          note=f"levels {levels[0]}/{levels[1]} gave "
                               f"{shown[0]}/{shown[1]}")

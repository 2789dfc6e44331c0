"""Built-in example rings and sequences.

The entries cover the behaviors the verifiers need to see: a regular ring
with a regular sequence, a reducible reduced curve, a non-reduced line, an
Artinian ring, and two negative controls failing filter-regularity.  Extra
sequences attached to an entry are recorded by the experiment runner (e.g.
the permuted sequence on remark-2-4, which fails at its first step).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    p: int
    vars: tuple[str, ...]
    base_gens: tuple[str, ...]
    f_exprs: tuple[str, ...]
    j_exprs: tuple[str, ...]
    filter_regular: bool         # documented expectation, re-verified by tests
    extra_sequences: tuple[tuple[str, tuple[str, ...]], ...] = ()
    description: str = ""


CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    CATALOG[entry.id] = entry


_register(CatalogEntry(
    id="regular-pair",
    p=5, vars=("x", "y"), base_gens=(),
    f_exprs=("x", "y"), j_exprs=("x", "y"),
    filter_regular=True,
    description="regular ring, regular sequence of full length",
))

_register(CatalogEntry(
    id="regular-line",
    p=5, vars=("x", "y"), base_gens=(),
    f_exprs=("x",), j_exprs=("x", "y"),
    filter_regular=True,
    description="regular ring, single regular element",
))

_register(CatalogEntry(
    id="remark-2-4",
    p=5, vars=("x", "y", "z"), base_gens=("x*y", "x*z"),
    f_exprs=("x + y", "z"), j_exprs=("x", "y", "z"),
    filter_regular=True,
    extra_sequences=(
        ("z-alone", ("z",)),
        ("permuted", ("z", "x + y")),
    ),
    description="reducible non-CM model; (x+y, z) is filter-regular but "
                "does not permute, and z alone is not filter-regular",
))

_register(CatalogEntry(
    id="node-diagonal",
    p=5, vars=("x", "y"), base_gens=("x*y",),
    f_exprs=("x + y",), j_exprs=("x", "y"),
    filter_regular=True,
    description="reduced reducible curve; x+y avoids both branches",
))

_register(CatalogEntry(
    id="node-branch",
    p=5, vars=("x", "y"), base_gens=("x*y",),
    f_exprs=("y",), j_exprs=("x", "y"),
    filter_regular=False,
    description="negative control: y lies on a branch of the node",
))

_register(CatalogEntry(
    id="fat-line",
    p=5, vars=("x", "y"), base_gens=("x^2",),
    f_exprs=("x",), j_exprs=("x", "y"),
    filter_regular=False,
    description="negative control: x is nilpotent-adjacent on the double line",
))

_register(CatalogEntry(
    id="artinian-pair",
    p=5, vars=("x", "y"), base_gens=("x^3", "y^3"),
    f_exprs=("x", "y"), j_exprs=("x", "y"),
    filter_regular=True,
    description="Artinian ring, nilpotency 5: read exactly from D = 6 on",
))


def get(catalog_id: str) -> CatalogEntry:
    if catalog_id not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown catalog id {catalog_id!r}; known: {known}")
    return CATALOG[catalog_id]

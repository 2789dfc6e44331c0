"""Independent brute-force model used to cross-check the ideal operations.

Deliberately shares nothing with the package implementation: polynomials and
subspace vectors are sparse dicts keyed by exponent tuples, elimination is
naive row-at-a-time with pivots on the *largest* monomial in descending
graded-lex order (the package pivots on the smallest), spans are built by
multiplying generators with every monomial one at a time, and membership is
monomial-by-monomial reduction.  Intersections and colons run through a
hand-rolled Zassenhaus construction on tagged coordinates, and Koszul
homology lengths through the ranks of boundary images on tagged
coordinates.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct

Vec = dict  # exponent tuple -> nonzero coefficient


def monomials_below(nvars: int, trunc: int) -> list[tuple]:
    out = []
    for exps in iproduct(range(trunc), repeat=nvars):
        if sum(exps) < trunc:
            out.append(exps)
    return out


class NaiveModel:
    """Truncated quotient of F_p[x_1..x_nvars] with naive linear algebra."""

    def __init__(self, p: int, nvars: int, trunc: int, base_gens: list[Vec]):
        self.p = p
        self.nvars = nvars
        self.trunc = trunc
        self.monomials = monomials_below(nvars, trunc)
        self.base_gens = [dict(g) for g in base_gens]
        self.base_span = self.ideal_span([])

    # -- polynomial arithmetic ------------------------------------------------

    def clean(self, v: Vec) -> Vec:
        return {e: c % self.p for e, c in v.items()
                if c % self.p and sum(e) < self.trunc}

    def add(self, a: Vec, b: Vec) -> Vec:
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return self.clean(out)

    def scale(self, a: Vec, c: int) -> Vec:
        return self.clean({e: c * v for e, v in a.items()})

    def mul(self, a: Vec, b: Vec) -> Vec:
        out: Vec = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self.clean(out)

    # -- naive elimination -----------------------------------------------------

    @staticmethod
    def _lead(v: Vec):
        # pivot on the largest monomial in descending graded-lex order
        return max(v, key=lambda e: (sum(e), e))

    def reduce(self, v: Vec, basis: list[Vec]) -> Vec:
        v = self.clean(v)
        changed = True
        while changed and v:
            changed = False
            for row in basis:
                lead = self._lead(row)
                if lead in v and v[lead]:
                    coeff = (v[lead] * pow(row[lead], -1, self.p)) % self.p
                    v = self.add(v, self.scale(row, -coeff))
                    changed = True
                    break
        return v

    def insert(self, v: Vec, basis: list[Vec]) -> bool:
        v = self.reduce(v, basis)
        if not v:
            return False
        basis.append(v)
        return True

    def span_rank(self, vectors: list[Vec]) -> list[Vec]:
        basis: list[Vec] = []
        for v in vectors:
            self.insert(v, basis)
        return basis

    # -- ideals ------------------------------------------------------------------

    def ideal_span(self, gens: list[Vec]) -> list[Vec]:
        """Dense span: every generator (including the base relations) times
        every monomial, inserted one by one."""
        basis: list[Vec] = []
        for g in list(gens) + self.base_gens:
            for mu in self.monomials:
                self.insert(self.mul(g, {mu: 1}), basis)
        return basis

    def contains(self, span: list[Vec], v: Vec) -> bool:
        return not self.reduce(v, span)

    def spans_equal(self, a: list[Vec], b: list[Vec]) -> bool:
        return (len(a) == len(b)
                and all(self.contains(b, v) for v in a)
                and all(self.contains(a, v) for v in b))

    def length(self, span: list[Vec]) -> int:
        return len(self.monomials) - len(span)

    def ideal_sum(self, gens_a: list[Vec], gens_b: list[Vec]) -> list[Vec]:
        return self.ideal_span(list(gens_a) + list(gens_b))

    def ideal_product_gens(self, gens_a: list[Vec],
                           gens_b: list[Vec]) -> list[Vec]:
        return [self.mul(a, b) for a in gens_a for b in gens_b]

    def ideal_power_gens(self, gens: list[Vec], e: int) -> list[Vec]:
        out: list[Vec] = [{(0,) * self.nvars: 1}]
        for _ in range(e):
            out = self.ideal_product_gens(out, gens)
        return out

    def ar_window(self, i_gens: list[Vec], j_gens: list[Vec],
                  n_max: int) -> int | None:
        """Least s <= n_max with I meet J^n = J^(n-s) (J^s meet I) for every
        n from s to n_max, None when there is none.  Each J^(n-s) (J^s meet
        I) is J times the one before it, spanned by the products of J's
        generators with a basis of that ideal."""
        i_span = self.ideal_span(i_gens)
        meets = [self.intersection(i_span, self.ideal_span(self.span_rank(
            self.ideal_power_gens(j_gens, n)))) for n in range(n_max + 1)]
        for s in range(n_max + 1):
            current = meets[s]
            for n in range(s + 1, n_max + 1):
                current = self.span_rank(
                    self.ideal_product_gens(j_gens, current) + self.base_span)
                if not self.spans_equal(meets[n], current):
                    break
            else:
                return s
        return None

    # -- Zassenhaus-style constructions on tagged coordinates --------------------

    @staticmethod
    def _tag_lead(v: dict):
        # tag 0 coordinates dominate tag 1, so elimination clears them first
        return max(v, key=lambda te: (-te[0], sum(te[1]), te[1]))

    def _tag_reduce(self, v: dict, basis: list[dict]) -> dict:
        v = {te: c % self.p for te, c in v.items() if c % self.p}
        changed = True
        while changed and v:
            changed = False
            for row in basis:
                lead = self._tag_lead(row)
                if v.get(lead):
                    coeff = (v[lead] * pow(row[lead], -1, self.p)) % self.p
                    for te, c in row.items():
                        v[te] = (v.get(te, 0) - coeff * c) % self.p
                    v = {te: c for te, c in v.items() if c}
                    changed = True
                    break
        return v

    def _tag_insert(self, v: dict, basis: list[dict]) -> None:
        v = self._tag_reduce(v, basis)
        if v:
            basis.append(v)

    def intersection(self, span_a: list[Vec], span_b: list[Vec]) -> list[Vec]:
        """Rows [a|a] and [b|0]; after elimination, rows with zero tag-0
        part carry the intersection in their tag-1 part."""
        basis: list[dict] = []
        for a in span_a:
            row = {(0, e): c for e, c in a.items()}
            row.update({(1, e): c for e, c in a.items()})
            self._tag_insert(row, basis)
        for b in span_b:
            self._tag_insert({(0, e): c for e, c in b.items()}, basis)
        out: list[Vec] = []
        for row in basis:
            if any(te[0] == 0 for te in row):
                continue
            vec = {te[1]: c for te, c in row.items()}
            self.insert(vec, out)
        return out

    def colon(self, span_a: list[Vec], f: Vec) -> list[Vec]:
        """{g : g*f in span_a} by eliminating tagged rows
        [residue(f*mu) | mu] and keeping those with zero residue part."""
        basis: list[dict] = []
        for mu in self.monomials:
            residue = self.reduce(self.mul(f, {mu: 1}), span_a)
            row = {(0, e): c for e, c in residue.items()}
            row[(1, mu)] = (row.get((1, mu), 0) + 1) % self.p
            self._tag_insert(row, basis)
        out: list[Vec] = []
        for row in basis:
            if any(te[0] == 0 for te in row):
                continue
            self.insert({te[1]: c for te, c in row.items()}, out)
        return out

    # -- Koszul homology ---------------------------------------------------------

    def koszul_length(self, fs: list[Vec], i: int) -> int:
        """Length of H_i of the Koszul complex of ``fs`` over the model:
        dim K_i - rank d_i - rank d_(i+1), K_i the free module of rank
        C(r, i)."""
        free = len(list(combinations(range(len(fs)), i)))
        return (free * self.length(self.base_span)
                - self._boundary_rank(fs, i) - self._boundary_rank(fs, i + 1))

    def _boundary_rank(self, fs: list[Vec], i: int) -> int:
        """Rank of d_i: e_S -> sum over t of (-1)^t f_(s_t) e_(S - s_t),
        spanned by the images of every (subset, monomial) pair, each
        component reduced modulo the base span; d_0 = 0 and K_(r+1) = 0."""
        if not 1 <= i <= len(fs):
            return 0
        cod = {s: k for k, s in enumerate(combinations(range(len(fs)), i - 1))}
        basis: list[dict] = []
        for subset in combinations(range(len(fs)), i):
            for mu in self.monomials:
                image = {}
                for t, j in enumerate(subset):
                    part = self.reduce(self.mul(fs[j], {mu: (-1) ** t}),
                                       self.base_span)
                    tag = cod[subset[:t] + subset[t + 1:]]
                    image.update({(tag, e): c for e, c in part.items()})
                self._tag_insert(image, basis)
        return len(basis)

    def annihilator_exponent(self, span_a: list[Vec], span_b: list[Vec]) -> int:
        """Least h with every degree-h monomial times every vector of
        ``span_b`` inside ``span_a``."""
        h = 0
        while not all(self.contains(span_a, self.mul(b, {mu: 1}))
                      for b in span_b for mu in self.monomials
                      if sum(mu) == h):
            h += 1
        return h

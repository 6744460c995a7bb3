"""Reference reduction and multiplication columns in a finite algebra, for tests only.

The rescanning loop: in each variable, from the highest down, it picks a
term of highest degree at or above the lead degree, subtracts the matching
multiple of the whole relation, and scans every term again. It relies on
nothing but the monic lead term, and it multiplies and subtracts the
coefficient tuples read with ``sorted_terms`` by ``coeff_oracle``, never by
``spec.canon``. So the one top-down sweep of stored ints in
``FiniteAlgebra.reduce``, which relies on the triangular shape its
constructor checks, is compared against it.

The ``CoeffElem`` companion-matrix walk: each column f x^a is x_j times the
reduced column f x^(a - e_j), passed through ``FiniteAlgebra.reduce``. The
integer walk ``FiniteAlgebra.integer_matrix``, which sweeps stored ints, is
compared against it.
"""

from __future__ import annotations

import coeff_oracle
from fgl.coeffring import CoeffElem
from fgl.series import TruncSeries


def reduce(self, f: TruncSeries) -> TruncSeries:
    """``self`` is a FiniteAlgebra; the representative on its monomial basis."""
    if f.variables != self.variables:
        f = f.rename(self.variables, cap=None)
    terms = {e: c.terms for e, c in f.sorted_terms()}
    for j in range(len(self.variables) - 1, -1, -1):
        terms = _reduce_in_var(self, terms, j)
    return TruncSeries(self.spec, self.variables, None,
                       {e: CoeffElem(self.spec, c) for e, c in terms.items()})


def _reduce_in_var(self, terms: dict, j: int) -> dict:
    spec, d = self.spec, self.lead_degrees[j]
    rel = {e: c.terms for e, c in self.relations[j].sorted_terms()}
    while True:
        cand = None
        for expo in terms:
            if expo[j] >= d and (cand is None or expo[j] > cand[j]):
                cand = expo
        if cand is None:
            return terms
        c = terms[cand]
        shift = list(cand)
        shift[j] -= d
        # subtract c * x^shift * relation; the monic lead cancels cand
        for rexpo, rc in rel.items():
            key = tuple(a + b for a, b in zip(shift, rexpo))
            prod = coeff_oracle.mul(spec, rc, c)
            if not prod:
                continue
            s = coeff_oracle.sub(spec, terms.get(key, ()), prod)
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)


def coordinates(self, f: TruncSeries) -> list[CoeffElem]:
    """The coefficients of ``self.reduce(f)`` on ``self.basis()``."""
    red = self.reduce(f)
    return [red.coefficient(e) for e in self.basis()]


def multiplication_columns(self, f: TruncSeries) -> list[list[CoeffElem]]:
    """Coordinates of f * b for each basis monomial b, in ``basis()`` order."""
    basis = self.basis()
    products = {basis[0]: self.reduce(f)}
    for a in basis[1:]:
        j = next(i for i, e in enumerate(a) if e)
        prev = products[a[:j] + (a[j] - 1,) + a[j + 1:]]
        shifted = {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in prev.sorted_terms()}
        products[a] = self.reduce(TruncSeries(self.spec, self.variables, None, shifted))
    return [[products[a].coefficient(b) for b in basis] for a in basis]

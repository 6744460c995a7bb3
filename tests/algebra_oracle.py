"""Reference reduction in a finite algebra, for tests only.

The rescanning loop: in each variable, from the highest down, it picks a
term of highest degree at or above the lead degree, subtracts the matching
multiple of the whole relation, and scans every term again. It relies on
nothing but the monic lead term, so the one top-down sweep of
``FiniteAlgebra.reduce``, which relies on the triangular shape its
constructor checks, is compared against it.
"""

from __future__ import annotations

from fgl.series import TruncSeries


def reduce(self, f: TruncSeries) -> TruncSeries:
    """``self`` is a FiniteAlgebra; the representative on its monomial basis."""
    if f.variables != self.variables:
        f = f.rename(self.variables, cap=None)
    terms = dict(f.terms)
    for j in range(len(self.variables) - 1, -1, -1):
        terms = _reduce_in_var(self, terms, j)
    return TruncSeries(self.spec, self.variables, None, terms, _clean=True)


def _reduce_in_var(self, terms: dict, j: int) -> dict:
    d = self.lead_degrees[j]
    rel = self.relations[j].terms
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
            prod = rc * c
            if prod.is_zero():
                continue
            cur = terms.get(key)
            s = (-prod) if cur is None else cur - prod
            if s.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = s

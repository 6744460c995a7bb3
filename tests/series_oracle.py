"""Reference truncated series product and substitution, for tests only.

The pairwise product: every pair of terms whose total degree is below the
cap is multiplied and added into the output by the tuple arithmetic of
``coeff_oracle``. It reads each coefficient as its ``CoeffElem.terms``
tuple (``sorted_terms``) and shares no stored-int arithmetic with
``TruncSeries.__mul__``, so the kernel there is checked against it term
for term.

The term-wise substitution: each source term multiplies the cached powers
of its images, is scaled by its coefficient and added into one dict. Its
products are the pairwise ones above, so it shares no packing with the
grouped ``TruncSeries.subst`` either. Both build their result with the
public constructor, which drops the zero coefficients.
"""

from __future__ import annotations

from functools import reduce

import coeff_oracle
from fgl.coeffring import CoeffElem
from fgl.errors import SpecMismatch
from fgl.series import Expo, TruncSeries


def series(model: TruncSeries, acc: dict[Expo, tuple]) -> TruncSeries:
    """The series of coefficient tuples ``acc`` in the ring of ``model``."""
    spec = model.spec
    return TruncSeries(spec, model.variables, model.cap,
                       {e: CoeffElem(spec, c) for e, c in acc.items()})  # drops the zeros


def mul(self: TruncSeries, other: TruncSeries) -> TruncSeries:
    self._compat(other)
    spec, cap = self.spec, self.cap
    acc: dict[Expo, tuple] = {}
    right = other.sorted_terms()
    for e1, c1 in self.sorted_terms():
        d1 = sum(e1)
        for e2, c2 in right:
            if cap is not None and d1 + sum(e2) >= cap:
                continue
            expo = tuple(a + b for a, b in zip(e1, e2))
            acc[expo] = coeff_oracle.add(spec, acc.get(expo, ()),
                                         coeff_oracle.mul(spec, c1.terms, c2.terms))
    return series(self, acc)


def subst(self: TruncSeries, images: dict[str, TruncSeries]) -> TruncSeries:
    missing = [v for v in self.variables if v not in images]
    if missing:
        raise SpecMismatch(f"no image for variables {missing}")
    model = images[self.variables[0]]
    spec = model.spec
    one = TruncSeries.one(spec, model.variables, model.cap)
    pow_cache: dict[tuple[str, int], TruncSeries] = {(name, 0): one for name in self.variables}

    def power(name: str, k: int) -> TruncSeries:
        got = pow_cache.get((name, k))
        if got is None:
            got = pow_cache[(name, k)] = mul(power(name, k - 1), images[name])
        return got

    # each term's coefficients go straight into one dict: no copy per term
    acc: dict[Expo, tuple] = {}
    for expo, c in self.sorted_terms():
        factors = [power(name, k) for name, k in zip(self.variables, expo) if k]
        for e, v in (reduce(mul, factors) if factors else one).sorted_terms():
            scaled = coeff_oracle.mul(spec, v.terms, c.terms)
            acc[e] = coeff_oracle.add(spec, acc.get(e, ()), scaled)
    return series(model, acc)

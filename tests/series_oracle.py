"""Reference truncated series product, for tests only.

The pairwise product: every pair of terms whose total degree is below the
cap is multiplied with ``CoeffElem.__mul__`` and added into the output with
``CoeffElem.__add__``. It shares no packing with ``TruncSeries.__mul__``,
so the packed kernel there is checked against it term for term.
"""

from __future__ import annotations

from fgl.coeffring import CoeffElem
from fgl.series import Expo, TruncSeries


def mul(self: TruncSeries, other: TruncSeries) -> TruncSeries:
    self._compat(other)
    cap = self.cap
    acc: dict[Expo, CoeffElem] = {}
    for e1, c1 in self.terms.items():
        d1 = sum(e1)
        for e2, c2 in other.terms.items():
            if cap is not None and d1 + sum(e2) >= cap:
                continue
            expo = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            if prod.is_zero():
                continue
            v = acc.get(expo)
            s = prod if v is None else v + prod
            if s.is_zero():
                acc.pop(expo, None)
            else:
                acc[expo] = s
    return TruncSeries(self.spec, self.variables, self.cap, acc, _clean=True)

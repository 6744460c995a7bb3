"""Weierstrass division and preparation for univariate series.

The engine works over any local-ring coefficient domain exposing ring
operations plus a unit test and inversion; concrete domains are the
coefficient ring itself (series in x over E_0) and, for triangular
level-ring presentations, a finite free quotient algebra (series in x_j
with coefficients in E_0[x_1..x_{j-1}]/(relations)).

Division f = q g + r uses the classical fixed-point iteration: write
g = v x^d + h with v(0) a unit and h of degree < d supported in the
maximal ideal, and iterate

    q  <-  v^{-1} * ((f - h q) div x^d),    r = (f - h q) mod x^d.

Each step multiplies the previous discrepancy by h, so over a truncated
ring the iterates stabilize after at most N + D steps (the maximal ideal
is nilpotent there); over exact integers they stabilize when degrees
collapse (v constant), and otherwise the iteration correctly fails with
NonConvergence. At the fixed point the identity f = q g + r holds exactly
in the working (truncated) ring, and the remainder is the truncation of
its infinite-precision counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffring import CoeffElem, CoeffRingSpec
from .errors import NoUnitCoefficient, NonConvergence, NotAUnit
from .series import TruncSeries

USeries = dict[int, object]


class CoeffDomain:
    """Coefficient-ring arithmetic packaged for the generic engine."""

    def __init__(self, spec: CoeffRingSpec):
        self.spec = spec

    def zero(self):
        return CoeffElem.zero(self.spec)

    def one(self):
        return CoeffElem.one(self.spec)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def is_unit(self, a) -> bool:
        return a.is_unit()

    def invert(self, a):
        return a.invert()

    def iteration_bound(self, cap: int) -> int:
        n = self.spec.p_precision or 0
        return n + self.spec.u_degree_cap + cap + 8


# -- engine on plain {degree: coefficient} dicts -------------------------------


def _clean(terms: USeries, domain, cap: int) -> USeries:
    return {k: c for k, c in terms.items() if k < cap and not domain.is_zero(c)}


def _add(a: USeries, b: USeries, domain, cap: int) -> USeries:
    out = dict(a)
    for k, c in b.items():
        if k in out:
            s = domain.add(out[k], c)
            if domain.is_zero(s):
                del out[k]
            else:
                out[k] = s
        elif not domain.is_zero(c):
            out[k] = c
    return out


def _mul(a: USeries, b: USeries, domain, cap: int) -> USeries:
    out: USeries = {}
    for i, ci in a.items():
        for j, cj in b.items():
            if i + j >= cap:
                continue
            prod = domain.mul(ci, cj)
            if domain.is_zero(prod):
                continue
            k = i + j
            if k in out:
                s = domain.add(out[k], prod)
                if domain.is_zero(s):
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = prod
    return out


def _invert_series(v: USeries, domain, cap: int) -> USeries:
    """Invert a series with unit constant coefficient (geometric series)."""
    c0 = v.get(0)
    if c0 is None or not domain.is_unit(c0):
        raise NotAUnit("series constant term is not a unit")
    c0_inv = domain.invert(c0)
    # w = 1 - c0^{-1} v has positive valuation, so powers die at the cap
    w: USeries = {}
    for k, c in v.items():
        if k == 0:
            continue
        w[k] = domain.neg(domain.mul(c0_inv, c))
    acc: USeries = {0: domain.one()}
    power: USeries = {0: domain.one()}
    for _ in range(1, cap):
        power = _mul(power, w, domain, cap)
        if not power:
            break
        acc = _add(acc, power, domain, cap)
    return {k: domain.mul(c, c0_inv) for k, c in acc.items()}


def degree_of_first_unit(terms: USeries, domain, cap: int) -> int:
    for k in sorted(terms):
        if domain.is_unit(terms[k]):
            return k
    raise NoUnitCoefficient(
        f"no unit coefficient below degree {cap}; height undefined at this precision"
    )


def divide(f: USeries, g: USeries, domain, cap: int) -> tuple[USeries, USeries]:
    """Weierstrass division: f = q g + r with deg r < d, exact at precision."""
    f = _clean(f, domain, cap)
    g = _clean(g, domain, cap)
    d = degree_of_first_unit(g, domain, cap)
    v = {k - d: c for k, c in g.items() if k >= d}
    h = {k: c for k, c in g.items() if k < d}
    v_inv = _invert_series(v, domain, cap)
    neg_h = {k: domain.neg(c) for k, c in h.items()}

    q: USeries = {}
    bound = domain.iteration_bound(cap)
    for _ in range(bound):
        s = _add(f, _mul(neg_h, q, domain, cap), domain, cap)
        s_high = {k - d: c for k, c in s.items() if k >= d}
        q_next = _mul(v_inv, s_high, domain, cap)
        if q_next == q:
            r = {k: c for k, c in s.items() if k < d}
            return q, r
        q = q_next
    raise NonConvergence(
        f"division did not stabilize within {bound} iterations "
        "(insufficient precision or a non-convergent exact-mode input)"
    )


def prepare(f: USeries, domain, cap: int) -> tuple[USeries, USeries, int]:
    """Factor f = unit * distinguished; returns (unit, distinguished, d).

    Dividing x^d by f gives x^d = q f + r, so q f = x^d - r =: P; q has unit
    constant coefficient, hence u = q^{-1} and f = u P. Distinguishedness of
    P (non-leading coefficients in the maximal ideal) is verified.
    """
    f = _clean(f, domain, cap)
    d = degree_of_first_unit(f, domain, cap)
    q, r = divide({d: domain.one()}, f, domain, cap)
    dist: USeries = {d: domain.one()}
    for k, c in r.items():
        neg = domain.neg(c)
        if not domain.is_zero(neg):
            dist[k] = neg
    for k, c in dist.items():
        if k < d and domain.is_unit(c):
            raise NonConvergence(
                "prepared factor is not distinguished (internal error)"
            )
    unit = _invert_series(q, domain, cap)
    return unit, dist, d


# -- TruncSeries front end ---------------------------------------------------


@dataclass(frozen=True)
class WeierstrassFactorization:
    """f = unit * distinguished with distinguished monic of the given degree."""

    unit: TruncSeries
    distinguished: TruncSeries
    degree: int


def _require_univariate(f: TruncSeries) -> None:
    if len(f.variables) != 1:
        raise ValueError("Weierstrass operations need univariate series")
    if f.cap is None:
        raise ValueError("Weierstrass operations need a finite degree cap")


def _to_useries(f: TruncSeries) -> USeries:
    return {expo[0]: c for expo, c in f.terms.items()}


def _from_useries(terms: USeries, model: TruncSeries) -> TruncSeries:
    return TruncSeries(
        model.spec, model.variables, model.cap,
        {(k,): c for k, c in terms.items()}, _clean=True,
    )


def weierstrass_degree(f: TruncSeries) -> int:
    """Smallest d whose x^d coefficient is a unit mod (p, u-variables)."""
    _require_univariate(f)
    return degree_of_first_unit(_to_useries(f), CoeffDomain(f.spec), f.cap)


def weierstrass_divide(f: TruncSeries, g: TruncSeries) -> tuple[TruncSeries, TruncSeries]:
    _require_univariate(f)
    _require_univariate(g)
    if f.spec != g.spec or f.variables != g.variables or f.cap != g.cap:
        raise ValueError("dividend and divisor live in different series rings")
    q, r = divide(_to_useries(f), _to_useries(g), CoeffDomain(f.spec), f.cap)
    return _from_useries(q, f), _from_useries(r, f)


def weierstrass_prepare(f: TruncSeries) -> WeierstrassFactorization:
    _require_univariate(f)
    unit, dist, d = prepare(_to_useries(f), CoeffDomain(f.spec), f.cap)
    return WeierstrassFactorization(
        unit=_from_useries(unit, f),
        distinguished=_from_useries(dist, f),
        degree=d,
    )

"""Weierstrass division and preparation inside a finite algebra A[x]/(x^T).

Series in x with coefficients in a local finite free algebra A, truncated
at x^T, form a finite free algebra again: ``ring`` is ``A.adjoin(x, T)``, a
:class:`~fgl.grouprings.FiniteAlgebra` whose last variable is x and whose
last relation is x^T, so T is ``ring.lead_degrees[-1]``. A is E0 for the
univariate front end and the ambient stages of a group ring, and the
quotient by the earlier relations at a later level stage. A series enters
and leaves ``ring`` by ``TruncSeries.rename`` (the front end renames to cap
None and back to T). All arithmetic is the ring's: products are
``ring.mul`` (which truncates at x^T by reducing with the last relation),
"mod x^d" and "div x^d" split the terms on the last exponent, the x^k
coefficient is a unit exactly when the (0,..,0,k) term is, and every
series inverse is ``ring.invert_element``.

Division f = q g + r uses the classical fixed-point iteration: write
g = v x^d + h with v(0) a unit and h of degree < d, and iterate

    q  <-  v^{-1} * ((f - h q) div x^d),    r = (f - h q) mod x^d.

From q_0 = 0 the discrepancy e_k = q_(k+1) - q_k is -v^{-1} ((h e_(k-1)) div
x^d), and the loop stops at step k + 1 when e_k = 0. With R the rank of A
(the product of its lead degrees), that happens within this many steps:

* Finite precision, R (N + D - 1) + 1. The x^i coefficients of h lie in
  M_A, the maximal ideal of A: their pure parts are non-units of E0, so in
  m = (p, u), and x_1..x_(j-1) lie in M_A, A being local. So e_k has its
  coefficients in M_A^k. A / mA is local of dimension R over F_p, so its
  maximal ideal has zero R-th power and M_A^R lies in mA; m^(N+D-1) = 0 in
  E0, so e_k = 0 for k = R (N + D - 1).
* Exact integers, R T + 1. e_(k-1) -> e_k is a Z-linear map on ``ring``,
  free of rank R T; a vector killed by some power of it is killed by the
  (R T)-th, since its kernels over Q grow strictly until they stop. Every
  exact ring built here has A = E0, so the bound is T + 1; it is also the
  bound whenever v is constant, as the x-degree of e_k then drops each step.

Past the bound the loop fails with NonConvergence, naming p, N, D, T: A is
not local, or an exact iteration converges only p-adically. At the fixed
point the identity f = q g + r holds exactly in the working (truncated)
ring, and the remainder is the truncation of its infinite-precision
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffring import CoeffElem
from .errors import InternalInconsistency, NoUnitCoefficient, NonConvergence, SpecMismatch
from .series import TruncSeries


def _split(f: TruncSeries, d: int) -> tuple[TruncSeries, TruncSeries]:
    """(f div x^d, f mod x^d) on the last exponent."""
    high, low = {}, {}
    for e, c in f.terms.items():
        if e[-1] >= d:
            high[e[:-1] + (e[-1] - d,)] = c
        else:
            low[e] = c
    return (TruncSeries(f.spec, f.variables, None, high, _clean=True),
            TruncSeries(f.spec, f.variables, None, low, _clean=True))


def degree_of_first_unit(f: TruncSeries, cap: int) -> int:
    """Smallest k whose x^k coefficient, the (0,..,0,k) term, is a unit."""
    units = [e[-1] for e in f.terms if not any(e[:-1]) and f.coefficient(e).is_unit()]
    if not units:
        raise NoUnitCoefficient(
            f"no unit coefficient below degree {cap}; height undefined at this precision"
        )
    return min(units)


def divide(f: TruncSeries, g: TruncSeries, ring) -> tuple[TruncSeries, TruncSeries]:
    """Weierstrass division of reduced elements of ``ring``: f = q g + r, deg r < d."""
    cap = ring.lead_degrees[-1]
    d = degree_of_first_unit(g, cap)
    v, h = _split(g, d)
    v_inv = ring.invert_element(v)
    neg_h = -h

    spec = ring.spec
    bound = 1 + (ring.rank if spec.exact
                 else ring.rank // cap * (spec.p_precision + spec.u_degree_cap - 1))
    q = ring.zero()
    for _ in range(bound):
        s_high, r = _split(f + ring.mul(neg_h, q), d)
        q_next = ring.mul(v_inv, s_high)
        if q_next == q:
            return q, r
        q = q_next
    raise NonConvergence(
        f"division did not stabilize within the proved bound of {bound} iterations "
        f"(a non-local coefficient algebra, or an exact input that converges only "
        f"p-adically; {spec.precision_label(cap)})"
    )


def prepare(f: TruncSeries, ring) -> tuple[TruncSeries, TruncSeries, int]:
    """Factor a reduced element f; returns (q, distinguished, d) with q f = distinguished.

    Dividing x^d by f gives x^d = q f + r, so q f = x^d - r =: P; q has unit
    constant coefficient, hence f = q^{-1} P. Distinguishedness of P
    (non-leading coefficients in the maximal ideal) is verified.
    """
    d = degree_of_first_unit(f, ring.lead_degrees[-1])
    x_d = TruncSeries(ring.spec, ring.variables, None,
                      {(0,) * (len(ring.variables) - 1) + (d,): CoeffElem.one(ring.spec)})
    q, r = divide(x_d, f, ring)
    dist = x_d - r
    if any(not any(e[:-1]) and e[-1] < d and dist.coefficient(e).is_unit() for e in dist.terms):
        raise InternalInconsistency(
            f"weierstrass.prepare: prepared factor is not distinguished "
            f"({ring.spec.precision_label(ring.lead_degrees[-1])})"
        )
    return q, dist, d


# -- TruncSeries front end ---------------------------------------------------


@dataclass(frozen=True)
class WeierstrassFactorization:
    """f = unit * distinguished with distinguished monic of the given degree."""

    unit: TruncSeries
    distinguished: TruncSeries
    degree: int


def weierstrass_prepare(f: TruncSeries) -> WeierstrassFactorization:
    """``prepare`` of a univariate f in E0[x]/(x^T), T its degree cap."""
    from .grouprings import FiniteAlgebra

    if len(f.variables) != 1:
        raise SpecMismatch("Weierstrass operations need univariate series")
    if f.cap is None:
        raise SpecMismatch("Weierstrass operations need a finite degree cap")
    ring = FiniteAlgebra(f.spec, (), [], ()).adjoin(f.variables[0], f.cap)
    q, dist, d = prepare(f.rename(f.variables, None), ring)
    return WeierstrassFactorization(unit=ring.invert_element(q).rename(f.variables, f.cap),
                                    distinguished=dist.rename(f.variables, f.cap), degree=d)

"""Reference law builder over exact rationals, and the axiom check, for tests only.

This is the straightforward construction F = l^{-1}(l(x) + l(y)) on
``fractions.Fraction``: the logarithm is solved from its functional
equation, E = l^{-1} is found by recomputing every power E^j at each
degree, and F is composed by Horner's rule. It is slow but shares no code
with ``fgl.laws``, so the p-scaled integer builder there is checked against
it term for term. ``check_axioms`` substitutes both sides of associativity.
"""

from __future__ import annotations

from fractions import Fraction

from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.errors import IntegralityFailure
from fgl.series import TruncSeries


class _QU:
    """Dense polynomial in the deformation parameter over Q, mod u^width."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, width: int) -> "_QU":
        return cls((Fraction(0),) * width)

    @classmethod
    def const(cls, width: int, value: Fraction) -> "_QU":
        return cls((Fraction(value),) + (Fraction(0),) * (width - 1))

    @classmethod
    def u(cls, width: int) -> "_QU":
        if width < 2:
            return cls.zero(width)
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (width - 2))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "_QU") -> "_QU":
        return _QU(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: "_QU") -> "_QU":
        w = len(self.coeffs)
        out = [Fraction(0)] * w
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= w:
                    break
                if b != 0:
                    out[i + j] += a * b
        return _QU(out)

    def scale(self, k: Fraction) -> "_QU":
        return _QU(c * k for c in self.coeffs)

    def frobenius_twist(self, p: int) -> "_QU":
        """Apply u -> u^p to the coefficients (truncated at the width)."""
        w = len(self.coeffs)
        out = [Fraction(0)] * w
        for i, c in enumerate(self.coeffs):
            if c != 0 and i * p < w:
                out[i * p] += c
        return _QU(out)

    def to_coeff(self, spec: CoeffRingSpec) -> CoeffElem:
        """Reduce into the target ring; denominators must be prime to p."""
        ints = []
        for c in self.coeffs:
            if c.denominator % spec.p == 0:
                raise IntegralityFailure(f"coefficient {c} is not {spec.p}-integral")
            if spec.exact:
                if c.denominator != 1:
                    raise IntegralityFailure(f"coefficient {c} is not an integer")
                value = c.numerator
            else:
                value = c.numerator * pow(c.denominator, -1, spec.modulus) % spec.modulus
            ints.append(value)
        return CoeffElem(spec, ints)


def honda_log(p: int, n: int, cap: int) -> dict[int, _QU]:
    """l(x) = sum_i x^(p^(n i)) / p^i, below the cap."""
    log_coeffs: dict[int, _QU] = {}
    k = 1
    i = 0
    while k < cap:
        log_coeffs[k] = _QU.const(1, Fraction(1, p ** i))
        k *= p ** n
        i += 1
    return log_coeffs


def functional_equation_log(p: int, width: int, cap: int, v: list[int],
                            w: list[int]) -> dict[int, _QU]:
    """l(x) = x + (v/p) l~(x^p) + (w/p) l~~(x^(p^2)), ~ twisting u -> u^p, for
    u-polynomials v and w given by their integer coefficients. By Hazewinkel's
    functional-equation lemma the law of l is p-integral for every v and w."""
    v_qu, w_qu = (_QU(Fraction(c) for c in (list(z) + [0] * width)[:width]) for z in (v, w))
    inv_p = Fraction(1, p)
    log_coeffs: dict[int, _QU] = {1: _QU.const(width, Fraction(1))}
    k = p
    while k < cap:
        prev = log_coeffs.get(k // p, _QU.zero(width))
        prev2 = log_coeffs.get(k // (p * p), _QU.zero(width)) if k % (p * p) == 0 \
            else _QU.zero(width)
        log_coeffs[k] = (v_qu * prev.frobenius_twist(p)
                         + w_qu * prev2.frobenius_twist(p).frobenius_twist(p)).scale(inv_p)
        k *= p
    return log_coeffs


def lubin_tate_height2_log(p: int, width: int, cap: int) -> dict[int, _QU]:
    """l(x) = x + (u/p) l~(x^p) + (1/p) l~~(x^(p^2)), ~ twisting u -> u^p."""
    return functional_equation_log(p, width, cap, [0, 1], [1])


def scaled_log(log_coeffs: dict[int, _QU], p: int) -> dict[int, tuple[list[int], int]]:
    """The logarithm in the builder's input form: l_j as (ints, s), l_j = ints / p^s."""
    out = {}
    for j, q in log_coeffs.items():
        s = 0
        while any((c * p ** s).denominator != 1 for c in q.coeffs):
            s += 1
        out[j] = ([int(c * p ** s) for c in q.coeffs], s)
    return out


def law_from_log(spec: CoeffRingSpec, cap: int, log_coeffs: dict[int, _QU],
                 width: int) -> TruncSeries:
    """F = l^{-1}(l(x) + l(y)) over exact rationals, reduced into ``spec``."""
    # Reversion: E = l^{-1}, dense list of _QU indexed by degree. At round k
    # the z^k coefficient of sum_{j>=2} l_j E(z)^j only involves e_i with
    # i < k, so each round pins down one new coefficient.
    E = [_QU.zero(width), _QU.const(width, Fraction(1))]
    js = sorted(j for j in log_coeffs if j > 1 and j < cap)
    for k in range(2, cap):
        total = _QU.zero(width)
        base = E + [_QU.zero(width)] * (cap - len(E))
        acc = base
        prev = 1
        for j in js:
            if j > k:
                break
            for _ in range(j - prev):
                acc = _poly_mul(acc, base, cap)
            prev = j
            total = total + (log_coeffs[j] * acc[k])
        E.append(total.scale(Fraction(-1)))

    # S = l(x) + l(y) as a sparse bivariate polynomial over _QU.
    S: dict[tuple[int, int], _QU] = {}
    for k, c in log_coeffs.items():
        if k < cap and not c.is_zero():
            S[(k, 0)] = c
            S[(0, k)] = c

    # Horner: (((e_{cap-1}) S + e_{cap-2}) S + ... + e_1) S = sum_k e_k S^k.
    acc_bi: dict[tuple[int, int], _QU] = {}
    for k in range(cap - 1, 0, -1):
        acc_bi = _bi_mul(acc_bi, S, width, cap)
        ek = E[k]
        if not ek.is_zero():
            cur = acc_bi.get((0, 0), _QU.zero(width))
            acc_bi[(0, 0)] = cur + ek
    acc_bi = _bi_mul(acc_bi, S, width, cap)
    F_terms: dict[tuple[int, int], CoeffElem] = {}
    for expo, q in acc_bi.items():
        c = q.to_coeff(spec)
        if not c.is_zero():
            F_terms[expo] = c
    return TruncSeries(spec, ("x", "y"), cap, F_terms)


def _poly_mul(a: list[_QU], b: list[_QU], cap: int) -> list[_QU]:
    width = len(a[0].coeffs) if a else len(b[0].coeffs)
    out = [_QU.zero(width) for _ in range(cap)]
    for i, ai in enumerate(a):
        if i >= cap or ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j >= cap:
                break
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def _bi_mul(a: dict, s: dict, width: int, cap: int) -> dict:
    """Multiply a (dense-ish dict) bivariate poly by the sparse poly s."""
    if not a:
        return {}
    out: dict[tuple[int, int], _QU] = {}
    for (i1, j1), c1 in a.items():
        if c1.is_zero():
            continue
        for (i2, j2), c2 in s.items():
            if i1 + i2 + j1 + j2 >= cap:
                continue
            key = (i1 + i2, j1 + j2)
            prod = c1 * c2
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
    return out


def honda_F(spec: CoeffRingSpec, n: int, cap: int) -> TruncSeries:
    return law_from_log(spec, cap, honda_log(spec.p, n, cap), 1)


def lubin_tate_height2_F(spec: CoeffRingSpec, cap: int) -> TruncSeries:
    width = spec.u_degree_cap
    return law_from_log(spec, cap, lubin_tate_height2_log(spec.p, width, cap), width)


def check_axioms(law) -> dict[str, bool]:
    """``FormalGroupLaw.check_axioms`` with both sides of associativity substituted.

    F(F(x,y),z) and F(x,F(y,z)) are each formed from F, whether or not F is
    commutative, so this reference does not rest on the swap identity that
    lets the library form the second side from the first.
    """
    spec, cap, F = law.spec, law.cap, law.F
    x, y = (TruncSeries.variable(spec, F.variables, cap, v) for v in F.variables)
    zero2 = TruncSeries.zero(spec, F.variables, cap)
    unit_ok = F.subst({"x": x, "y": zero2}) == x and F.subst({"x": zero2, "y": y}) == y
    comm_ok = F.rename(F.variables, cap, {"x": "y", "y": "x"}) == F
    tri = ("x", "y", "z")
    tx, tz = (TruncSeries.variable(spec, tri, cap, v) for v in ("x", "z"))
    xy, yz = F.rename(tri, cap), F.rename(tri, cap, {"x": "y", "y": "z"})
    assoc_ok = F.subst({"x": xy, "y": tz}) == F.subst({"x": tx, "y": yz})
    return {"unit": unit_ok, "commutative": comm_ok, "associative": assoc_ok}

"""Formal group laws over a coefficient ring.

A law is a bivariate series F(x, y) with F(x,0) = x, F(0,y) = y,
F(x,y) = F(y,x) and F(F(x,y),z) = F(x,F(y,z)), all up to the degree cap.
Constructors:

* ``multiplicative_law``  -- F = x + y + xy over Z or Z/p^N (height 1).
* ``additive_law``        -- F = x + y.
* ``honda_law``           -- the height-n p-typical law over F_p, built from
  the logarithm l(x) = sum_i x^(p^(n i)) / p^i and reduced mod p.
* ``lubin_tate_height2_law`` -- a height-2 law over Z/p^N[u1]/(u1^D) whose
  logarithm solves the functional equation
  l(x) = x + (u1/p) l^s(x^p) + (1/p) l^(s s)(x^(p^2)),
  s being the coefficient twist u1 -> u1^p (required for p-integrality).

The logarithm constructions run over Z[1/p] on p-scaled integers: a
coefficient is a list of integers (one per power of u1) with one scale s,
standing for ints / p^s. That is exact, with no guard digits to derive:
the logarithms have p-power denominators, and the law is built from them by
ring operations and by divisions by integers whose prime-to-p part divides
exactly, so no value ever leaves Z[1/p]. Every coefficient of the resulting
law must come back to scale 0 on its own before it is reduced into the
target ring; this is checked, and a failure is an ``IntegralityFailure``
naming the coefficient (a bug, not a user error). The logarithm and its
inverse E keep these lists, with their own truncated product ``_mul``;
the Horner evaluation of E that forms F keeps each row as one Kronecker int
(``_law_from_log``). A coefficient enters the ring's stored form only once,
as a ``CoeffElem`` of the finished law.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import lshift

from .coeffring import CoeffElem, CoeffRingSpec
from .errors import (
    IntegralityFailure,
    NonNilpotentArgument,
    SpecMismatch,
    TruncationTooSmall,
)
from .series import TruncSeries


class FormalGroupLaw:
    """A formal group law F(x, y) with its coefficient ring and metadata."""

    def __init__(self, spec: CoeffRingSpec, F: TruncSeries, height_hint: int | None, name: str):
        self.spec = spec
        self.F = F
        self.height_hint = height_hint
        self.name = name
        self._nseries_cache: dict[int, TruncSeries] = {}

    @property
    def cap(self) -> int:
        return self.F.cap

    def x(self) -> TruncSeries:
        """The coordinate x as a univariate series in this law's ring."""
        return TruncSeries.variable(self.spec, ("x",), self.cap, "x")

    # -- group operations ---------------------------------------------------

    def formal_sum(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        """F(a, b) for series with zero constant term."""
        if not a.constant_term().is_zero() or not b.constant_term().is_zero():
            raise NonNilpotentArgument("formal sum needs zero constant terms")
        if a.variables != b.variables or a.cap != b.cap or a.spec != b.spec:
            raise SpecMismatch("formal sum arguments live in different rings")
        return self.F.subst({"x": a, "y": b})

    def formal_inverse(self, a: TruncSeries) -> TruncSeries:
        """The series i(a) with F(a, i(a)) = 0, found degree by degree.

        F(u,v) = u + v + (higher), so the degree-t part of the unknown is
        determined by all lower parts; each round fixes one degree.
        """
        if not a.constant_term().is_zero():
            raise NonNilpotentArgument("formal inverse needs a zero constant term")
        cap = a.cap
        if cap is None:
            raise SpecMismatch("formal inverse needs a finite degree cap")
        inv = TruncSeries.zero(a.spec, a.variables, cap)
        for t in range(1, cap):
            defect = self.formal_sum(a, inv).homogeneous_part(t)
            if not defect.is_zero():
                inv = inv - defect
        return inv

    def n_series(self, m: int) -> TruncSeries:
        """[m](x), the m-th formal multiple of x: [0](x) = 0, [m](x) = F(x, [m-1](x)),
        via a binary addition chain on the formal sum."""
        if m < 0:
            return self.formal_inverse(self.n_series(-m))
        return self._n_series_pos(m)

    def _n_series_pos(self, m: int) -> TruncSeries:
        cached = self._nseries_cache.get(m)
        if cached is not None:
            return cached
        x = self.x()
        if m == 0:
            out = TruncSeries.zero(self.spec, ("x",), self.cap)
        elif m == 1:
            out = x
        elif m % 2 == 0:
            half = self._n_series_pos(m // 2)
            out = self.formal_sum(half, half)
        else:
            out = self.formal_sum(x, self._n_series_pos(m - 1))
        self._nseries_cache[m] = out
        return out

    # -- axiom checks ---------------------------------------------------------

    def check_axioms(self) -> dict[str, bool]:
        """Verify unit, commutativity and associativity up to the cap. When F is
        commutative, F(x,F(y,z)) = F(F(y,z),x) = F(F(z,y),x) is F(F(x,y),z) with x <-> z,
        exactly up to the cap: only then is associativity checked with one substitution."""
        spec, cap, F = self.spec, self.cap, self.F
        x, y = (TruncSeries.variable(spec, F.variables, cap, v) for v in F.variables)
        zero2 = TruncSeries.zero(spec, F.variables, cap)
        unit_ok = F.subst({"x": x, "y": zero2}) == x and F.subst({"x": zero2, "y": y}) == y
        comm_ok = F.rename(F.variables, cap, {"x": "y", "y": "x"}) == F
        tri = ("x", "y", "z")
        left = F.subst({"x": F.rename(tri, cap), "y": y.rename(tri, cap, {"y": "z"})})
        right = left.rename(tri, cap, {"x": "z", "z": "x"}) if comm_ok else F.subst(
            {"x": x.rename(tri, cap), "y": F.rename(tri, cap, {"x": "y", "y": "z"})})
        return {"unit": unit_ok, "commutative": comm_ok, "associative": left == right}

    def __repr__(self) -> str:
        return f"FormalGroupLaw({self.name}, p={self.spec.p}, cap={self.cap})"


# -- constructors --------------------------------------------------------------


def multiplicative_law(spec: CoeffRingSpec, cap: int) -> FormalGroupLaw:
    """F(x, y) = x + y + xy. Height 1; exact at any cap >= 3."""
    if spec.deformation_params != 0:
        raise SpecMismatch("multiplicative law needs deformation_params = 0")
    if cap < 3:
        raise TruncationTooSmall(f"multiplicative law needs cap >= 3 ({spec.precision_label(cap)})")
    one = CoeffElem.one(spec)
    F = TruncSeries(spec, ("x", "y"), cap, {(1, 0): one, (0, 1): one, (1, 1): one})
    return FormalGroupLaw(spec, F, 1, "multiplicative")


def additive_law(spec: CoeffRingSpec, cap: int) -> FormalGroupLaw:
    """F(x, y) = x + y."""
    if cap < 2:
        raise TruncationTooSmall(f"additive law needs cap >= 2 ({spec.precision_label(cap)})")
    one = CoeffElem.one(spec)
    F = TruncSeries(spec, ("x", "y"), cap, {(1, 0): one, (0, 1): one})
    return FormalGroupLaw(spec, F, None, "additive")


# -- logarithm constructions -----------------------------------------------------
#
# A Scaled pair (ints, s) is the u-polynomial sum_i ints[i] u^i / p^s mod
# u^width, with len(ints) = width and s >= 0 (see the module docstring).

Scaled = tuple[list[int], int]


def _strip(ints: list[int], s: int, p: int) -> Scaled:
    """Move every power of p dividing all of ``ints`` out of the scale."""
    v, g = 0, gcd(*ints) if s else 1
    if not g:
        return ints, 0
    while v < s and g % p == 0:
        g //= p
        v += 1
    return ([c // p ** v for c in ints], s - v) if v else (ints, s)


def _mul(a: Scaled, b: Scaled) -> Scaled:
    """Product truncated at u^width: the ints convolved, the scales added;
    ``_lincomb`` strips the sum it enters."""
    (x, s), (y, t) = a, b
    out = [0] * len(x)
    for i, c in enumerate(x):
        if c:
            for k, d in enumerate(y[:len(x) - i], i):
                out[k] += c * d
    return out, s + t


def _lincomb(terms: list[tuple[int, Scaled]], p: int, width: int) -> Scaled:
    """sum(k * a for k, a in terms), brought to the largest scale among them."""
    if not terms:
        return [0] * width, 0
    top = max(a[1] for _, a in terms)
    out = [0] * width
    for k, (ints, s) in terms:
        f = k * p ** (top - s)
        for i, c in enumerate(ints):
            out[i] += f * c
    return _strip(out, top, p)


def _twist(a: Scaled, p: int) -> Scaled:
    """Apply u -> u^p to the coefficients (truncated at the width)."""
    out = [0] * len(a[0])
    out[::p] = a[0][:len(out[::p])]
    return out, a[1]


def _law_from_log(spec: CoeffRingSpec, cap: int, log_coeffs: dict[int, Scaled],
                  height: int, name: str) -> FormalGroupLaw:
    """Build F = l^{-1}(l(x) + l(y)) from a sparse logarithm.

    ``log_coeffs`` maps j to l_j, a u-polynomial mod u^width in p-scaled
    form (width = ``spec.width``), with l_1 = 1. The compositional inverse
    E = l^{-1} is found degree by degree from sum_j l_j E(z)^j = z: with
    G = E/z, the coefficient [z^k] E^j = [z^(k-j)] G^j comes from J.C.P.
    Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7)

        c_0 = 1,  c_n = (1/n) sum_{i=1..n} ((j+1) i - n) g_i c_{n-i},

    kept for each j with l_j != 0, so a new e_k costs O(k) products per j.
    Dividing by n = p^v m divides the ints by m exactly and adds v to the
    scale. F is then the Horner evaluation of E at S = l(x) + l(y) (Brent and
    Kung, J. ACM 25, 1978). S has valuation 1 and multiplies the accumulator
    k more times after e_k joins it, so only its x^a y^b with a + b < cap - k
    are formed. S's coefficients share one scale, and so do the accumulator's
    rows. Within a step each row is one int, its u-polynomial at u = 2^w with
    signed w-bit slots (Kronecker substitution; von zur Gathen and Gerhard,
    Modern Computer Algebra, 3rd ed., 8.4), so a row times a coefficient c_j
    of S is one int product. An output row is sum_j c_j (left + right), where
    left + right has slots of at most 2 M_acc (M_acc the largest |slot| of a
    row) and slot i of c_j r is sum_t c_(j,t) r_(i-t). So every slot of an
    output, also above u^width, is at most 2 M_acc |S|_1, with |S|_1 the sum
    of every |slot| of S, which is at most 2 s width M_S M_acc for s terms of
    largest |slot| M_S. w = bitlen(2 M_acc |S|_1) + 1 keeps it below 2^(w-1):
    adding 2^(w-1) to each of slots 0..width-1 then leaves slot i in bits
    [w i, w (i+1)) with no borrow, and reading those slots is the truncation
    at u^width. The read after each step yields the power of p to move into
    A and the M_acc, hence the w, of the next step.
    """
    p, width = spec.p, spec.width

    def fail(what: str) -> IntegralityFailure:
        return IntegralityFailure(f"{name}: {what} ({spec.precision_label(cap)})")

    def miller(c: list[Scaled], j: int, n: int) -> Scaled:
        # c holds [z^i] G^j for i < n; g_i = e_{i+1}
        terms = [((j + 1) * i - n, _mul(E[i + 1], c[n - i]))
                 for i in range(1, n + 1) if (j + 1) * i != n and any(E[i + 1][0])]
        ints, s = _lincomb(terms, p, width)
        m, v = n, 0
        while m % p == 0:
            m //= p
            v += 1
        if any(x % m for x in ints):
            raise fail(f"the Miller division by {m} at degree {n} of E^{j} is not exact")
        return _strip([x // m for x in ints], s + v, p)

    one: Scaled = ([1] + [0] * (width - 1), 0)
    E = [([0] * width, 0), one]
    powers = {j: [one] for j, c in sorted(log_coeffs.items()) if 1 < j < cap and any(c[0])}
    for k in range(2, cap):
        terms = []
        for j, c in powers.items():
            if j > k:
                break
            n = k - j
            if n:
                c.append(miller(c, j, n))
            terms.append((-1, _mul(log_coeffs[j], c[n])))
        E.append(_lincomb(terms, p, width))

    # Horner: (((e_{cap-1}) S + e_{cap-2}) S + ... + e_1) S. Every partial
    # result is symmetric in x and y, so only the exponents (a, b) with a <= b
    # are kept. A row stands for its slots / p^A, one A for all rows, and A
    # never drops below the largest scale of an e_k, so each e_k joins by a
    # product. A step packs the rows into a grid by (a, b), sums int products
    # into each output and reads its slots back once; the power q of p that
    # divides every slot is divided out of the packed rows of the next step.
    sigma = max(s for _, s in log_coeffs.values())
    S = [(j, [x * p ** (sigma - s) for x in ints])
         for j, (ints, s) in sorted(log_coeffs.items()) if j < cap and any(ints)]
    room = 2 * sum(abs(x) for _, c in S for x in c)
    rows: dict[tuple[int, int], list[int]] = {}
    A = floor = max(s for _, s in E)
    top, q = 0, 1
    for k in range(cap - 1, -1, -1):
        w = (room * top).bit_length() + 1
        shifts, half, mask = range(0, w * width, w), 1 << (w - 1), (1 << w) - 1
        bias = sum(half << s for s in shifts)
        acc = [[0] * cap for _ in range(cap)]
        for (a, b), row in rows.items():
            acc[a][b] = sum(map(lshift, row, shifts)) // q
        packed = [(j, sum(map(lshift, c, shifts))) for j, c in S]
        rows = {}
        for a in range(cap - k):
            line = acc[a]
            for b in range(a, cap - k - a):
                t = bias
                for j, c in packed:
                    if j > b:
                        break
                    src = (acc[a - j][b] if j <= a else 0) + \
                        (line[b - j] if a <= b - j else acc[b - j][a])
                    if src:
                        t += c * src
                if t != bias:
                    rows[(a, b)] = [(t >> s & mask) - half for s in shifts]
        A += sigma
        if k and any(E[k][0]):
            rows[(0, 0)] = [x * p ** (A - E[k][1]) for x in E[k][0]]
        flat = list(chain.from_iterable(rows.values()))
        v = A - floor - _strip([gcd(*flat)], A - floor, p)[1]
        top, q, A = max(map(abs, flat), default=0) // p ** v, p ** v, A - v

    F_terms: dict[tuple[int, int], CoeffElem] = {}
    for (a, b), row in rows.items():  # each row still to be divided by q = p^v
        ints, s = _strip(row, A + v, p)
        if s:
            raise fail(f"the x^{a} y^{b} coefficient keeps the denominator {p}^{s}")
        F_terms[(a, b)] = F_terms[(b, a)] = CoeffElem(spec, ints)
    F = TruncSeries(spec, ("x", "y"), cap, F_terms)  # drops the zero coefficients
    return FormalGroupLaw(spec, F, height, name)


def honda_law(spec: CoeffRingSpec, n: int, cap: int) -> FormalGroupLaw:
    """The p-typical height-n law over F_p; [p](x) = x^(p^n) mod p."""
    if n < 1:
        raise SpecMismatch(f"honda law needs height n >= 1, got {n}")
    if spec.exact or spec.p_precision != 1:
        raise SpecMismatch("honda law needs coefficients mod p (p_precision = 1)")
    if spec.deformation_params != 0:
        raise SpecMismatch("honda law needs deformation_params = 0")
    if cap <= spec.p ** n:
        raise TruncationTooSmall(
            f"cap must exceed p^n = {spec.p ** n} ({spec.precision_label(cap)})")
    # l(x) = sum_i x^(p^(n i)) / p^i
    log_coeffs: dict[int, Scaled] = {}
    while (k := spec.p ** (n * len(log_coeffs))) < cap:
        log_coeffs[k] = ([1], len(log_coeffs))
    return _law_from_log(spec, cap, log_coeffs, n, f"honda({n})")


def lubin_tate_height2_law(spec: CoeffRingSpec, cap: int) -> FormalGroupLaw:
    """A height-2 deformation over Z/p^N[u1]/(u1^D).

    Logarithm solved from l(x) = x + (u1/p) l~(x^p) + (1/p) l~~(x^(p^2)),
    where ~ twists coefficients by u1 -> u1^p; the twist is what makes the
    functional-equation lemma apply, so the resulting law is p-integral.
    Reducing mod (p, u1) recovers the height-2 Honda law.
    """
    if spec.deformation_params != 1:
        raise SpecMismatch("height-2 law needs exactly one deformation parameter")
    if cap <= spec.p ** 2:
        raise TruncationTooSmall(
            f"cap must exceed p^2 = {spec.p ** 2} ({spec.precision_label(cap)})")
    p, width = spec.p, spec.width
    zero: Scaled = ([0] * width, 0)
    log_coeffs: dict[int, Scaled] = {1: ([1] + [0] * (width - 1), 0)}
    k = p
    while k < cap:  # k // p^2 is 0, a missing key, at k = p
        prev_ints, prev_s = _twist(log_coeffs[k // p], p)
        u_prev = ([0] + prev_ints[:-1], prev_s)
        prev2 = _twist(_twist(log_coeffs.get(k // (p * p), zero), p), p)
        ints, s = _lincomb([(1, u_prev), (1, prev2)], p, width)
        log_coeffs[k] = _strip(ints, s + 1, p)
        k *= p
    return _law_from_log(spec, cap, log_coeffs, 2, "lubinTate(2)")

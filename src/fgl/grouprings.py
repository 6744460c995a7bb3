"""Finite free algebras presenting cohomology and level-structure rings.

For an abelian p-group A = C_{p^m1} x ... x C_{p^mk} and a formal group law
of height n, the ambient ring is

    E0[[x_1..x_k]] / ([p^m1](x_1), ..., [p^mk](x_k)),

presented by the distinguished (monic) Weierstrass factors of the p-power
series, hence finite free of rank prod p^(mi n) with the monomial basis
{x^a : a_i < deg_i}. The level-structure quotient replaces each relation by
an exact quotient of p-power series:

* cyclic C_{p^m}: the single relation is the prepared quotient
  [p^m](x) / [p^(m-1)](x) (remainder checked to vanish);
* elementary abelian (C_p)^k with k <= n: triangular relations where the
  j-th divides [p](x_j) by the product of (x_j -_F sum of lower-variable
  multiples) over all F_p-combinations of x_1..x_(j-1), the division
  performed in A_(j-1)[x_j]/(x_j^T), A_(j-1) the partial quotient algebra.

Mixed types (e.g. C_{p^2} x C_p) are rejected: the divisor condition pins
the ring down but not an explicit triangular generator list, and guessing
one here would be unverifiable.

Elements of a :class:`FiniteAlgebra` are cap-free polynomials on the
monomial basis; reduction by the triangular monic relations is ordinary
polynomial division, processed from the highest variable down so each
substitution only introduces lower variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coeffring import CoeffElem, CoeffRingSpec
from .errors import (
    InternalInconsistency,
    NonConvergence,
    NonExactDivision,
    NotAUnit,
    RelationNotKilled,
    TruncationTooSmall,
    UnsupportedGroupType,
)
from .laws import FormalGroupLaw
from .series import TruncSeries
from .weierstrass import divide as w_divide
from .weierstrass import prepare as w_prepare
from .weierstrass import weierstrass_divide, weierstrass_prepare


@dataclass(frozen=True)
class AbelianPType:
    """A = C_{p^m1} x ... x C_{p^mk}, exponents sorted descending."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) < 1:
            raise UnsupportedGroupType("the trivial group is not supported")
        if any(m < 1 for m in self.exponents):
            raise UnsupportedGroupType("cyclic factors need exponent >= 1")
        if tuple(sorted(self.exponents, reverse=True)) != self.exponents:
            raise UnsupportedGroupType("exponents must be sorted descending")

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def order_exponent(self) -> int:
        return sum(self.exponents)

    def order(self, p: int) -> int:
        return p ** self.order_exponent

    @property
    def is_cyclic(self) -> bool:
        return len(self.exponents) == 1

    @property
    def is_elementary_abelian(self) -> bool:
        return all(m == 1 for m in self.exponents)

    @classmethod
    def parse(cls, text: str) -> "AbelianPType":
        return cls(tuple(int(part) for part in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.exponents)


class FiniteAlgebra:
    """A finite free quotient presented by a triangular monic system."""

    def __init__(self, spec: CoeffRingSpec, variables: tuple[str, ...],
                 relations: list[TruncSeries], lead_degrees: tuple[int, ...],
                 label: str = ""):
        self.spec = spec
        self.variables = tuple(variables)
        self.relations = list(relations)
        self.lead_degrees = tuple(lead_degrees)
        self.label = label
        for j, (rel, d) in enumerate(zip(self.relations, self.lead_degrees)):
            lead = tuple(d if i == j else 0 for i in range(len(self.variables)))
            if rel.coefficient(lead) != CoeffElem.one(spec):
                raise InternalInconsistency(
                    f"{label or 'finite algebra'}: relation {j + 1} is not monic of degree "
                    f"{d} in its variable (p={spec.p}, N={spec.p_precision}, "
                    f"D={spec.u_degree_cap})")

    @property
    def rank(self) -> int:
        out = 1
        for d in self.lead_degrees:
            out *= d
        return out

    def basis(self) -> list[tuple[int, ...]]:
        """Monomial basis exponents in graded-then-lex order."""
        expos: list[tuple[int, ...]] = [()]
        for d in self.lead_degrees:
            expos = [e + (i,) for e in expos for i in range(d)]
        return sorted(expos, key=lambda e: (sum(e), e))

    # -- element helpers ------------------------------------------------

    def zero(self) -> TruncSeries:
        return TruncSeries.zero(self.spec, self.variables, None)

    def one(self) -> TruncSeries:
        return TruncSeries.one(self.spec, self.variables, None)

    def var(self, j: int) -> TruncSeries:
        return TruncSeries.variable(self.spec, self.variables, None, self.variables[j])

    def reduce(self, f: TruncSeries) -> TruncSeries:
        """The unique representative supported on the monomial basis."""
        if f.variables != self.variables:
            f = f.rename(self.variables, cap=None)
        terms = dict(f.terms)
        for j in range(len(self.variables) - 1, -1, -1):
            terms = self._reduce_in_var(terms, j)
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

    def reduce_series(self, s: TruncSeries) -> TruncSeries:
        """Reduce a (capped) series into the algebra, dropping the cap."""
        lifted = TruncSeries(self.spec, s.variables, None, dict(s.terms), _clean=True)
        return self.reduce(lifted)

    def mul(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        return self.reduce(a * b)

    def multiplication_columns(self, f: TruncSeries) -> list[list[CoeffElem]]:
        """Coordinates of f * b for each basis monomial b, in ``basis()`` order.

        The companion-matrix walk: in graded order, f * x^a is x_j times the
        already reduced f * x^(a - e_j), j the first index with a_j > 0, so
        each column costs one shift and one short reduction. The relations
        are triangular, so the reduction stays a short one for several
        variables too.
        """
        basis = self.basis()
        products = {basis[0]: self.reduce(f)}
        for a in basis[1:]:
            j = next(i for i, e in enumerate(a) if e)
            prev = products[a[:j] + (a[j] - 1,) + a[j + 1:]]
            shifted = {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in prev.terms.items()}
            products[a] = self.reduce(
                TruncSeries(self.spec, self.variables, None, shifted, _clean=True))
        return [[products[a].coefficient(b) for b in basis] for a in basis]

    def coordinates(self, f: TruncSeries) -> list[CoeffElem]:
        red = self.reduce(f)
        return [red.coefficient(e) for e in self.basis()]

    def invert_element(self, f: TruncSeries) -> TruncSeries:
        """Inverse of a unit: scalar part inverted, nilpotent part geometric."""
        red = self.reduce(f)
        zero_expo = (0,) * len(self.variables)
        s = red.coefficient(zero_expo)
        if not s.is_unit():
            raise NotAUnit("algebra element has non-unit residue")
        s_inv = s.invert()
        w = self.one() - self.reduce(red.scale(s_inv))
        if w.is_zero():
            return self.one().scale(s_inv)
        acc = self.one()
        power = self.one()
        spec = self.spec
        bound = 4 * self.rank * ((spec.p_precision or 1) + spec.u_degree_cap + 1)
        for _ in range(bound):
            power = self.mul(power, w)
            if power.is_zero():
                return self.reduce(acc.scale(s_inv))
            acc = acc + power
        raise NonConvergence("algebra inversion did not terminate (non-nilpotent part)")

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "relations": [
                [{"exps": list(expo), "coeff": c.to_json()} for expo, c in rel.sorted_terms()]
                for rel in self.relations
            ],
            "rank": self.rank,
        }

    def __repr__(self) -> str:
        return f"FiniteAlgebra({self.label or self.variables}, rank={self.rank})"


class AlgebraMap:
    """A ring map between finite algebras, given on generators.

    Construction verifies every source relation maps to zero in the target.
    """

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra,
                 images: dict[str, TruncSeries], label: str = ""):
        self.source = source
        self.target = target
        self.images = dict(images)
        self.label = label
        for rel in source.relations:
            if not self.apply(rel).is_zero():
                raise RelationNotKilled(
                    f"relation {rel!r} does not map to zero under {label or 'map'}"
                )

    def apply(self, f: TruncSeries) -> TruncSeries:
        return self.target.reduce(f.subst(self.images))

    def __repr__(self) -> str:
        return f"AlgebraMap({self.label}: rank {self.source.rank} -> {self.target.rank})"


# -- constructions ---------------------------------------------------------


def _height(law: FormalGroupLaw) -> int:
    if law.height_hint is None:
        raise UnsupportedGroupType("law has no height hint; group rings need one")
    return law.height_hint


def _variables(k: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(k))


def group_cohomology_ring(law: FormalGroupLaw, gtype: AbelianPType) -> FiniteAlgebra:
    """The ambient ring with relations the prepared p-power series."""
    n = _height(law)
    p = law.spec.p
    for m in gtype.exponents:
        if law.cap <= p ** (m * n):
            raise TruncationTooSmall(
                f"cap {law.cap} cannot resolve degree p^(m n) = {p ** (m * n)}"
            )
    variables = _variables(gtype.rank)
    relations = []
    degrees = []
    for j, m in enumerate(gtype.exponents):
        s = law.n_series(p ** m).series
        fact = weierstrass_prepare(s)
        rel = _into_variable(fact.distinguished, variables, j, law.spec)
        relations.append(rel)
        degrees.append(fact.degree)
    alg = FiniteAlgebra(law.spec, variables, relations, tuple(degrees),
                        label=f"E0(B[{gtype}])")
    expected = 1
    for m in gtype.exponents:
        expected *= p ** (m * n)
    if alg.rank != expected:
        raise NonExactDivision(
            f"ambient rank {alg.rank} differs from p^(n m) = {expected}"
        )
    return alg


def _into_variable(s: TruncSeries, variables: tuple[str, ...], j: int,
                   spec: CoeffRingSpec) -> TruncSeries:
    """Move a univariate polynomial into slot j of a variable tuple, cap-free."""
    terms = {}
    k = len(variables)
    for expo, c in s.terms.items():
        key = tuple(expo[0] if i == j else 0 for i in range(k))
        terms[key] = c
    return TruncSeries(spec, variables, None, terms, _clean=True)


def level_ring(law: FormalGroupLaw, gtype: AbelianPType) -> FiniteAlgebra:
    """The level-structure ring, presented by exact p-power series quotients."""
    n = _height(law)
    p = law.spec.p
    if gtype.is_cyclic:
        return _level_ring_cyclic(law, gtype, n)
    if gtype.is_elementary_abelian:
        if gtype.rank > n:
            raise UnsupportedGroupType(
                f"rank {gtype.rank} exceeds the height {n}; no level structures exist"
            )
        return _level_ring_elementary(law, gtype, n)
    raise UnsupportedGroupType(
        f"mixed type {gtype} is not supported (cyclic or elementary abelian only)"
    )


def _level_ring_cyclic(law: FormalGroupLaw, gtype: AbelianPType, n: int) -> FiniteAlgebra:
    p = law.spec.p
    m = gtype.exponents[0]
    if law.cap <= p ** (m * n):
        raise TruncationTooSmall(
            f"cap {law.cap} cannot resolve degree p^(m n) = {p ** (m * n)}"
        )
    numer = law.n_series(p ** m).series
    denom = law.n_series(p ** (m - 1)).series
    q, r = weierstrass_divide(numer, denom)
    if not r.is_zero():
        raise NonExactDivision(
            f"[p^{m}] is not exactly divisible by [p^{m - 1}] at this precision"
        )
    fact = weierstrass_prepare(q)
    expected = p ** (m * n) - p ** ((m - 1) * n)
    if fact.degree != expected:
        raise NonExactDivision(
            f"level relation degree {fact.degree}, expected {expected}"
        )
    rel = _into_variable(fact.distinguished, ("x1",), 0, law.spec)
    return FiniteAlgebra(law.spec, ("x1",), [rel], (fact.degree,),
                         label=f"Level({gtype})")


def _level_ring_elementary(law: FormalGroupLaw, gtype: AbelianPType, n: int) -> FiniteAlgebra:
    p = law.spec.p
    k = gtype.rank
    cap = law.cap
    spec = law.spec
    variables = _variables(k)

    p_series = law.n_series(p).series

    relations: list[TruncSeries] = []
    degrees: list[int] = []

    # stage 1: [p](x1) / x1, a plain univariate division
    x = law.x()
    q, r = weierstrass_divide(p_series, x)
    if not r.is_zero():
        raise NonExactDivision("[p](x) is not divisible by x")
    fact = weierstrass_prepare(q)
    if fact.degree != p ** n - 1:
        raise NonExactDivision(f"stage-1 degree {fact.degree}, expected {p ** n - 1}")
    relations.append(_into_variable(fact.distinguished, variables, 0, spec))
    degrees.append(fact.degree)

    for j in range(2, k + 1):
        ring = _partial_algebra(spec, variables, relations, degrees, j - 1, cap)
        numer = ring.reduce_series(_n_series_in_variable(law, p, variables, j - 1))
        denom = ring.reduce_series(_denominator_product(law, variables, j))
        q, r = w_divide(numer, denom, ring)
        if not r.is_zero():
            raise NonExactDivision(
                f"[p](x{j}) is not exactly divisible by the level denominator "
                f"(precision too small)"
            )
        _, dist, d = w_prepare(q, ring)
        expected = p ** n - p ** (j - 1)
        if d != expected:
            raise NonExactDivision(f"stage-{j} degree {d}, expected {expected}")
        relations.append(dist.rename(variables))
        degrees.append(d)

    alg = FiniteAlgebra(spec, variables, relations, tuple(degrees),
                        label=f"Level({gtype})")
    return alg


def _partial_algebra(spec, variables, relations, degrees, upto: int, cap: int) -> FiniteAlgebra:
    """A_upto[x_(upto+1)]/(x_(upto+1)^cap), A_upto the quotient by the first ``upto`` relations.

    Relations are stored over the full variable tuple with zero exponents on
    the not-yet-constructed variables, so projecting the exponents is safe.
    """
    sub_vars = variables[:upto + 1]
    sub_rels = []
    for i, rel in enumerate(relations[:upto]):
        terms = {}
        for expo, c in rel.terms.items():
            if any(expo[upto:]):
                raise InternalInconsistency(
                    f"level ring stage {upto + 1}: relation {i + 1} involves "
                    f"a variable after x{upto} (p={spec.p}, N={spec.p_precision}, "
                    f"D={spec.u_degree_cap})")
            terms[expo[:upto + 1]] = c
        sub_rels.append(TruncSeries(spec, sub_vars, None, terms, _clean=True))
    x_cap = {(0,) * upto + (cap,): CoeffElem.one(spec)}
    sub_rels.append(TruncSeries(spec, sub_vars, None, x_cap, _clean=True))
    return FiniteAlgebra(spec, sub_vars, sub_rels, tuple(degrees[:upto]) + (cap,),
                         label=f"level ring stage {upto + 1}")


def _n_series_in_variable(law: FormalGroupLaw, m: int, variables, j: int) -> TruncSeries:
    """[m](x_{j+1}) as a series in variables x1..x_{j+1} with the law's cap."""
    target = variables[: j + 1]
    xj = TruncSeries.variable(law.spec, target, law.cap, variables[j])
    return law.n_series(m).series.subst({"x": xj})


def character_sums(law: FormalGroupLaw, variables: list[TruncSeries],
                   orders: list[int]) -> list[TruncSeries]:
    """[a_1](x_1) +_F ... +_F [a_k](x_k) for every 0 <= a_i < orders[i].

    ``variables`` are the series x_1..x_k (k >= 1) in one common ring. The
    sums come in ``itertools.product`` order, so the zero tuple is first;
    each is folded from the left, sharing the partial sums of its prefix.
    """
    multiples = [[law.n_series(a).series.subst({"x": x}) for a in range(order)]
                 for x, order in zip(variables, orders)]
    sums = multiples[0]
    for row in multiples[1:]:
        sums = [law.formal_sum(s, t) for s, t in itertools.product(sums, row)]
    return sums


def _denominator_product(law: FormalGroupLaw, variables, j: int) -> TruncSeries:
    """prod over (a_1..a_{j-1}) in F_p^{j-1} of (x_j -_F sum_F [a_i](x_i))."""
    target = variables[:j]
    cap = law.cap
    spec = law.spec
    xj = TruncSeries.variable(spec, target, cap, variables[j - 1])
    lower_vars = [TruncSeries.variable(spec, target, cap, v) for v in target[:-1]]
    out = TruncSeries.one(spec, target, cap)
    for s in character_sums(law, lower_vars, [spec.p] * (j - 1)):
        out = out * law.formal_sum(xj, law.formal_inverse(s))
    return out


def quotient_to_level(law: FormalGroupLaw, gtype: AbelianPType) -> AlgebraMap:
    """The quotient map from the ambient ring to the level ring, x_i -> x_i."""
    source = group_cohomology_ring(law, gtype)
    target = level_ring(law, gtype)
    images = {v: target.var(i) for i, v in enumerate(source.variables)}
    return AlgebraMap(source, target, images, label=f"quotient {gtype}")


def restriction_map(law: FormalGroupLaw, sub_exponent: int, super_exponent: int) -> dict:
    """Restriction and inflation between cyclic group rings.

    The inclusion C_{p^(m-1)} < C_{p^m} restricts the standard character to
    the standard character, so restriction is x -> x from the C_{p^m} ring
    to the C_{p^(m-1)} ring; inflation along the index-p quotient pulls the
    standard character back to its p-th power, x -> [p](x).
    """
    if sub_exponent < 1 or super_exponent < sub_exponent:
        raise UnsupportedGroupType("need cyclic groups with sub <= super")
    if super_exponent - sub_exponent not in (0, 1):
        raise UnsupportedGroupType("only identity or codimension-one pairs")
    big = group_cohomology_ring(law, AbelianPType((super_exponent,)))
    small = group_cohomology_ring(law, AbelianPType((sub_exponent,)))
    if super_exponent == sub_exponent:
        ident = {v: big.var(i) for i, v in enumerate(big.variables)}
        return {"restriction": AlgebraMap(big, big, ident, label="identity"),
                "inflation": AlgebraMap(big, big, ident, label="identity")}
    restriction = AlgebraMap(
        big, small, {"x1": small.var(0)}, label=f"res C_p^{sub_exponent} < C_p^{super_exponent}"
    )
    p_image = big.reduce_series(
        _n_series_in_variable(law, law.spec.p, big.variables, 0)
    )
    inflation = AlgebraMap(
        small, big, {"x1": p_image}, label=f"inf C_p^{super_exponent} ->> C_p^{sub_exponent}"
    )
    return {"restriction": restriction, "inflation": inflation}

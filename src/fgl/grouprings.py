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
  first divides [p](x_1) by x_1 and the j-th [p](x_j) by the product of
  (x_j - s) over the character sums s of x_1..x_(j-1) with F_p coefficients.
  A subgroup divisor is fixed only up to a unit (Strickland, JPAA 121,
  1997): x -_F s = F(x, i(s)) vanishes at x = s and has a unit x-linear
  coefficient, so it is (x - s) times a unit. A unit in the denominator
  scales the quotient by a unit, which leaves its distinguished factor, the
  relation, unchanged: that factor is unique.

Every relation, ambient or level, comes from one stage. The stage ring
A_(j-1)[x_j]/(x_j^T) is ``A_(j-1).adjoin(x_j, T)``, A_(j-1) the quotient by
the relations before it (E0 = ``FiniteAlgebra(spec, (), [], ())`` for every
ambient relation, since those are independent). There [p^m](x) renamed
cap-free into x_j is divided by its denominator with ``weierstrass.divide``
(ambient relations skip this), the quotient is factored with ``weierstrass.prepare``, and the
distinguished factor, checked for its expected degree d, is the relation:
A_j = ``A_(j-1).adjoin(x_j, d, relation)``.

Mixed types (e.g. C_{p^2} x C_p) are rejected: the divisor condition pins
the ring down but not an explicit triangular generator list, and guessing
one here would be unverifiable.

Elements of a :class:`FiniteAlgebra` are cap-free polynomials on the
monomial basis. Its constructor checks the triangular shape: relation j is
x_j^(d_j) plus terms of lower x_j-degree in x_1..x_j only. So reduction,
which substitutes the tail (the non-lead terms, negated) for x_j^(d_j), is
one sweep per variable, from the highest variable down, and each sweep is
dense along its variable: the terms lie in rows c[0..top], one row per tuple
of the other exponents, and for k from the top down to d_j, in every row
that exists at that step, canon(c[k]) t is added into c'[k - d_j + i] for
each tail term t x_j^i x^s, c' being the row shifted by s (the row itself
when s = 0, made if missing). A row made at step k gets entries only below
k, and no rewrite brings back a later variable or a degree already swept.
In one variable (a cyclic ambient, a stage ring ``E0.adjoin(x, T)``) there
is one row.

The sweep keeps one int per monomial in the stored form of the series
(``CoeffRingSpec.pack``); the tails are stored once that way, negated. It
multiplies stored ints directly, and a coefficient is canonicalized
(``spec.canon``) when its degree is swept and, if it survives, once at the
end. No slot carries. In the sweep of x_j a monomial gets at most |tail_j|
products: the swept exponent is fixed by the monomial and the tail term,
and a swept degree never comes back in its own sweep. So a slot holds a
canonical coefficient plus at most sum_j |tail_j| products of two stored
ints, at most D (1 + sum_j |tail_j|) products of coefficients below p^N;
the constructor checks that room with ``spec.check_room``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import add, ge

from .coeffring import CoeffElem, CoeffRingSpec
from .errors import (
    InternalInconsistency,
    ModeError,
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
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError:
            raise ValueError(f"group type {text!r}: expected exponents like '2,1'") from None
        except UnsupportedGroupType as exc:  # a usage error here, unlike a constructor call
            raise ValueError(f"group type {text!r}: {exc}") from None

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
        # the module docstring bounds a slot of the sweep
        spec.check_room(1 + sum(len(rel.terms) - 1 for rel in self.relations))
        self._tails = []
        for j, (rel, d) in enumerate(zip(self.relations, self.lead_degrees)):
            lead = tuple(d if i == j else 0 for i in range(len(self.variables)))
            tail = [(e, spec.canon(spec.bias - c)) for e, c in rel.terms.items() if e != lead]
            if (rel.coefficient(lead) != CoeffElem.one(spec)
                    or any(any(expo[j + 1:]) or expo[j] >= d for expo, _ in tail)):
                raise InternalInconsistency(
                    f"{label or 'finite algebra'}: relation {j + 1} is not "
                    f"{self.variables[j]}^{d} plus terms of lower degree in "
                    f"{', '.join(self.variables[:j + 1])} ({spec.precision_label(None)})")
            # (i, shift, t): x_j^i times the other exponents, None when all are 0
            self._tails.append([(e[j], e[:j] + e[j + 1:] if any(e[:j]) else None, t)
                                for e, t in tail])

    def adjoin(self, x: str, degree: int, relation: TruncSeries | None = None,
               label: str = "") -> "FiniteAlgebra":
        """self[x]/(relation), every relation renamed into the longer variable tuple;
        with no relation, the stage ring self[x]/(x^degree)."""
        variables = self.variables + (x,)
        if relation is None:
            relation = TruncSeries(self.spec, (x,), None, {(degree,): CoeffElem.one(self.spec)})
        return FiniteAlgebra(self.spec, variables,
                             [rel.rename(variables, None) for rel in self.relations + [relation]],
                             self.lead_degrees + (degree,),
                             label=label or f"{self.label or 'E0'}[{x}]/({x}^{degree})")

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
        """The unique representative supported on the monomial basis.

        A capped series is read as the polynomial of its terms; the result
        is cap-free. Only the terms at or above a lead degree are swept.
        """
        if f.variables != self.variables:
            f = f.rename(self.variables, None)
        canon, leads, terms = self.spec.canon, self.lead_degrees, dict(f.terms)
        raw = {e: terms.pop(e) for e in f.terms if any(map(ge, e, leads))}
        for expo, v in self._sweep(raw).items():
            if c := canon(v + terms.pop(expo, 0)):
                terms[expo] = c
        return TruncSeries(self.spec, self.variables, None, terms, _clean=True)

    def _sweep(self, terms: dict) -> dict:
        """The reduction sweep of the module docstring on stored ints: c x^e
        with e_j = k >= d_j becomes c x^(e - d_j e_j) tail_j."""
        canon = self.spec.canon
        for j in range(len(self.variables) - 1, -1, -1):
            d, tail = self.lead_degrees[j], self._tails[j]
            top = max((e[j] for e in terms), default=0)
            if top < d:
                continue
            # the other exponents -> the dense x_j coefficients c[0..top]
            rows = defaultdict(lambda: [0] * (top + 1))
            for e, v in terms.items():
                rows[e[:j] + e[j + 1:]][e[j]] = v
            for k in range(top, d - 1, -1):
                for rest, row in list(rows.items()):
                    if v := canon(row[k]):
                        for i, shift, t in tail:
                            if shift is None:
                                row[k - d + i] += v * t
                            else:
                                rows[tuple(map(add, rest, shift))][k - d + i] += v * t
            terms = {rest[:j] + (i,) + rest[j:]: v
                     for rest, row in rows.items() for i, v in enumerate(row[:d]) if v}
        return terms

    def mul(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        return self.reduce(a * b)

    def integer_coordinates(self, f: TruncSeries) -> list[int]:
        """The coordinates of f on ``basis()``, one int each; rings without u only."""
        if self.spec.width != 1:
            raise ModeError("integer coordinates need coefficients without u "
                            f"({self.spec.precision_label(None)})")
        terms = self.reduce(f).terms
        return [terms.get(b, 0) for b in self.basis()]

    def integer_matrix(self, f: TruncSeries) -> list[list[int]]:
        """Multiplication by f on ``basis()``, column a the coordinates of f x^a;
        rings without u only. The companion-matrix walk: in graded order f x^a
        is x_j times the reduced f x^(a - e_j), j the first index with a_j > 0,
        so each column is one shift and one short sweep of the stored ints."""
        basis, canon = self.basis(), self.spec.canon
        columns = {basis[0]: dict(zip(basis, self.integer_coordinates(f)))}
        for a in basis[1:]:
            j = next(i for i, e in enumerate(a) if e)
            prev = columns[a[:j] + (a[j] - 1,) + a[j + 1:]]
            col = self._sweep({e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in prev.items() if c})
            columns[a] = {e: canon(v) for e, v in col.items()}
        return [[columns[a].get(b, 0) for a in basis] for b in basis]

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
        acc = power = self.one()
        # a nilpotent w has w^rank in (p, u) (mod (p, u) it is a nilpotent rank x rank
        # matrix) and (p, u)^(N + D - 1) = 0; over Z a nilpotent w has w^rank = 0 itself
        for _ in range(self.rank * ((self.spec.p_precision or 1) + self.spec.u_degree_cap - 1)):
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
        for i, rel in enumerate(source.relations):
            if not self.apply(rel).is_zero():
                raise RelationNotKilled(
                    f"{label or 'map'}: relation {i + 1} of {source.label or 'the source'} "
                    f"does not map to zero ({target.spec.precision_label(None)})")

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
    label = f"E0(B[{gtype}])"
    e0 = alg = FiniteAlgebra(law.spec, (), [], ())
    for j, (x, m) in enumerate(zip(_variables(gtype.rank), gtype.exponents), 1):
        # the relations are independent, so each stage ring is E0[x_j]/(x_j^T)
        dist, d = _stage_relation(law, e0.adjoin(x, law.cap), p ** m, None, p ** (m * n),
                                  f"{label} stage {j}")
        alg = alg.adjoin(x, d, dist, label=label)
    return alg


def level_ring(law: FormalGroupLaw, gtype: AbelianPType) -> FiniteAlgebra:
    """The level-structure ring, presented by exact p-power series quotients."""
    n = _height(law)
    if not (gtype.is_cyclic or gtype.is_elementary_abelian):
        raise UnsupportedGroupType(
            f"mixed type {gtype} is not supported (cyclic or elementary abelian only)"
        )
    if gtype.rank > n:
        raise UnsupportedGroupType(
            f"rank {gtype.rank} exceeds the height {n}; no level structures exist"
        )
    spec, p = law.spec, law.spec.p
    m = gtype.exponents[0]
    label = f"Level({gtype})"
    depth = 0 if gtype.rank == 1 or spec.exact else stage_one_depth(spec, n)
    if law.cap < depth:
        raise TruncationTooSmall(f"{label} stage 2: cap {law.cap} is below the stage-1 "
                                 f"nilpotency depth {depth} ({spec.precision_label(law.cap)})")
    alg = FiniteAlgebra(spec, (), [], ())
    for j, x in enumerate(_variables(gtype.rank), 1):
        ring = alg.adjoin(x, law.cap)
        denom = (law.n_series(p ** (m - 1)).rename(ring.variables, None, {"x": x})
                 if j == 1 else _denominator_product(law, ring))
        # the denominator has Weierstrass degree p^((m-1) n) at stage 1, p^(j-1) after
        expected = p ** (m * n) - p ** ((m - 1) * n + j - 1)
        dist, d = _stage_relation(law, ring, p ** m, denom, expected, f"{label} stage {j}")
        alg = alg.adjoin(x, d, dist, label=label)
    return alg


def stage_one_depth(spec: CoeffRingSpec, n: int) -> int:
    """(p^n - 1)(N + D - 1): x_1^(p^n - 1) lies in m = (p, u) on the stage-1 quotient
    of a height-n law and m^(N + D - 1) = 0, so the character sums are exact from this cap."""
    return (spec.p ** n - 1) * (spec.p_precision + spec.u_degree_cap - 1)


def _stage_relation(law: FormalGroupLaw, ring: FiniteAlgebra, m: int,
                    denominator: TruncSeries | None, expected: int,
                    stage: str) -> tuple[TruncSeries, int]:
    """The distinguished factor of [m](x) / denominator in the stage ring A[x]/(x^T).

    x is the last variable of ``ring`` and ``denominator`` a reduced element
    of it; with ``denominator`` None, [m](x) itself is prepared. The cap T
    must exceed m^n, the Weierstrass degree of [m](x) at height n, the
    division must be exact and the factor of degree ``expected``; each
    failure names the stage and p, N, D, T.
    """
    cap, x = ring.lead_degrees[-1], ring.variables[-1]
    params = ring.spec.precision_label(cap)
    if cap <= m ** law.height_hint:
        raise TruncationTooSmall(
            f"{stage}: cap {cap} cannot resolve the degree {m ** law.height_hint} "
            f"of [{m}]({x}) ({params})")
    f = law.n_series(m).rename(ring.variables, None, {"x": x})
    if denominator is not None:
        f, r = w_divide(f, denominator, ring)
        if not r.is_zero():
            raise NonExactDivision(
                f"{stage}: [{m}]({x}) is not exactly divisible by its "
                f"denominator (precision too small; {params})")
    _, dist, d = w_prepare(f, ring)
    if d != expected:
        raise NonExactDivision(
            f"{stage}: relation degree {d}, expected {expected} ({params})")
    return dist, d


def character_sums(law: FormalGroupLaw, variables: tuple[str, ...],
                   orders: list[int]) -> list[TruncSeries]:
    """[a_1](x_1) +_F ... +_F [a_k](x_k) for every 0 <= a_i < orders[i].

    They live in the ring of ``variables`` at the law's cap, x_i its i-th
    name (k = len(orders) >= 1). They come in ``itertools.product`` order, so
    the zero tuple is first; each is folded from the left, sharing the
    partial sums of its prefix.
    """
    multiples = [[law.n_series(a).rename(variables, law.cap, {"x": x})
                  for a in range(order)] for x, order in zip(variables, orders)]
    sums = multiples[0]
    for row in multiples[1:]:
        sums = [law.formal_sum(s, t) for s, t in itertools.product(sums, row)]
    return sums


def _denominator_product(law: FormalGroupLaw, ring: FiniteAlgebra) -> TruncSeries:
    """prod over (a_1..a_(j-1)) in F_p^(j-1) of (x_j - sum_F [a_i](x_i)) in the stage ring.

    ``ring`` is A_(j-1)[x_j]/(x_j^T); each character sum is reduced into it
    and every product is ``ring.mul``.
    """
    xj = ring.var(len(ring.variables) - 1)
    out = ring.one()
    for s in character_sums(law, ring.variables, [law.spec.p] * (len(ring.variables) - 1)):
        out = ring.mul(out, xj - ring.reduce(s))
    return out


def quotient_to_level(law: FormalGroupLaw, gtype: AbelianPType) -> AlgebraMap:
    """The quotient map from the ambient ring to the level ring, x_i -> x_i."""
    source = group_cohomology_ring(law, gtype)
    target = level_ring(law, gtype)
    images = {v: target.var(i) for i, v in enumerate(source.variables)}
    return AlgebraMap(source, target, images, label=f"quotient {gtype} at T={law.cap}")


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
    p_image = big.reduce(law.n_series(law.spec.p).rename(big.variables, None, {"x": "x1"}))
    inflation = AlgebraMap(
        small, big, {"x1": p_image}, label=f"inf C_p^{super_exponent} ->> C_p^{sub_exponent}"
    )
    return {"restriction": restriction, "inflation": inflation}

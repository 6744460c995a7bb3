"""Euler classes, localization kernels and the level-versus-localized
comparison over the rationals.

The Euler class of A = C_{p^m1} x ... x C_{p^mk} in its ambient ring is

    e = prod over (i_1..i_k) != (0..0), 0 <= i_j < p^mj
        of  [i_1](x_1) +_F ... +_F [i_k](x_k),

one factor per nonzero character of A, so |A| - 1 factors in total; the
factors are ``grouprings.character_sums`` without its leading zero sum.

Localization at e is modeled on the rational ambient algebra. Let M be the
integer matrix of multiplication by e on the monomial basis. Its kernels
ker M <= ker M^2 <= ... stabilize at some k <= n, and for P = M^k Fitting's
lemma splits Q^n = ker P (+) im P: e is nilpotent on the first summand and,
since rank M^(k+1) = rank P, bijective on the second. The ring is
commutative, so every multiplication commutes with P and keeps both
summands. Hence A_Q[1/e] = A_Q / ker(e^oo) = A_Q / ker P, and v -> P v
identifies it with im P as an A-module. Let B be the q = n - dim ker P
columns of P at its pivot columns; they are a basis of im P. Three rules
follow, each a rank, gcd or zero test on integers:

- a relation r dies in the localization iff P r = 0;
- an element f acts on the quotient with rank rank(M_f B), an n x q
  matrix, so f is invertible there iff that rank is q. On a cyclic ambient
  Z[x]/(G), G monic of degree n, M_f B spans the image of multiplication by
  h = f e^k, whose coordinates are P f, so that rank is n - deg gcd(h, G);
- the x -> x level map is bijective iff the level rank is q and the
  P-columns of the level basis monomials have rank q.

The rank tests ask for full rank, which ``linalg.rank`` certifies by one
elimination modulo the prime l = 2^61 - 1; the kernel chain certifies each
stable step mod l against the exact rank of the step before. A gcd degree
mod l is never below the one over Q, so deg gcd = n - q mod l proves rank
q; any other degree falls back to the exact rank of M_f B.

This is only honest over exact (integer) coefficients: inverting a
p-adically small element at finite p-precision is ill-posed, so truncated
rings are refused. M and every fallback's M_f are the companion-matrix walk
``FiniteAlgebra.integer_matrix``, and the coordinates of the level relations
and of the Euler factors come from ``FiniteAlgebra.integer_coordinates``:
both sweep the same raw integers as ``FiniteAlgebra.reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalInconsistency,
    ModeError,
    NonConvergence,
    RelationNotKilled,
    UnsupportedGroupType,
)
from .grouprings import (
    AbelianPType,
    FiniteAlgebra,
    character_sums,
    group_cohomology_ring,
    level_ring,
)
from .laws import FormalGroupLaw
from .linalg import Matrix, gcd_degree_mod_l, mat_mul, nullspace, rank, rank_mod_l
from .series import TruncSeries


@dataclass
class EulerClassData:
    """The factored Euler class of the reduced regular representation."""

    ambient: FiniteAlgebra
    factors: list[TruncSeries]
    product: TruncSeries


def euler_class(law: FormalGroupLaw, gtype: AbelianPType) -> EulerClassData:
    ambient = group_cohomology_ring(law, gtype)
    spec, p = law.spec, law.spec.p
    sums = character_sums(law, ambient.variables, [p ** m for m in gtype.exponents])
    factors = [ambient.reduce(s) for s in sums[1:]]  # sums[0] is the zero tuple
    if len(factors) != gtype.order(p) - 1:
        raise InternalInconsistency(
            f"euler_class: {len(factors)} factors for {gtype}, expected "
            f"{gtype.order(p) - 1} ({spec.precision_label(None)})")
    product = ambient.one()
    for factor in factors:
        product = ambient.mul(product, factor)
    return EulerClassData(ambient=ambient, factors=factors, product=product)


@dataclass
class LocalizedRing:
    """ambient tensor Q localized at e, modeled as the image of P = e^k.

    ``image`` is P (n x n) and ``basis`` is B (n x q), the columns of P at
    its pivot columns, a basis of im P.
    """

    ambient: FiniteAlgebra
    image: Matrix
    basis: Matrix
    quotient_rank: int
    iterations: int
    fallbacks: int = 0  # chain steps whose stability the rank mod l did not certify

    def multiplication_matrix(self, elem: TruncSeries) -> Matrix:
        """``elem`` times B; its rank is the rank of ``elem`` on the quotient."""
        return mat_mul(self.ambient.integer_matrix(elem), self.basis)


def localization_kernel(alg: FiniteAlgebra, e: TruncSeries) -> LocalizedRing:
    """Stabilize the kernel chain of multiplication by e; P = e^k at the first
    stable k. Stability (rank e^(k+1) = rank e^k) is itself the proof that e
    is bijective on im P.

    A step holds the exact ``nullspace`` of M^k. Since rank_l M^(k+1) <=
    rank M^(k+1) <= n - dim ker M^k, ``rank_mod_l`` of M^(k+1) reading
    n - dim ker M^k proves the chain stable; only a step it leaves open (a
    fallback) runs the exact ``nullspace`` of M^(k+1). The free columns of P
    are the last nonzero entries of its kernel vectors; the other q are B."""
    if not alg.spec.exact:
        raise ModeError("rational localization needs exact integer coefficients")
    n = alg.rank
    M = alg.integer_matrix(e)
    image, kernel, iterations, fallbacks = M, nullspace(M), 1, 0
    while True:
        power = mat_mul(image, M)
        if rank_mod_l(power) == n - len(kernel):
            break
        fallbacks += 1
        grown = nullspace(power)
        if len(grown) == len(kernel):
            break
        image, kernel, iterations = power, grown, iterations + 1
        if iterations > n:
            raise NonConvergence(
                f"localization_kernel: kernel chain of a rank-{n} matrix failed to "
                f"stabilize within {n} steps ({alg.spec.precision_label(None)})")
    free = {max(i for i, x in enumerate(v) if x) for v in kernel}
    pivots = [c for c in range(n) if c not in free]
    basis = [[row[c] for c in pivots] for row in image]
    return LocalizedRing(ambient=alg, image=image, basis=basis,
                         quotient_rank=len(pivots), iterations=iterations,
                         fallbacks=fallbacks)


@dataclass
class LevelToTateReport:
    """Comparison of the level ring with the rational localized quotient."""

    euler: EulerClassData
    level: FiniteAlgebra
    localized: LocalizedRing
    bijective: bool


def level_to_tate_map(law: FormalGroupLaw, gtype: AbelianPType) -> LevelToTateReport:
    """The x -> x map from the level ring into the localization im P.

    Builds the Euler class, its localization and the level ring once each;
    the report carries all three, so the later stages of a job reuse them.
    Well-definedness is checked (P kills every level relation) and the map
    is bijective when the level rank is q and the P-columns of the level
    basis monomials have rank q; no tolerances are involved.
    """
    if not law.spec.exact:
        raise ModeError("the rationalized comparison needs exact coefficients")
    if not gtype.is_cyclic:
        raise UnsupportedGroupType("the rationalized comparison handles cyclic groups")
    ec = euler_class(law, gtype)
    ambient = ec.ambient
    loc = localization_kernel(ambient, ec.product)
    level = level_ring(law, gtype)

    # x -> x is well defined when P kills every level relation
    relations = [ambient.integer_coordinates(rel) for rel in level.relations]
    if any(map(any, mat_mul(loc.image, list(zip(*relations))))):
        raise RelationNotKilled("level relation does not vanish in the localization")

    # x -> x sends each level basis monomial b to the class of b, that is P b
    index = {b: i for i, b in enumerate(ambient.basis())}
    columns = [index[b] for b in level.basis()]
    matrix = [[row[i] for i in columns] for row in loc.image]
    q = loc.quotient_rank
    bijective = (level.rank == q) and (rank(matrix) == q)
    return LevelToTateReport(euler=ec, level=level, localized=loc, bijective=bijective)


@dataclass
class FactorReport:
    invertible: list[bool]
    fallbacks: int = 0  # factors whose gcd mod l left the answer to the exact rank

    @property
    def all_invertible(self) -> bool:
        return all(self.invertible)


def factor_invertibility_check(euler: EulerClassData, loc: LocalizedRing) -> FactorReport:
    """Each Euler factor must act invertibly on the localized quotient.

    ``loc`` is the localization of ``euler.ambient`` at ``euler.product``,
    as ``localization_kernel`` (or ``level_to_tate_map``) built it. This is
    the finite-rank shadow of 'inverting the product inverts each factor':
    on ambient/(eventual kernel) every factor's M_f B must have full rank q.
    One product P [f_1 ... f_r] gives every h_i = f_i e^k, and each factor
    is certified by deg gcd(h_i, G) = n - q over F_l (module docstring); any
    other degree falls back to the exact rank of M_f B. Cyclic groups only.
    """
    ambient, q = loc.ambient, loc.quotient_rank
    if len(ambient.variables) != 1:
        raise UnsupportedGroupType("the factor check handles cyclic groups")
    n, relation = ambient.rank, ambient.relations[0].terms
    g = [relation.get((i,), 0) for i in range(n + 1)]  # basis() is 1, x, ..., x^(n-1)
    coords = [ambient.integer_coordinates(f) for f in euler.factors]
    products = zip(*mat_mul(loc.image, list(zip(*coords))))
    results, fallbacks = [], 0
    for factor, h in zip(euler.factors, products):
        certified = gcd_degree_mod_l(h, g) == n - q
        fallbacks += not certified
        results.append(certified or rank(loc.multiplication_matrix(factor)) == q)
    return FactorReport(results, fallbacks)


def euler_image_in_level(euler: EulerClassData, level: FiniteAlgebra) -> TruncSeries:
    """The Euler class of C_p carried into ``level``, the level ring of C_p.

    ``euler`` is ``euler_class(law, C_p)`` and ``level`` is
    ``level_ring(law, C_p)``: one variable of lead degree p^n - 1 against
    the ambient p^n. The quotient x -> x is a reduction. For odd p the image
    is the constant p (the product of the nonzero p-torsion coordinates has
    the same norm as 1 - zeta_p); for p = 2 it is -2.
    """
    if level.lead_degrees != (euler.ambient.rank - 1,):
        raise UnsupportedGroupType(
            f"the Euler image is computed for C_p only, not for {level!r}")
    return level.reduce(euler.product)

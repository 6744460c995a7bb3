"""Euler classes, localization kernels and the level-versus-localized
comparison over the rationals.

The Euler class of A = C_{p^m1} x ... x C_{p^mk} in its ambient ring is

    e = prod over (i_1..i_k) != (0..0), 0 <= i_j < p^mj
        of  [i_1](x_1) +_F ... +_F [i_k](x_k),

one factor per nonzero character of A, so |A| - 1 factors in total; the
factors are ``grouprings.character_sums`` without its leading zero sum.

Localization at e is modeled on the rational ambient algebra: multiplication
by e is a linear endomorphism of a finite-dimensional Q-vector space, its
kernels ker(e) <= ker(e^2) <= ... stabilize, and A_Q[1/e] = A_Q / ker(e^oo)
because e becomes injective, hence bijective, on the quotient. This is only
honest over exact (rational) coefficients: inverting a p-adically small
element at finite p-precision is ill-posed, so truncated rings are refused.

Both multiplication matrices here (by e, and the action of each factor on
the quotient) are read off the columns of
``FiniteAlgebra.multiplication_columns``, converted to rationals in one place;
the level-to-quotient map projects coordinates and unit vectors directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffring import CoeffRingSpec
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
from .linalg import Matrix, mat_mul, nullspace, rank, rref
from .series import TruncSeries


@dataclass
class EulerClassData:
    """The factored Euler class of the reduced regular representation."""

    ambient: FiniteAlgebra
    factors: list[TruncSeries]
    product: TruncSeries


def euler_class(law: FormalGroupLaw, gtype: AbelianPType) -> EulerClassData:
    ambient = group_cohomology_ring(law, gtype)
    p = law.spec.p
    spec = law.spec
    xs = [TruncSeries.variable(spec, ambient.variables, law.cap, v) for v in ambient.variables]
    sums = character_sums(law, xs, [p ** m for m in gtype.exponents])
    factors = [ambient.reduce_series(s) for s in sums[1:]]  # sums[0] is the zero tuple
    product = ambient.one()
    for factor in factors:
        product = ambient.mul(product, factor)
    if len(factors) != gtype.order(p) - 1:
        raise InternalInconsistency(
            f"euler_class: {len(factors)} factors for {gtype}, expected "
            f"{gtype.order(p) - 1} ({_params(spec)})")
    return EulerClassData(ambient=ambient, factors=factors, product=product)


def _params(spec: CoeffRingSpec) -> str:
    return f"p={spec.p}, N={spec.p_precision}, D={spec.u_degree_cap}"


def _rational_columns(alg: FiniteAlgebra, f: TruncSeries) -> list[list[Fraction]]:
    """The columns of multiplication by f on the monomial basis, over Q."""
    if not alg.spec.exact:
        raise ModeError("rational localization needs exact integer coefficients")
    return [[Fraction(c.constant_part()) for c in col]
            for col in alg.multiplication_columns(f)]


@dataclass
class LocalizedRing:
    """ambient tensor Q modulo the eventual kernel of multiplication by e."""

    ambient: FiniteAlgebra
    inverted: TruncSeries
    kernel_rref: Matrix
    kernel_pivots: list[int]
    quotient_rank: int
    iterations: int
    free_coords: list[int] = field(init=False)
    _free_rows: Matrix = field(init=False, repr=False)

    def __post_init__(self):
        pivots = set(self.kernel_pivots)
        self.free_coords = [i for i in range(self.ambient.rank) if i not in pivots]
        self._free_rows = [[row[i] for i in self.free_coords] for row in self.kernel_rref]

    def project(self, vec: list[Fraction]) -> list[Fraction]:
        """Canonical quotient coordinates: eliminate kernel pivot columns.

        The kernel rows are fully reduced, so eliminating a row changes only
        its own pivot entry and the free entries, and its multiplier is the
        input's entry at that pivot; only the free entries are computed.
        """
        v = [vec[i] for i in self.free_coords]
        for row, c in zip(self._free_rows, self.kernel_pivots):
            f = vec[c]
            if f != 0:
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def multiplication_matrix(self, elem: TruncSeries) -> Matrix:
        """The induced action of ``elem`` on the quotient, as a q x q matrix."""
        cols = _rational_columns(self.ambient, elem)
        images = [self.project(cols[i]) for i in self.free_coords]
        return [list(row) for row in zip(*images)]


def localization_kernel(alg: FiniteAlgebra, e: TruncSeries) -> LocalizedRing:
    """Stabilized kernel of multiplication by e and the quotient data."""
    n = alg.rank
    M: Matrix = [list(row) for row in zip(*_rational_columns(alg, e))]

    power = M
    prev_dim = -1
    iterations = 0
    kernel: Matrix = []
    while True:
        kernel = nullspace(power)
        iterations += 1
        if len(kernel) == prev_dim:
            iterations -= 1  # the last power only confirmed stabilization
            break
        prev_dim = len(kernel)
        if iterations > n:
            raise NonConvergence(
                f"localization_kernel: kernel chain of a rank-{n} matrix failed to "
                f"stabilize within {n} steps ({_params(alg.spec)})")
        power = mat_mul(power, M)
    kernel_rref, pivots = rref(kernel) if kernel else ([], [])
    loc = LocalizedRing(
        ambient=alg, inverted=e, kernel_rref=kernel_rref,
        kernel_pivots=pivots, quotient_rank=n - len(pivots),
        iterations=max(iterations, 1),
    )
    # multiplication by e must be injective (so bijective) on the quotient
    if loc.quotient_rank and rank(loc.multiplication_matrix(e)) != loc.quotient_rank:
        raise InternalInconsistency(
            "localization_kernel: multiplication by e is not injective on the "
            f"quotient ({_params(alg.spec)})")
    return loc


@dataclass
class LevelToTateReport:
    """Comparison of the level ring with the rational localized quotient."""

    euler: EulerClassData
    level: FiniteAlgebra
    localized: LocalizedRing
    matrix: Matrix
    source_rank: int
    target_rank: int
    bijective: bool


def level_to_tate_map(law: FormalGroupLaw, gtype: AbelianPType) -> LevelToTateReport:
    """The x -> x map from the level ring into ambient/(eventual kernel).

    Builds the Euler class, its localization and the level ring once each;
    the report carries all three, so the later stages of a job reuse them.
    Well-definedness is checked (the level relation must project to zero)
    and the induced rational linear map is tested for bijectivity; no
    tolerances are involved.
    """
    if not law.spec.exact:
        raise ModeError("the rationalized comparison needs exact coefficients")
    if not gtype.is_cyclic:
        raise UnsupportedGroupType("the rationalized comparison handles cyclic groups")
    ec = euler_class(law, gtype)
    ambient = ec.ambient
    loc = localization_kernel(ambient, ec.product)
    level = level_ring(law, gtype)

    # x -> x is well defined when every level relation projects to zero
    for rel in level.relations:
        if any(loc.project([Fraction(c.constant_part()) for c in ambient.coordinates(rel)])):
            raise RelationNotKilled("level relation does not vanish in the localization")

    # x -> x sends each level basis monomial to the same ambient monomial
    index = {b: i for i, b in enumerate(ambient.basis())}
    images = [loc.project([Fraction(int(i == index[b])) for i in range(ambient.rank)])
              for b in level.basis()]
    q = loc.quotient_rank
    matrix = [list(row) for row in zip(*images)]
    bijective = (level.rank == q) and (rank(matrix) == q)
    return LevelToTateReport(
        euler=ec, level=level, localized=loc, matrix=matrix,
        source_rank=level.rank, target_rank=q, bijective=bijective,
    )


@dataclass
class FactorReport:
    factors_checked: int
    invertible: list[bool]

    @property
    def all_invertible(self) -> bool:
        return all(self.invertible)


def factor_invertibility_check(euler: EulerClassData, loc: LocalizedRing) -> FactorReport:
    """Each Euler factor must act invertibly on the localized quotient.

    ``loc`` is the localization of ``euler.ambient`` at ``euler.product``,
    as ``localization_kernel`` (or ``level_to_tate_map``) built it. This is
    the finite-rank shadow of 'inverting the product inverts each factor':
    on ambient/(eventual kernel) every factor's multiplication matrix must
    have full rank.
    """
    results = []
    for factor in euler.factors:
        m = loc.multiplication_matrix(factor)
        results.append(rank(m) == loc.quotient_rank)
    return FactorReport(factors_checked=len(euler.factors), invertible=results)


def euler_image_in_level(law: FormalGroupLaw, level: FiniteAlgebra) -> TruncSeries:
    """The Euler class reduced into ``level``, the level ring of C_p for ``law``.

    ``level`` must have one variable of lead degree p^n - 1 (n the height),
    as ``level_ring(law, C_p)`` builds it. For odd p the image is the
    constant p (the product of the nonzero p-torsion coordinates has the
    same norm as 1 - zeta_p); for p = 2 it is -2.
    """
    p = law.spec.p
    n = law.height_hint
    if n is None or level.lead_degrees != (p ** n - 1,):
        raise UnsupportedGroupType(
            f"the Euler image is computed for C_p only, not for {level!r}")
    x1 = TruncSeries.variable(law.spec, level.variables, law.cap, level.variables[0])
    product = level.one()
    for i in range(1, p):
        factor = law.n_series(i).series.subst({"x": x1})
        product = level.mul(product, level.reduce_series(factor))
    return level.reduce(product)

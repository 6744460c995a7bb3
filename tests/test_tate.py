import pytest
import sympy

import algebra_oracle
import fgl.grouprings
import fgl.linalg
import fgl.tate
import linalg_oracle

from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.errors import InternalInconsistency, ModeError, UnsupportedGroupType
from fgl.grouprings import AbelianPType, FiniteAlgebra, group_cohomology_ring, level_ring
from fgl.laws import lubin_tate_height2_law, multiplicative_law
from fgl.linalg import mat_mul, nullspace, rank
from fgl.series import TruncSeries
from fgl.tate import (
    euler_class,
    euler_image_in_level,
    factor_invertibility_check,
    level_to_tate_map,
    localization_kernel,
)

ZX2 = CoeffRingSpec(p=2, p_precision=None)
ZX3 = CoeffRingSpec(p=3, p_precision=None)
ZX5 = CoeffRingSpec(p=5, p_precision=None)
LT2_SMALL = CoeffRingSpec(p=2, p_precision=3, deformation_params=1, u_degree_cap=2)


def law_for(spec, p, m):
    return multiplicative_law(spec, p ** m + 2)


def test_euler_class_c2():
    law = law_for(ZX2, 2, 1)
    ec = euler_class(law, AbelianPType((1,)))
    assert len(ec.factors) == 1
    assert ec.product == ec.ambient.var(0)  # single factor x


def test_euler_class_factor_count():
    for spec, p, gtype in ((ZX2, 2, (2,)), (ZX3, 3, (1,)), (ZX3, 3, (2,))):
        law = law_for(spec, p, max(gtype))
        ec = euler_class(law, AbelianPType(gtype))
        assert len(ec.factors) == p ** sum(gtype) - 1


def test_euler_class_checks_the_factor_count_before_multiplying(monkeypatch):
    law = law_for(ZX3, 3, 1)
    ambient = group_cohomology_ring(law, AbelianPType((1,)))
    sums, mul, callers = fgl.tate.character_sums, FiniteAlgebra.mul, []
    monkeypatch.setattr(fgl.tate, "group_cohomology_ring", lambda law, gtype: ambient)
    monkeypatch.setattr(fgl.tate, "character_sums", lambda *args: sums(*args)[:-1])
    monkeypatch.setattr(FiniteAlgebra, "mul",
                        lambda self, a, b: callers.append(self) or mul(self, a, b))
    with pytest.raises(InternalInconsistency, match="1 factors for 1, expected 2"):
        euler_class(law, AbelianPType((1,)))
    assert ambient not in callers


def test_euler_class_cp_is_product_of_character_classes():
    # oracle: e = prod_{i=1..p-1} ((1+x)^i - 1) reduced mod (1+x)^p - 1
    p = 3
    law = law_for(ZX3, 3, 1)
    ec = euler_class(law, AbelianPType((1,)))
    ambient = ec.ambient
    expect = ambient.one()
    x = ambient.var(0)
    for i in range(1, p):
        term = ambient.zero()
        # (1+x)^i - 1 expanded by hand
        from math import comb
        for k in range(1, i + 1):
            mono = TruncSeries(ZX3, ambient.variables, None,
                               {(k,): CoeffElem.from_int(ZX3, comb(i, k))})
            term = term + mono
        expect = ambient.mul(expect, term)
    assert ec.product == expect


def test_localization_by_one_and_zero():
    law = law_for(ZX2, 2, 1)
    alg = group_cohomology_ring(law, AbelianPType((1,)))
    loc1 = localization_kernel(alg, alg.one())
    assert loc1.quotient_rank == alg.rank
    loc0 = localization_kernel(alg, alg.zero())
    assert loc0.quotient_rank == 0


def test_localization_of_a_non_reduced_ring():
    # Q[x]/(x^2 (x - 1)) = Q[x]/(x^2) x Q: the kernel chain of x stabilizes at
    # k = 2, and the localization at x is the factor Q, where x - 1 acts as 0
    x = TruncSeries.variable(ZX2, ("x",), None, "x")
    alg = FiniteAlgebra(ZX2, ("x",), [x * x * x - x * x], (3,))
    loc = localization_kernel(alg, x)
    assert (loc.iterations, loc.quotient_rank) == (2, 1)
    # ker x < ker x^2: the rank of x^2 mod l cannot certify the first step
    assert loc.fallbacks >= 1
    assert (loc.image, loc.basis, loc.quotient_rank, loc.iterations) == all_nullspace_chain(alg, x)
    assert rank(loc.multiplication_matrix(alg.one())) == 1
    assert rank(loc.multiplication_matrix(x - alg.one())) == 0


def test_localization_quotient_rank_cp():
    # Q[x]/((1+x)^p - 1) = Q x Q(zeta_p); e vanishes exactly on the trivial part
    for spec, p in ((ZX2, 2), (ZX3, 3)):
        law = law_for(spec, p, 1)
        ec = euler_class(law, AbelianPType((1,)))
        loc = localization_kernel(ec.ambient, ec.product)
        assert loc.quotient_rank == p - 1
        assert loc.iterations <= ec.ambient.rank


def test_localization_needs_exact_mode():
    law = lubin_tate_height2_law(LT2_SMALL, 8)
    alg = group_cohomology_ring(law, AbelianPType((1,)))
    with pytest.raises(ModeError):
        localization_kernel(alg, alg.one())


def test_level_to_tate_ranks_and_bijectivity():
    # both sides are Q(zeta_{p^m}) of dimension p^m - p^(m-1)
    for spec, p in ((ZX2, 2), (ZX3, 3)):
        for m in (1, 2, 3):
            law = law_for(spec, p, m)
            report = level_to_tate_map(law, AbelianPType((m,)))
            expected = p ** m - p ** (m - 1)
            assert report.level.rank == expected
            assert report.localized.quotient_rank == expected
            assert report.bijective
            # the report carries the rings it built, for the later stages
            assert report.localized.ambient is report.euler.ambient


def test_level_to_tate_c2_is_rank_one():
    report = level_to_tate_map(law_for(ZX2, 2, 1), AbelianPType((1,)))
    assert report.level.rank == report.localized.quotient_rank == 1
    assert report.bijective


def test_level_to_tate_needs_exact_mode():
    law = lubin_tate_height2_law(LT2_SMALL, 8)
    with pytest.raises(ModeError):
        level_to_tate_map(law, AbelianPType((1,)))


def test_euler_image_in_level():
    # oracle: prod_{i=1..p-1} (zeta^i - 1) = (-1)^(p-1) Phi_p(1) = p for odd p,
    # and -2 for p = 2
    law2 = law_for(ZX2, 2, 1)
    img2 = euler_image_in_level(euler_class(law2, AbelianPType((1,))),
                                level_ring(law2, AbelianPType((1,))))
    assert img2 == TruncSeries.constant(
        ZX2, ("x1",), None, CoeffElem.from_int(ZX2, -2))
    for spec, p in ((ZX3, 3), (ZX5, 5)):
        law = multiplicative_law(spec, p + 2)
        img = euler_image_in_level(euler_class(law, AbelianPType((1,))),
                                   level_ring(law, AbelianPType((1,))))
        assert img == TruncSeries.constant(
            spec, ("x1",), None, CoeffElem.from_int(spec, p))


@pytest.mark.parametrize("build, spec, cap", [
    (multiplicative_law, CoeffRingSpec(p=7, p_precision=None), 9),
    (lubin_tate_height2_law, LT2_SMALL, 24),
])
def test_euler_image_is_product_of_torsion_coordinates(build, spec, cap):
    # oracle: prod_{i=1..p-1} [i](x1), each factor reduced into the level ring
    law = build(spec, cap)
    level = level_ring(law, AbelianPType((1,)))
    x1 = TruncSeries.variable(law.spec, level.variables, law.cap, "x1")
    product = level.one()
    for i in range(1, law.spec.p):
        product = level.mul(product, level.reduce(law.n_series(i).subst({"x": x1})))
    assert euler_image_in_level(euler_class(law, AbelianPType((1,))), level) == product


def test_euler_image_rejects_larger_groups():
    law = law_for(ZX2, 2, 2)
    level = level_ring(law, AbelianPType((2,)))
    with pytest.raises(UnsupportedGroupType):
        euler_image_in_level(euler_class(law, AbelianPType((1,))), level)


def test_euler_class_height2_structural():
    # at height 2 only structural facts are machine-checkable (the rational
    # coefficient ring is infinite-dimensional): the factor count is |A| - 1
    # and no factor collapses to zero in the ambient or level ring
    law = lubin_tate_height2_law(LT2_SMALL, 24)
    for gtype in (AbelianPType((1,)), AbelianPType((1, 1))):
        ec = euler_class(law, gtype)
        assert len(ec.factors) == 2 ** gtype.order_exponent - 1
        assert all(not f.is_zero() for f in ec.factors)
        assert not ec.product.is_zero()
        level = level_ring(law, gtype)
        for f in ec.factors:
            assert not level.reduce(f.rename(level.variables, cap=None)).is_zero()


def test_factor_invertibility_check_makes_no_algebra_products(monkeypatch):
    # every factor is certified by one gcd mod l of its column of P [f_1 ... f_r]:
    # no FiniteAlgebra.mul per basis monomial and no factor matrix at all
    law = law_for(ZX3, 3, 2)
    ec = euler_class(law, AbelianPType((2,)))
    loc = localization_kernel(ec.ambient, ec.product)
    calls = []
    mul, walk = fgl.grouprings.FiniteAlgebra.mul, fgl.grouprings.FiniteAlgebra.integer_matrix
    monkeypatch.setattr(fgl.grouprings.FiniteAlgebra, "mul",
                        lambda self, a, b: calls.append("mul") or mul(self, a, b))
    monkeypatch.setattr(fgl.grouprings.FiniteAlgebra, "integer_matrix",
                        lambda self, f: calls.append("integer_matrix") or walk(self, f))
    report = factor_invertibility_check(ec, loc)
    assert report.all_invertible and len(report.invertible) == 8 and report.fallbacks == 0
    assert calls == []


CYCLIC_UP_TO_27 = [(CoeffRingSpec(p=p, p_precision=None), p, m)
                   for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                   for m in range(1, 5) if p ** m <= 27]


def all_nullspace_chain(alg, e):
    """The kernel chain with one exact nullspace per power of M and no
    certificate mod l: (image, basis, quotient_rank, iterations)."""
    n = alg.rank
    M = alg.integer_matrix(e)
    image, dim, iterations = M, len(nullspace(M)), 1
    while True:
        power = mat_mul(image, M)
        kernel = nullspace(power)
        if len(kernel) == dim:
            break
        image, dim, iterations = power, len(kernel), iterations + 1
    free = {max(i for i, x in enumerate(v) if x) for v in kernel}
    pivots = [c for c in range(n) if c not in free]
    return image, [[row[c] for c in pivots] for row in image], len(pivots), iterations


@pytest.mark.parametrize("spec, p, m", CYCLIC_UP_TO_27,
                         ids=[f"{p}^{m}" for _, p, m in CYCLIC_UP_TO_27])
def test_certified_chain_matches_the_all_nullspace_chain(spec, p, m):
    # at the Euler class, at 1, at 0 and at x every stable step is certified
    # mod l; at l itself M = l I reads rank 0 mod l, and the exact nullspace
    # of M^2 has to find the chain stable
    law = law_for(spec, p, m)
    ec = euler_class(law, AbelianPType((m,)))
    alg = ec.ambient
    ell = alg.one().scale(CoeffElem.from_int(spec, linalg_oracle.ELL))
    for e, fallbacks in ((ec.product, 0), (alg.one(), 0), (alg.zero(), 0), (alg.var(0), 0),
                         (ell, 1)):
        loc = localization_kernel(alg, e)
        assert (loc.image, loc.basis, loc.quotient_rank, loc.iterations) == \
            all_nullspace_chain(alg, e)
        assert loc.fallbacks == fallbacks


@pytest.mark.parametrize("spec, p, m", CYCLIC_UP_TO_27,
                         ids=[f"{p}^{m}" for _, p, m in CYCLIC_UP_TO_27])
def test_factor_certificate_matches_exact_rank(spec, p, m):
    # oracle: the exact rank of each factor's n x q matrix M_f B
    law = law_for(spec, p, m)
    ec = euler_class(law, AbelianPType((m,)))
    loc = localization_kernel(ec.ambient, ec.product)
    report = factor_invertibility_check(ec, loc)
    exact = [rank(loc.multiplication_matrix(f)) == loc.quotient_rank for f in ec.factors]
    assert report.invertible == exact == [True] * (p ** m - 1)
    assert report.fallbacks == 0


@pytest.mark.parametrize("spec, p", [(ZX2, 2), (ZX3, 3)])
def test_planted_non_unit_is_refused_through_the_fallback(spec, p):
    # localized at x, [p](x) on the C_{p^2} ring acts with rank q - (p - 1)
    # (test_fitting_rule_matches_sympy_quotient), so its gcd degree is not
    # n - q and only the exact rank can answer, with False
    law = law_for(spec, p, 2)
    alg = group_cohomology_ring(law, AbelianPType((2,)))
    x1 = TruncSeries.variable(law.spec, alg.variables, law.cap, "x1")
    p_series = alg.reduce(law.n_series(p).subst({"x": x1}))
    loc = localization_kernel(alg, alg.var(0))
    euler = fgl.tate.EulerClassData(ambient=alg, factors=[p_series, alg.one()],
                                    product=alg.var(0))
    report = factor_invertibility_check(euler, loc)
    assert report.invertible == [False, True] and report.fallbacks == 1
    assert rank(loc.multiplication_matrix(p_series)) == loc.quotient_rank - (p - 1)


def test_factor_check_when_nothing_or_everything_survives():
    law = law_for(ZX3, 3, 1)
    alg = group_cohomology_ring(law, AbelianPType((1,)))  # Q[x]/((1+x)^3 - 1), n = 3
    x = alg.var(0)
    elements = [alg.one(), x, x + alg.one(), x * x, alg.zero()]
    # q = 0: localized at e = 0 the quotient is zero, and every element acts
    # on it with its full rank 0
    loc0 = localization_kernel(alg, alg.zero())
    report = factor_invertibility_check(
        fgl.tate.EulerClassData(ambient=alg, factors=elements, product=alg.zero()), loc0)
    assert loc0.quotient_rank == 0
    assert report.invertible == [True] * 5 and report.fallbacks == 0
    # q = n: localized at 1 nothing dies, and f is a unit iff gcd(f, G) = 1;
    # x = 0 is a root of G, 1 + x = 0 is not
    loc1 = localization_kernel(alg, alg.one())
    report = factor_invertibility_check(
        fgl.tate.EulerClassData(ambient=alg, factors=elements, product=alg.one()), loc1)
    assert loc1.quotient_rank == alg.rank == 3
    exact = [rank(loc1.multiplication_matrix(f)) == 3 for f in elements]
    assert report.invertible == exact == [True, False, True, False, False]
    assert report.fallbacks == 3


def test_factor_check_refuses_a_multivariate_ambient():
    law = law_for(ZX2, 2, 1)
    ec = euler_class(law, AbelianPType((1, 1)))
    loc = localization_kernel(ec.ambient, ec.product)
    with pytest.raises(UnsupportedGroupType):
        factor_invertibility_check(ec, loc)


def _sympy_matrix(alg, f):
    # oracle: one full product and reduction per basis monomial
    cols = []
    for b in alg.basis():
        mono = TruncSeries(alg.spec, alg.variables, None, {b: CoeffElem.one(alg.spec)})
        cols.append([c.constant_part() for c in algebra_oracle.coordinates(alg, alg.mul(f, mono))])
    return sympy.Matrix(cols).T


def _fitting_ranks(alg, inverted, elements):
    # oracle: the quotient A_Q / K with K = ker(inverted^n) computed by sympy;
    # f acts on it with rank rank([M_f | K]) - dim K. Returns q and the ranks.
    loc = localization_kernel(alg, inverted)
    n = alg.rank
    kernel = (_sympy_matrix(alg, inverted) ** n).nullspace()
    q = n - len(kernel)
    assert loc.quotient_rank == q
    # B: q columns of P that span im P
    assert len(loc.basis) == n and all(len(row) == q for row in loc.basis)
    assert rank(loc.basis) == q
    ranks = [rank(loc.multiplication_matrix(f)) for f in elements]
    for f, r in zip(elements, ranks):
        assert r == sympy.Matrix.hstack(_sympy_matrix(alg, f), *kernel).rank() - len(kernel)
    return q, ranks


@pytest.mark.parametrize("spec,p,m", [
    (ZX2, 2, 1), (ZX2, 2, 2), (ZX2, 2, 3), (ZX3, 3, 1), (ZX3, 3, 2), (ZX5, 5, 1),
])
def test_fitting_rule_matches_sympy_quotient(spec, p, m):
    law = law_for(spec, p, m)
    ec = euler_class(law, AbelianPType((m,)))
    alg = ec.ambient
    q, ranks = _fitting_ranks(alg, ec.product, [ec.product, *ec.factors, alg.zero()])
    assert q == p ** m - p ** (m - 1)
    assert ranks == [q] * (len(ranks) - 1) + [0]
    if m == 2:
        # localized at x, A_Q[1/x] = Q(zeta_p) x Q(zeta_p^2): [p](x) vanishes
        # on the first factor, so it is no unit and acts with rank q - (p - 1)
        x1 = TruncSeries.variable(law.spec, alg.variables, law.cap, "x1")
        p_series = alg.reduce(law.n_series(p).subst({"x": x1}))
        q, ranks = _fitting_ranks(alg, alg.var(0), [p_series])
        assert q == p ** 2 - 1
        assert ranks == [q - (p - 1)]


@pytest.mark.parametrize("spec, p, m, shape", [(ZX3, 3, 3, (27, 18)), (ZX5, 5, 2, (25, 20))])
def test_tate_jobs_match_the_entrywise_kernels(spec, p, m, shape, monkeypatch):
    # the `tate multiplicative` jobs at the CLI's default cap p^m + 4, whose
    # n x q basis B has 40-50-bit entries, larger than the property tests of
    # the packed kernels draw, give the same reports with the entry-by-entry
    # oracles in place of mat_mul and the elimination mod l
    law = multiplicative_law(spec, p ** m + 4)

    def run():
        report = level_to_tate_map(law, AbelianPType((m,)))
        loc = report.localized
        factors = factor_invertibility_check(report.euler, loc)
        return (loc.image, loc.basis, report.level.rank, loc.quotient_rank,
                report.bijective, factors)

    packed = run()
    basis = packed[1]
    assert (len(basis), len(basis[0])) == shape
    assert 40 <= max(abs(x) for row in basis for x in row).bit_length() <= 50
    calls = []
    monkeypatch.setattr(fgl.linalg, "mat_mul",
                        lambda a, b: calls.append("mat_mul") or linalg_oracle.mat_mul(a, b))
    monkeypatch.setattr(fgl.tate, "mat_mul", fgl.linalg.mat_mul)
    monkeypatch.setattr(fgl.linalg, "rank_mod_l",
                        lambda a: calls.append("rank") or linalg_oracle.rank_mod_l(a))
    monkeypatch.setattr(fgl.tate, "rank_mod_l", fgl.linalg.rank_mod_l)
    assert run() == packed
    assert packed[-1].all_invertible and {"mat_mul", "rank"} <= set(calls)

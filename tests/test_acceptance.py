"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is exact (integer or rational equality at the stated
precision); there are no floating tolerances anywhere.
"""

import io
import random
from math import comb

import sympy

from fgl.cli import run_suite
from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.deltaring import (
    DeltaRing,
    congruence_check,
    cyclic_chains,
    elementary_rank2_chains,
    frobenius_chain_check,
    sheaf_eval,
)
from fgl.grouprings import AbelianPType, level_ring, quotient_to_level
from fgl.laws import honda_law, lubin_tate_height2_law, multiplicative_law
from fgl.series import TruncSeries
from fgl.tate import (
    euler_class,
    euler_image_in_level,
    factor_invertibility_check,
    level_to_tate_map,
    localization_kernel,
)
from fgl.weierstrass import weierstrass_prepare

EXACT = {p: CoeffRingSpec(p=p, p_precision=None) for p in (2, 3, 5)}
CHAR_P = {p: CoeffRingSpec(p=p, p_precision=1) for p in (2, 3)}
LT2 = CoeffRingSpec(p=2, p_precision=8, deformation_params=1, u_degree_cap=6)
# precision for the height-2 level rings: chosen so the maximal ideal has
# nilpotency degree 4 and a cap of 24 makes every triangular division exact
LT2_LEVEL = CoeffRingSpec(p=2, p_precision=3, deformation_params=1, u_degree_cap=2)


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_fgl_axioms_and_multiplication_chain():
    laws = [
        multiplicative_law(EXACT[2], 12),
        multiplicative_law(EXACT[3], 12),
        honda_law(CHAR_P[2], 1, 12),
        honda_law(CHAR_P[2], 2, 12),
        honda_law(CHAR_P[3], 1, 12),
        honda_law(CHAR_P[3], 2, 12),
        lubin_tate_height2_law(LT2, 12),
    ]
    rng = random.Random(101)
    for law in laws:
        axioms = law.check_axioms()
        assert all(axioms.values()), (law.name, axioms)
        for _ in range(20):
            a, b = rng.randrange(0, 51), rng.randrange(0, 51)
            sa = law.n_series(a)
            composed = law.n_series(b).subst({"x": sa})
            assert composed == law.n_series(a * b), (law.name, a, b)
    report(1, "unit/commutativity/associativity and [a]([b](x)) = [ab](x) "
              "for 7 laws, 20 random pairs each, zero coefficient mismatches")


def test_criterion_2_weierstrass_preparation():
    for p in (2, 3):
        law = multiplicative_law(EXACT[p], p ** 3 + 2)
        for M in (1, 2, 3):
            s = law.n_series(p ** M)
            fact = weierstrass_prepare(s)
            assert fact.unit == TruncSeries.one(EXACT[p], ("x",), law.cap)
            assert fact.distinguished == s
            assert fact.degree == p ** M
            expected = {(k,): comb(p ** M, k) for k in range(1, p ** M + 1)}
            assert {e: c.constant_part() for e, c in s.sorted_terms()} == expected
    law2 = lubin_tate_height2_law(LT2, 20)
    for M in (1, 2):
        s = law2.n_series(2 ** M)
        fact = weierstrass_prepare(s)
        assert fact.degree == 2 ** (2 * M)
        assert fact.unit * fact.distinguished == s  # exact at precision
        lin = fact.distinguished.coefficient((1,))
        assert lin.constant_part() % (2 ** M) == 0
        assert lin.constant_part() % (2 ** (M + 1)) != 0
        assert all(c % (2 ** M) == 0 for c in lin.terms)
        for k in range(fact.degree):
            assert not fact.distinguished.coefficient((k,)).is_unit()
    report(2, "prepare([p^M]) = (1, (1+x)^(p^M)-1) exactly for p in {2,3}, "
              "M in {1,2,3}; height-2 factors have degree 2^(2M), exact "
              "reconstruction, and x-coefficient of valuation exactly M")


def test_criterion_3_level_rings_height_1():
    x = sympy.symbols("x")
    for p in (2, 3):
        for m in (1, 2, 3):
            law = multiplicative_law(EXACT[p], p ** m + 2)
            alg = level_ring(law, AbelianPType((m,)))
            oracle = sympy.expand(sympy.cyclotomic_poly(p ** m, 1 + x))
            expected = {}
            for k in range(sympy.degree(oracle, x) + 1):
                c = int(oracle.coeff(x, k))
                if c:
                    expected[(k,)] = c
            got = {e: c.constant_part() for e, c in alg.relations[0].sorted_terms()}
            assert got == expected, (p, m)
            assert alg.rank == p ** m - p ** (m - 1)
    report(3, "level relation equals Phi_{p^m}(1+x) with exact integer "
              "coefficients and rank phi(p^m), p in {2,3}, m in {1,2,3}")


def test_criterion_4_level_rings_height_2():
    law = lubin_tate_height2_law(LT2_LEVEL, 24)
    cyclic = level_ring(law, AbelianPType((1,)))
    assert cyclic.rank == 3
    pair = level_ring(law, AbelianPType((1, 1)))  # raises NonExactDivision on remainder
    assert pair.rank == 6
    for gtype in (AbelianPType((1,)), AbelianPType((1, 1))):
        qmap = quotient_to_level(law, gtype)
        for rel in qmap.source.relations:
            assert qmap.apply(rel).is_zero()
    # the order-p divisor condition: [2](x_j) dies in the level ring
    for j, var in enumerate(pair.variables):
        xv = TruncSeries.variable(LT2_LEVEL, pair.variables, law.cap, var)
        two = law.n_series(2).subst({"x": xv})
        assert pair.reduce(two).is_zero()
    report(4, "height-2 level rings have ranks 3 and 6 (p=2), all defining "
              "divisions exact, ambient relations killed")


def test_criterion_5_rationalized_isomorphism():
    for p in (2, 3):
        for m in (1, 2, 3):
            law = multiplicative_law(EXACT[p], p ** m + 2)
            rep = level_to_tate_map(law, AbelianPType((m,)))
            expected = p ** m - p ** (m - 1)
            assert rep.level.rank == expected
            assert rep.localized.quotient_rank == expected
            assert rep.bijective
    report(5, "level ring -> rational Tate quotient is bijective with rank "
              "p^m - p^(m-1) for p in {2,3}, m in {1,2,3} (exact rational "
              "linear algebra)")


def test_criterion_6_factorwise_invertibility():
    for p in (2, 3):
        for m in (1, 2, 3):
            law = multiplicative_law(EXACT[p], p ** m + 2)
            ec = euler_class(law, AbelianPType((m,)))
            rep = factor_invertibility_check(
                ec, localization_kernel(ec.ambient, ec.product))
            assert len(rep.invertible) == p ** m - 1
            assert rep.all_invertible
    report(6, "every Euler factor acts invertibly on the rational Tate "
              "quotient for all criterion-5 cases")


def test_criterion_7_euler_image_in_level():
    law2 = multiplicative_law(EXACT[2], 4)
    img2 = euler_image_in_level(euler_class(law2, AbelianPType((1,))),
                                level_ring(law2, AbelianPType((1,))))
    assert img2 == TruncSeries.constant(EXACT[2], ("x1",), None,
                                        CoeffElem.from_int(EXACT[2], -2))
    for p in (3, 5):
        law = multiplicative_law(EXACT[p], p + 2)
        img = euler_image_in_level(euler_class(law, AbelianPType((1,))),
                                   level_ring(law, AbelianPType((1,))))
        assert img == TruncSeries.constant(EXACT[p], ("x1",), None,
                                           CoeffElem.from_int(EXACT[p], p))
    report(7, "Euler image in the level ring is exactly p for p in {3,5} "
              "and -2 for p = 2")


def test_criterion_8_delta_ring_laws():
    rng = random.Random(103)
    for p in (2, 3):
        spec = CoeffRingSpec(p=p, p_precision=None)
        t = TruncSeries.variable(spec, ("t",), None, "t")
        tp = t
        for _ in range(p - 1):
            tp = tp * t
        rings = [DeltaRing((), {}, p), DeltaRing(("t",), {"t": tp}, p)]
        for ring in rings:
            pairs = [(ring.random_element(rng), ring.random_element(rng))
                     for _ in range(200)]
            rep = ring.check_axioms(pairs)
            assert rep["passed"] and rep["checked"] == 200, rep["failures"][:3]
    report(8, "product rule, sum rule, psi ring homomorphism and psi(a) = a^p "
              "mod p on 200 random samples in Z and Z[t], p in {2,3}, zero "
              "failures")


def test_criterion_9_sheaf_functor():
    rng = random.Random(107)
    spec2 = CoeffRingSpec(p=2, p_precision=None)
    t = TruncSeries.variable(spec2, ("t",), None, "t")
    ring = DeltaRing(("t",), {"t": t * t}, 2)
    for _ in range(10):
        r1, r2 = rng.randrange(0, 4), rng.randrange(0, 4)
        composed = sheaf_eval(ring, r1).compose(sheaf_eval(ring, r2))
        direct = sheaf_eval(ring, r1 + r2)
        assert composed.frobenius_power == direct.frobenius_power
        for g in ring.generators:
            assert composed.generator_images[g] == direct.generator_images[g]
    for p in (2, 3):
        spec = CoeffRingSpec(p=p, p_precision=None)
        tt = TruncSeries.variable(spec, ("t",), None, "t")
        tp = tt
        for _ in range(p - 1):
            tp = tp * tt
        ring_p = DeltaRing(("t",), {"t": tp}, p)
        samples = [ring_p.random_element(rng) for _ in range(30)]
        assert congruence_check(sheaf_eval(ring_p, 1), samples)["passed"]
    psi2, psi3 = sheaf_eval(ring, 2), sheaf_eval(ring, 3)
    assert frobenius_chain_check(psi2, cyclic_chains(2))["passed"]            # C_4
    assert frobenius_chain_check(psi3, cyclic_chains(3))["passed"]            # C_8
    assert frobenius_chain_check(psi2, elementary_rank2_chains(2))["passed"]  # C_2 x C_2
    assert len(elementary_rank2_chains(2)) == 3
    report(9, "sheaf composition law on 10 random (r, r') pairs, congruence "
              "over characteristic-p bases, and chain-independence for C_4, "
              "C_8, C_2 x C_2")


def test_criterion_10_determinism_and_baseline(tmp_path):
    config = "suite/default.json"
    baseline = "suite/baseline.json"
    out1, out2 = io.StringIO(), io.StringIO()
    code1 = run_suite(config, baseline_path=baseline, cache=str(tmp_path / "c1"), out=out1)
    code2 = run_suite(config, baseline_path=baseline, cache=str(tmp_path / "c1"), out=out2)
    assert code1 == code2 == 0
    assert out1.getvalue() == out2.getvalue()
    assert "baseline: OK" in out1.getvalue()
    fresh = io.StringIO()
    assert run_suite(config, baseline_path=baseline, cache=str(tmp_path / "c2"),
                     out=fresh) == 0
    assert fresh.getvalue() == out1.getvalue()
    report(10, "full suite byte-identical across consecutive runs (cached and "
               "fresh) and matches the committed baseline digests")

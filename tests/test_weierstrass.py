import random
from math import comb

import pytest

import fgl.weierstrass
from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.errors import InternalInconsistency, NonConvergence, NoUnitCoefficient, SpecMismatch
from fgl.grouprings import AbelianPType, FiniteAlgebra, _denominator_product, level_ring
from fgl.laws import lubin_tate_height2_law, multiplicative_law
from fgl.series import TruncSeries
from fgl.weierstrass import (
    degree_of_first_unit,
    divide,
    prepare,
    weierstrass_prepare,
)

ZX2 = CoeffRingSpec(p=2, p_precision=None)
ZX3 = CoeffRingSpec(p=3, p_precision=None)
Z2_4 = CoeffRingSpec(p=2, p_precision=4)
LT2_SPEC = CoeffRingSpec(p=2, p_precision=8, deformation_params=1, u_degree_cap=6)
LT2_SMALL = CoeffRingSpec(p=2, p_precision=3, deformation_params=1, u_degree_cap=2)


def poly(spec, cap, terms):
    return TruncSeries(
        spec, ("x",), cap, {(k,): CoeffElem.from_int(spec, c) for k, c in terms.items()}
    )


def series_ring(spec, cap):
    """E0[x]/(x^T) at T = cap, where series in x are divided."""
    return FiniteAlgebra(spec, (), [], ()).adjoin("x", cap)


def test_degree_of_two_series_multiplicative():
    law = multiplicative_law(ZX2, 8)
    two = law.n_series(2)  # x^2 + 2x
    assert degree_of_first_unit(two, 8) == 2


def test_degree_of_x():
    assert degree_of_first_unit(poly(ZX2, 8, {1: 1}), 8) == 1


def test_degree_no_unit():
    with pytest.raises(NoUnitCoefficient):
        degree_of_first_unit(poly(ZX2, 8, {1: 2}), 8)  # p*x, never a unit


def test_divide_by_self():
    f, ring = poly(Z2_4, None, {1: 2, 2: 1}), series_ring(Z2_4, 8)
    q, r = divide(f, f, ring)
    assert q == ring.one()
    assert r.is_zero()


def test_divide_zero():
    g, ring = poly(Z2_4, None, {1: 2, 2: 1}), series_ring(Z2_4, 8)
    q, r = divide(ring.zero(), g, ring)
    assert q.is_zero() and r.is_zero()


def test_divide_x_cubed_by_x2_plus_2x():
    # oracle: exact long division over Z gives x^3 = (x - 2)(x^2 + 2x) + 4x,
    # then reduce q and r mod 2^4
    f = poly(Z2_4, None, {3: 1})
    g = poly(Z2_4, None, {1: 2, 2: 1})
    ring = series_ring(Z2_4, 8)
    q, r = divide(f, g, ring)
    assert q == poly(Z2_4, None, {0: -2, 1: 1})
    assert r == poly(Z2_4, None, {1: 4})
    assert ring.mul(q, g) + r == f


def test_divide_x_cubed_exact_integers():
    f = poly(ZX2, None, {3: 1})
    g = poly(ZX2, None, {1: 2, 2: 1})
    q, r = divide(f, g, series_ring(ZX2, 8))
    assert q == poly(ZX2, None, {0: -2, 1: 1})
    assert r == poly(ZX2, None, {1: 4})


def test_prepare_two_series_is_already_distinguished():
    law = multiplicative_law(ZX2, 8)
    two = law.n_series(2)
    fact = weierstrass_prepare(two)
    assert fact.degree == 2
    assert fact.unit == TruncSeries.one(ZX2, ("x",), 8)
    assert fact.distinguished == two


def test_prepare_p_power_series_multiplicative():
    # (1+x)^(p^M) - 1 is distinguished: binomial coefficients C(p^M, k) are
    # divisible by p for 0 < k < p^M (checked with exact integers)
    for spec, p in ((ZX2, 2), (ZX3, 3)):
        for M in (1, 2, 3):
            n = p ** M
            assert all(comb(n, k) % p == 0 for k in range(1, n))
            law = multiplicative_law(spec, n + 2)
            s = law.n_series(n)
            fact = weierstrass_prepare(s)
            assert fact.degree == n
            assert fact.unit == TruncSeries.one(spec, ("x",), n + 2)
            assert fact.distinguished == s


def test_prepare_nontrivial_unit():
    # f = 3x + x^2 at (p=2, N=4): oracle is the reconstruction identity
    f = poly(Z2_4, 8, {1: 3, 2: 1})
    fact = weierstrass_prepare(f)
    assert fact.degree == 1
    assert fact.unit.constant_term() == CoeffElem.from_int(Z2_4, 3)
    assert fact.unit * fact.distinguished == f
    # distinguished: monic of degree 1 with maximal-ideal lower coefficients
    assert fact.distinguished.coefficient((1,)) == CoeffElem.one(Z2_4)
    assert not fact.distinguished.coefficient((0,)).is_unit()


def test_prepare_random_reconstruction_and_idempotence():
    rng = random.Random(31)
    for _ in range(40):
        terms = {}
        d = rng.randrange(1, 4)
        terms[d] = 1 + 2 * rng.randrange(0, 8)  # unit coefficient at degree d
        for k in range(0, 7):
            if k != d and rng.random() < 0.5:
                terms[k] = 2 * rng.randrange(0, 8)  # maximal-ideal coefficients
        f = poly(Z2_4, 9, terms)
        fact = weierstrass_prepare(f)
        assert fact.unit * fact.distinguished == f
        again = weierstrass_prepare(fact.distinguished)
        assert again.unit == TruncSeries.one(Z2_4, ("x",), 9)
        assert again.distinguished == fact.distinguished


def test_lubin_tate_p_power_preparation():
    # height 2, p = 2: degree of [2^M] is 2^(2M); the x coefficient of the
    # distinguished factor has 2-adic valuation exactly M (N = 8 > M)
    law = lubin_tate_height2_law(LT2_SPEC, 20)
    for M in (1, 2):
        s = law.n_series(2 ** M)
        fact = weierstrass_prepare(s)
        assert fact.degree == 2 ** (2 * M)
        assert fact.unit * fact.distinguished == s
        lin = fact.distinguished.coefficient((1,))
        c0 = lin.constant_part()
        assert c0 % (2 ** M) == 0 and c0 % (2 ** (M + 1)) != 0
        # every u-monomial part of the linear coefficient is divisible by 2^M
        assert all(c % (2 ** M) == 0 for c in lin.terms)
        # all non-leading coefficients lie in the maximal ideal
        for k in range(fact.degree):
            assert not fact.distinguished.coefficient((k,)).is_unit()


def test_lubin_tate_prepared_low_coefficients_cap_independent():
    # Under an x-degree cap the factorization is only unique modulo the
    # truncation ideal: deep (high u-degree, high p-valuation) components of
    # the distinguished polynomial may shift with the cap. The shallow data
    # the construction is used for -- the Weierstrass degree and the linear
    # coefficient -- must not move.
    law20 = lubin_tate_height2_law(LT2_SPEC, 20)
    law26 = lubin_tate_height2_law(LT2_SPEC, 26)
    for M in (1, 2):
        f20 = weierstrass_prepare(law20.n_series(2 ** M))
        f26 = weierstrass_prepare(law26.n_series(2 ** M))
        assert f20.degree == f26.degree == 2 ** (2 * M)
        lin20 = f20.distinguished.coefficient((1,))
        lin26 = f26.distinguished.coefficient((1,))
        assert lin20.constant_part() == lin26.constant_part()
        for lin in (lin20, lin26):
            assert lin.constant_part() % (2 ** M) == 0
            assert lin.constant_part() % (2 ** (M + 1)) != 0
            assert all(c % (2 ** M) == 0 for c in lin.terms)


def counted_steps(monkeypatch) -> list:
    """One entry per ``_split``: the divisor's split, then one per division step."""
    calls = []
    split = fgl.weierstrass._split

    def counting(f, d):
        calls.append(d)
        return split(f, d)

    monkeypatch.setattr(fgl.weierstrass, "_split", counting)
    return calls


def test_exact_division_stops_at_the_proved_bound(monkeypatch):
    # g = 2 + x + x^2 has v = 1 + x, not constant: x^7 / g converges only
    # 2-adically, so no step repeats; over Z at T = 8 the bound is R T + 1 = 9
    calls = counted_steps(monkeypatch)
    with pytest.raises(NonConvergence) as info:
        divide(poly(ZX2, None, {7: 1}), poly(ZX2, None, {0: 2, 1: 1, 2: 1}), series_ring(ZX2, 8))
    assert len(calls) - 1 == 9
    assert "bound of 9 iterations" in str(info.value)
    assert "p=2, N=None, D=1, T=8" in str(info.value)


def test_division_over_a_non_local_algebra_stops_at_the_proved_bound(monkeypatch):
    # A = Z/4[y]/(y^2 - y) is not local: h = y is idempotent, never nilpotent,
    # so g = y + x + x^2 never stabilizes; the bound R (N + D - 1) + 1 = 5 holds
    spec = CoeffRingSpec(p=2, p_precision=2)
    one = CoeffElem.one(spec)
    idempotent = TruncSeries(spec, ("y",), None, {(2,): one, (1,): -one})
    ring = FiniteAlgebra(spec, (), [], ()).adjoin("y", 2, idempotent).adjoin("x", 6)
    f = TruncSeries(spec, ring.variables, None, {(1, 3): one})
    g = TruncSeries(spec, ring.variables, None, {(1, 0): one, (0, 1): one, (0, 2): one})
    calls = counted_steps(monkeypatch)
    with pytest.raises(NonConvergence) as info:
        divide(f, g, ring)
    assert len(calls) - 1 == 5
    assert "bound of 5 iterations" in str(info.value)
    assert "p=2, N=2, D=1, T=6" in str(info.value)


def test_front_end_rejects_non_univariate_or_uncapped_series():
    bivariate = TruncSeries.variable(Z2_4, ("x", "y"), 8, "x")
    with pytest.raises(SpecMismatch):
        weierstrass_prepare(bivariate)
    with pytest.raises(SpecMismatch):
        weierstrass_prepare(TruncSeries.variable(Z2_4, ("x",), None, "x"))


def test_prepare_not_distinguished_is_internal_inconsistency(monkeypatch):
    # a division whose remainder has a unit constant term breaks the invariant
    honest = fgl.weierstrass.divide

    def broken(f, g, ring):
        q, r = honest(f, g, ring)
        return q, r - ring.one()

    monkeypatch.setattr(fgl.weierstrass, "divide", broken)
    with pytest.raises(InternalInconsistency) as info:
        weierstrass_prepare(poly(Z2_4, 8, {1: 3, 2: 1}))
    assert "weierstrass.prepare" in str(info.value)
    assert "p=2, N=4" in str(info.value) and "T=8" in str(info.value)


def stage_two_ring():
    """A_1[x2]/(x2^24) for lubinTate2 (2, 3, 2) type 1,1, and the level denominator."""
    law = lubin_tate_height2_law(LT2_SMALL, 24)
    ring = level_ring(law, AbelianPType((1,))).adjoin("x2", law.cap)
    return ring, _denominator_product(law, ring)


def test_divide_with_algebra_coefficients():
    # oracle: the division identity f = q g + r, remultiplied in the ring
    ring, g = stage_two_ring()
    d = degree_of_first_unit(g, 24)
    assert d == 2  # one Weierstrass-degree-1 factor per a in F_2
    rng = random.Random(41)
    u = CoeffElem(LT2_SMALL, (0, 1))
    for _ in range(5):
        terms = {expo: CoeffElem.from_int(LT2_SMALL, rng.randrange(8))
                 + u * CoeffElem.from_int(LT2_SMALL, rng.randrange(8))
                 for expo in rng.sample(ring.basis(), k=12)}
        f = TruncSeries(LT2_SMALL, ring.variables, None, terms)
        q, r = divide(f, g, ring)
        assert ring.mul(q, g) + r == f
        assert all(e[-1] < d for e in r.terms)


def test_prepare_with_algebra_coefficients():
    ring, g = stage_two_ring()
    q, dist, d = prepare(g, ring)
    assert d == 2
    assert ring.mul(q, g) == dist
    assert ring.mul(ring.invert_element(q), dist) == g
    # monic of degree d in x2 over the stage-1 quotient
    assert {e: c for e, c in dist.sorted_terms() if e[-1] >= d} == {(0, d): CoeffElem.one(LT2_SMALL)}

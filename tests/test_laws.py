import random
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import law_oracle
from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.errors import (
    IntegralityFailure,
    NonNilpotentArgument,
    SpecMismatch,
    TruncationTooSmall,
)
from fgl.laws import (
    FormalGroupLaw,
    _law_from_log,
    additive_law,
    honda_law,
    lubin_tate_height2_law,
    multiplicative_law,
)
from fgl.series import TruncSeries

ZX2 = CoeffRingSpec(p=2, p_precision=None)
ZX3 = CoeffRingSpec(p=3, p_precision=None)
Z2_4 = CoeffRingSpec(p=2, p_precision=4)
F2 = CoeffRingSpec(p=2, p_precision=1)
F3 = CoeffRingSpec(p=3, p_precision=1)
LT2_SPEC = CoeffRingSpec(p=2, p_precision=8, deformation_params=1, u_degree_cap=6)


def poly(spec, variables, cap, terms):
    return TruncSeries(
        spec, variables, cap,
        {expo: CoeffElem.from_int(spec, c) for expo, c in terms.items()},
    )


def test_multiplicative_has_exactly_three_terms():
    law = multiplicative_law(Z2_4, 8)
    assert law.F == poly(Z2_4, ("x", "y"), 8, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert len(law.F.terms) == 3


def test_multiplicative_axioms_exact():
    for law in (multiplicative_law(Z2_4, 8), multiplicative_law(ZX3, 6)):
        assert law.check_axioms() == {
            "unit": True, "commutative": True, "associative": True,
        }


def test_multiplicative_needs_height_one_ring():
    with pytest.raises(SpecMismatch):
        multiplicative_law(LT2_SPEC, 8)


def test_formal_sum_unit_law():
    law = multiplicative_law(ZX2, 8)
    x = law.x()
    zero = TruncSeries.zero(ZX2, ("x",), 8)
    assert law.formal_sum(x, zero) == x


def test_formal_sum_doubling_multiplicative():
    # (1+x)^2 - 1 = 2x + x^2
    law = multiplicative_law(ZX2, 8)
    x = law.x()
    assert law.formal_sum(x, x) == poly(ZX2, ("x",), 8, {(1,): 2, (2,): 1})


def test_formal_sum_rejects_constant_terms():
    law = multiplicative_law(ZX2, 8)
    bad = poly(ZX2, ("x",), 8, {(0,): 1, (1,): 1})
    with pytest.raises(NonNilpotentArgument):
        law.formal_sum(bad, law.x())


def test_formal_inverse_multiplicative_is_alternating_geometric():
    # 1/(1+x) - 1 = -x + x^2 - x^3 + ...
    law = multiplicative_law(ZX2, 6)
    expected = poly(ZX2, ("x",), 6, {(1,): -1, (2,): 1, (3,): -1, (4,): 1, (5,): -1})
    assert law.formal_inverse(law.x()) == expected


def test_formal_inverse_additive_mod_p():
    law = additive_law(F3, 6)
    assert law.formal_inverse(law.x()) == poly(F3, ("x",), 6, {(1,): 2})


def test_formal_inverse_cancels():
    for law in (multiplicative_law(ZX2, 8), honda_law(F3, 1, 8)):
        x = law.x()
        inv = law.formal_inverse(x)
        assert law.formal_sum(x, inv).is_zero()
    assert multiplicative_law(ZX2, 8).formal_inverse(
        TruncSeries.zero(ZX2, ("x",), 8)
    ).is_zero()


def test_n_series_basics():
    law = multiplicative_law(ZX2, 8)
    assert law.n_series(1) == law.x()
    assert law.n_series(0).is_zero()
    # (1+x)^4 - 1
    assert law.n_series(4) == poly(ZX2, ("x",), 8, {(1,): 4, (2,): 6, (3,): 4, (4,): 1})


def test_n_series_additive_p_fold_vanishes():
    law = additive_law(F3, 6)
    assert law.n_series(3).is_zero()


def test_n_series_against_binomial_oracle():
    # oracle: [m](x) = (1+x)^m - 1, exact binomial coefficients
    from math import comb

    law = multiplicative_law(ZX3, 15)
    for m in (2, 3, 5, 7, 11):
        expected = poly(ZX3, ("x",), 15, {(k,): comb(m, k) for k in range(1, min(m, 14) + 1)})
        assert law.n_series(m) == expected


def test_n_series_homomorphism_random_pairs():
    rng = random.Random(23)
    law = multiplicative_law(ZX2, 10)
    for _ in range(20):
        a, b = rng.randrange(0, 50), rng.randrange(0, 50)
        sa, sb = law.n_series(a), law.n_series(b)
        assert law.formal_sum(sa, sb) == law.n_series(a + b)
        assert law.n_series(b).subst({"x": sa}) == law.n_series(a * b)


def test_honda_height_one_p_series():
    law = honda_law(F2, 1, 8)
    assert law.n_series(2) == poly(F2, ("x",), 8, {(2,): 1})


def test_honda_height_two_p_series_p3():
    law = honda_law(F3, 2, 10)
    assert law.check_axioms() == {"unit": True, "commutative": True, "associative": True}
    assert law.n_series(3) == poly(F3, ("x",), 10, {(9,): 1})


def test_honda_validation():
    with pytest.raises(TruncationTooSmall):
        honda_law(F2, 1, 2)
    with pytest.raises(SpecMismatch):
        honda_law(Z2_4, 1, 8)


@pytest.mark.parametrize("n", [0, -1])
def test_honda_rejects_height_below_one(n):
    # p^n <= 1 for n < 1, so the logarithm's degree loop would never end:
    # the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError(f"honda_law(F2, {n}, 6) did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(SpecMismatch, match="height n >= 1"):
            honda_law(F2, n, 6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_lubin_tate_axioms():
    law = lubin_tate_height2_law(LT2_SPEC, 10)
    assert law.check_axioms() == {"unit": True, "commutative": True, "associative": True}
    assert law.F.subst({
        "x": law.x(), "y": TruncSeries.zero(LT2_SPEC, ("x",), 10),
    }) == law.x()


# -- check_axioms against the two-substitution oracle ---------------------------------

Z5_2U3 = CoeffRingSpec(p=5, p_precision=2, deformation_params=1, u_degree_cap=3)


def hand_made(spec, cap, terms):
    return FormalGroupLaw(spec, poly(spec, ("x", "y"), cap, terms), None, "hand-made")


@pytest.mark.parametrize("spec", [ZX2, Z2_4, F3, Z5_2U3], ids=["Z", "Z/16", "F3", "Z/25[u]"])
@pytest.mark.parametrize("terms, expected", [
    # x + y + x^2 y: a unit law, but not commutative and not associative
    ({(1, 0): 1, (0, 1): 1, (2, 1): 1}, (True, False, False)),
    # x + y + x^2 y + x y^2: commutative, but F(F(x,y),z) - F(x,F(y,z)) =
    # 2 x^3 y z - 2 x y z^3 + 3 x^2 y^2 z - 3 x y^2 z^2 + (degree 7), nonzero below the cap 6
    ({(1, 0): 1, (0, 1): 1, (2, 1): 1, (1, 2): 1}, (True, True, False)),
    # x + y + x y: the multiplicative law written by hand
    ({(1, 0): 1, (0, 1): 1, (1, 1): 1}, (True, True, True)),
    # x + y + x^2: F(0, y) = y but F(x, 0) = x + x^2; the two sides differ at x^2
    ({(1, 0): 1, (0, 1): 1, (2, 0): 1}, (False, False, False)),
    # F(x, y) = x: associative, and neither unital nor commutative
    ({(1, 0): 1}, (False, False, True)),
])
def test_check_axioms_of_hand_made_laws(spec, terms, expected):
    law = hand_made(spec, 6, terms)
    axioms = law.check_axioms()
    assert axioms == law_oracle.check_axioms(law)
    assert axioms == dict(zip(("unit", "commutative", "associative"), expected))


@st.composite
def bivariate_series(draw):
    """A random F(x, y) = x + y + (a few terms of degree >= 2), over Z, Z/p^N or
    Z/p^N[u]/(u^D); optionally x <-> y symmetric, without pure powers, or x + y + c xy."""
    spec = draw(st.sampled_from([ZX2, Z2_4, F2, F3, CoeffRingSpec(p=3, p_precision=2),
                                 CoeffRingSpec(p=2, p_precision=3, deformation_params=1,
                                               u_degree_cap=2), Z5_2U3]))
    cap = draw(st.integers(3, 6))
    coeff = st.lists(st.integers(-3, 3), min_size=spec.width, max_size=spec.width).map(
        lambda ints: CoeffElem(spec, ints))
    one = CoeffElem.one(spec)
    terms = {(1, 0): one, (0, 1): one}
    shape = draw(st.sampled_from(["any", "unital", "symmetric", "symmetric unital",
                                  "multiplicative"]))
    if shape == "multiplicative":
        terms[(1, 1)] = draw(coeff)
    else:
        exponents = [(a, b) for a in range(cap) for b in range(cap) if 2 <= a + b < cap
                     and ("unital" not in shape or a and b)]
        for a, b in draw(st.lists(st.sampled_from(exponents), max_size=4, unique=True)):
            c = draw(coeff)
            for expo in {(a, b), (b, a)} if "symmetric" in shape else {(a, b)}:
                terms[expo] = terms.get(expo, CoeffElem.zero(spec)) + c
    return FormalGroupLaw(spec, TruncSeries(spec, ("x", "y"), cap, terms), None, shape)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(law=bivariate_series())
def test_check_axioms_matches_two_substitution_oracle(law):
    assert law.check_axioms() == law_oracle.check_axioms(law)


def test_lubin_tate_two_series_low_coefficients():
    # oracle: [2](x) = E(2 l(x)) with l2 = u/2 and E = l^{-1}, so e2 = -u/2;
    # the x coefficient is 2 and the x^2 coefficient is 2*l2 + 4*e2 = -u.
    l2 = Fraction(1, 2)  # u-part of the x^2 log coefficient
    e2 = -l2
    x2_u_part = 2 * l2 + 4 * e2
    assert x2_u_part == -1

    law = lubin_tate_height2_law(LT2_SPEC, 10)
    two = law.n_series(2)
    assert two.coefficient((1,)) == CoeffElem.from_int(LT2_SPEC, 2)
    assert two.coefficient((2,)) == CoeffElem(LT2_SPEC, [0, -1])


def test_lubin_tate_reduces_to_honda():
    t = 10
    law2 = lubin_tate_height2_law(LT2_SPEC, t)
    hon = honda_law(F2, 2, t)
    reduced = {}
    for expo, c in law2.F.sorted_terms():
        v = c.constant_part() % 2  # kill u1 and reduce mod 2
        if v:
            reduced[expo] = v
    expected = {expo: c.constant_part() for expo, c in hon.F.sorted_terms()}
    assert reduced == expected


def test_lubin_tate_validation():
    with pytest.raises(SpecMismatch):
        lubin_tate_height2_law(Z2_4, 10)
    with pytest.raises(TruncationTooSmall):
        lubin_tate_height2_law(LT2_SPEC, 4)


# -- the p-scaled builder against the Fraction oracle ------------------------------


@pytest.mark.parametrize("p,n,cap", [
    (2, 1, 12), (2, 2, 12), (3, 1, 12), (3, 2, 12), (2, 2, 20), (2, 2, 24), (5, 1, 30),
])
def test_honda_matches_fraction_oracle(p, n, cap):
    spec = CoeffRingSpec(p=p, p_precision=1)
    assert honda_law(spec, n, cap).F.terms == law_oracle.honda_F(spec, n, cap).terms


@pytest.mark.parametrize("p,pprec,udeg,cap", [
    (2, 8, 6, 10), (2, 8, 6, 12), (2, 8, 6, 20), (2, 4, 2, 30),
    (2, 3, 2, 8), (2, 3, 2, 20), (2, 3, 2, 24), (2, 3, 2, 30), (3, 4, 3, 12), (3, 4, 3, 14),
    (3, 4, 3, 28), (5, 3, 3, 30),
])
def test_lubin_tate_matches_fraction_oracle(p, pprec, udeg, cap):
    spec = CoeffRingSpec(p=p, p_precision=pprec, deformation_params=1, u_degree_cap=udeg)
    assert lubin_tate_height2_law(spec, cap).F.terms == \
        law_oracle.lubin_tate_height2_F(spec, cap).terms


@settings(derandomize=True, max_examples=30, deadline=None)
@given(p_cap=st.sampled_from([2, 3]).flatmap(
           lambda p: st.tuples(st.just(p), st.integers(p * p + 1, 16))),
       pprec=st.integers(1, 8), udeg=st.integers(1, 6))
def test_lubin_tate_matches_fraction_oracle_property(p_cap, pprec, udeg):
    p, cap = p_cap
    spec = CoeffRingSpec(p=p, p_precision=pprec, deformation_params=1, u_degree_cap=udeg)
    assert lubin_tate_height2_law(spec, cap).F.terms == \
        law_oracle.lubin_tate_height2_F(spec, cap).terms


@pytest.mark.parametrize("p,width,cap,v,w", [
    (5, 3, 24, [-1, -5, 5], [5, -1000, 24]),
    (5, 2, 20, [-5, 0], [5, -5]),
    (5, 1, 24, [-2], [1000]),
    (2, 1, 24, [1], [-2]),
])
def test_law_from_log_matches_fraction_oracle_where_slots_are_tight(p, width, cap, v, w):
    # l(x) = x + (v/p) l~(x^p) + (w/p) l~~(x^(p^2)) has a p-integral law for any
    # v, w in Z[u]; negative and large v, w give Horner rows with large slots of
    # both signs, and on these logarithms the derived slot width has at most one
    # bit to spare: two bits fewer corrupt F or leave a denominator in it
    spec = CoeffRingSpec(p=p, p_precision=60, deformation_params=1, u_degree_cap=width)
    log = law_oracle.functional_equation_log(p, width, cap, v, w)
    got = _law_from_log(spec, cap, law_oracle.scaled_log(log, p), 2, "hand-made")
    assert got.F.terms == law_oracle.law_from_log(spec, cap, log, width).terms


def test_non_integral_log_raises_integrality_failure():
    # l = x + x^2/4 gives F = x + y - xy/2 + ..., not 2-integral
    spec = CoeffRingSpec(p=2, p_precision=4)
    # the exact coefficient and its own denominator, not a scale shared by a row
    text = "bad: the x^1 y^1 coefficient keeps the denominator 2^1 (p=2, N=4, D=1, T=6)"
    with pytest.raises(IntegralityFailure, match=f"^{re.escape(text)}$"):
        _law_from_log(spec, 6, {1: ([1], 0), 2: ([1], 2)}, 1, "bad")

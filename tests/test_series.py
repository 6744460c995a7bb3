from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.series import TruncSeries

ZX = CoeffRingSpec(p=2, p_precision=None)


def poly(spec, variables, cap, terms):
    return TruncSeries(
        spec, variables, cap,
        {expo: CoeffElem.from_int(spec, c) for expo, c in terms.items()},
    )


def test_mul_truncates_at_cap():
    x = TruncSeries.variable(ZX, ("x",), 4, "x")
    f = poly(ZX, ("x",), 4, {(1,): 1, (2,): 1})
    g = f * f  # x^2 + 2x^3 + x^4, cap drops x^4
    assert g == poly(ZX, ("x",), 4, {(2,): 1, (3,): 2})
    assert (x * x * x * x).is_zero()


def test_substitution_matches_hand_expansion():
    # f(x, y) = x + y + xy at (x -> t^2, y -> t + t^2), cap 5
    f = poly(ZX, ("x", "y"), 5, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    t = TruncSeries.variable(ZX, ("t",), 5, "t")
    got = f.subst({"x": t * t, "y": t + t * t})
    # t^2 + (t + t^2) + t^2(t + t^2) = t + 2t^2 + t^3 + t^4
    assert got == poly(ZX, ("t",), 5, {(1,): 1, (2,): 2, (3,): 1, (4,): 1})


def test_homogeneous_part_and_valuation():
    f = poly(ZX, ("x", "y"), 6, {(1, 0): 1, (1, 1): 2, (0, 2): 3})
    assert f.homogeneous_part(2) == poly(ZX, ("x", "y"), 6, {(1, 1): 2, (0, 2): 3})
    assert f.valuation() == 1
    assert f.degree() == 2
    assert TruncSeries.zero(ZX, ("x",), 4).valuation() is None


def test_rename_into_larger_ring():
    f = poly(ZX, ("x",), 6, {(2,): 5})
    g = f.rename(("x", "y"), cap=6)
    assert g == poly(ZX, ("x", "y"), 6, {(2, 0): 5})

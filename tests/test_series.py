import itertools
import json
import pathlib
import random
import re
from functools import reduce
from operator import add, is_

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_oracle
import coeff_oracle
import series_oracle
from fgl import series
from fgl.cli import run_job
from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.errors import InternalInconsistency, NonNilpotentArgument, SpecMismatch
from fgl.grouprings import FiniteAlgebra
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


def test_series_are_unhashable():
    # a series holds a mutable dict of terms, so it must not be a dict key
    s = poly(ZX, ("x",), 4, {(1,): 1})
    with pytest.raises(TypeError):
        hash(s)


def test_substitution_matches_hand_expansion():
    # f(x, y) = x + y + xy at (x -> t^2, y -> t + t^2), cap 5
    f = poly(ZX, ("x", "y"), 5, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    t = TruncSeries.variable(ZX, ("t",), 5, "t")
    got = f.subst({"x": t * t, "y": t + t * t})
    # t^2 + (t + t^2) + t^2(t + t^2) = t + 2t^2 + t^3 + t^4
    assert got == poly(ZX, ("t",), 5, {(1,): 1, (2,): 2, (3,): 1, (4,): 1})


def test_homogeneous_part():
    f = poly(ZX, ("x", "y"), 6, {(1, 0): 1, (1, 1): 2, (0, 2): 3})
    assert f.homogeneous_part(2) == poly(ZX, ("x", "y"), 6, {(1, 1): 2, (0, 2): 3})


def test_rename_into_larger_ring():
    f = poly(ZX, ("x",), 6, {(2,): 5})
    g = f.rename(("x", "y"), cap=6)
    assert g == poly(ZX, ("x", "y"), 6, {(2, 0): 5})


def rename_oracle(f, variables, cap, names=None):
    """The terms of ``f.rename``, one exponent at a time by name."""
    out = {}
    for expo, c in f.terms.items():
        if cap is None or sum(expo) < cap:
            by_name = {(names or {}).get(v, v): e for v, e in zip(f.variables, expo)}
            out[tuple(by_name.get(v, 0) for v in variables)] = c
    return out


@pytest.mark.parametrize("source, variables, names", [
    (("x",), ("x",), None),  # one variable into one: a one-slot exponent
    (("x",), ("t",), {"x": "t"}),
    (("y",), ("x", "y", "z"), None),  # two variables added around it
    (("x", "y"), ("x", "y", "z"), None),  # one added
    (("x", "y"), ("y", "x"), None),  # the slots reordered
    (("x", "y"), ("x", "y"), {"x": "y", "y": "x"}),  # a swap
    (("x", "y", "z"), ("z", "x", "y"), {"x": "y", "y": "z", "z": "x"}),
    ((), ("x",), None),  # a constant series gains a variable
    ((), (), None),
])
@pytest.mark.parametrize("cap", [None, 4])
def test_rename_matches_termwise_oracle(source, variables, names, cap):
    rng = random.Random(29)
    terms = {tuple(rng.randrange(4) for _ in source): rng.randrange(1, 50) for _ in range(12)}
    f = poly(ZX, source, 7, terms)
    got = f.rename(variables, cap, names)
    assert got.variables == variables and got.cap == cap
    assert got.terms == rename_oracle(f, variables, cap, names)


def test_rename_refuses_a_dropped_variable():
    # y has no slot in the target ring, so its exponents would be lost
    f = poly(ZX, ("x", "y"), 6, {(1, 2): 3})
    with pytest.raises(SpecMismatch,
                       match=re.escape("cannot rename ('x', 'y') into ('x',) by None")):
        f.rename(("x",), 6)
    with pytest.raises(SpecMismatch,
                       match=re.escape("cannot rename ('x', 'y') into ('x', 'z') by {'y': 'x'}")):
        f.rename(("x", "z"), 6, {"y": "x"})


# -- the packed product against the pairwise oracle and sympy -----------------

SPECS = (
    CoeffRingSpec(p=3, p_precision=None),  # exact Z: signed one-slot coefficients
    CoeffRingSpec(p=2, p_precision=5),  # Z/p^N
    CoeffRingSpec(p=3, p_precision=3, deformation_params=1, u_degree_cap=3),
    CoeffRingSpec(p=2, p_precision=8, deformation_params=1, u_degree_cap=6),
)
NAMES = ("x", "y", "z", "w")
X, U = sympy.symbols("x y z"), sympy.Symbol("u")


def raw_series(spec, nvars, cap, raw):
    """A series from {exponent: coefficient list by u-degree}."""
    return TruncSeries(spec, NAMES[:nvars], cap, {e: CoeffElem(spec, c) for e, c in raw.items()})


def to_sympy(nvars, raw):
    return sum((c * U ** k * sympy.Mul(*(X[j] ** e[j] for j in range(nvars)))
                for e, cs in raw.items() for k, c in enumerate(cs)), sympy.Integer(0))


def sympy_terms(spec, nvars, cap, expr) -> dict:
    """{exponent: CoeffElem.terms} of expr, truncated at x-degree cap, u^D and p^N."""
    acc: dict = {}
    for monom, c in sympy.Poly(sympy.expand(expr), *X[:nvars], U).terms():
        e, k = monom[:nvars], monom[nvars]
        if (cap is None or sum(e) < cap) and k < spec.width:
            acc.setdefault(e, [0] * spec.width)[k] += int(c)
    return {e: t for e, cs in acc.items() if (t := CoeffElem(spec, cs).terms)}


@st.composite
def rings(draw):
    return (draw(st.sampled_from(SPECS)), draw(st.integers(1, 3)),
            draw(st.none() | st.integers(1, 7)))


def raw_terms(spec, nvars, max_size=6, min_size=0, top=4, constant=True):
    hi = spec.modulus or 10 ** 30
    coeff = st.lists(st.integers(-hi, hi), min_size=1,
                     max_size=spec.width + 1 if spec.deformation_params else 1)
    expo = st.tuples(*[st.integers(0, top)] * nvars)
    return st.dictionaries(expo if constant else expo.filter(any), coeff,
                           min_size=min_size, max_size=max_size)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rings(), st.data())
def test_mul_against_oracle_and_sympy(ring, data):
    spec, nvars, cap = ring
    ra, rb = data.draw(raw_terms(spec, nvars)), data.draw(raw_terms(spec, nvars))
    a, b = raw_series(spec, nvars, cap, ra), raw_series(spec, nvars, cap, rb)
    got = a * b
    assert got == series_oracle.mul(a, b)
    expected = sympy_terms(spec, nvars, cap, to_sympy(nvars, ra) * to_sympy(nvars, rb))
    assert {e: c.terms for e, c in got.sorted_terms()} == expected


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rings(), st.data())
def test_rename_matches_substitution_of_variables(ring, data):
    # the slow path: subst with each variable's image a variable of the target ring
    spec, nvars, cap = ring
    f = raw_series(spec, nvars, cap, data.draw(raw_terms(spec, nvars)))
    # an equal or larger target tuple, and an injective map into it: swaps
    # included, and a variable that keeps its name may be left out of the map
    variables = tuple(data.draw(st.lists(st.sampled_from(NAMES[:3] + ("s", "t")),
                                         min_size=nvars, max_size=5, unique=True)))
    targets = data.draw(st.permutations(variables))[:nvars]
    names = {v: t for v, t in zip(f.variables, targets) if v != t}
    new_cap = data.draw(st.none() | st.integers(1, 7))
    images = {v: TruncSeries.variable(spec, variables, new_cap, names.get(v, v))
              for v in f.variables}
    got = f.rename(variables, new_cap, names)
    assert got == f.subst(images)
    assert all(new_cap is None or sum(e) < new_cap for e in got.terms)


@pytest.mark.parametrize("spec", SPECS[1:], ids=["p2N5", "p3N3D3", "p2N8D6"])
@pytest.mark.parametrize("nvars, cap", [(1, 24), (2, 9), (3, 6), (4, 5), (0, 3), (2, None),
                                        (1, None), (3, None), (0, None)])
def test_mul_slot_width_worst_case(spec, nvars, cap):
    # dense operands with every coefficient p^N - 1 multiplied at the fixed
    # slot width 2 bitlen(p^N - 1) + 32: the largest slot sums. The products
    # also reach the edge of the exponent radix, the cap under one: x^(cap-1)
    # and each x^a y^b with a + b = cap - 1 times 1 reach cap - 1 in a coordinate
    top = [spec.modulus - 1] * spec.width
    degree = cap - 1 if cap else 5
    expos = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    f = raw_series(spec, nvars, cap, {e: top for e in expos})
    g = raw_series(spec, nvars, cap, {e: top for e in expos[: len(expos) // 2 + 1]})
    assert f * f == series_oracle.mul(f, f)
    assert f * g == series_oracle.mul(f, g)
    assert g * f == series_oracle.mul(g, f)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(SPECS), st.integers(0, 4), st.data())
def test_cap_free_products_match_the_oracle(spec, nvars, data):
    # the kernel keyed by int exponents, on operands up to the size of the psi
    # powers of a delta-check, in no to four variables: without a cap the radix
    # B is one more than the largest coordinate of a product (exponents to 40
    # here), so a product reaching B - 1 must not carry. One pair as a product,
    # several as the groups of a substitution
    a, b = (raw_series(spec, nvars, None, data.draw(raw_terms(spec, nvars, 30, top=40)))
            for _ in range(2))
    assert stored(a * b) == series_oracle.mul(a, b)
    f = raw_series(spec, 1, None, data.draw(raw_terms(spec, 1, 5, top=4)))
    assert stored(f.subst({"x": b})) == series_oracle.subst(f, {"x": b})


# -- the grouped substitution against the term-wise oracle -----------------------


def image_terms(spec, nvars, cap, kind, max_size):
    """A monomial, dense or zero image; under a cap it has no constant term."""
    if kind == "zero":
        return st.just({})
    if kind == "monomial":
        max_size = 1
    return raw_terms(spec, nvars, max_size, min(max_size, 2), top=3, constant=cap is None)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(SPECS), st.integers(1, 3), st.integers(1, 3), st.data())
def test_subst_matches_termwise_oracle(spec, nsrc, ntgt, data):
    cap, source_cap = (data.draw(st.none() | st.integers(lo, 8)) for lo in (3, 4))
    heavy = data.draw(st.integers(0, nsrc - 1))  # the dense image with the most terms
    images = {}
    for j, v in enumerate(NAMES[:nsrc]):
        kinds = ["monomial", "dense"] * 2 + ["zero"]
        kind = "dense" if j == heavy else data.draw(st.sampled_from(kinds))
        raw = data.draw(image_terms(spec, ntgt, cap, kind, 8 if j == heavy else 3))
        images[v] = raw_series(spec, ntgt, cap, raw)
    f = raw_series(spec, nsrc, source_cap, data.draw(raw_terms(spec, nsrc, 8, 1, top=3)))
    assert f.subst(images) == series_oracle.subst(f, images)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(SPECS), st.integers(0, 3), st.booleans(), st.data())
def test_one_variable_subst_matches_termwise_oracle(spec, ntgt, keep, data):
    # a one-variable source skips the grouping: its sum is c * image^i over its
    # terms c x^i, into a target in no to three variables; a kept table, passed
    # twice, gains nothing on the second call
    cap = data.draw(st.none() | st.integers(1, 8))
    if ntgt == 0:  # a constant image, which under a cap must be zero
        raw = data.draw(raw_terms(spec, 0, 1)) if cap is None else {}
    else:
        kind = data.draw(st.sampled_from(["monomial", "dense", "zero"]))
        raw = data.draw(image_terms(spec, ntgt, cap, kind, 6))
    images = {"x": raw_series(spec, ntgt, cap, raw)}
    f = raw_series(spec, 1, data.draw(st.none() | st.integers(1, 8)),
                   data.draw(raw_terms(spec, 1, 8, 1, top=5)))
    expected = series_oracle.subst(f, images)
    powers = {} if keep else None
    assert stored(f.subst(images, powers)) == expected
    if keep:
        table = list(powers["x"])
        assert f.subst(images, powers) == expected
        assert len(powers["x"]) == len(table) and all(map(is_, powers["x"], table))


def test_subst_checks_its_images_in_one_variable_and_more():
    # the ring and constant-term checks read every image, whatever the source's arity
    spec, other = SPECS[1], SPECS[2]
    x, one_plus_x = (raw_series(spec, 1, 6, r) for r in ({(1,): [1]}, {(0,): [1], (1,): [1]}))
    for f in (raw_series(spec, 1, 6, {(2,): [1]}), raw_series(spec, 2, 6, {(2, 1): [1]})):
        images = dict.fromkeys(f.variables, x)
        with pytest.raises(NonNilpotentArgument,
                           match=re.escape("image of x has a nonzero constant term "
                                           "(p=2, N=5, D=1, T=6)")):
            f.subst({**images, "x": one_plus_x})
        with pytest.raises(SpecMismatch, match="^coefficient rings differ$"):
            f.subst({**images, f.variables[-1]: raw_series(other, 1, 6, {(1,): [1]})})
    with pytest.raises(SpecMismatch,
                       match=re.escape("series rings differ: ('x',)/6 vs ('x',)/5")):
        raw_series(spec, 2, 6, {(2, 1): [1]}).subst({"x": x, "y": x.rename(("x",), 5)})


TOP_SPECS = (CoeffRingSpec(p=2, p_precision=8, deformation_params=1, u_degree_cap=6),
             CoeffRingSpec(p=3, p_precision=3, deformation_params=1, u_degree_cap=7))


@pytest.mark.parametrize("spec", TOP_SPECS, ids=["p2N8D6", "p3N3D7"])
def test_sum_of_products_slot_width_worst_case(spec):
    # every coefficient p^N - 1 at every u-degree, and pairs that each add
    # min(|A|, |B|) products into x^7: its slot u^(D-1) sums D*S products of
    # (p^N - 1)^2, all at the fixed slot width
    top = [spec.modulus - 1] * spec.width
    dense = raw_series(spec, 1, 8, {(j,): top for j in range(8)})
    single = raw_series(spec, 1, 8, {(0,): top})
    pairs = [(single, dense)] * 42 + [(dense, dense)] * 3
    got = series._sum_of_products([(a.terms, b.terms) for a, b in pairs], spec, ("x",), 8)
    assert got == reduce(add, (series_oracle.mul(a, b) for a, b in pairs))
    # and a substitution with every source and image coefficient at the top
    expos = [e for e in itertools.product(range(8), repeat=2) if sum(e) < 8]
    f = raw_series(spec, 2, 8, {e: top for e in expos})
    images = {v: raw_series(spec, 2, 8, {e: top for e in expos if sum(e)}) for v in NAMES[:2]}
    assert f.subst(images) == series_oracle.subst(f, images)


def test_the_kernel_and_the_sweep_check_their_slot_room(monkeypatch):
    # the kernel asks for the sum of min(|A|, |B|), under a cap, without one in
    # one variable and in none; the sweep for 1 + sum |tail_j|
    spec, asked = TOP_SPECS[0], []
    monkeypatch.setattr(CoeffRingSpec, "check_room", lambda self, products: asked.append(products))
    top = [spec.modulus - 1] * spec.width
    dense = raw_series(spec, 1, 8, {(j,): top for j in range(8)})
    single = raw_series(spec, 1, 8, {(0,): top})
    three = raw_series(spec, 1, None, {(j,): top for j in range(3)})
    series._sum_of_products([(single.terms, dense.terms), (dense.terms, dense.terms)],
                            spec, ("x",), 8)
    series._sum_of_products([(single.terms, dense.terms), (dense.terms, three.terms)],
                            spec, ("x",), None)
    constant = raw_series(spec, 0, None, {(): top})
    series._sum_of_products([(constant.terms, constant.terms), ({}, constant.terms)],
                            spec, (), None)
    stage_ring(spec, 4)
    assert asked == [1 + 8, 1 + 3, 1 + 0, 1 + 2 + 0]  # x^3 + (p + u) x + p and y^4

    def full(self, products):  # every slot full: a product must not reach canon
        raise InternalInconsistency(f"{products} products per slot overflow")

    monkeypatch.setattr(CoeffRingSpec, "check_room", full)
    for a, b in ((single, dense), (single.rename(("x",), None), three), (constant, constant)):
        with pytest.raises(InternalInconsistency, match="^1 products per slot overflow$"):
            a * b


@pytest.mark.parametrize("spec", SPECS, ids=["Z", "p2N5", "p3N3D3", "p2N8D6"])
def test_slot_room_overflow_names_the_precision(spec):
    # called with the least S that has D*S >= 2^32; no such series is built
    least = -(-(1 << 32) // spec.width)
    spec.check_room(least - 1)
    with pytest.raises(InternalInconsistency) as err:
        spec.check_room(least)
    assert f"p={spec.p}, N={spec.p_precision}, D={spec.u_degree_cap}" in str(err.value)


def test_subst_refuses_a_constant_term_under_a_cap():
    spec = SPECS[1]
    f = raw_series(spec, 2, 6, {(0, 0): [3], (2, 0): [1]})  # y only to the power 0
    x, one_plus_x = (raw_series(spec, 1, 6, r) for r in ({(1,): [1]}, {(0,): [1], (1,): [1]}))
    with pytest.raises(NonNilpotentArgument, match="image of x has a nonzero constant term"):
        f.subst({"x": one_plus_x, "y": x})
    # an image raised only to the power 0 may have one
    images = {"x": x, "y": one_plus_x}
    assert f.subst(images) == series_oracle.subst(f, images)
    # without a cap the images are polynomials and any constant term is fine
    g, polynomial = f.rename(f.variables, None), one_plus_x.rename(("x",), None)
    images = {"x": polynomial, "y": polynomial}
    assert g.subst(images) == series_oracle.subst(g, images)


def termwise(a: TruncSeries, b: TruncSeries, op) -> TruncSeries:
    """a op b by one ``coeff_oracle`` operation on the coefficient tuples of each
    monomial of either side (zeros dropped)."""
    spec = a.spec
    return TruncSeries(spec, a.variables, a.cap, {
        e: CoeffElem(spec, op(spec, a.coefficient(e).terms, b.coefficient(e).terms))
        for e in a.terms | b.terms})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rings(), st.data())
def test_series_ring_axioms(ring, data):
    spec, nvars, cap = ring
    a, b, c = (raw_series(spec, nvars, cap, data.draw(raw_terms(spec, nvars, 5)))
               for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a and a - a == TruncSeries.zero(spec, a.variables, cap)
    assert a - b == a + (-b)
    # sums and differences of stored ints against tuple arithmetic
    assert a + b == termwise(a, b, coeff_oracle.add)
    assert a - b == termwise(a, b, coeff_oracle.sub)


def stage_ring(spec, t) -> FiniteAlgebra:
    """A[y]/(y^t) over A = E0[x]/(x^3 + (p + u) x + p), u left out without u."""
    p = spec.p
    rel1 = raw_series(spec, 2, None, {(3, 0): [1], (1, 0): [p, 1][:spec.width], (0, 0): [p]})
    rel2 = raw_series(spec, 2, None, {(0, t): [1]})
    return FiniteAlgebra(spec, NAMES[:2], [rel1, rel2], (3, t), label="A[y]/(y^T)")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(SPECS), st.data())
def test_stage_ring_mul_axioms(spec, data):
    ring = stage_ring(spec, 4)
    a, b, c = (ring.reduce(raw_series(spec, 2, None, data.draw(raw_terms(spec, 2, 5))))
               for _ in range(3))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(a, b + c) == ring.mul(a, b) + ring.mul(a, c)
    assert ring.mul(ring.one(), a) == a


def stored(f: TruncSeries) -> TruncSeries:
    """f, after checking that every stored value is a nonzero int in the stored form."""
    pack, unpack = f.spec.pack, f.spec.unpack
    assert all(type(v) is int and v and pack(unpack(v)) == v for v in f.terms.values())
    return f


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rings(), st.data())
def test_stored_int_arithmetic_matches_the_oracles(ring, data):
    # sums, differences and negation by canon(a + b), canon(a + bias - b) and
    # canon(bias - a); products, scale, subst and reduce on stored ints
    spec, nvars, cap = ring
    a, b = (stored(raw_series(spec, nvars, cap, data.draw(raw_terms(spec, nvars))))
            for _ in range(2))
    zero = TruncSeries.zero(spec, a.variables, cap)
    add, sub = coeff_oracle.add, coeff_oracle.sub  # not operator's: no stored-int arithmetic
    assert stored(a + b) == termwise(a, b, add)
    assert stored(a - b) == termwise(a, b, sub) and stored(b - a) == termwise(b, a, sub)
    assert stored(-a) == termwise(zero, a, sub)
    assert stored(a * b) == series_oracle.mul(a, b)
    c = CoeffElem(spec, data.draw(raw_terms(spec, 1, 1, 1)).popitem()[1])
    assert stored(a.scale(c)) == series_oracle.series(a, {
        e: coeff_oracle.mul(spec, x.terms, c.terms) for e, x in a.sorted_terms()})
    images = {v: raw_series(spec, nvars, cap, data.draw(image_terms(spec, nvars, cap, "dense", 3)))
              for v in a.variables}
    assert stored(a.subst(images)) == series_oracle.subst(a, images)
    algebra, f = stage_ring(spec, 4), raw_series(spec, 2, None, data.draw(raw_terms(spec, 2, 8)))
    assert stored(algebra.reduce(f)) == algebra_oracle.reduce(algebra, f)


# -- every product of two suite jobs against the oracle -----------------------

SUITE = pathlib.Path(__file__).resolve().parent.parent / "suite"
# each job with the kernel shapes it reaches: (variables, capped), 2 for two or more
CROSS_CHECKED = [
    ({"command": "check-axioms", "law": "lubinTate2", "p": 2, "pprec": 8, "udeg": 6,
      "trunc": 12}, {(2, True)}),
    ({"command": "prepare", "law": "lubinTate2", "p": 2, "M": 1, "pprec": 8, "udeg": 6,
      "trunc": 20}, {(1, True), (1, False)}),
    ({"command": "delta-check", "ring": "Z[t]; psi t -> t^3; p 3", "samples": 200, "seed": 7},
     {(1, False)}),
    ({"command": "level", "law": "lubinTate2", "p": 2, "type": "1,1", "pprec": 3, "udeg": 2,
      "trunc": 24}, {(1, True), (1, False), (2, False)}),
    ({"command": "delta-check", "ring": "Z; psi id; p 2", "samples": 200, "seed": 7},
     {(0, False)}),
]


def test_the_cross_checked_jobs_reach_every_kernel_shape():
    reached = set().union(*(shapes for _, shapes in CROSS_CHECKED))
    assert reached == set(itertools.product((1, 2), (True, False))) | {(0, False)}


@pytest.mark.parametrize("job, shapes", CROSS_CHECKED,
                         ids=[job["command"] for job, _ in CROSS_CHECKED])
def test_suite_job_products_match_oracle(job, shapes, monkeypatch):
    # the hook sits on the packed kernel that both __mul__ and subst sum into
    assert job in json.loads((SUITE / "default.json").read_text())
    kernel, products, sums, reached = series._sum_of_products, [], [], set()

    def checked(pairs, spec, variables, cap):
        got = kernel(pairs, spec, variables, cap)
        expected = TruncSeries.zero(spec, variables, cap)
        for a, b in pairs:
            expected = expected + series_oracle.mul(
                TruncSeries(spec, variables, cap, a, _clean=True),
                TruncSeries(spec, variables, cap, b, _clean=True))
        assert got == expected
        products.extend(pairs)
        sums.append(got)
        reached.add((min(len(variables), 2), cap is not None))
        return got

    monkeypatch.setattr(series, "_sum_of_products", checked)
    record = run_job(dict(job))
    assert len(products) > 100 and any(not f.is_zero() for f in sums)
    assert reached == shapes
    assert record["digest"] in json.loads((SUITE / "baseline.json").read_text())

import functools
import itertools
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import algebra_oracle
import series_oracle

from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.errors import (
    InternalInconsistency,
    ModeError,
    NonConvergence,
    NonExactDivision,
    RelationNotKilled,
    TruncationTooSmall,
    UnsupportedGroupType,
)
from fgl.grouprings import (
    AbelianPType,
    AlgebraMap,
    FiniteAlgebra,
    _denominator_product,
    character_sums,
    group_cohomology_ring,
    level_ring,
    quotient_to_level,
    restriction_map,
)
from fgl.laws import honda_law, lubin_tate_height2_law, multiplicative_law
from fgl.series import TruncSeries
from fgl.weierstrass import divide

ZX2 = CoeffRingSpec(p=2, p_precision=None)
ZX3 = CoeffRingSpec(p=3, p_precision=None)
Z16 = CoeffRingSpec(p=2, p_precision=4)
# precision chosen so every triangular division is exact: the maximal ideal
# has nilpotency degree N+D-1 = 4, so x1^12 = 0 in the stage-1 quotient and a
# cap of 24 pushes all truncation tails to zero
LT2_SMALL = CoeffRingSpec(p=2, p_precision=3, deformation_params=1, u_degree_cap=2)


def shifted_cyclotomic(order: int) -> dict[int, int]:
    """Oracle: integer coefficients of Phi_order(1 + x), via sympy."""
    x = sympy.symbols("x")
    poly = sympy.expand(sympy.cyclotomic_poly(order, 1 + x))
    out = {}
    for k in range(sympy.degree(poly, x) + 1):
        c = int(poly.coeff(x, k))
        if c:
            out[k] = c
    return out


def series_terms(s: TruncSeries) -> dict[int, int]:
    return {expo[0]: c.constant_part() for expo, c in s.sorted_terms()}


def test_abelian_p_type_validation():
    with pytest.raises(UnsupportedGroupType):
        AbelianPType(())
    with pytest.raises(UnsupportedGroupType):
        AbelianPType((0,))
    with pytest.raises(UnsupportedGroupType):
        AbelianPType((1, 2))
    t = AbelianPType.parse("2,1,1")
    assert t.rank == 3 and t.order_exponent == 4 and t.order(2) == 16
    for text, reason in (("0", "cyclic factors need exponent >= 1"),
                         ("1,2", "exponents must be sorted descending")):
        # parsed text is user input: the constructor's refusal becomes a usage error
        with pytest.raises(ValueError, match=f"^group type '{text}': {reason}$"):
            AbelianPType.parse(text)


def test_group_ring_c2_multiplicative():
    law = multiplicative_law(ZX2, 6)
    alg = group_cohomology_ring(law, AbelianPType((1,)))
    assert alg.rank == 2
    assert series_terms(alg.relations[0]) == {1: 2, 2: 1}


def test_group_ring_rank_p_power():
    for spec, p in ((ZX2, 2), (ZX3, 3)):
        for m in (1, 2):
            law = multiplicative_law(spec, p ** m + 2)
            alg = group_cohomology_ring(law, AbelianPType((m,)))
            assert alg.rank == p ** m


def test_group_ring_height2_rank():
    law = lubin_tate_height2_law(LT2_SMALL, 8)
    alg = group_cohomology_ring(law, AbelianPType((1,)))
    assert alg.rank == 4  # p^2 at height 2


def test_group_ring_truncation_guard():
    law = multiplicative_law(ZX2, 6)
    with pytest.raises(TruncationTooSmall):
        group_cohomology_ring(law, AbelianPType((3,)))


def test_reduce_element_examples():
    law = multiplicative_law(ZX2, 6)
    alg = group_cohomology_ring(law, AbelianPType((1,)))  # Z[x]/(x^2 + 2x)
    x = alg.var(0)
    sq = alg.reduce(x * x)
    assert alg.integer_coordinates(sq) == [0, -2]
    assert alg.reduce(alg.relations[0]).is_zero()
    assert alg.reduce(alg.one()) == alg.one()


def test_algebra_multiplication_associative_commutative():
    rng = random.Random(41)
    law = multiplicative_law(ZX3, 12)
    alg = group_cohomology_ring(law, AbelianPType((2,)))
    basis = alg.basis()
    for _ in range(50):
        elems = []
        for _ in range(3):
            terms = {}
            for expo in rng.sample(basis, k=3):
                terms[expo] = CoeffElem.from_int(ZX3, rng.randrange(-9, 10))
            elems.append(TruncSeries(ZX3, alg.variables, None, terms))
        a, b, c = elems
        assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))
        assert alg.mul(a, b) == alg.mul(b, a)


def test_level_ring_is_shifted_cyclotomic():
    # oracle: independent cyclotomic expansion Phi_{p^m}(1 + x)
    for spec, p in ((ZX2, 2), (ZX3, 3)):
        for m in (1, 2, 3):
            law = multiplicative_law(spec, p ** m + 2)
            alg = level_ring(law, AbelianPType((m,)))
            expected = shifted_cyclotomic(p ** m)
            assert series_terms(alg.relations[0]) == expected
            assert alg.rank == p ** m - p ** (m - 1)


def test_level_ring_height2_cyclic():
    law = lubin_tate_height2_law(LT2_SMALL, 8)
    alg = level_ring(law, AbelianPType((1,)))
    assert alg.rank == 2 ** 2 - 1 == 3


def test_level_ring_height2_elementary_abelian():
    law = lubin_tate_height2_law(LT2_SMALL, 24)
    alg = level_ring(law, AbelianPType((1, 1)))
    assert alg.rank == (2 ** 2 - 1) * (2 ** 2 - 2) == 6
    assert alg.lead_degrees == (3, 2)


def test_level_ring_rejects_rank_above_height():
    law = multiplicative_law(ZX2, 8)
    with pytest.raises(UnsupportedGroupType):
        level_ring(law, AbelianPType((1, 1)))


def test_level_ring_rejects_mixed_types():
    law = lubin_tate_height2_law(LT2_SMALL, 24)
    with pytest.raises(UnsupportedGroupType):
        level_ring(law, AbelianPType((2, 1)))


def test_quotient_to_level_multiplicative():
    for spec, p in ((ZX2, 2), (ZX3, 3)):
        for m in (1, 2):
            law = multiplicative_law(spec, p ** m + 2)
            qmap = quotient_to_level(law, AbelianPType((m,)))
            assert qmap.source.rank == p ** m
            assert qmap.target.rank == p ** m - p ** (m - 1)
            for rel in qmap.source.relations:
                assert qmap.apply(rel).is_zero()


def test_quotient_to_level_height2():
    law = lubin_tate_height2_law(LT2_SMALL, 24)
    for gtype in (AbelianPType((1,)), AbelianPType((1, 1))):
        qmap = quotient_to_level(law, gtype)
        for rel in qmap.source.relations:
            assert qmap.apply(rel).is_zero()


def test_restriction_c2_in_c4():
    law = multiplicative_law(ZX2, 8)
    maps = restriction_map(law, 1, 2)
    res = maps["restriction"]
    assert res.source.rank == 4 and res.target.rank == 2
    # x -> x is well-defined because [4](x) dies in Z[x]/([2](x))
    assert res.apply(res.source.var(0)) == res.target.var(0)


def test_inflation_c4_onto_c2():
    law = multiplicative_law(ZX2, 8)
    inf = restriction_map(law, 1, 2)["inflation"]
    assert inf.source.rank == 2 and inf.target.rank == 4
    image = inf.images["x1"]
    assert series_terms(image) == {1: 2, 2: 1}  # [2](x) = x^2 + 2x


def test_restriction_identity():
    law = multiplicative_law(ZX2, 8)
    maps = restriction_map(law, 2, 2)
    ident = maps["restriction"]
    assert ident.apply(ident.source.var(0)) == ident.source.var(0)


def test_restriction_rejects_distant_pairs():
    law = multiplicative_law(ZX2, 20)
    with pytest.raises(UnsupportedGroupType):
        restriction_map(law, 1, 3)


def test_divisibility_shadow_order_p_points():
    # each stage's denominator divides [p](x_j) exactly; re-verify the
    # stage-2 division of the elementary abelian case by remultiplying
    law = lubin_tate_height2_law(LT2_SMALL, 24)
    alg = level_ring(law, AbelianPType((1, 1)))
    # relation g2 is monic of degree 2 in x2 over the stage-1 quotient;
    # multiplying back by the denominator must land in the ideal of [2](x2):
    # equivalently, [2](x2) reduces to zero in the full level algebra
    two = law.n_series(2)
    x2 = TruncSeries.variable(LT2_SMALL, alg.variables, law.cap, "x2")
    two_at_x2 = two.subst({"x": x2})
    assert alg.reduce(two_at_x2).is_zero()


def random_element(alg, rng) -> TruncSeries:
    terms = {expo: CoeffElem.from_int(alg.spec, rng.randrange(-9, 10))
             for expo in rng.sample(alg.basis(), k=min(3, alg.rank))}
    return TruncSeries(alg.spec, alg.variables, None, terms)


def assert_walks_match_products(alg, rng):
    # oracle: one full product and reduction per basis monomial; the CoeffElem
    # walk must match it, and the integer walk the CoeffElem walk
    last = alg.var(len(alg.variables) - 1)
    unreduced = last * last * last * random_element(alg, rng)
    for f in (alg.one(), last, random_element(alg, rng), unreduced):
        expected = []
        for b in alg.basis():
            mono = TruncSeries(alg.spec, alg.variables, None, {b: CoeffElem.one(alg.spec)})
            expected.append(algebra_oracle.coordinates(alg, alg.mul(f, mono)))
        columns = algebra_oracle.multiplication_columns(alg, f)
        assert columns == expected
        if alg.spec.width > 1:
            with pytest.raises(ModeError):
                alg.integer_matrix(f)
            continue
        ints = [[c.constant_part() for c in col] for col in columns]
        assert alg.integer_matrix(f) == [list(row) for row in zip(*ints)]
        assert alg.integer_coordinates(f) == ints[0]


def test_integer_matrix_on_ambient_rings():
    rng = random.Random(5)
    for spec, p, gtype in ((ZX2, 2, (3,)), (ZX3, 3, (2,)), (ZX2, 2, (1, 1)), (Z16, 2, (2,))):
        law = multiplicative_law(spec, p ** max(gtype) + 2)
        assert_walks_match_products(group_cohomology_ring(law, AbelianPType(gtype)), rng)


def test_integer_matrix_on_triangular_level_rings():
    # the u rings check the CoeffElem walk alone; honda height 2 over F_p has
    # triangular level rings of width 1, where the integer walk runs too
    rng = random.Random(6)
    laws = [lubin_tate_height2_law(LT2_SMALL, 24),
            honda_law(CoeffRingSpec(p=2, p_precision=1), 2, 12),
            honda_law(CoeffRingSpec(p=3, p_precision=1), 2, 20)]
    for law in laws:
        for gtype in (AbelianPType((1,)), AbelianPType((1, 1))):
            assert_walks_match_products(level_ring(law, gtype), rng)


def test_character_sums_order_and_values():
    # oracle: an explicit left fold of formal sums from zero, per index tuple
    for law, orders in ((multiplicative_law(ZX3, 8), (3, 2)),
                        (lubin_tate_height2_law(LT2_SMALL, 8), (2, 2))):
        variables = ("x1", "x2")
        xs = [TruncSeries.variable(law.spec, variables, law.cap, v) for v in variables]
        sums = character_sums(law, variables, list(orders))
        assert len(sums) == orders[0] * orders[1]
        assert sums[0].is_zero()
        for combo, got in zip(itertools.product(*map(range, orders)), sums, strict=True):
            expected = TruncSeries.zero(law.spec, variables, law.cap)
            for x, a in zip(xs, combo):
                expected = law.formal_sum(expected, law.n_series(a).subst({"x": x}))
            assert got == expected


def test_non_monic_relation_is_internal_inconsistency():
    spec = CoeffRingSpec(p=2, p_precision=4)
    rel = TruncSeries(spec, ("x",), None, {(1,): CoeffElem.one(spec),
                                           (2,): CoeffElem.from_int(spec, 2)})
    with pytest.raises(InternalInconsistency) as info:
        FiniteAlgebra(spec, ("x",), [rel], (2,), label="Level(1)")
    assert "Level(1)" in str(info.value) and "p=2, N=4" in str(info.value)


def test_adjoin_builds_stage_rings_and_renames_relations():
    stage = FiniteAlgebra(ZX3, (), [], ()).adjoin("x", 5)
    x = stage.var(0)
    assert (stage.variables, stage.lead_degrees, stage.rank) == (("x",), (5,), 5)
    assert stage.relations == [x * x * x * x * x]
    assert stage.reduce(x * x * x * x * x * x).is_zero()
    law = lubin_tate_height2_law(LT2_SMALL, 24)
    level = level_ring(law, AbelianPType((1,)))
    ring = level.adjoin("x2", 24)
    assert ring.variables == ("x1", "x2") and ring.lead_degrees == level.lead_degrees + (24,)
    assert ring.relations[0] == level.relations[0].rename(ring.variables, None)
    # the stage-2 relation, given in x1, x2, completes the (1,1) level ring
    full = level_ring(law, AbelianPType((1, 1)))
    assert level.adjoin("x2", 2, full.relations[1]).relations == full.relations
    # a relation in x2 alone is renamed into (x1, x2)
    two = CoeffElem.from_int(LT2_SMALL, 2)
    rel = TruncSeries(LT2_SMALL, ("x2",), None, {(3,): CoeffElem.one(LT2_SMALL), (0,): two})
    assert level.adjoin("x2", 3, rel).relations[1] == rel.rename(ring.variables, None)


@pytest.mark.parametrize("rel1, rel2, bad", [
    ({(2, 0): 1, (0, 1): 1}, {(0, 3): 1}, 1),  # relation 1 mentions the later x2
    ({(2, 0): 1, (3, 0): 2}, {(0, 3): 1}, 1),  # a term above the lead x1^2
    ({(2, 0): 1, (0, 0): 2}, {(0, 3): 1, (1, 3): 1}, 2),  # x1 x2^3 beside the lead x2^3
], ids=["later-variable", "above-lead", "beside-lead"])
def test_relation_outside_the_triangular_shape_is_internal_inconsistency(rel1, rel2, bad):
    spec = CoeffRingSpec(p=2, p_precision=4)
    rels = [TruncSeries(spec, ("x1", "x2"), None,
                        {e: CoeffElem.from_int(spec, c) for e, c in rel.items()})
            for rel in (rel1, rel2)]
    with pytest.raises(InternalInconsistency) as info:
        FiniteAlgebra(spec, ("x1", "x2"), rels, (2, 3), label="bad")
    assert f"bad: relation {bad}" in str(info.value)
    assert "p=2, N=4, D=1" in str(info.value)


@functools.cache
def reduction_rings() -> dict[str, FiniteAlgebra]:
    lt2 = lubin_tate_height2_law(LT2_SMALL, 24)
    return {
        "ambient Z (2,1)": group_cohomology_ring(multiplicative_law(ZX2, 6), AbelianPType((2, 1))),
        "ambient lubinTate2 (1,1)": group_cohomology_ring(lt2, AbelianPType((1, 1))),
        "level lubinTate2 (1,1)": level_ring(lt2, AbelianPType((1, 1))),
        "stage A_1[x2]/(x2^24)": level_ring(lt2, AbelianPType((1,))).adjoin("x2", 24),
        "stage E0[x]/(x^8) over Z": FiniteAlgebra(ZX3, (), [], ()).adjoin("x", 8),
    }


@st.composite
def unreduced_elements(draw, alg: FiniteAlgebra, min_size: int = 0) -> TruncSeries:
    """``min_size`` to 6 terms at x_j-degrees up to twice the lead degrees."""
    hi = alg.spec.modulus or 10 ** 12
    expo = st.tuples(*[st.integers(0, 2 * d) for d in alg.lead_degrees])
    coeff = st.lists(st.integers(-hi, hi), min_size=1, max_size=alg.spec.width)
    terms = draw(st.dictionaries(expo, coeff, min_size=min_size, max_size=6))
    return TruncSeries(alg.spec, alg.variables, None,
                       {e: CoeffElem(alg.spec, c) for e, c in terms.items()})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(reduction_rings())), st.data())
def test_reduce_matches_the_rescanning_oracle(name, data):
    alg = reduction_rings()[name]
    a, b = data.draw(unreduced_elements(alg)), data.draw(unreduced_elements(alg))
    for f in (a, a * b):
        assert alg.reduce(f) == algebra_oracle.reduce(alg, f)


Z9 = CoeffRingSpec(p=3, p_precision=2)
Z9U3 = CoeffRingSpec(p=3, p_precision=2, deformation_params=1, u_degree_cap=3)


def tail_ranges(degrees, j):
    """Exponent bounds of the tail of relation j: x_j below its lead degree, the
    earlier variables up to one above theirs, the later ones absent."""
    return [d + 2 for d in degrees[:j]] + [degrees[j]] + [1] * (len(degrees) - j - 1)


def triangular_algebra(spec, degrees, tails) -> FiniteAlgebra:
    """Relation j is x_j^(d_j) plus tails[j], a dict exponent -> coefficient list."""
    variables = tuple(f"x{i + 1}" for i in range(len(degrees)))
    relations = []
    for j, (d, tail) in enumerate(zip(degrees, tails)):
        lead = tuple(d if i == j else 0 for i in range(len(degrees)))
        relations.append(TruncSeries(spec, variables, None, {
            e: CoeffElem(spec, c) for e, c in {**tail, lead: [1]}.items()}))
    return FiniteAlgebra(spec, variables, relations, tuple(degrees))


@st.composite
def triangular_cases(draw, spec):
    """Up to 3 variables of lead degree up to 3, up to 5 tail terms a relation,
    and the product of two nonzero unreduced elements."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    coeff = st.lists(st.integers(-50, 50), min_size=1, max_size=spec.width)
    tails = [draw(st.dictionaries(st.tuples(*[st.integers(0, n - 1) for n in
                                              tail_ranges(degrees, j)]), coeff, max_size=5))
             for j in range(len(degrees))]
    alg = triangular_algebra(spec, degrees, tails)
    return alg, draw(unreduced_elements(alg, 1)) * draw(unreduced_elements(alg, 1))


def slot_bound_case(spec, degrees):
    """The case the slot width is proved for: every tail holds every monomial
    its relation allows, and -tail and the element, dense up to twice the lead
    degrees, have p^N - 1 in every u-slot."""
    tails = [dict.fromkeys(itertools.product(*map(range, tail_ranges(degrees, j))),
                           [1] * spec.width) for j in range(len(degrees))]
    alg = triangular_algebra(spec, degrees, tails)
    top = CoeffElem(spec, [spec.modulus - 1] * spec.width)
    dense = itertools.product(*[range(2 * d + 1) for d in degrees])
    return alg, TruncSeries(spec, alg.variables, None, dict.fromkeys(dense, top))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from([ZX3, Z9, Z9U3]).flatmap(triangular_cases))
@example(slot_bound_case(Z9, (3, 3)))
@example(slot_bound_case(Z9U3, (3,)))
@example(slot_bound_case(Z9U3, (3, 2, 2)))
def test_reduce_on_triangular_algebras_matches_the_rescanning_oracle(case):
    # over Z, Z/p^N and Z/p^N[u]/(u^D); the examples are the worst case of the slot proof
    alg, f = case
    assert alg.reduce(f) == algebra_oracle.reduce(alg, f)


@functools.cache
def one_variable_rings() -> dict[str, FiniteAlgebra]:
    return {
        "ambient Z C_27": group_cohomology_ring(multiplicative_law(ZX3, 31), AbelianPType((3,))),
        "ambient Z/16 C_4": group_cohomology_ring(multiplicative_law(Z16, 6), AbelianPType((2,))),
        "ambient lubinTate2 C_2": group_cohomology_ring(lubin_tate_height2_law(LT2_SMALL, 24),
                                                        AbelianPType((1,))),
        "level Z C_9": level_ring(multiplicative_law(ZX3, 13), AbelianPType((2,))),
        "stage E0[x]/(x^8) over Z": FiniteAlgebra(ZX3, (), [], ()).adjoin("x", 8),
        "stage E0[x]/(x^12) over Z/9": FiniteAlgebra(Z9, (), [], ()).adjoin("x", 12),
        "stage E0[x]/(x^20) over Z/9[u]/(u^3)": FiniteAlgebra(Z9U3, (), [], ()).adjoin("x", 20),
    }


@st.composite
def one_variable_elements(draw, alg: FiniteAlgebra) -> TruncSeries:
    """The coefficients of 1, x, ..., x^top for a top up to 2d, some zero."""
    hi = alg.spec.modulus or 10 ** 12
    coeff = st.lists(st.integers(-hi, hi), min_size=1, max_size=alg.spec.width)
    size = draw(st.integers(0, 2 * alg.lead_degrees[0] + 1))
    coeffs = draw(st.lists(st.just([0]) | coeff | coeff | coeff, min_size=size, max_size=size))
    return TruncSeries(alg.spec, alg.variables, None,
                       {(e,): CoeffElem(alg.spec, c) for e, c in enumerate(coeffs)})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(one_variable_rings())), st.data())
def test_sweep_in_one_variable_matches_the_oracles(name, data):
    # over Z, Z/p^N and Z/p^N[u]/(u^D): the sweep, one dense row in one variable,
    # against the rescanning reduction, through reduce, mul and, without u, both
    # integer walks; the oracle's column a x^(k+1) is its reduction of x times column a x^k
    alg = one_variable_rings()[name]
    a, b = (data.draw(one_variable_elements(alg)) for _ in range(2))
    column = algebra_oracle.reduce(alg, a)
    assert alg.reduce(a) == column
    assert alg.mul(a, b) == algebra_oracle.reduce(alg, series_oracle.mul(a, b))
    if alg.spec.width == 1:
        ints = []
        for _ in range(alg.rank):
            ints.append([column.coefficient(e).constant_part() for e in alg.basis()])
            column = algebra_oracle.reduce(alg, series_oracle.mul(column, alg.var(0)))
        assert alg.integer_coordinates(a) == ints[0]
        assert alg.integer_matrix(a) == [list(row) for row in zip(*ints)]


def test_unkilled_relation_names_map_index_and_precision():
    ring = group_cohomology_ring(multiplicative_law(ZX2, 6), AbelianPType((2,)))
    # x1 -> 1 sends [4](x1) = (1 + x1)^4 - 1 to 15
    with pytest.raises(RelationNotKilled) as info:
        AlgebraMap(ring, ring, {"x1": ring.one()}, label="x1 -> 1")
    message = str(info.value)
    assert "x1 -> 1" in message and "relation 1" in message and "p=2, N=None, D=1" in message


def formal_inverse_denominator(law, ring: FiniteAlgebra) -> TruncSeries:
    """Slow path: prod of (x_j -_F s) over the character sums s, each factor
    through ``formal_inverse``, multiplied at total degree T, then reduced."""
    cap, spec, variables = law.cap, law.spec, ring.variables
    xj = TruncSeries.variable(spec, variables, cap, variables[-1])
    out = TruncSeries.one(spec, variables, cap)
    for s in character_sums(law, variables, [spec.p] * (len(variables) - 1)):
        out = out * law.formal_sum(xj, law.formal_inverse(s))
    return ring.reduce(out)


@pytest.mark.parametrize("p, pprec, udeg, cap", [(2, 3, 2, 24), (2, 4, 2, 30), (3, 2, 2, 24)])
def test_denominator_is_the_formal_inverse_one_up_to_a_unit(p, pprec, udeg, cap):
    spec = CoeffRingSpec(p=p, p_precision=pprec, deformation_params=1, u_degree_cap=udeg)
    law = lubin_tate_height2_law(spec, cap)
    ring = level_ring(law, AbelianPType((1,))).adjoin("x2", cap)
    fast = _denominator_product(law, ring)
    slow = formal_inverse_denominator(law, ring)
    q, r = divide(slow, fast, ring)
    assert r.is_zero()
    assert ring.mul(q, fast) == slow
    assert q.coefficient((0, 0)).is_unit()


def counted_products(monkeypatch) -> list:
    calls = []
    mul = FiniteAlgebra.mul

    def counting(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteAlgebra, "mul", counting)
    return calls


def test_inversion_of_a_non_nilpotent_part_stops_at_the_proved_bound(monkeypatch):
    # in Z[x]/(x^2 + 2x), 1 + x has w = -x with x^k = (-2)^(k-1) x, never 0;
    # a nilpotent w of a rank-2 algebra over Z has w^2 = 0, so 2 products suffice
    rel = TruncSeries(ZX2, ("x",), None, {(2,): CoeffElem.one(ZX2),
                                          (1,): CoeffElem.from_int(ZX2, 2)})
    alg = FiniteAlgebra(ZX2, ("x",), [rel], (2,))
    calls = counted_products(monkeypatch)
    with pytest.raises(NonConvergence):
        alg.invert_element(alg.one() + alg.var(0))
    assert len(calls) == 2


def test_inversion_bound_is_reached_by_a_unit(monkeypatch):
    # in Z/8[x]/(x^2 - 2), w = -x has w^5 = 4x != 0 and w^6 = 8 = 0: the bound
    # rank (N + D - 1) = 6 is tight
    spec = CoeffRingSpec(p=2, p_precision=3)
    rel = TruncSeries(spec, ("x",), None, {(2,): CoeffElem.one(spec),
                                           (0,): CoeffElem.from_int(spec, -2)})
    alg = FiniteAlgebra(spec, ("x",), [rel], (2,))
    f = alg.one() + alg.var(0)
    calls = counted_products(monkeypatch)
    inv = alg.invert_element(f)
    assert len(calls) == 6
    assert alg.mul(inv, f) == alg.one()

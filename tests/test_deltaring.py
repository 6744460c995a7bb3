import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle
from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.deltaring import (
    DeltaRing,
    SheafValue,
    _power,
    congruence_check,
    cyclic_chains,
    elementary_rank2_chains,
    frobenius_chain_check,
    parse_delta_ring,
    sheaf_eval,
)
from fgl.errors import NotAFrobeniusLift, NotDivisible
from fgl.series import TruncSeries


# two generators whose images are not monomials, one of them with a constant term
TWO_GENERATOR_RINGS = (
    "Z[s, t]; psi s -> s^2 + 2*t; psi t -> t^2 - 2*s*t; p 2",
    "Z[s, t]; psi s -> s^3 + 3*t; psi t -> t^3 - 3*s*t + 3; p 3",
)


def make_z(p: int) -> DeltaRing:
    return DeltaRing((), {}, p)


def make_zt(p: int) -> DeltaRing:
    spec = CoeffRingSpec(p=p, p_precision=None)
    t = TruncSeries.variable(spec, ("t",), None, "t")
    tp = t
    for _ in range(p - 1):
        tp = tp * t
    return DeltaRing(("t",), {"t": tp}, p)


def test_integers_with_identity_psi():
    ring = make_z(2)
    assert ring.delta(ring.constant(2)) == ring.constant(-1)  # (2 - 4)/2
    assert ring.delta(ring.constant(1)).is_zero()


def test_polynomial_ring_with_t_to_tp():
    ring = make_zt(3)
    t = ring.var("t")
    assert ring.delta(t).is_zero()  # (t^3 - t^3)/3
    assert ring.delta(t * t).is_zero()


def test_frobenius_lift_validation():
    spec = CoeffRingSpec(p=2, p_precision=None)
    t = TruncSeries.variable(spec, ("t",), None, "t")
    one = TruncSeries.one(spec, ("t",), None)
    with pytest.raises(NotAFrobeniusLift):
        DeltaRing(("t",), {"t": t + one}, 2)  # t + 1 != t^2 mod 2


def test_delta_of_a_non_lift_is_not_divisible():
    ring = make_zt(3)
    t = ring.var("t")
    assert ring.delta(ring.constant(6)) == ring.constant(-70)  # (6 - 216) / 3
    ring.psi_images = {"t": t * t}  # t^2 is not t^3 mod 3; the constructor refuses it
    with pytest.raises(NotDivisible, match="is not divisible by 3"):
        ring.delta(t)  # (t^2 - t^3) / 3
    assert ring.check_axioms([(t, t)])["failures"] == ["pair 0: frobenius lift"]


def test_the_dividing_rules_refuse_an_inexact_division():
    # psi(a b) one off a lift, with a and b lifts: the product rule's division is not exact
    ring = make_zt(2)
    a, b = ring.var("t"), ring.var("t") + ring.constant(1)
    psi, ab = ring.psi, a * b
    ring.psi = lambda x: psi(x) + ring.constant(1) if x == ab else psi(x)
    with pytest.raises(NotDivisible, match="not divisible by 2"):
        ring.check_axioms([(a, b)])


def test_sum_rule_at_one_one():
    # delta(2) = 2 delta(1) + (2 - 2^p)/p
    for p in (2, 3):
        ring = make_z(p)
        expected = (2 - 2 ** p) // p
        assert ring.delta(ring.constant(2)) == ring.constant(expected)


def test_axioms_on_random_samples():
    rng = random.Random(59)
    for p in (2, 3):
        for ring in (make_z(p), make_zt(p)):
            pairs = [
                (ring.random_element(rng), ring.random_element(rng))
                for _ in range(200)
            ]
            report = ring.check_axioms(pairs)
            assert report["passed"], report["failures"][:3]
            assert report["checked"] == 200


def test_axioms_trivial_samples():
    ring = make_zt(2)
    zero = ring.constant(0)
    one = ring.constant(1)
    assert ring.check_axioms([(zero, zero)])["passed"]
    assert ring.check_axioms([(one, one)])["passed"]


def test_non_lift_pair_records_frobenius_lift_and_skips_the_dividing_rules():
    ring = parse_delta_ring("Z[t]; psi t -> t^2; p 2")
    t = ring.var("t")
    assert ring.psi(t * t * t) == _power(t, 6)  # fills the power table of the old image
    ring.psi_images["t"] = t * t + t  # not t^2 mod 2; the constructor refuses it
    report = ring.check_axioms([(ring.constant(1), ring.constant(1)), (t, ring.constant(1))])
    assert report == {"passed": False, "checked": 2, "failures": ["pair 1: frobenius lift"]}


@pytest.mark.parametrize("text, clause, reason", [
    ("Z[t]; psi t -> t^^2; p 2", "psi t -> t^^2", "'t^^2' is not a polynomial expression"),
    ("Z[t]; psi t -> t^2.7; p 2", "psi t -> t^2.7", "2.7 is not an integer literal"),
    ("Z[t]; psi t -> 2.5*t; p 2", "psi t -> 2.5*t", "2.5 is not an integer literal"),
    ("Z[t]; psi t -> t^True; p 2", "psi t -> t^True", "True is not an integer literal"),
    ("Z[t]; psi t; p 2", "psi t", "expected 'psi <generator> -> <image>'"),
    ("Z[t]; psi t -> t^2; psi s -> 5; p 2", "psi s -> 5", "'s' is not a generator of Z[t]"),
    ("Z[t]; psi t -> t^2; psi t -> t^2 + 2; p 2", "psi t -> t^2 + 2",
     "a second psi clause for t"),
    ("Z[t]; phi t -> t^2; p 2", "phi t -> t^2", "expected 'p <prime>' or 'psi ...'"),
    ("Z[t]; psi t -> t^2; p x", "p x", "'x' is not an integer"),
    ("Z[t]; psi t -> t^2; p 2.0", "p 2.0", "'2.0' is not an integer"),
    ("Z[t]; psi t -> t^2; p 2; p 3", "p 3", "a second p clause after 'p 2'"),
    *[(head + "; p 2", head, "expected 'Z' or 'Z[g1, ..., gk]' with distinct generator names")
      for head in ("Zebra[t]", "Z[t", "Z[t]]", "Z[]", "Z[t,]", "Z[t, t]", "Z[2t]", "Q[t]",
                   "Z[if]", "Z[t, lambda]")],
])
def test_malformed_psi_clause_is_a_value_error_naming_it(text, clause, reason):
    with pytest.raises(ValueError) as info:
        parse_delta_ring(text)
    assert str(info.value) == f"clause {clause!r}: {reason}"


def test_parse_delta_ring():
    ring = parse_delta_ring("Z[t]; psi t -> t^2; p 2")
    t = ring.var("t")
    assert ring.psi(t) == t * t
    ring2 = parse_delta_ring("Z; psi id; p 3")
    assert ring2.generators == ()
    with pytest.raises(NotAFrobeniusLift):
        parse_delta_ring("Z[t]; psi t -> t + 1; p 2")


def test_sheaf_eval_r0_is_identity():
    ring = make_zt(2)
    sv = sheaf_eval(ring, 0)
    assert sv.generator_images["t"] == ring.var("t")


def test_sheaf_eval_r2_squares_twice():
    ring = make_zt(2)
    sv = sheaf_eval(ring, 2)
    t = ring.var("t")
    assert sv.generator_images["t"] == t * t * t * t  # t^(p^2)


def test_sheaf_eval_r40_is_one_monomial():
    # from the outside each step squares one monomial; psi applied 40 times from the
    # inside would need the powers of t^2 up to t^(2^39)
    ring = make_zt(2)
    assert sheaf_eval(ring, 40).generator_images["t"] == element(ring, {(2 ** 40,): 1})


def test_sheaf_composition_law_random_pairs():
    rng = random.Random(61)
    ring = make_zt(2)
    for _ in range(10):
        r1, r2 = rng.randrange(0, 4), rng.randrange(0, 4)
        sv1 = sheaf_eval(ring, r1)
        sv2 = sheaf_eval(ring, r2)
        direct = sheaf_eval(ring, r1 + r2)
        composed = sv1.compose(sv2)
        assert composed.frobenius_power == direct.frobenius_power
        for g in ring.generators:
            assert composed.generator_images[g] == direct.generator_images[g]


def test_sheaf_eval_height_one_identity():
    # over the height-1 exact base with r = 1 the assigned map is psi itself
    ring = make_zt(2)
    sv = sheaf_eval(ring, 1)
    for g in ring.generators:
        assert sv.generator_images[g] == ring.psi_images[g]


def test_congruence_check_char_p():
    rng = random.Random(67)
    for p in (2, 3):
        ring = make_zt(p)
        samples = [ring.random_element(rng) for _ in range(50)]
        assert congruence_check(sheaf_eval(ring, 1), samples)["passed"]
        assert congruence_check(sheaf_eval(ring, 2), samples)["passed"]


def test_congruence_check_integers_mod_2():
    ring = make_z(2)
    three = ring.constant(3)
    report = congruence_check(sheaf_eval(ring, 1), [three])
    assert report["passed"]  # 3 = 9 mod 2


def old_congruence_failures(value, samples):
    # oracle: a^(p^r) raised over Z, psi^r(a) minus it read mod p
    ring, failures = value.ring, []
    for i, a in enumerate(samples):
        diff = value(a) - _power(a, ring.p ** value.frobenius_power)
        bad = [expo for expo, c in diff.terms.items() if c % ring.p]
        failures += [f"sample {i} at monomial {bad[0]}"] if bad else []
    return failures


# psi^r is no exponent map on these rings, so they need the "mod p" of the check
NON_MONOMIAL_RINGS = ("Z[t]; psi t -> t^2 + 2*t; p 2", TWO_GENERATOR_RINGS[0])


@pytest.mark.parametrize("text", NON_MONOMIAL_RINGS)
def test_congruence_check_matches_the_power_over_z(text):
    ring = parse_delta_ring(text)
    rng = random.Random(71)
    samples = [ring.random_element(rng) for _ in range(8)]
    for r in (1, 2, 3):
        value = sheaf_eval(ring, r)
        report = congruence_check(value, samples)
        assert report["passed"] and report["failures"] == []
        assert old_congruence_failures(value, samples) == []
        assert (report["checked"], report["frobenius_power"]) == (len(samples), r)


@pytest.mark.parametrize("text", NON_MONOMIAL_RINGS)
def test_sheaf_value_matches_psi_applied_r_times(text):
    # the images built from the outside, against psi applied from the inside
    ring = parse_delta_ring(text)
    rng = random.Random(79)
    samples = [ring.random_element(rng) for _ in range(6)]
    for r in (0, 1, 2):
        value = sheaf_eval(ring, r)
        for a in samples:
            inside = a
            for _ in range(r):
                inside = ring.psi(inside)
            assert value(a) == inside


@pytest.mark.parametrize("text", NON_MONOMIAL_RINGS)
def test_congruence_check_names_a_planted_failure(text, monkeypatch):
    ring = parse_delta_ring(text)
    rng = random.Random(73)
    samples = [ring.random_element(rng) for _ in range(4)]
    values = [sheaf_eval(ring, r) for r in (1, 2)]  # built before the plant
    call = SheafValue.__call__
    monkeypatch.setattr(SheafValue, "__call__", lambda self, a: call(self, a) + ring.var("t"))
    t = tuple(int(g == "t") for g in ring.generators)
    for value in values:
        report = congruence_check(value, samples)
        assert not report["passed"]
        assert report["failures"] == [f"sample {i} at monomial {t}" for i in range(len(samples))]
        assert old_congruence_failures(value, samples) == report["failures"]


def test_frobenius_chain_check_m0():
    ring = make_zt(2)
    report = frobenius_chain_check(sheaf_eval(ring, 0), {"trivial": []})
    assert report["passed"]


def test_frobenius_chain_check_c4_c8_c2c2():
    ring = make_zt(2)
    for exponent, chains in ((2, cyclic_chains(2)), (3, cyclic_chains(3)),
                             (2, elementary_rank2_chains(2))):
        report = frobenius_chain_check(sheaf_eval(ring, exponent), chains)
        assert report["passed"], report["failures"]
    assert len(elementary_rank2_chains(2)) == 3  # three order-2 subgroups


def test_frobenius_chain_check_wrong_length():
    ring = make_zt(2)
    report = frobenius_chain_check(sheaf_eval(ring, 2), {"short": ["only one step"]})
    assert not report["passed"]


# -- psi on the ring's table of image powers ---------------------------------------

def element(ring, terms: dict) -> TruncSeries:
    return TruncSeries(ring.spec, ring.generators, None,
                       {e: CoeffElem.from_int(ring.spec, c) for e, c in terms.items()})


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(TWO_GENERATOR_RINGS), st.data())
def test_tabled_psi_matches_untabled_subst_and_the_oracle(text, data):
    ring = parse_delta_ring(text)
    terms = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                            st.integers(-9, 9), min_size=1, max_size=4)
    for raw in data.draw(st.lists(terms, min_size=1, max_size=8)):  # the table grows in this order
        a = element(ring, raw)
        assert ring.psi(a) == a.subst(ring.psi_images) == series_oracle.subst(a, ring.psi_images)
    for g, table in ring._psi_powers.items():
        assert table == [_power(ring.psi_images[g], k) for k in range(len(table))]


@pytest.mark.parametrize("text", TWO_GENERATOR_RINGS)
def test_power_matches_repeated_products(text):
    ring = parse_delta_ring(text)
    a = ring.psi_images["t"] + ring.var("s")
    expected = ring.constant(1)
    for n in range(6):
        assert _power(a, n) == expected
        expected = series_oracle.mul(expected, a)


@pytest.mark.parametrize("text", TWO_GENERATOR_RINGS + ("Z[t]; psi t -> t^3; p 3",))
def test_psi_makes_no_product_once_the_table_holds_the_powers(text, monkeypatch):
    ring = parse_delta_ring(text)
    top = (3,) * len(ring.generators)
    ring.psi(element(ring, {top: 1}))  # fills the table up to the cube of every image
    a = element(ring, {(1,) * len(top): 5, top: -2, (0,) * len(top): 7})
    calls = []
    original = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__",
                        lambda self, other: calls.append(1) or original(self, other))
    assert ring.psi(a) == series_oracle.subst(a, ring.psi_images)
    assert calls == []

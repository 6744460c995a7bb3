import ast
import pathlib
import pickle
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coeff_oracle
import fgl
from fgl.coeffring import SLOT_ROOM_BITS, CoeffElem, CoeffRingSpec
from fgl.errors import NotAUnit, SpecMismatch

Z2_4 = CoeffRingSpec(p=2, p_precision=4)
Z3_2_U = CoeffRingSpec(p=3, p_precision=2, deformation_params=1, u_degree_cap=2)
Z2_3 = CoeffRingSpec(p=2, p_precision=3)
ZEXACT2 = CoeffRingSpec(p=2, p_precision=None)
ZEXACT3 = CoeffRingSpec(p=3, p_precision=None)


def C(spec, v):
    return CoeffElem.from_int(spec, v)


def test_spec_validation():
    with pytest.raises(ValueError):
        CoeffRingSpec(p=4, p_precision=2)
    with pytest.raises(ValueError):
        CoeffRingSpec(p=2, p_precision=0)
    with pytest.raises(ValueError):
        CoeffRingSpec(p=2, p_precision=None, deformation_params=1, u_degree_cap=2)
    with pytest.raises(ValueError):
        CoeffRingSpec(p=2, p_precision=3, deformation_params=2, u_degree_cap=2)
    # a slot of one product sums D products: D < 2^32 leaves it room (no spec so big is built)
    with pytest.raises(ValueError, match="u_degree_cap must be < 2"):
        CoeffRingSpec(p=2, p_precision=3, deformation_params=1, u_degree_cap=2 ** SLOT_ROOM_BITS)


def test_add_reduces_mod_p_power():
    assert C(Z2_4, 7) + C(Z2_4, 11) == C(Z2_4, 2)  # 18 mod 16


def test_add_identity():
    a = C(Z2_4, 13)
    assert a + CoeffElem.zero(Z2_4) == a


def test_add_u_coefficients_cancel_mod_9():
    u = CoeffElem(Z3_2_U, (0, 1))
    assert u * C(Z3_2_U, 4) + u * C(Z3_2_U, 5) == CoeffElem.zero(Z3_2_U)


def test_mul_identity():
    a = CoeffElem(Z3_2_U, [5, 7])
    assert CoeffElem.one(Z3_2_U) * a == a


def test_mul_degree_cap_drops_u_squared():
    u = CoeffElem(Z3_2_U, (0, 1))
    assert u * u == CoeffElem.zero(Z3_2_U)


def test_mul_mod_8():
    assert C(Z2_3, 3) * C(Z2_3, 5) == C(Z2_3, 7)  # 15 mod 8


def test_invert_one():
    assert CoeffElem.one(Z2_4).invert() == CoeffElem.one(Z2_4)


def test_invert_three_mod_16_against_search():
    # oracle: brute-force search for b with 3b = 1 mod 16
    expected = next(b for b in range(16) if (3 * b) % 16 == 1)
    assert expected == 11
    assert C(Z2_4, 3).invert() == C(Z2_4, expected)


def test_invert_one_plus_u_geometric():
    one = CoeffElem.one(Z3_2_U)
    u = CoeffElem(Z3_2_U, (0, 1))
    assert (one + u).invert() == one - u


def test_invert_nonunit_rejected():
    with pytest.raises(NotAUnit):
        C(Z2_4, 6).invert()
    with pytest.raises(NotAUnit):
        C(ZEXACT2, 3).invert()


def test_invert_random_units():
    rng = random.Random(7)
    for spec in (Z2_4, Z3_2_U, Z2_3):
        one = CoeffElem.one(spec)
        count = 0
        while count < 200:
            terms = [0] * spec.width
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(0, spec.u_degree_cap) if spec.deformation_params else 0
                terms[i] = rng.randrange(0, spec.modulus)
            a = CoeffElem(spec, terms)
            if not a.is_unit():
                continue
            count += 1
            assert a.invert() * a == one


def test_specs_pickle_by_value():
    for spec in (Z2_4, Z3_2_U, ZEXACT2):
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.pack((1, 2)[:spec.width]) == spec.pack((1, 2)[:spec.width])


def test_spec_mismatch_raises():
    with pytest.raises(SpecMismatch):
        C(Z2_4, 1) + C(Z2_3, 1)


def test_ring_axioms_random_triples():
    rng = random.Random(11)
    for spec in (Z2_4, Z3_2_U, ZEXACT2):
        for _ in range(50):
            vals = []
            for _ in range(3):
                terms = [0] * spec.width
                for _ in range(rng.randrange(0, 4)):
                    i = rng.randrange(0, spec.u_degree_cap) if spec.deformation_params else 0
                    hi = spec.modulus or 10 ** 6
                    terms[i] = rng.randrange(-hi, hi)
                vals.append(CoeffElem(spec, terms))
            a, b, c = vals
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_json_round_trip():
    big = C(ZEXACT2, 2 ** 300 + 1)
    data = big.to_json()
    assert data["monomials"][0]["coeff"] == str(2 ** 300 + 1)


def test_elements_compare_by_value_and_are_unhashable():
    assert CoeffElem(Z2_4, [-1]) == C(Z2_4, 15)
    with pytest.raises(TypeError):
        hash(C(Z2_4, 15))


def test_canonical_representatives():
    a = CoeffElem(Z2_4, [-1])
    assert a.constant_part() == 15
    assert C(Z2_4, 15) == a


def test_dense_layout_and_json():
    a = CoeffElem(Z3_2_U, [4, 9, 5])  # 9 = 0 mod 9, and u^2 = 0
    assert a.terms == (4,) and CoeffElem.zero(Z3_2_U).terms == ()
    assert a.value == 4 and CoeffElem.zero(Z3_2_U).value == 0  # the stored ints
    u = CoeffElem(Z3_2_U, (0, 1))
    assert (u * C(Z3_2_U, 2) + C(Z3_2_U, 3)).to_json() == {
        "monomials": [{"exps": [0], "coeff": "3"}, {"exps": [1], "coeff": "2"}]}
    assert repr(u * C(Z3_2_U, 2) + C(Z3_2_U, 3)) == "3 + 2*u1"
    assert C(ZEXACT2, -6).to_json() == {"monomials": [{"exps": [], "coeff": "-6"}]}
    assert repr(CoeffElem.zero(ZEXACT2)) == "0"


# Oracle: sympy polynomials in u over Q, reduced mod (p^N, u^D); one u and no
# u, finite N and exact.
U = sympy.symbols("u")
SYMPY_SPECS = (Z3_2_U, CoeffRingSpec(p=2, p_precision=3, deformation_params=1, u_degree_cap=4),
               Z2_4, ZEXACT3)


def sympy_reduced(spec, expr) -> tuple:
    poly = sympy.Poly(sympy.rem(sympy.expand(expr), U ** spec.width, U), U, domain="QQ")
    out = []
    for k in range(spec.width):
        c = sympy.Rational(poly.nth(k))
        if spec.exact:
            assert c.q == 1
            out.append(int(c.p))
        else:
            out.append(int(c.p) * pow(int(c.q), -1, spec.modulus) % spec.modulus)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


INTS = st.lists(st.integers(-10 ** 4, 10 ** 4), max_size=5)  # D + 1 for every spec here
# every coefficient p^N - 1 at full length D: the fullest slot of a product of stored ints
TOP = {spec: [spec.modulus - 1] * spec.width for spec in SYMPY_SPECS[:2]}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SYMPY_SPECS), INTS, INTS)
@example(Z3_2_U, TOP[Z3_2_U], TOP[Z3_2_U])
@example(SYMPY_SPECS[1], TOP[SYMPY_SPECS[1]], TOP[SYMPY_SPECS[1]])
def test_arithmetic_against_sympy(spec, xs, ys):
    # one u: lists up to D + 1 long, so the entry at u^D is dropped; no u: at most 1
    xs, ys = (t[:spec.width + 1 if spec.deformation_params else 1] for t in (xs, ys))
    a, b = CoeffElem(spec, xs), CoeffElem(spec, ys)
    pa = sum((c * U ** i for i, c in enumerate(xs)), sympy.Integer(0))
    pb = sum((c * U ** i for i, c in enumerate(ys)), sympy.Integer(0))
    assert a.terms == sympy_reduced(spec, pa)
    assert (a + b).terms == sympy_reduced(spec, pa + pb)
    assert (a - b).terms == sympy_reduced(spec, pa - pb)
    assert (a * b).terms == sympy_reduced(spec, pa * pb)
    if not a.is_unit() or (spec.exact and a.constant_part() not in (1, -1)):
        with pytest.raises(NotAUnit):
            a.invert()
    else:
        assert a.invert().terms == sympy_reduced(spec, sympy.invert(pa, U ** spec.width))


# -- canon where p^N is a power of two: one mask in place of D shifts and mods --

MASKED = {f"N{n}D{d}": CoeffRingSpec(p=2, p_precision=n, deformation_params=1, u_degree_cap=d)
          for n, d in ((8, 6), (3, 2), (1, 4))}


def slotwise(spec, v):
    """v reduced slot by slot mod p^N, the slots at u^D and above dropped."""
    w = 2 * (spec.modulus - 1).bit_length() + SLOT_ROOM_BITS
    return sum((v >> i * w & (1 << w) - 1) % spec.modulus << i * w for i in range(spec.width))


@pytest.mark.parametrize("spec", MASKED.values(), ids=MASKED)
def test_mask_canon_is_the_slotwise_reduction(spec):
    assert spec.canon.__self__ == spec.pack([spec.modulus - 1] * spec.width)  # the mask itself
    rng, w = random.Random(25), 2 * (spec.modulus - 1).bit_length() + SLOT_ROOM_BITS
    copy = pickle.loads(pickle.dumps(spec))
    for _ in range(300):  # a sum of products fills up to 2D - 1 nonnegative slots
        v = sum(rng.randrange(1 << w) << i * w for i in range(rng.randrange(1, 2 * spec.width)))
        assert spec.canon(v) == slotwise(spec, v) == copy.canon(v)
    for _ in range(100):  # a + bias - b and bias - a over canonical a and b
        a, b = (CoeffElem(spec, [rng.randrange(spec.modulus) for _ in range(spec.width)])
                for _ in range(2))
        pa, pb = a.value, b.value
        assert spec.canon(pa + spec.bias - pb) == slotwise(spec, pa + spec.bias - pb)
        assert spec.unpack(spec.canon(pa + spec.bias - pb)) == coeff_oracle.sub(
            spec, a.terms, b.terms)
        assert spec.unpack(spec.canon(spec.bias - pa)) == coeff_oracle.sub(spec, (), a.terms)
        assert copy.canon(spec.bias - pa) == spec.canon(spec.bias - pa)


# -- the stored form's boundary -------------------------------------------------


def test_only_coeffring_packs_and_unpacks():
    # every other module keeps a coefficient as a stored int or a CoeffElem's
    # value, so none converts; the list product is the law builder's own
    found = []
    for path in sorted(pathlib.Path(fgl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "coeffring.py":
            found += [f"coeffring.py:{node.lineno} def {node.name}" for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "convolve"]
            continue
        found += [f"{path.name}:{node.lineno} .{node.func.attr}(" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("pack", "unpack")]
    assert found == []

import re
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgl.linalg
import linalg_oracle
from fgl.errors import InternalInconsistency
from fgl.linalg import gcd_degree_mod_l, mat_mul, nullspace, rank, rank_mod_l, rref

ELL = linalg_oracle.ELL  # the prime of the rank certificate

ENTRIES = st.one_of(st.just(0), st.integers(-20, 20))


def _matrices(draw_rows, draw_cols, entries=ENTRIES):
    return st.tuples(draw_rows, draw_cols).flatmap(lambda rc: st.lists(
        st.lists(entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]))


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


DIMS = st.integers(1, 7)
DENSE = _matrices(DIMS, DIMS)
# rank at most k: a (rows x k) times (k x cols) product
LOW_RANK = st.integers(1, 3).flatmap(lambda k: st.tuples(
    _matrices(DIMS, st.just(k)), _matrices(st.just(k), DIMS)).map(lambda ab: _product(*ab)))
ZERO = st.tuples(DIMS, DIMS).map(lambda rc: [[0] * rc[1] for _ in range(rc[0])])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=st.one_of(DENSE, LOW_RANK, ZERO))
def test_fraction_free_elimination_matches_fraction_oracle(m):
    cols = len(m[0])
    red, pivots = rref(m)
    oracle_red, oracle_pivots = linalg_oracle.rref(m)
    assert pivots == oracle_pivots
    assert rank(m) == len(oracle_pivots)
    # one common pivot d, and the rows divided by d are the rational RREF
    if pivots:
        d = red[0][pivots[0]]
        assert all(row[c] == d for row, c in zip(red, pivots))
        assert [[Fraction(x, d) for x in row] for row in red] == oracle_red
    else:
        assert red == oracle_red == []

    kernel = nullspace(m)
    oracle_kernel = linalg_oracle.nullspace(m)
    assert len(kernel) == len(oracle_kernel) == cols - len(pivots)
    free = [c for c in range(cols) if c not in pivots]
    for v, w, f in zip(kernel, oracle_kernel, free, strict=True):
        assert gcd(*v) == 1 and v[f] > 0
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        assert [Fraction(x, v[f]) for x in v] == w

    assert mat_mul(m, list(zip(*m))) == _product(m, list(zip(*m)))


# shapes at the edge: no rows, empty rows, one row, one column
EDGES = st.one_of(st.sampled_from([[], [[]], [[], [], []]]),
                  _matrices(st.just(1), DIMS), _matrices(DIMS, st.just(1)))
# matrices whose rank mod l is below their rank over Q: l times a matrix, and
# a last row replaced by the first row plus l times the last row
SCALED = DENSE.map(lambda m: [[ELL * x for x in row] for row in m])
ROW_PLUS_ELL_ROW = _matrices(st.integers(2, 7), DIMS).map(
    lambda m: m[:-1] + [[x + ELL * y for x, y in zip(m[0], m[-1])]])
DIAG_1_ELL = [[1, 0], [0, ELL]]


def _rank_and_rref_calls(m, monkeypatch):
    calls = []
    monkeypatch.setattr(fgl.linalg, "rref", lambda a: calls.append(1) or rref(a))
    return rank(m), len(calls)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=st.one_of(DENSE, LOW_RANK, ZERO, EDGES, SCALED, ROW_PLUS_ELL_ROW,
                   st.just(DIAG_1_ELL)))
def test_rank_matches_fraction_oracle(m):
    with pytest.MonkeyPatch.context() as monkeypatch:
        r, calls = _rank_and_rref_calls(m, monkeypatch)
    assert r == len(linalg_oracle.rref(m)[1])
    # a rank below min(rows, cols) is never certified mod l; Bareiss runs once
    full = min(len(m), len(m[0]) if m else 0)
    assert (calls == 1) if r < full else (calls <= 1)


@pytest.mark.parametrize("m", [
    [], [[]], [[5]], [[0, 3, 0]], [[2], [0], [7]],
    [[1, 0], [0, 1]], [[2, 3], [4, 5]], [[1, 2, 3], [4, 5, 6]],
    [[x ** k for k in range(6)] for x in range(1, 8)],
])
def test_full_rank_takes_no_bareiss_step(m, monkeypatch):
    r, calls = _rank_and_rref_calls(m, monkeypatch)
    assert r == min(len(m), len(m[0]) if m else 0)
    assert calls == 0


@pytest.mark.parametrize("m, expected", [
    (DIAG_1_ELL, 2),
    ([[ELL, 0], [0, ELL]], 2),
    ([[1, 2], [1 + 3 * ELL, 2 + 5 * ELL]], 2),  # determinant -l
    ([[1, 2], [2, 4]], 1),
])
def test_rank_below_full_mod_l_falls_back_once(m, expected, monkeypatch):
    assert _rank_and_rref_calls(m, monkeypatch) == (expected, 1)


def _filled(rows, cols, x):
    return [[x] * cols for _ in range(rows)]


# a rows x inner times inner x cols product, shapes 0-9 each, entries up to 2^80
BIG = st.integers(-(1 << 80), 1 << 80)
PRODUCTS = st.tuples(*[st.integers(0, 9)] * 3).flatmap(lambda s: st.tuples(
    _matrices(st.just(s[0]), st.just(s[1]), BIG), _matrices(st.just(s[1]), st.just(s[2]), BIG)))


def _at_the_slot_bound(test):
    """Every entry +-(2^k - 1), each factor of one sign, inner dimension 2^j or
    2^j - 1: every output entry is +-inner * max|a| * max|b|. At inner 2^j - 1
    that needs every bit of the slot width w."""
    for j, ka, kb in ((3, 5, 7), (4, 80, 80)):
        for inner in (2 ** j, 2 ** j - 1):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                test = example(ab=(_filled(2, inner, sa * (2 ** ka - 1)),
                                   _filled(inner, 3, sb * (2 ** kb - 1))))(test)
    return test


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ab=PRODUCTS)
@example(ab=([], []))
@example(ab=([[]], []))
@example(ab=([[], []], []))
@example(ab=([], [[]]))
@example(ab=([], [[1, 2], [3, 4]]))
@_at_the_slot_bound
def test_packed_mat_mul_matches_entrywise_oracle(ab):
    assert mat_mul(*ab) == linalg_oracle.mat_mul(*ab)


def _ell_worst_case(rows, cols, k):
    """L U mod l, rank k: L is rows x k with ones on and below its diagonal, U
    is k x cols upper triangular with ones on its diagonal and l - 1 above it.
    Every step of the elimination mod l then finds slot 0 = 1 in every other
    row and adds (l - 1) times a pivot row of entries l - 1: k updates of
    (l - 1)^2 per slot, and the rows past k end as multiples of l."""
    u = [[0] * i + [1] + [ELL - 1] * (cols - i - 1) for i in range(k)]
    return [[sum(col) % ELL for col in zip([0] * cols, *u[:i + 1])] for i in range(rows)]


@st.composite
def _residue_matrices(draw):
    """Matrices up to 30 x 30, tall and wide, of five kinds, with zero columns
    put in before, between and after the pivots."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["dense", "low_rank", "ell_minus_one", "ell_multiples", "worst"]))
    k = draw(st.integers(0, min(rows, cols)))
    if kind == "dense":
        m = [[rng.randrange(-ELL, 2 * ELL) for _ in range(cols)] for _ in range(rows)]
    elif kind == "low_rank":
        left = [[rng.randrange(ELL) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randrange(ELL) for _ in range(cols)] for _ in range(k)]
        m = [[sum(row[j] * right[j][c] for j in range(k)) for c in range(cols)] for row in left]
    elif kind == "ell_minus_one":  # every entry reduces to l - 1
        m = [[ELL - 1 + rng.randrange(-3, 3) * ELL for _ in range(cols)] for _ in range(rows)]
    elif kind == "ell_multiples":  # a matrix of rank k plus l times another
        m = [[rng.randrange(-3, 3) * ELL + (rng.randrange(ELL) if i < k else 0)
              for _ in range(cols)] for i in range(rows)]
    else:
        m = _ell_worst_case(rows, cols, k)
    for c in draw(st.lists(st.integers(0, cols), max_size=3)):
        m = [row[:c] + [0] + row[c:] for row in m]
    return m


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=_residue_matrices())
@example(m=_ell_worst_case(30, 30, 29))
@example(m=_ell_worst_case(31, 30, 30))
@example(m=_ell_worst_case(30, 31, 29))
@example(m=_filled(30, 30, ELL - 1))
def test_packed_rank_mod_l_matches_entrywise_oracle(m):
    assert rank_mod_l(m) == linalg_oracle.rank_mod_l(m)


# one row shorter or longer than the first: a ragged matrix is never truncated
SHORT_ROW = [[1, 2, 3], [4, 5], [6, 7, 8]]
LONG_ROW = [[1, 0], [0, 1, 5], [0, 0, 0, 7]]


@pytest.mark.parametrize("m", [SHORT_ROW, LONG_ROW], ids=["short", "long"])
@pytest.mark.parametrize("entry", [
    rank, rref, nullspace,
    lambda m: mat_mul(m, _filled(len(m[0]), 2, 1)),
    lambda m: mat_mul(_filled(2, len(m), 1), m),
], ids=["rank", "rref", "nullspace", "mat_mul_left", "mat_mul_right"])
def test_ragged_matrix_is_an_internal_inconsistency(entry, m):
    lengths = re.escape(str([len(row) for row in m]))
    with pytest.raises(InternalInconsistency, match=f"shapes do not fit, row lengths.*{lengths}"):
        entry(m)


@pytest.mark.parametrize("a, b, message", [
    ([[1, 2, 3]], [[1], [1]], r"\[3\] times \[1, 1\]"),
    ([[1, 2]], [[1], [1], [1]], r"\[2\] times \[1, 1, 1\]"),
    ([[]], [[1, 2]], r"\[0\] times \[2\]"),
])
def test_mat_mul_inner_dimension_mismatch_is_an_internal_inconsistency(a, b, message):
    with pytest.raises(InternalInconsistency, match=r"mat_mul: shapes do not fit, row lengths " + message):
        mat_mul(a, b)


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# low-to-high coefficient lists, possibly with zero leading entries
POLYS = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(common=POLYS, s=POLYS, t=POLYS)
@example(common=[0], s=[1], t=[1])        # gcd(0, 0)
@example(common=[1], s=[0], t=[3, 1])     # gcd(0, b) = b
@example(common=[1], s=[ELL, 1], t=[0, 1])  # x + l = x mod l
def test_gcd_degree_mod_l_matches_sympy(common, s, t):
    # oracle: sympy's gcd over GF(l); over Q the degree can only be lower
    a, b = _poly_product(common, s), _poly_product(common, t)
    x = sympy.Symbol("x")

    def poly(c, **domain):
        return sympy.Poly(list(reversed(c)), x, **domain)

    mod_l = poly(a, modulus=ELL).gcd(poly(b, modulus=ELL))
    over_q = poly(a, domain="QQ").gcd(poly(b, domain="QQ"))
    degree = gcd_degree_mod_l(a, b)
    assert degree == (-1 if mod_l.is_zero else mod_l.degree())
    assert degree >= (-1 if over_q.is_zero else over_q.degree())
    assert gcd_degree_mod_l(b, a) == degree

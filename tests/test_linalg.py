from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgl.linalg
import linalg_oracle
from fgl.linalg import mat_mul, nullspace, rank, rref

ELL = (1 << 61) - 1  # the prime of the rank certificate

ENTRIES = st.one_of(st.just(0), st.integers(-20, 20))


def _matrices(draw_rows, draw_cols):
    return st.tuples(draw_rows, draw_cols).flatmap(lambda rc: st.lists(
        st.lists(ENTRIES, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]))


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

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle
from fgl.linalg import mat_mul, nullspace, rank, rref

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

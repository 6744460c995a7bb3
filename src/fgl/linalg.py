"""Exact linear algebra on integer matrices (row lists), without fractions.

``rref`` is fraction-free Gauss-Jordan elimination with Bareiss' exact
division (Bareiss, Math. Comp. 22, 1968): at the step with pivot a, after a
previous pivot d, every other row becomes (a * row - row[c] * pivot_row) / d.
Every entry then stays a minor of the input, so each division is exact, and
all pivots of the result equal the last pivot a. The rows divided by a are
the rational reduced row echelon form, so ranks and kernels over Q are read
off integers.

``rank`` first eliminates modulo the Mersenne prime l = 2^61 - 1. Reducing
mod l maps every minor of the matrix to its residue, so a minor that is
nonzero mod l is nonzero over Q: the rank mod l is at most the rank over Q,
which is at most min(rows, cols). A rank mod l equal to min(rows, cols) is
therefore the exact rank, with no randomness involved; any lower value says
nothing (l may divide every maximal nonzero minor, as in diag(1, l)) and
``rank`` falls back to ``rref``. Only full rank is certified this way, so
``rref`` and ``nullspace`` stay exact eliminations over Q, and a caller that
compares two ranks below full, such as a kernel chain comparing nullities,
must read them from ``nullspace`` or ``rref``.
"""

from __future__ import annotations

from math import gcd

Matrix = list[list[int]]

_L = (1 << 61) - 1  # a Mersenne prime; residues fit one machine word


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j] != 0:
                    oi[j] += c * bk[j]
    return out


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Fraction-free reduced row echelon form and pivot column indices.

    The nonzero rows come back with one common pivot value d (the last
    pivot); dividing them by d gives the rational reduced row echelon form.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        a, top = m[r][c], m[r]
        for i in range(rows):
            f = m[i][c]
            if i != r and (f != 0 or a != d):
                m[i] = [(a * x - f * y) // d for x, y in zip(m[i], top)]
        d = a
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def _rank_mod_l(matrix: Matrix) -> int:
    """Rank of the matrix reduced mod l, by row echelon elimination over F_l."""
    m = [[x % _L for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        inv = pow(top[c], -1, _L)
        for i in range(r + 1, rows):
            f = m[i][c]
            if f:
                f = f * inv % _L
                m[i] = [(x - f * y) % _L for x, y in zip(m[i], top)]
        r += 1
        if r == rows:
            break
    return r


def rank(matrix: Matrix) -> int:
    """Exact rank over Q: certified mod l when full, else by ``rref``."""
    full = min(len(matrix), len(matrix[0]) if matrix else 0)
    if _rank_mod_l(matrix) == full:
        return full
    return len(rref(matrix)[1])


def nullspace(matrix: Matrix) -> Matrix:
    """Basis of the right kernel: one primitive integer vector per free column,
    positive at its free column."""
    cols = len(matrix[0]) if matrix else 0
    red, pivots = rref(matrix)
    d = red[0][pivots[0]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = d
        for row, c in zip(red, pivots):
            v[c] = -row[free]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append([x // g for x in v])
    return basis

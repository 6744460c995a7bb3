"""Reference linear algebra, for tests only.

``rref`` and ``nullspace`` are textbook Gauss-Jordan elimination on
``fractions.Fraction``: every pivot row is scaled to a leading 1 and cleared
from all other rows. They share no code with ``fgl.linalg``, so the
fraction-free integer elimination there is checked against them.

``mat_mul`` and ``rank_mod_l`` are the entry-by-entry kernels that the
packed-row ``fgl.linalg.mat_mul`` and ``fgl.linalg.rank_mod_l`` replaced:
a triple loop over single entries, and an elimination over F_l that reduces
every entry of every updated row mod l.
"""

from __future__ import annotations

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form (Fraction rows) and pivot column indices."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def nullspace(matrix):
    """Basis of the right kernel over Q, one vector per free column."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


ELL = (1 << 61) - 1  # the prime of fgl.linalg's rank certificate


def mat_mul(a, b):
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


def rank_mod_l(matrix):
    """Rank of the matrix reduced mod l, by row echelon elimination over F_l."""
    m = [[x % ELL for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        inv = pow(top[c], -1, ELL)
        for i in range(r + 1, rows):
            f = m[i][c]
            if f:
                f = f * inv % ELL
                m[i] = [(x - f * y) % ELL for x, y in zip(m[i], top)]
        r += 1
        if r == rows:
            break
    return r

"""Reference linear algebra over exact rationals, for tests only.

Textbook Gauss-Jordan elimination on ``fractions.Fraction``: every pivot
row is scaled to a leading 1 and cleared from all other rows. It shares no
code with ``fgl.linalg``, so the fraction-free integer elimination there is
checked against it.
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

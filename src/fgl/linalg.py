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
``rank`` falls back to ``rref``; ``rref`` and ``nullspace`` stay exact
eliminations over Q. Below full rank the same bound certifies against any
known upper bound r over Q: ``rank_mod_l`` reading r proves the rank r. The
kernel chain of ``tate.localization_kernel`` compares ranks below full this
way, against the exact rank of its previous step.

``mat_mul`` and the elimination mod l keep each row as one packed int, as
the series kernel does (Kronecker substitution; Harvey, J. Symb. Comput.
44, 2009): entry j of a row sits in bits [w*j, w*(j+1)), and a whole-row
update is one bigint multiply-add. The elimination reduces mod l only where
it reads a residue (delayed modular reduction; Dumas, Giorgi and Pernet,
ACM TOMS 35, 2008).

- ``mat_mul(a, b)`` packs every row of b; output row i is the packed sum of
  a[i][k] times row k of b, plus a bias of 2^(w-1) in every slot, and slot j
  minus the bias is out[i][j]. With w = bitlen(max|a|) + bitlen(max|b|) +
  bitlen(inner) + 1, |out[i][j]| <= inner * max|a| * max|b| < 2^(w-1), so
  every biased slot lies in [0, 2^w) and no slot borrows from or carries
  into its neighbour.
- The elimination mod l keeps every row as nonnegative residues in slots of
  w = bitlen(m * l^2) + 1 bits, m = min(rows, cols), and never reduces a
  row it updates. Slot 0 of every row is the current column, and the first
  row whose slot 0 is nonzero mod l is the pivot. The pivot row, unpacked once,
  is normalized to a leading 1 with entries in [0, l); every other row adds
  ((-slot 0) mod l) times it, which makes its slot 0 a multiple of l; then
  every row shifts right by w, dropping that column. A row receives at most
  one update per pivot, at most m in all, each adding at most (l-1)^2 to a
  slot that started below l, so every slot stays below
  l + m * (l-1)^2 < m * l^2 < 2^(w-1) and no slot carries. (bitlen(m * l^2)
  bits would do; the extra one keeps w positive for an empty matrix.)

``gcd_degree_mod_l`` is the degree of gcd(a, b) over F_l by Euclid. When b
is monic in Z[x], so is the monic gcd over Q, and it divides both reductions
mod l: the degree mod l is at least the degree over Q.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import lshift, mul

from .errors import InternalInconsistency

Matrix = list[list[int]]

# prime, so Z/l is the field F_l: every nonzero pivot is invertible and the
# elimination computes a rank; large, so that l rarely divides every maximal
# nonzero minor and sends ``rank`` to the fallback
_L = (1 << 61) - 1


def _shape(caller: str, *operands: Matrix) -> list[tuple[int, int]]:
    """(rows, cols) of each operand, after checking that each is rectangular
    and that each one's columns are the next one's rows (a matrix with no
    rows counts as 0 x 0 and fits any next one); a mismatch is a caller's bug."""
    shapes = [(len(m), len(m[0]) if m else 0) for m in operands]
    if any(len(row) != cols for m, (_, cols) in zip(operands, shapes) for row in m) \
            or any(rows and cols != after for (rows, cols), (after, _) in zip(shapes, shapes[1:])):
        raise InternalInconsistency(f"{caller}: shapes do not fit, row lengths " + " times ".join(
            str([len(row) for row in m]) for m in operands))
    return shapes


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    (_, inner), (_, cols) = _shape("mat_mul", a, b)
    w = (max(map(abs, chain.from_iterable(a)), default=0).bit_length()
         + max(map(abs, chain.from_iterable(b)), default=0).bit_length()
         + inner.bit_length() + 1)
    shifts, mask, half = range(0, w * cols, w), (1 << w) - 1, 1 << (w - 1)
    packed = [sum(map(lshift, row, shifts)) for row in b]
    bias = sum(half << s for s in shifts)
    return [[(v >> s & mask) - half for s in shifts]
            for v in (sum(map(mul, row, packed), bias) for row in a)]


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Fraction-free reduced row echelon form and pivot column indices.

    The nonzero rows come back with one common pivot value d (the last
    pivot); dividing them by d gives the rational reduced row echelon form.
    """
    (rows, cols), = _shape("rref", matrix)
    m = [list(row) for row in matrix]
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


def rank_mod_l(matrix: Matrix) -> int:
    """Rank of the matrix reduced mod l, a lower bound for its rank over Q, by
    elimination over F_l on packed rows of unreduced residues (module docstring)."""
    cols = len(matrix[0]) if matrix else 0
    w = (min(len(matrix), cols) * _L * _L).bit_length() + 1
    shifts, mask = range(0, w * cols, w), (1 << w) - 1
    rest = [sum(map(lshift, (x % _L for x in row), shifts)) for row in matrix]
    for c in range(cols):
        top = next((v for v in rest if (v & mask) % _L), 0)
        if top:
            rest.remove(top)
            inv = pow(top & mask, -1, _L)
            top = sum((top >> s & mask) * inv % _L << s for s in shifts[:cols - c])
        rest = [(v + -(v & mask) % _L * top) >> w for v in rest]
    return len(matrix) - len(rest)  # each pivot took its row out of rest


def rank(matrix: Matrix) -> int:
    """Exact rank over Q: certified mod l when full, else by ``rref``."""
    full = min(_shape("rank", matrix)[0])
    if rank_mod_l(matrix) == full:
        return full
    return len(rref(matrix)[1])


def gcd_degree_mod_l(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over F_l (-1 when both are zero), each polynomial
    given by its coefficients from the constant term up."""
    a, b = [x % _L for x in a], [x % _L for x in b]
    while any(b):
        while not b[-1]:
            b.pop()
        inv, k, tail = pow(b[-1], -1, _L), len(b) - 1, b[:-1]
        while len(a) > k:  # a mod b: cancel the leading coefficient of a
            c, s = a.pop() * inv % _L, len(a) - k
            a[s:] = [(x - c * y) % _L for x, y in zip(a[s:], tail)]
        a, b = b, a
    return max((i for i, x in enumerate(a) if x), default=-1)


def nullspace(matrix: Matrix) -> Matrix:
    """Basis of the right kernel: one primitive integer vector per free column,
    positive at its free column."""
    (_, cols), = _shape("nullspace", matrix)
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

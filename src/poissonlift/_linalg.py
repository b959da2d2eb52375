"""Exact linear algebra over Fraction matrices (small sizes only)."""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _rref(mat) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of a copy of ``mat``, with its pivot columns."""
    a = [[Fraction(x) for x in row] for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def invert(mat) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    a, pivots = _rref([list(row) + unit for row, unit in zip(mat, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in a]


def rank(mat) -> int:
    return len(_rref(mat)[1])


def kernel_basis(mat) -> list[list[Fraction]]:
    """Basis of the right null space of a rows-by-cols matrix."""
    a, pivots = _rref(mat)
    cols = len(a[0]) if a else 0
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -a[row_idx][f]
        basis.append(vec)
    return basis

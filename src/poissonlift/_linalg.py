"""Exact linear algebra on small matrices: the rank of an integer matrix by
fraction-free elimination, and the inverse of a rational one by Gauss-Jordan
elimination over ``Fraction``.

Scaling a row by a nonzero integer keeps the rank, so a rational matrix is
ranked by clearing each row's denominators first."""

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


def rank(mat: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination (Math. Comp. 22,
    1968): after r pivots every entry below them is an (r+1)-minor, so the
    division by the previous pivot is exact and entries stay integers.  A
    single row or column has rank 1 exactly when some entry is nonzero."""
    if len(mat) == 1 or mat and len(mat[0]) == 1:
        return int(any(map(any, mat)))
    a = [list(row) for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    r, prev = 0, 1
    for col in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        p = top[col]
        for i in range(r + 1, rows):
            row, f = a[i], a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        r += 1
    return r

"""Exact linear algebra over the rationals: rank and nullspace.

Matrices are lists of row lists holding ints or Fractions.  One routine,
``_rref``, does every elimination: each row is cleared of denominators once,
Gauss-Jordan elimination then runs in Python ints with every row kept
primitive (its entries divided by their gcd), and only the entries a caller
reads off the reduced rows become Fractions.  Integer arithmetic spares the
normalisation of every intermediate entry, which is where the time of a
Fraction elimination goes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive_row(row) -> list[int]:
    """The row scaled by a nonzero rational to coprime integers."""
    den = lcm(*[x.denominator for x in row])  # an int has denominator 1
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _rref(mat, ncols: int) -> tuple[list[int], list[list[int]]]:
    """Fraction-free reduced row echelon form over the first ncols columns.

    Returns (pivots, rows).  Row r < len(pivots) is the r-th row of the
    reduced row echelon form times its pivot entry rows[r][pivots[r]]; the
    rows after them are zero on the first ncols columns.  Columns beyond
    ncols (a right-hand side) are carried along but never pivoted on.  Rows
    that are zero throughout are dropped.
    """
    rows = [r for r in map(_primitive_row, mat) if any(r)]
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        # the smallest pivot in size keeps the entries of the other rows small
        pr, best = None, 0
        for k in range(r, nrows):
            x = abs(rows[k][c])
            if x and (pr is None or x < best):
                pr, best = k, x
                if x == 1:
                    break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for k in range(nrows):
            f = rows[k][c]
            if f and k != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(rows[k], prow)]
                g = gcd(*new)
                rows[k] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
    return pivots, rows


def rank(mat, ncols: int | None = None) -> int:
    if not mat:
        return 0
    n = ncols if ncols is not None else len(mat[0])
    return len(_rref(mat, n)[0])


def nullspace(mat, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel (each vector of length ncols)."""
    pivots, rows = _rref(mat, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            if row[free]:
                v[c] = Fraction(-row[free], row[c])
        basis.append(v)
    return basis


"""Exact linear algebra over the integers: rank and nullspace.

Matrices are lists of row lists holding ints.  One routine, ``_rref``, does
every elimination: fraction-free Gauss-Jordan elimination in Python ints,
with every row kept primitive (its entries divided by their gcd).  Kernel
vectors come back as primitive integer vectors, so no entry is ever a
fraction.
"""

from __future__ import annotations

from math import gcd, lcm


def _primitive_row(row) -> list[int]:
    """The int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _rref(mat, ncols: int) -> tuple[list[int], list[list[int]]]:
    """Integer reduced row echelon form over the first ncols columns.

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


def nullspace(mat, ncols: int) -> list[list[int]]:
    """Basis of the right kernel (each vector of length ncols).

    One vector per free column, zero at the other free columns: the
    primitive integer vector positive at its own free column.
    """
    pivots, rows = _rref(mat, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        # row r reads p_r x_{c_r} + row[free] x_free = 0, so x_free = the
        # lcm of the pivots p_r clears every denominator at once
        v = [0] * ncols
        v[free] = lcm(*(row[c] for row, c in zip(rows, pivots) if row[free]))
        for row, c in zip(rows, pivots):
            if row[free]:
                v[c] = -row[free] * v[free] // row[c]
        basis.append(_primitive_row(v))
    return basis


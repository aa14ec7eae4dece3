"""The integer elimination kernel against a Fraction Gauss-Jordan reference.

The reduced row echelon form is unique, so rank, nullspace and a solve
that carries the right-hand side as an extra column through ``_rref`` must
agree with the reference exactly: rank and solve Fraction for Fraction, and
nullspace with each reference kernel vector scaled to primitive integers.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import linalg as la

# ---------------------------------------------------------------------------
# reference: plain Fraction Gauss-Jordan elimination


def _ref_rref(rows: list[list[Fraction]], ncols: int):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _as_fractions(mat) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in mat]


def ref_rank(mat, ncols=None) -> int:
    rows = _as_fractions(mat)
    if not rows:
        return 0
    n = ncols if ncols is not None else len(rows[0])
    return len(_ref_rref(rows, n))


def ref_nullspace(mat, ncols):
    rows = _as_fractions(mat)
    pivots = _ref_rref(rows, ncols) if rows else []
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def _primitive(v: list[Fraction]) -> list[int]:
    """v scaled by a positive rational to coprime integers."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def ref_solve(mat, rhs, ncols):
    rows = _as_fractions(mat)
    aug = [row + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _ref_rref(aug, ncols) if aug else []
    for row in aug:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = aug[r][ncols]
    return x


def solve(mat, rhs, ncols: int):
    """One solution of mat @ x = rhs by the integer kernel, or None if
    inconsistent: rhs rides along as column ncols, never pivoted on."""
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    pivots, rows = la._rref(aug, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):  # a row 0 = b != 0
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[ncols], row[c])
    return x


# ---------------------------------------------------------------------------
# strategies

small = st.integers(-3, 3)
entries = st.one_of(st.just(0), small, st.integers(-10**6, 10**6))


@st.composite
def matrices(draw):
    """(mat, ncols) with some rows and some columns forced to zero."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    mat = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    for r in range(nrows):
        for c in range(ncols):
            if r in zero_rows or c in zero_cols:
                mat[r][c] = 0
    if nrows and ncols and draw(st.booleans()):
        # a dependent row: a combination of two others
        a, b, t = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1)), draw(small)
        mat[draw(st.integers(0, nrows - 1))] = [
            x + t * y for x, y in zip(mat[a], mat[b])]
    return mat, ncols


@st.composite
def systems(draw):
    """(mat, rhs, ncols): rhs either in the column space or drawn freely,
    which for a rank-deficient matrix is mostly inconsistent."""
    mat, ncols = draw(matrices())
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in mat]
    else:
        rhs = [draw(entries) for _ in mat]
    return mat, rhs, ncols


def _fractions_only(vectors) -> bool:
    return all(type(x) is Fraction for v in vectors for x in v)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_rank_matches_reference(case, data):
    mat, ncols = case
    assert la.rank(mat, ncols) == ref_rank(mat, ncols)
    assert la.rank(mat) == ref_rank(mat)
    prefix = data.draw(st.integers(0, ncols))
    assert la.rank(mat, prefix) == ref_rank(mat, prefix)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(case):
    mat, ncols = case
    got = la.nullspace(mat, ncols)
    want = ref_nullspace(mat, ncols)
    assert got == [_primitive(v) for v in want]
    assert all(type(x) is int for v in got for x in v)
    # column c is free when it adds nothing to the rank of the columns before
    frees = [c for c in range(ncols) if ref_rank(mat, c + 1) == ref_rank(mat, c)]
    assert len(frees) == len(got)
    for v, free in zip(got, frees):
        assert v[free] > 0


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_matches_reference(case):
    mat, rhs, ncols = case
    got = solve(mat, rhs, ncols)
    want = ref_solve(mat, rhs, ncols)
    assert got == want
    if got is not None:
        assert _fractions_only([got])


def test_inputs_are_left_unchanged():
    mat = [[6, 1], [12, 2], [0, 0]]
    rhs = [1, 2, 0]
    before = [list(row) for row in mat], list(rhs)
    la.rank(mat)
    la.nullspace(mat, 2)
    solve(mat, rhs, 2)
    assert ([list(row) for row in mat], list(rhs)) == before

"""Inverse quantum Cartan matrix coefficients, exactly.

The quantum Cartan matrix C(z) has diagonal entries z + 1/z and the ordinary
off-diagonal Cartan entries.  Its inverse expands as sum_{l>=1} ct(l) z^l
with integer matrices ct(l).  Writing C(z) = (z + 1/z) Id + N and matching
the coefficient of z^m in C(z) * Ct(z) = Id gives the integer recurrence

    ct_ij(m+1) = delta_ij * delta_{m,0} - ct_ij(m-1) + sum_{k ~ i} ct_kj(m)

with ct(l) = 0 for l <= 0 (note N_ik = -1 exactly when k ~ i).

The second route to the same table, the Coxeter-element formula, reads the
knitting table of ``ar_quiver``; the Hom/Ext window formulas that read ct
live in ``denominators``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, repeat
from operator import add, mul, sub

from rmx import ar_quiver as ar
from rmx.root_system import CartanData, Vec


@dataclass(frozen=True)
class CTildeTable:
    """Integer table ct_ij(l) for 1 <= l <= L."""

    cd: CartanData
    L: int
    values: tuple[tuple[Vec, ...], ...]  # values[l-1][i-1][j-1]

    def value(self, i: int, j: int, l: int) -> int:
        if l < 1 or l > self.L:
            raise IndexError(f"l={l} outside table range 1..{self.L}")
        return self.values[l - 1][i - 1][j - 1]

    def series(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(self.values[l][i - 1][j - 1] for l in range(self.L))


@lru_cache(maxsize=None)
def ctilde_table(cd: CartanData, L: int | None = None) -> CTildeTable:
    """Compute ct_ij(l) for l up to L (default 2h) by the recurrence.

    A table longer than one period 2h starts with the layers of the cached
    (cd, 2h) table and computes layers 2h+1..L from its last two.
    """
    period = 2 * cd.h
    if L is None:
        L = period
    if L < 1:
        raise ValueError("truncation order must be >= 1")
    n = cd.rank
    if L > period:
        layers = list(ctilde_table(cd, period).values)
        prev2 = layers[-2]
    else:
        layers = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
        prev2 = ((0,) * n,) * n  # ct(0)
    # row i of ct(m+1) is the sum of the rows ct(m)[k] over k ~ i, minus
    # ct(m-1)[i]; A1's one vertex has no neighbour and sums to zero
    while len(layers) < L:
        prev1 = layers[-1]
        cur = []
        for i, nbrs in enumerate(cd.adjacency0):
            if nbrs:
                total = prev1[nbrs[0]]
                for k in nbrs[1:]:
                    total = map(add, total, prev1[k])
            else:
                total = repeat(0)
            cur.append(tuple(map(sub, total, prev2[i])))
        layers.append(tuple(cur))
        prev2 = prev1
    return CTildeTable(cd=cd, L=L, values=tuple(layers))


def ctilde(cd: CartanData, i: int, j: int, l: int) -> int:
    """Single coefficient ct_ij(l), using 2h-periodicity for large l."""
    if l < 1:
        raise ValueError("l must be >= 1")
    period = 2 * cd.h
    t = ctilde_table(cd, period)
    return t.value(i, j, (l - 1) % period + 1)


def ctilde_coxeter(cd, Q, xi, i: int, j: int, l: int) -> int:
    """ct_ij(l) through the Coxeter-element formula for a quiver with heights.

    Returns 0 when l + eps_i + eps_j + 1 is odd; otherwise pairs
    c^k(gamma_i), k = (l + xi_i - xi_j - 1)/2, with the fundamental weight
    w_j.  That vector is tau^k(I_i) read off the knitting table, negated
    when the shift is odd; tau^h adds the even shift -2, so k mod h is
    enough.  Independent of the choice of (Q, xi); xi must fit Q.
    """
    ar.check_height(Q, xi)
    if l < 1:
        raise ValueError("l must be >= 1")
    if (l + cd.eps_of(i) + cd.eps_of(j) + 1) % 2 == 1:
        return 0
    k = (l + xi[i - 1] - xi[j - 1] - 1) // 2
    root, shift = ar._tau_orbits(Q)[i - 1][k % cd.h]
    return -root[j - 1] if shift % 2 else root[j - 1]


def ctilde_coxeter_table(cd: CartanData, Q, xi, L: int) -> CTildeTable:
    """``ctilde_coxeter`` at every (l, i, j) with 1 <= l <= L, as one table.

    xi is validated once, and each knitting entry tau^s(I_i) is read once,
    as the vector c^s(gamma_i) (its root, negated when the shift is odd).
    """
    ar.check_height(Q, xi)
    if L < 1:
        raise ValueError("truncation order must be >= 1")
    n, h, eps = cd.rank, cd.h, cd.eps
    powers = [[tuple(-c for c in root) if shift % 2 else root
               for root, shift in orbit] for orbit in ar._tau_orbits(Q)]
    values = tuple(
        tuple(
            tuple([0 if (l + eps[i] + eps[j] + 1) % 2
                   else powers[i][(l + xi[i] - xi[j] - 1) // 2 % h][j]
                   for j in range(n)])
            for i in range(n))
        for l in range(1, L + 1))
    return CTildeTable(cd=cd, L=L, values=values)


def rational_inversion_residual(cd: CartanData, L: int, z0):
    """Exact residual of C(z0) * (truncated inverse) against the identity.

    Returns (max_abs_residual, tail_bound) as Fractions; the bound majorizes
    the dropped tail using the 2h-periodicity of the coefficients, so the
    residual must come in under it for a correct table.

    With z0 = p/q in lowest terms, the truncated inverse S is T / q^L for
    the integer matrix T = sum_l ct(l) p^l q^(L-l), and C(z0) has diagonal
    (p^2 + q^2)/(pq); so every entry of C(z0) S - Id is an integer over the
    one denominator p q^(L+1), and only the results are Fractions.
    """
    from fractions import Fraction

    z0 = Fraction(z0)
    if not 0 < abs(z0) <= Fraction(1, 4):
        raise ValueError("sample point must satisfy 0 < |z0| <= 1/4")
    if L < 4 * cd.h:
        raise ValueError("need L >= 4h for a useful tail bound")
    p, q = z0.numerator, z0.denominator
    n, adj = cd.rank, cd.adjacency0
    values = ctilde_table(cd, L).values
    weights = [p ** l * q ** (L - l) for l in range(1, L + 1)]
    # T[i][j] = sum over l of ct_ij(l) p^l q^(L-l)
    T = [[sum(map(mul, series, weights)) for series in zip(*rows)]
         for rows in zip(*values)]
    diag, pq, one = p * p + q * q, p * q, p * q ** (L + 1)
    resid = 0
    for i in range(n):
        for j in range(n):
            num = diag * T[i][j] - pq * sum(T[k][j] for k in adj[i])
            if i == j:
                num -= one
            resid = max(resid, abs(num))
    cmax = max(abs(c) for layer in values for row in layer for c in row)
    degree = max(len(nbrs) for nbrs in adj)
    # row norm (p^2 + q^2)/(|p| q) + degree, times cmax |z0|^(L+1) / (1 - |z0|)
    tail = Fraction((diag + degree * abs(pq)) * cmax * abs(p) ** L,
                    q ** (L + 1) * (q - abs(p)))
    return Fraction(resid, abs(one)), tail


def check_ctilde_identities(t: CTildeTable) -> list[str]:
    """Verify the eight structural identities; returns violations (ideally [])."""
    cd = t.cd
    h = cd.h
    if t.L < 2 * h:
        raise ValueError(f"table truncated at {t.L}, need at least 2h = {2 * h}")
    bad: list[str] = []
    n = cd.rank
    # zero-based from here on; L >= 2h and the 4h table below keep every
    # index inside its table
    ct = t.values
    star = [s - 1 for s in cd.star]
    autos = [[s - 1 for s in sigma] for sigma in _diagram_automorphisms(cd)]
    for i in range(n):
        for j in range(n):
            for l in range(1, 2 * h + 1):
                layer = ct[l - 1]
                v = layer[i][j]
                if v != layer[j][i]:
                    bad.append(f"(1) symmetry fails at ({i + 1},{j + 1},{l})")
                for sigma in autos:
                    if v != layer[sigma[i]][sigma[j]]:
                        bad.append(f"(2) automorphism invariance fails at ({i + 1},{j + 1},{l})")
                if l <= 2 * h - 1 and v != -ct[2 * h - l - 1][i][j]:
                    bad.append(f"(4) ct(l) = -ct(2h-l) fails at ({i + 1},{j + 1},{l})")
                if 1 <= l <= h - 1 and v != ct[h - l - 1][j][star[i]]:
                    bad.append(f"(5) ct_ij(l) = ct_(j,i*)(h-l) fails at ({i + 1},{j + 1},{l})")
                if l % h == 0 and v != 0:
                    bad.append(f"(6) ct(kh) = 0 fails at ({i + 1},{j + 1},{l})")
                if 1 <= l <= h - 1 and v < 0:
                    bad.append(f"(7) ct(l) >= 0 on 1..h-1 fails at ({i + 1},{j + 1},{l})")
                if h + 1 <= l <= 2 * h - 1 and v > 0:
                    bad.append(f"(8) ct(l) <= 0 on h+1..2h-1 fails at ({i + 1},{j + 1},{l})")
    # (3) periodicity needs one extra period; recompute a longer table.
    ct2 = ctilde_table(cd, 4 * h).values
    for i in range(n):
        for j in range(n):
            for l in range(2 * h):
                if ct[l][i][j] != ct2[l + 2 * h][i][j]:
                    bad.append(f"(3) period 2h fails at ({i + 1},{j + 1},{l + 1})")
    return bad


def _diagram_automorphisms(cd: CartanData) -> tuple[Vec, ...]:
    """All permutations of the vertices preserving the Cartan matrix, sorted.

    These are the known groups of the Dynkin diagrams in the labelling of
    ``root_system``: the flip of A_n (n >= 2), the swap of n-1 and n in
    D_n (n >= 5), S3 on the three legs {1, 3, 4} of D4, the flip of E6, and
    the identity alone for A1, E7 and E8.
    """
    n = cd.rank
    ident = tuple(cd.vertices)
    if cd.family == "A" and n >= 2:
        return ident, tuple(range(n, 0, -1))
    if cd.family == "D" and n == 4:
        legs = (1, 3, 4)
        out = []
        for images in permutations(legs):
            move = dict(zip(legs, images))
            out.append(tuple(move.get(i, i) for i in ident))
        return tuple(sorted(out))
    if cd.family == "D":
        return ident, ident[:n - 2] + (n, n - 1)
    if cd.family == "E" and n == 6:
        return ident, (5, 4, 3, 2, 1, 6)
    return (ident,)

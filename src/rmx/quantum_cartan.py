"""Inverse quantum Cartan matrix coefficients, exactly.

The quantum Cartan matrix C(z) has diagonal entries z + 1/z and the ordinary
off-diagonal Cartan entries.  Its inverse expands as sum_{l>=1} ct(l) z^l
with integer matrices ct(l).  Writing C(z) = (z + 1/z) Id + N and matching
the coefficient of z^m in C(z) * Ct(z) = Id gives the integer recurrence

    ct_ij(m+1) = delta_ij * delta_{m,0} - ct_ij(m-1) + sum_{k ~ i} ct_kj(m)

with ct(l) = 0 for l <= 0 (note N_ik = -1 exactly when k ~ i).

One finite integer identity proves the whole infinite table.  Let
P(z) = sum_{l=1}^{h-1} ct(l) z^l and nu the permutation matrix of i -> i*.
If C(z) P(z) = Id + z^h nu, a polynomial identity of degree h and so h + 1
integer matrix equations, then multiplying on the right by
(Id + z^h nu)^-1 gives C(z)^-1 = P(z) sum_{k>=0} (-z^h nu)^k, that is
ct(l + kh) = (-1)^k ct(l) nu^k with ct(0) = 0.  Periodicity ct(l + 2h) =
ct(l) and ct(kh) = 0 are its even and l = 0 cases.  ``check_ctilde_inversion``
checks the identity and every later layer of a table against it.

The second route to the same table, the Coxeter-element formula, reads the
knitting table of ``ar_quiver``; ``ctilde_coxeter_table`` builds it by
columns, each series ct_ij(1..L) one coordinate of a tau-orbit, rotated and
written into every other slot.  Every window query reads ct through the
zero table ``denominators.zero_orders``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, repeat
from operator import add, sub
from typing import NamedTuple

from rmx import ar_quiver as ar
from rmx.root_system import CartanData, Vec


class CTildeTable(NamedTuple):
    """Integer table ct_ij(l) for 1 <= l <= L."""

    cd: CartanData
    L: int
    values: tuple[tuple[Vec, ...], ...]  # values[l-1][i-1][j-1]

    def value(self, i: int, j: int, l: int) -> int:
        n = self.cd.rank
        if not (1 <= i <= n and 1 <= j <= n and 1 <= l <= self.L):
            raise IndexError(f"({i},{j},{l}) outside table range 1..{n} x 1..{n} x 1..{self.L}")
        return self.values[l - 1][i - 1][j - 1]


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
    ar.check_vertex(cd, i, j)
    period = 2 * cd.h
    t = ctilde_table(cd, period)
    return t.value(i, j, (l - 1) % period + 1)


def ctilde_coxeter(cd, Q, xi, i: int, j: int, l: int) -> int:
    """ct_ij(l) through the Coxeter-element formula for a quiver with heights.

    Returns 0 when l + eps_i + eps_j + 1 is odd; otherwise pairs
    c^k(gamma_i), k = (l + xi_i - xi_j - 1)/2, with the fundamental weight
    w_j.  That vector is tau^k(I_i) read off the knitting table, negated
    when the shift is odd; tau^h adds the even shift -2, so k mod h is
    enough.  Independent of the choice of Q, a quiver of cd, and xi of Q.
    """
    if Q.cd is not cd:
        raise ValueError(f"Q is a quiver of {Q.cd!r}, not of {cd!r}")
    ar.check_height(Q, xi)
    if l < 1:
        raise ValueError("l must be >= 1")
    if (l + cd.eps_of(i) + cd.eps_of(j) + 1) % 2 == 1:
        return 0
    k = (l + xi[i - 1] - xi[j - 1] - 1) // 2
    root, shift = ar._tau_orbits(Q)[i - 1][k % cd.h]
    return -root[j - 1] if shift % 2 else root[j - 1]


def ctilde_coxeter_table(Q, xi, L: int) -> CTildeTable:
    """``ctilde_coxeter`` at every (l, i, j) with 1 <= l <= L, as one table.

    xi is validated once, and each knitting entry tau^s(I_i) is read once,
    as the vector c^s(gamma_i) (its root, negated when the shift is odd).
    The table is built by columns: the series ct_ij(1..L) is zero at every
    other l and, from its first nonzero slot l0 in {1, 2}, runs through
    coordinate j of the vectors c^s(gamma_i) in order of s, starting at
    s = (l0 + xi_i - xi_j - 1)/2 mod h.
    """
    ar.check_height(Q, xi)
    if L < 1:
        raise ValueError("truncation order must be >= 1")
    h, eps = Q.cd.h, Q.cd.eps
    rows = []  # rows[i]: row i of every layer
    for i, orbit in enumerate(ar._tau_orbits(Q)):
        powers = [tuple(-c for c in root) if shift % 2 else root
                  for root, shift in orbit]
        series = []
        for j, column in enumerate(zip(*powers)):
            l0 = 1 + (eps[i] != eps[j])  # l + eps_i + eps_j + 1 even
            k0 = (l0 + xi[i] - xi[j] - 1) // 2 % h
            count = len(range(l0 - 1, L, 2))
            line = [0] * L
            line[l0 - 1::2] = ((column[k0:] + column[:k0]) * (count // h + 1))[:count]
            series.append(line)
        rows.append(zip(*series))
    return CTildeTable(cd=Q.cd, L=L, values=tuple(zip(*rows)))


def check_ctilde_inversion(t: CTildeTable) -> list[str]:
    """Prove every layer of t to be that of C(z)^-1; returns violations.

    Row i of the z^d coefficient of C(z) P(z), 0 <= d <= h, is
    ct(d+1)[i] + ct(d-1)[i] - sum_{k ~ i} ct(d)[k], with ct(l) = 0 outside
    1..h-1.  Each later layer l + kh must equal (-1)^k ct(l) nu^k, whose
    column j is column j* of ct(l) when k is odd.
    """
    cd = t.cd
    h, n = cd.h, cd.rank
    if t.L < h - 1:
        raise ValueError(f"table truncated at {t.L}, need at least h - 1 = {h - 1}")
    ct = t.values
    star = [s - 1 for s in cd.star]
    zero = ((0,) * n,) * n
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    nu = tuple(tuple(int(j == s) for j in range(n)) for s in star)

    def p(l):
        return ct[l - 1] if 1 <= l <= h - 1 else zero

    bad: list[str] = []
    for d in range(h + 1):
        above, here, below = p(d + 1), p(d), p(d - 1)
        want = ident if d == 0 else nu if d == h else zero
        for i, nbrs in enumerate(cd.adjacency0):
            total = map(sum, zip(*(here[k] for k in nbrs))) if nbrs else repeat(0)
            row = tuple(map(sub, map(add, above[i], below[i]), total))
            if row != want[i]:
                bad += [f"C(z)P(z) = Id + z^h nu fails in degree {d} at ({i + 1},{j + 1})"
                        for j, (v, w) in enumerate(zip(row, want[i])) if v != w]
    # layer l of P(z) sum_k (-z^h nu)^k is layers[l % 2h]
    layers = [p(r) for r in range(h)]
    layers += [tuple(tuple(-row[s] for s in star) for row in layer) for layer in layers]
    for l in range(h, t.L + 1):
        want = layers[l % (2 * h)]
        if ct[l - 1] != want:
            bad += [f"ct(l + kh) = (-1)^k ct(l) nu^k fails at ({i + 1},{j + 1},{l})"
                    for i, (row, wrow) in enumerate(zip(ct[l - 1], want))
                    for j, (v, w) in enumerate(zip(row, wrow)) if v != w]
    return bad


def check_ctilde_identities(t: CTildeTable) -> list[str]:
    """Verify the structural identities (1), (2), (4), (5), (7) and (8);
    returns violations (ideally []).

    Periodicity (3), ct(l + 2h) = ct(l), and (6), ct(kh) = 0, are the even
    and the l = 0 cases of ct(l + kh) = (-1)^k ct(l) nu^k, which
    ``check_ctilde_inversion`` proves for every layer.
    """
    cd = t.cd
    h = cd.h
    if t.L < 2 * h:
        raise ValueError(f"table truncated at {t.L}, need at least 2h = {2 * h}")
    bad: list[str] = []
    n = cd.rank
    # zero-based from here on; L >= 2h keeps every index inside the table
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
                if 1 <= l <= h - 1 and v < 0:
                    bad.append(f"(7) ct(l) >= 0 on 1..h-1 fails at ({i + 1},{j + 1},{l})")
                if h + 1 <= l <= 2 * h - 1 and v > 0:
                    bad.append(f"(8) ct(l) <= 0 on h+1..2h-1 fails at ({i + 1},{j + 1},{l})")
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

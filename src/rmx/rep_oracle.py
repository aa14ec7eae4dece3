"""Brute-force ground truth: explicit quiver representations.

Representations carry integer matrices; Hom and Ext^1 come from the
intertwining linear system, whose primitive integer kernel vectors are
certified as intertwiners.  Indecomposables are tree modules with 0/1
matrices, built as nonsplit extensions of smaller ones and certified by
End(M) being spanned by the identity (every exceptional module is a tree
module: Ringel 1998).
Krull-Schmidt decomposition is solved from Hom counts over candidate roots
and proved by an explicit isomorphism from the claimed direct sum.  The
candidates are the roots g <= dim R for which dim R - g is a sum of
candidates; for the middle term of a nonsplit extension of indecomposables
with roots x and y, only the roots strictly between them in the AR quiver
with <x, g> > 0 and <g, y> > 0.

Floating point is deliberately impossible here: every matrix entry is an int
and every rank decision is exact.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain
from operator import le, mul

from rmx import ar_quiver as ar
from rmx import linalg as la
from rmx import root_system as rs
from rmx.ar_quiver import DynkinQuiver
from rmx.root_system import Vec


class OracleError(RuntimeError):
    """An internal consistency check of the oracle failed."""


class QuiverRep:
    """Per-vertex dimensions plus one integer matrix per arrow.

    The dimensions are non-negative ints.  The matrix on arrow u -> v has
    shape dims[v-1] x dims[u-1]; rows of a zero-row matrix are simply
    absent.  A matrix on a pair that is not an arrow of Q is rejected.
    """

    def __init__(self, Q: DynkinQuiver, dims: Vec, mats: dict):
        if len(dims) != Q.cd.rank:
            raise ValueError("dims length mismatch")
        if not set(map(type, dims)) <= {int} or min(dims, default=0) < 0:
            raise ValueError(f"dims must be non-negative ints, got {dims!r}")
        stray = mats.keys() - set(Q.arrows)
        if stray:
            raise ValueError(f"matrices on pairs that are no arrow of Q: "
                             f"{sorted(stray, key=repr)}")
        fixed = {}
        for a in Q.arrows:
            u, v = a
            m = tuple(map(tuple, mats.get(a, ())))
            if len(m) != dims[v - 1] or not set(map(len, m)) <= {dims[u - 1]}:
                raise ValueError(f"matrix shape mismatch on arrow {u}->{v}")
            if not set(map(type, chain.from_iterable(m))) <= {int}:
                raise ValueError(f"non-integer entry on arrow {u}->{v}")
            fixed[a] = m
        self.Q, self.dims, self.mats = Q, dims, fixed

    def __repr__(self):
        return f"QuiverRep(Q={self.Q!r}, dims={self.dims!r}, mats={self.mats!r})"

    def __eq__(self, other):
        if type(other) is not QuiverRep:
            return NotImplemented
        return (self.Q, self.dims, self.mats) == (other.Q, other.dims, other.mats)


def simple_rep(Q: DynkinQuiver, i: int) -> QuiverRep:
    """S_i: k at vertex i and 0 elsewhere, so every arrow carries zero."""
    dims = tuple(1 if j == i else 0 for j in Q.cd.vertices)
    mats = {(u, v): [[0] * dims[u - 1] for _ in range(dims[v - 1])]
            for u, v in Q.arrows}
    return QuiverRep(Q, dims, mats)


def direct_sum(reps: list[QuiverRep]) -> QuiverRep:
    if not reps:
        raise ValueError("empty direct sum needs an explicit quiver")
    Q = reps[0].Q
    if any(r.Q != Q for r in reps):
        raise ValueError("summands live over different quivers")
    dims = tuple(map(sum, zip(*(r.dims for r in reps))))
    mats = {}
    for a in Q.arrows:
        rows, before, width = [], 0, dims[a[0] - 1]
        for r in reps:
            after = width - before - r.dims[a[0] - 1]
            rows += [[0] * before + list(row) + [0] * after for row in r.mats[a]]
            before += r.dims[a[0] - 1]
        mats[a] = rows
    return QuiverRep(Q, dims, mats)


# ---------------------------------------------------------------------------
# Hom / Ext^1 by exact linear algebra


def _intertwiner_matrix(M: QuiverRep, N: QuiverRep):
    """Matrix of Phi(f)_a = N_a f_{src(a)} - f_{tgt(a)} M_a.

    Unknowns are the entries of the vertex maps f_v (shape N_v x M_v),
    rows are indexed by arrow blocks (shape N_{tgt} x M_{src}), in the
    sorted order of ``Q.arrows``.
    """
    if M.Q != N.Q:
        raise ValueError("representations live over different quivers")
    col_off = [0, *accumulate(map(mul, N.dims, M.dims))]
    ncols = col_off[-1]
    rows = []
    for a in M.Q.arrows:
        u, w = a
        Na, Ma = N.mats[a], M.mats[a]
        for rho in range(N.dims[w - 1]):
            for sig in range(M.dims[u - 1]):
                row = [0] * ncols
                # + (N_a f_u)[rho][sig] = sum_t N_a[rho][t] f_u[t][sig]
                for t in range(N.dims[u - 1]):
                    row[col_off[u - 1] + t * M.dims[u - 1] + sig] += Na[rho][t]
                # - (f_w M_a)[rho][sig] = - sum_s f_w[rho][s] M_a[s][sig]
                for s in range(M.dims[w - 1]):
                    row[col_off[w - 1] + rho * M.dims[w - 1] + s] -= Ma[s][sig]
                rows.append(row)
    return rows, ncols, col_off


def hom_basis(M: QuiverRep, N: QuiverRep) -> list[dict]:
    """A verified basis of Hom(M, N): one map per kernel vector of the
    intertwining system, vertex -> integer matrix (list of rows).

    Each map is a primitive integer vector (its entries coprime ints),
    checked to intertwine on every arrow in int arithmetic.
    """
    rows, ncols, col_off = _intertwiner_matrix(M, N)
    basis = []
    for vec in la.nullspace(rows, ncols):
        f = {}
        for v in M.Q.cd.vertices:
            nv, mv = N.dims[v - 1], M.dims[v - 1]
            block = vec[col_off[v - 1]:col_off[v - 1] + nv * mv]
            f[v] = [block[t * mv:(t + 1) * mv] for t in range(nv)]
        _check_intertwiner(M, N, f)
        basis.append(f)
    return basis


def _mm(a, b, n: int, k: int, m: int):
    """Shape-explicit product of an n x k and a k x m matrix."""
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def _check_intertwiner(M: QuiverRep, N: QuiverRep, f: dict) -> None:
    for a in M.Q.arrows:
        u, w = a
        lhs = _mm(N.mats[a], f[u], N.dims[w - 1], N.dims[u - 1], M.dims[u - 1])
        rhs = _mm(f[w], M.mats[a], N.dims[w - 1], M.dims[w - 1], M.dims[u - 1])
        if lhs != rhs:
            raise OracleError(f"nullspace vector fails intertwining on {u}->{w}")


def hom_dim_rep(M: QuiverRep, N: QuiverRep) -> int:
    """dim ker of the intertwiner map, i.e. dim Hom(M, N): one rank, the
    mirror of ``ext1_dim_rep`` and equal to ``len(hom_basis(M, N))``, since
    ``la.nullspace`` returns one vector per free column.  hom - ext1 is then
    the Euler form for any M and N, by rank-nullity.
    """
    rows, ncols, _ = _intertwiner_matrix(M, N)
    return ncols - la.rank(rows, ncols)


def ext1_dim_rep(M: QuiverRep, N: QuiverRep) -> int:
    """dim coker of the intertwiner map, i.e. dim Ext^1(M, N)."""
    rows, ncols, _ = _intertwiner_matrix(M, N)
    return len(rows) - la.rank(rows, ncols)


# ---------------------------------------------------------------------------
# indecomposables


def indec_rep(Q: DynkinQuiver, alpha: Vec) -> QuiverRep:
    """The indecomposable representation with dimension vector alpha.

    A tree module with 0/1 matrices: the simple S_i at a simple root, else
    the nonsplit extension of two smaller tree modules M_beta, M_gamma over
    a split alpha = beta + gamma into positive roots, certified by End(M)
    being spanned by the identity.
    """
    if not rs.is_positive_root(Q.cd, alpha):
        raise ValueError(f"{alpha} is not a positive root")
    return _indec_rep(Q, alpha)


def _splits(cd: rs.CartanData, alpha: Vec):
    """Yield each split alpha = beta + gamma into positive roots once
    (beta < gamma), in ``positive_roots`` order."""
    for beta in rs.positive_roots(cd):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if beta < gamma and rs.is_positive_root(cd, gamma):
            yield beta, gamma


@lru_cache(maxsize=None)
def _indec_rep(Q: DynkinQuiver, alpha: Vec) -> QuiverRep:
    """``indec_rep`` for a positive root, its splits tried in ``_splits`` order.

    Hom and Ext^1 between indecomposables of a Dynkin quiver are never both
    nonzero, so Ext^1(M_gamma, M_beta) = 1 exactly when the Euler form
    <gamma, beta> is -1; ``nonsplit_extension`` certifies it again.  The
    middle term is kept when End(M) is spanned by the identity
    (``_end_is_scalar``), which makes it indecomposable.
    """
    if sum(alpha) == 1:
        return simple_rep(Q, alpha.index(1) + 1)
    for beta, gamma in _splits(Q.cd, alpha):
        for sub, quot in ((beta, gamma), (gamma, beta)):
            if ar.euler_form(Q, quot, sub) != -1:
                continue
            rep = nonsplit_extension(_indec_rep(Q, sub), _indec_rep(Q, quot))
            if _end_is_scalar(rep):
                return rep
    raise OracleError(f"no split of {alpha} extends to an indecomposable")


def _end_is_scalar(M: QuiverRep) -> bool:
    """Whether End(M) is spanned by the identity.

    The kernel of the intertwining system of (M, M) must be exactly the
    identity map, flattened in ``_intertwiner_matrix``'s column order.  The
    identity intertwines by definition, so no kernel vector needs checking.
    """
    rows, ncols, _ = _intertwiner_matrix(M, M)
    identity = [int(t == s) for d in M.dims for t in range(d) for s in range(d)]
    return la.nullspace(rows, ncols) == [identity]


# ---------------------------------------------------------------------------
# extensions and decomposition


def nonsplit_extension(Msub: QuiverRep, Mquot: QuiverRep) -> QuiverRep:
    """The unique middle term when Ext^1(Mquot, Msub) is one-dimensional."""
    Q = Msub.Q
    rows, _, _ = _intertwiner_matrix(Mquot, Msub)
    nrows = len(rows)
    # im(Phi) is the orthogonal complement of the left kernel of Phi, so
    # e_k lies outside im(Phi) exactly when the left kernel vector y has
    # y[k] != 0; the first such k is the unit cocycle.
    transpose = list(map(list, zip(*rows)))
    coker = la.nullspace(transpose, nrows)
    if len(coker) != 1:
        raise ValueError(f"Ext^1(quotient, sub) = {len(coker)}, need exactly 1")
    k = next(k for k, yk in enumerate(coker[0]) if yk)
    # row k of Phi is entry (rho, sig) of the block of one arrow u -> w
    for cocycle_arrow in Q.arrows:
        u, w = cocycle_arrow
        if k < Msub.dims[w - 1] * Mquot.dims[u - 1]:
            rho, sig = divmod(k, Mquot.dims[u - 1])
            break
        k -= Msub.dims[w - 1] * Mquot.dims[u - 1]
    mats = {}
    for a in Q.arrows:
        su, qu = Msub.dims[a[0] - 1], Mquot.dims[a[0] - 1]
        block = [list(row) + [0] * qu for row in Msub.mats[a]]
        block += [[0] * su + list(row) for row in Mquot.mats[a]]
        if a == cocycle_arrow:
            block[rho][su + sig] = 1
        mats[a] = block
    dims = tuple(s + q for s, q in zip(Msub.dims, Mquot.dims))
    return QuiverRep(Q, dims, mats)


def decompose(R: QuiverRep, between: tuple[Vec, Vec] | None = None) -> Counter:
    """The multiset of roots with R isomorphic to the matching direct sum,
    proved by an explicit isomorphism.

    The Hom counts hom(M_g, R) = sum_d hom(M_g, M_d) mu_d pin R down.  Only
    roots g <= dim R can be summands, and Hom(M_g, M_d) != 0 for g != d puts
    d strictly higher in the AR quiver, so the system is solved from the top
    down in integers.  Hom and Ext^1 between indecomposables of a Dynkin
    quiver are never both nonzero, so hom(M_g, M_d) is read off the Euler
    form as max(<g, d>, 0).  Heights are read off the module strip at
    ``default_height(Q)``, which holds each root once.

    Neither the AR order nor the Euler form is trusted: the answer N is
    proved by a map N -> R, a random integer combination of the Hom bases
    the solve computed (``_certify_isomorphism``), that is invertible at
    every vertex.  A wrong answer raises ``OracleError``.

    The candidates g pass four filters, cheapest first: the height window,
    when ``between`` is given; g <= dim R; the Euler-form tests, when
    ``between`` is given; and completion: dim R - g is a sum of the
    remaining candidates, repeats allowed (``_completing``), since the roots
    of the summands sum to dim R.  The solve then skips a candidate that no
    longer fits: once the summands found so far leave ``rest`` of dim R,
    a g that is not <= rest has multiplicity 0, and the solve stops when
    rest is 0.  A filter that dropped a true summand would fail the rebuild
    of dim R or the isomorphism and raise, so none of them is trusted
    either.

    ``between = (x, y)`` takes the roots of two indecomposables X and Y and
    keeps only the roots g strictly between x and y in height with
    <x, g> > 0 and <g, y> > 0.  That is safe for the middle term E of a
    nonsplit 0 -> X -> E -> Y -> 0.  Write E = Z + E' with Z
    indecomposable.  If X -> E has zero component in Z, then X lies in E',
    Y = Z + E'/X forces E' = X and the sequence splits; so Hom(X, Z) != 0,
    that is <x, z> > 0, and dually Hom(Z, Y) != 0.  Z = X or Z = Y would
    make that map an isomorphism (End = k) and split the sequence too.
    Nonzero maps between distinct indecomposables climb the AR quiver, so Z
    lies strictly between X and Y.
    """
    Q = R.Q
    height = _heights(Q)
    x, y = between or (None, None)
    if between is not None:
        xe, ye = _pairing_vectors(Q, x, y)
    candidates = [
        g for g in height
        if (between is None or height[x] < height[g] < height[y])
        and all(map(le, g, R.dims))
        and (between is None
             or sum(map(mul, xe, g)) > 0 and sum(map(mul, g, ye)) > 0)]
    candidates = _completing(candidates, R.dims)
    out: Counter = Counter()
    bases = {}
    rest = list(R.dims)  # dim R minus the summands found so far
    for g in sorted(candidates, key=lambda g: (-height[g], g)):
        if not any(rest):
            break
        if any(a > b for a, b in zip(g, rest)):
            continue
        basis = hom_basis(indec_rep(Q, g), R)
        m = len(basis) - sum(
            max(ar.euler_form(Q, g, d), 0) * md for d, md in out.items())
        if m < 0:
            raise OracleError(f"negative multiplicity {m} at {g}")
        if m:
            out[g], bases[g] = m, basis
            rest = [a - m * b for a, b in zip(rest, g)]
    recon = tuple(
        sum(out[g] * g[k] for g in out) for k in range(Q.cd.rank)
    )
    if recon != R.dims:
        raise OracleError(f"multiplicities rebuild {recon}, expected {R.dims}")
    if sum(R.dims):
        _certify_isomorphism(R, out, bases)
    return out


@lru_cache(maxsize=None)
def _heights(Q: DynkinQuiver) -> dict:
    """Each positive root mapped to its height on the module strip at
    ``default_height(Q)``, which holds each root once."""
    strip = ar.module_strip(Q, ar.default_height(Q))
    return {g: p for (_, p), g in strip.items()}


def _pairing_vectors(Q: DynkinQuiver, x: Vec, y: Vec) -> tuple[list, list]:
    """(xe, ye) with <x, g> = xe . g and <g, y> = g . ye for every g.

    Gathering the Euler form <a, b> = sum_i a_i b_i - sum_{u -> v} a_u b_v
    by g gives xe_v = x_v - sum_{u -> v} x_u and ye_u = y_u - sum_{u -> v} y_v.
    """
    xe, ye = list(x), list(y)
    for u, v in Q.arrows:
        xe[v - 1] -= x[u - 1]
        ye[u - 1] -= y[v - 1]
    return xe, ye


def _completing(candidates: list[Vec], total: Vec) -> list[Vec]:
    """The candidates g (each at most ``total``) for which total - g is a
    sum of candidates, repeats allowed.

    A memoised depth-first search keyed on the remaining vector, trying the
    largest candidates first; each level takes at least one off the sum, so
    the depth is at most sum(total).  A vector is packed into one int, a
    field per vertex whose top bit is a guard: with every guard of v set,
    subtracting c borrows from no neighbouring field, and the guard of a
    field survives exactly when that entry of c is at most the one of v.
    """
    width = max(total).bit_length() + 1

    def pack(v: Vec) -> int:
        return sum(a << (width * k) for k, a in enumerate(v))

    guard = pack([1 << (width - 1)] * len(total))
    packed = {g: pack(g) for g in candidates}
    parts = [packed[g] for g in sorted(candidates, key=sum, reverse=True)]
    memo = {0: True}

    def is_sum(v: int) -> bool:
        if v not in memo:
            memo[v] = False
            for c in parts:
                rest = (v | guard) - c
                if rest & guard == guard and is_sum(rest ^ guard):
                    memo[v] = True
                    break
        return memo[v]

    full = pack(total)
    return [g for g in candidates if is_sum(full - packed[g])]


_ISO_DRAWS = 8


def _certify_isomorphism(R: QuiverRep, out: Counter, bases: dict) -> None:
    """Prove R isomorphic to N = sum_g M_g^out[g], or raise ``OracleError``.

    Hom(N, R) is the direct sum of out[g] copies of Hom(M_g, R), spanned by
    the certified maps in ``bases[g]``.  Each draw combines every copy's
    basis with random integer coefficients in [1, 4 |dim R| + 1]; that is a
    map N -> R, and its vertex maps are square because dim N = dim R.  Full
    rank of their block diagonal makes it an isomorphism.  If R and N are
    isomorphic, the determinant is a nonzero polynomial of degree |dim R| in
    the coefficients, so a draw fails with probability below 1/4 (Schwartz
    1980; Zippel 1979).
    """
    size = sum(R.dims)
    rng = random.Random(0)
    for _ in range(_ISO_DRAWS):
        # the vertex maps N_v -> R_v, one column block per copy of each M_g
        maps = [[[] for _ in range(d)] for d in R.dims]
        for g, m in out.items():
            for _ in range(m):
                coeffs = [rng.randint(1, 4 * size + 1) for _ in bases[g]]
                for v, rows in enumerate(maps, start=1):
                    for t, row in enumerate(rows):
                        row += [sum(c * f[v][t][s]
                                    for c, f in zip(coeffs, bases[g]))
                                for s in range(g[v - 1])]
        diag, off = [], 0
        for d, rows in zip(R.dims, maps):
            diag += [[0] * off + row + [0] * (size - off - d) for row in rows]
            off += d
        if la.rank(diag, size) == size:
            return
    raise OracleError(f"no isomorphism found onto {dict(out)} "
                      f"in {_ISO_DRAWS} draws")

"""Denominators of normalized R-matrices and the simple-pole combinatorics.

The denominator between fundamental modules i and j is
prod_{l=1}^{h-1} (u - q^(l+1))^(ct_ij(l)).  Every window query (pole orders
as the Ext window, the Hom window ``hom_dim``, irreducibility, the arrows of
the Ext quiver in ``schur_weyl``) reads these zeros off ``zero_orders``, built
once per type.  The table holds the answers, the zero orders and each d_ij as
a finished ``Denominator``, so a query validates its vertices once and reads
it.  Dorey middle terms are cross-checked through representations.
``dorey_middle_term`` imports the representation oracle when it is called, so
that ``import rmx`` and the window queries never load the oracle or its
linear-algebra kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from rmx import ar_quiver as ar
from rmx import quantum_cartan as qc
from rmx.ar_quiver import DeltaVertex, DynkinQuiver, IndecObject
from rmx.root_system import CartanData


class NotSimplePoleError(ValueError):
    """The pair has no simple pole, so Dorey's rule does not apply."""


class Denominator(NamedTuple):
    """Factor data of d_ij(u): exponent e -> multiplicity of (u - q^e)."""

    factors: tuple[tuple[int, int], ...]  # (exponent, multiplicity), sorted
    convention: str  # "q" or "minus_q"

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def render(self) -> str:
        if not self.factors:
            return "1"
        base = "q" if self.convention == "q" else "(-q)"
        parts = []
        for e, m in self.factors:
            s = f"(u - {base}^{e})"
            parts.append(s if m == 1 else s + f"^{m}")
        return " ".join(parts)


class Monomial(NamedTuple):
    """Sparse Laurent monomial in the variables Y[i,p], (i, p) in I x Z."""

    exps: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d: dict) -> "Monomial":
        return Monomial(tuple(sorted((k, v) for k, v in d.items() if v != 0)))

    @staticmethod
    def unit() -> "Monomial":
        return Monomial(())

    @staticmethod
    def y(i: int, p: int, e: int = 1) -> "Monomial":
        return Monomial.from_dict({(i, p): e})

    def as_dict(self) -> dict:
        return dict(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for k, v in other.exps:
            d[k] = d.get(k, 0) + v
        return Monomial.from_dict(d)

    def inv(self) -> "Monomial":
        return Monomial(tuple((k, -v) for k, v in self.exps))

    def degree(self) -> int:
        return sum(v for _, v in self.exps)

    def is_dominant(self) -> bool:
        return all(v >= 0 for _, v in self.exps)

    def render(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for (i, p), e in self.exps:
            s = f"Y[{i},{p}]"
            parts.append(s if e == 1 else s + f"^{e}")
        return "*".join(parts)


# ---------------------------------------------------------------------------
# the denominator formula


class ZeroTable(NamedTuple):
    """The zeros of every d_ij(u) of one type, as orders and as answers."""

    orders: tuple[tuple[dict[int, int], ...], ...]  # [i-1][j-1]: e -> ct_ij(e - 1)
    denominators: tuple[tuple[Denominator, ...], ...]  # [i-1][j-1]: d_ij, q convention


@lru_cache(maxsize=None)
def zero_orders(cd: CartanData) -> ZeroTable:
    """The zeros of each d_ij(u): ``orders[i-1][j-1]`` maps each exponent
    e = l + 1 to its order ct_ij(l) != 0 for 1 <= l <= h - 1, by ascending
    e, and ``denominators[i-1][j-1]`` is d_ij itself.  One table per type,
    shared by every caller, so read it and never write."""
    layers = qc.ctilde_table(cd, 2 * cd.h).values[:cd.h - 1]
    shared: dict = {}  # (e, m) -> the one tuple of it, held by every d_ij with that zero
    orders, answers = [], []
    for i in range(cd.rank):
        row = [{l + 1: m for l, layer in enumerate(layers, 1) if (m := layer[i][j])}
               for j in range(cd.rank)]
        orders.append(tuple(row))
        answers.append(tuple(
            Denominator(tuple([shared.setdefault(z, z) for z in zeros.items()]), "q")
            for zeros in row))
    return ZeroTable(tuple(orders), tuple(answers))


def denominator(cd: CartanData, i: int, j: int) -> Denominator:
    """d_ij(u) with zeros at q^(l+1), multiplicity ct_ij(l), 1 <= l <= h-1."""
    ar.check_vertex(cd, i, j)
    return zero_orders(cd).denominators[i - 1][j - 1]


def denominator_kashiwara(cd: CartanData, i: int, j: int) -> Denominator:
    """Same multiplicities with zeros at (-q)^(l+1) (crystal-basis convention)."""
    return Denominator(denominator(cd, i, j).factors, "minus_q")


def pole_order(cd: CartanData, x: DeltaVertex, y: DeltaVertex) -> int:
    """Zero order of d_ij(u) at u = q^(r-p) for x = (i,p), y = (j,r):
    ct_ij(r - p - 1) when 1 <= r - p - 1 <= h - 1, else 0.  This is dim
    Ext^1 from the object at y into the object at x."""
    ar.check_delta_vertex(cd, x, y)
    (i, p), (j, r) = x, y
    return zero_orders(cd).orders[i - 1][j - 1].get(r - p, 0)


def hom_dim(cd: CartanData, x: DeltaVertex, y: DeltaVertex) -> int:
    """dim Hom from the object at x to the object at y, ct_ij(r - p + 1) when
    0 <= r - p <= h - 2, else 0: AR duality Hom(X, Y) = D Ext^1(tau^-1 Y, X)
    reads it as the pole order at tau^-1 y = (j, r + 2)."""
    ar.check_delta_vertex(cd, y, x)  # y first, so an error names y when both are bad
    (i, p), (j, r) = x, y
    return zero_orders(cd).orders[i - 1][j - 1].get(r + 2 - p, 0)


def is_tensor_irreducible(cd: CartanData, x: DeltaVertex, y: DeltaVertex) -> bool:
    """Whether pole_order(x, y) and pole_order(y, x) are both 0."""
    ar.check_delta_vertex(cd, x, y)
    (i, p), (j, r) = x, y
    orders = zero_orders(cd).orders
    return not (orders[i - 1][j - 1].get(r - p) or orders[j - 1][i - 1].get(p - r))


# ---------------------------------------------------------------------------
# dominant-monomial order


def a_monomial(cd: CartanData, i: int, p: int) -> Monomial:
    """A[i,p] = Y[i,p+1] Y[i,p-1] prod_{j ~ i} Y[j,p]^(-1)."""
    d = {(i, p + 1): 1, (i, p - 1): 1}
    for j in cd.neighbors(i):
        d[(j, p)] = d.get((j, p), 0) - 1
    return Monomial.from_dict(d)


def monomial_leq(cd: CartanData, m: Monomial, m2: Monomial) -> bool:
    """Whether m2 / m is a product of A-monomials with nonnegative exponents.

    Y[i,q] occurs in A[i,q-1] and otherwise only in A's at heights q and
    q+1, so the exponents are read off from the top down: the exponent of
    A[i,q-1] is what is left of Y[i,q] once the A's above are divided out.
    An A outside the heights strictly inside the support of the ratio would
    leave an uncancelled Y at its boundary, and the exponents found are the
    only candidate: the ratio is such a product exactly when nothing is left.
    """
    rest = (m2 * m.inv()).as_dict()
    ps = [p for _, p in rest]
    for q in range(max(ps, default=0), min(ps, default=0) + 1, -1):
        for i in cd.vertices:
            e = rest.get((i, q), 0)
            if e < 0:
                return False
            if e:
                for key, a in a_monomial(cd, i, q - 1).exps:
                    rest[key] = rest.get(key, 0) - e * a
    return not any(rest.values())


# ---------------------------------------------------------------------------
# Dorey middle terms at simple poles


def common_heart(cd: CartanData, x: DeltaVertex, y: DeltaVertex):
    """(Q, lo, root_x, root_y): x and y as modules at the least height
    function lo whose heart holds both, or None if no height function does.
    """
    lo = least_height(cd, x, y)
    if lo is None:
        return None
    Q = heart_quiver(cd, lo)
    return Q, lo, ar._happel_object(Q, lo, x).root, ar._happel_object(Q, lo, y).root


def least_height(cd: CartanData, x: DeltaVertex,
                 y: DeltaVertex) -> tuple[int, ...] | None:
    """lo, the least height function whose heart holds x and y, or None.

    xi fixes its quiver, and its modules are the (k, q) with
    xi_{k*} - h + 2 <= q <= xi_k, so xi places x = (i, p) and y = (j, r)
    exactly when lo <= xi <= hi, with the height functions lo_v = max(p -
    d(i, v), r - d(j, v)) and hi_v = min(p + h - 2 + d(i*, v), r + h - 2 +
    d(j*, v)).  Dorey's rule reads the middle term off any such heart.
    """
    ar.check_delta_vertex(cd, x, y)
    (i, p), (j, r) = x, y
    d, top = cd.distance, cd.h - 2
    lo = tuple(max(p - a, r - b) for a, b in zip(d[i - 1], d[j - 1]))
    star_d = zip(d[cd.star_of(i) - 1], d[cd.star_of(j) - 1])
    if any(lo_v > min(p + top + a, r + top + b)  # lo_v > hi_v
           for lo_v, (a, b) in zip(lo, star_d)):
        return None
    return lo


def heart_quiver(cd: CartanData, lo: tuple[int, ...]) -> DynkinQuiver:
    """The quiver whose arrows run down the height function lo, checked to
    fit it."""
    Q = ar.orient(cd, [(u, v) if lo[u - 1] > lo[v - 1] else (v, u)
                       for u, v in cd.edges])
    ar.check_height(Q, lo)
    return Q


def dorey_middle_term(cd: CartanData, Q: DynkinQuiver, xi, x: DeltaVertex,
                      y: DeltaVertex) -> Monomial:
    """Middle-term monomial of the non-split triangle at a simple pole.

    Builds the extension of the two modules in their ``common_heart``
    explicitly and reads the Krull-Schmidt summands back through the (i, p)
    bijection.  A summand lies strictly between x and y and takes a nonzero
    map from X and to Y, so only those roots are decomposed for.  At column
    distance exactly h the quotient object is the shift of the sub (forced
    by ct_ij(h-1) = delta_{j,i*}) and the middle term vanishes.  (Q, xi) is
    validated (Q a quiver of cd, xi fitting Q) but does not change the
    answer.  Every other simple pole is placed, as r - p <= h - 2 + d(i*, j):
    at r - p = h - 1 the pole is ct_ij(h-2) = ct_(j,i*)(2) = [j ~ i*].
    """
    if Q.cd is not cd:
        raise ValueError(f"Q is a quiver of {Q.cd!r}, not of {cd!r}")
    ar.check_height(Q, xi)
    order = pole_order(cd, x, y)
    if order != 1:
        raise NotSimplePoleError(
            f"pole order is {order}, Dorey data needs a simple pole")
    (i, p), (j, r) = x, y
    if r - p == cd.h:
        if j != cd.star_of(i):
            raise RuntimeError(f"a simple pole at distance h forces j = i*, "
                               f"got {x}, {y}")
        return Monomial.unit()
    from rmx import rep_oracle as ro

    Qp, lo, root_x, root_y = common_heart(cd, x, y)
    middle = ro.nonsplit_extension(ro.indec_rep(Qp, root_x), ro.indec_rep(Qp, root_y))
    parts = ro.decompose(middle, between=(root_x, root_y))
    return Monomial.from_dict({ar._happel_inverse(Qp, lo, IndecObject(delta, 0)): mult
                               for delta, mult in parts.items()})

"""Combinatorics of Schur-Weyl families: the Ext quiver on repetition-quiver
vertices, type-A subquiver families, Kostant partitions and graded nilpotent
orbit bookkeeping for the monotone A-infinity quiver.  The Ext quiver has an
arrow (i, r) -> (j, r - e) of multiplicity m for each zero q^e of order m of
d_ji(u), read off ``denominators.zero_orders``; ``gamma_rows`` makes each row
entry ((j, r - e), m) once per call.

Family vertices have one construction, ``_transport``: ``type_a_family`` is
the transport at interval length 1, ``x_of_root`` and ``m_nu`` read it at any
length, and each reads the Cartan datum off its quiver."""

from __future__ import annotations

from itertools import combinations_with_replacement, groupby
from operator import itemgetter
from typing import Iterator, NamedTuple

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import root_system as rs
from rmx.ar_quiver import DeltaVertex, DynkinQuiver, IndecObject
from rmx.denominators import Monomial
from rmx.root_system import CartanData


class _Zero:
    """Sentinel for annihilated family roots (interval length N)."""

    def __repr__(self):
        return "ZERO"


ZERO = _Zero()


class GammaWindow(NamedTuple):
    """A finite full subquiver of the Ext quiver: vertices plus arrow counts."""

    vertices: tuple
    arrows: tuple[tuple[object, object, int], ...]  # (src, dst, multiplicity)


class _FamilyMapFields(NamedTuple):
    j_lo: int
    j_hi: int
    image: tuple[DeltaVertex, ...]


class FamilyMap(_FamilyMapFields):
    """An injective map from an integer interval into the repetition quiver."""

    __slots__ = ()

    def __new__(cls, j_lo: int, j_hi: int, image: tuple[DeltaVertex, ...]):
        if j_hi < j_lo - 1:  # j_hi = j_lo - 1 is the empty domain
            raise ValueError(f"reversed domain [{j_lo}, {j_hi}]: "
                             f"j_hi must be at least j_lo - 1")
        if len(image) != j_hi - j_lo + 1:
            raise ValueError("image length does not match the domain interval")
        if len(set(image)) != len(image):
            raise ValueError("family map must be injective")
        return super().__new__(cls, j_lo, j_hi, image)

    @property
    def domain(self) -> range:
        return range(self.j_lo, self.j_hi + 1)

    def of(self, j: int) -> DeltaVertex:
        if not self.j_lo <= j <= self.j_hi:
            raise KeyError(f"j = {j} outside domain [{self.j_lo}, {self.j_hi}]")
        return self.image[j - self.j_lo]


class _Made(dict):
    """key -> make(key), made on first use and shared after."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def gamma_rows(cd: CartanData, p_lo: int, p_hi: int
               ) -> Iterator[tuple[DeltaVertex, list[tuple[DeltaVertex, int]]]]:
    """The Ext quiver on heights p_lo..p_hi by source row, lazily: (u, [(v, m),
    ...]) for each source u in ``delta_vertices`` order, its targets in that
    order too, read off the zeros of d_ji by descending exponent.

    ``delta_vertices`` lists the sources by vertex i, so the zeros (j, e, m)
    of vertex i with e <= p_hi - p_lo are listed once, and a row keeps those
    with r - e >= p_lo.  Each entry (v, m) is made once, on its first row,
    and every later row that points at v with multiplicity m shares it."""
    zeros = dn.zero_orders(cd).orders
    width = p_hi - p_lo
    # (j, m) -> q -> the entry ((j, q), m)
    columns = _Made(lambda jm: _Made(lambda q: ((jm[0], q), jm[1])))
    for i, sources in groupby(ar.delta_vertices(cd, p_lo, p_hi), itemgetter(0)):
        out = [(e, columns[j, m]) for j, row in enumerate(zeros, 1)
               for e, m in reversed(row[i - 1].items()) if e <= width]
        for u in sources:
            r = u[1]
            top = r - p_lo
            yield u, [column[r - e] for e, column in out if e <= top]


def gamma_arrows(cd: CartanData, p_lo: int, p_hi: int
                 ) -> Iterator[tuple[DeltaVertex, DeltaVertex, int]]:
    """The arrows (u, v, m) of the Ext quiver on heights p_lo..p_hi, lazily:
    ``gamma_rows`` flattened, by source, then by target."""
    return ((u, v, m) for u, row in gamma_rows(cd, p_lo, p_hi) for v, m in row)


def gamma_J(cd: CartanData, fam: FamilyMap) -> GammaWindow:
    """Full subquiver on the family image, re-indexed by the domain.  Its
    arrows are read off the zeros of d_ki through the map from image vertex
    to domain index, by source, then by target."""
    ar.check_delta_vertex(cd, *fam.image)
    zeros = dn.zero_orders(cd).orders
    index = dict(zip(fam.image, fam.domain))
    arrows = []
    for j, (i, r) in zip(fam.domain, fam.image):
        arrows += sorted((j, index[k, r - e], m) for k, row in enumerate(zeros, 1)
                         for e, m in row[i - 1].items() if (k, r - e) in index)
    return GammaWindow(vertices=tuple(fam.domain), arrows=tuple(arrows))


def verify_a_infinity(cd: CartanData, fam: FamilyMap) -> bool:
    """Whether the family quiver is the monotone chain j -> j+1."""
    expected = tuple(
        (j, j + 1, 1) for j in range(fam.j_lo, fam.j_hi)
    )
    return gamma_J(cd, fam).arrows == expected


# ---------------------------------------------------------------------------
# type-A subquiver families


def _check_type_a_subquiver(Q: DynkinQuiver, N: int) -> None:
    cd = Q.cd
    if not 2 <= N <= cd.rank + 1:
        raise ValueError(f"N = {N} outside 2..rank+1")
    sub = set(range(1, N))
    path = {(i, i + 1) for i in range(1, N - 1)}
    induced_edges = {
        (min(u, v), max(u, v)) for u, v in cd.edges if u in sub and v in sub
    }
    if induced_edges != path:
        raise ValueError("vertices 1..N-1 do not induce a path")
    for i in range(1, N - 1):
        if (i, i + 1) not in Q.arrows:
            raise ValueError("subquiver on 1..N-1 is not monotonely oriented")


def _transport(Q: DynkinQuiver, xi, N: int, roots) -> list:
    """The vertices x(j; l) of the interval roots (j, l), ZERO at l = N.

    (Q, xi, N) is validated once, before any root.  The interval module of
    length l < N is, through the repetitive algebra of the path 1..N-1, the
    subpath object at (l, xi_l - 2j + 2); its root, padded by zeros, is a
    root of Q, placed with the same shift.  Both Happel maps run unchecked:
    xi restricts to a height of the monotone subpath, with Q's parities.
    """
    ar.check_height(Q, xi)
    _check_type_a_subquiver(Q, N)
    sub_Q = ar.monotone_quiver(rs.build_cartan("A", N - 1, parity_base=Q.cd.eps_of(1)))
    sub_xi = xi[:N - 1]
    pad = (0,) * (Q.cd.rank - (N - 1))
    out = []
    for j, l in roots:
        if not 1 <= l <= N:
            raise ValueError(f"interval length {l} outside 1..N")
        if l == N:
            out.append(ZERO)
            continue
        root, shift = ar._happel_object(sub_Q, sub_xi, (l, xi[l - 1] - 2 * j + 2))
        out.append(ar._happel_inverse(Q, xi, IndecObject(root + pad, shift)))
    return out


def type_a_family(Q: DynkinQuiver, xi, N: int, j_lo: int, j_hi: int) -> FamilyMap:
    """The family j -> x(j; 1): the transport at interval length 1."""
    image = _transport(Q, xi, N, ((j, 1) for j in range(j_lo, j_hi + 1)))
    return FamilyMap(j_lo=j_lo, j_hi=j_hi, image=tuple(image))


def x_of_root(Q: DynkinQuiver, xi, N: int, j: int, l: int):
    """Family vertex of the interval root alpha(j; l), or ZERO when l = N."""
    return _transport(Q, xi, N, [(j, l)])[0]


# ---------------------------------------------------------------------------
# Kostant partitions of the monotone A-infinity quiver


class KostantPartition(NamedTuple):
    """Multiset of interval roots alpha(j; l) -> multiplicity."""

    nu: tuple[tuple[tuple[int, int], int], ...]

    def beta(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (j, l), c in self.nu:
            for t in range(l):
                out[j + t] = out.get(j + t, 0) + c
        return out

    def weight(self) -> int:
        return sum(l * c for (_, l), c in self.nu)

    def parts(self) -> int:
        return sum(c for _, c in self.nu)


def delta_partition(j: int, l: int) -> KostantPartition:
    """The one-part partition of the single interval root alpha(j; l)."""
    return KostantPartition(nu=(((j, l), 1),))


def kostant_partitions(beta: dict[int, int],
                       max_len: int | None = None) -> list[KostantPartition]:
    """All ways to write beta as a sum of interval roots of length <= max_len."""
    beta = {j: d for j, d in beta.items() if d}
    if any(d < 0 for d in beta.values()):
        raise ValueError("beta must be nonnegative")

    def rec(rem: dict[int, int]):
        if not rem:
            yield []
            return
        j0 = min(rem)
        span = max(rem) - j0 + 1
        cap = span if max_len is None else min(span, max_len)
        count = rem[j0]
        for lens in combinations_with_replacement(range(1, cap + 1), count):
            nxt = dict(rem)
            ok = True
            for l in lens:
                for t in range(l):
                    nxt[j0 + t] = nxt.get(j0 + t, 0) - 1
                    if nxt[j0 + t] < 0:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            nxt = {j: d for j, d in nxt.items() if d}
            head = [(j0, l) for l in lens]
            for tail in rec(nxt):
                yield head + tail

    out = []
    for items in rec(beta):
        counts: dict[tuple[int, int], int] = {}
        for key in items:
            counts[key] = counts.get(key, 0) + 1
        out.append(KostantPartition(nu=tuple(sorted(counts.items()))))
    return sorted(out, key=lambda kp: kp.nu)


def m_nu(Q: DynkinQuiver, xi, N: int, nu: KostantPartition) -> Monomial:
    """The dominant monomial of a partition: one Y per surviving interval,
    each at its own vertex, since the transport is injective below l = N."""
    xs = _transport(Q, xi, N, (root for root, _ in nu.nu))
    return Monomial.from_dict({x: c for x, (_, c) in zip(xs, nu.nu) if x is not ZERO})


def _interval_hom(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Hom count between interval modules of the monotone chain."""
    (ja, la), (jb, lb) = a, b
    a_lo, a_hi = ja, ja + la - 1
    b_lo, b_hi = jb, jb + lb - 1
    return 1 if b_lo <= a_lo <= b_hi <= a_hi else 0


def orbit_census(beta: dict[int, int], N: int):
    """Orbit dimensions of the graded nilpotent variety, one per partition.

    dim of the orbit of nu is dim G_beta minus the endomorphism count of the
    corresponding interval-module direct sum.
    """
    dim_g = sum(d * d for d in beta.values())
    out = []
    for kp in kostant_partitions(beta, N):
        end = 0
        for (ia, ca) in kp.nu:
            for (ib, cb) in kp.nu:
                end += ca * cb * _interval_hom(ia, ib)
        out.append((kp, dim_g - end))
    return out

"""Dynkin quivers, height functions, and the derived-category combinatorics.

Indecomposable derived objects are modeled as (positive root, shift) pairs;
the Auslander-Reiten translate acts by the knitting rule: apply the Coxeter
element to the root and absorb a sign flip into the shift.  The bijection
between repetition-quiver vertices (i, p) and objects is computed exactly,
never tabulated per type.

Quivers are interned: ``orient`` is the one constructor and returns one
object per (Cartan datum, arrow set), so equality is identity and the
caches keyed on a quiver hash it in O(1).  Pickling and copying go back
through ``orient``.

``_tau_orbits`` is the one knitting table: one tau period of each injective
I_i per arrow set, which the two parities of a type share, since knitting
reads only the arrows, the adjacency and h.  The module strip, the Happel
maps and the Coxeter formula for ct_ij(l) read it at any height function
of Q.  A Coxeter step is one ``root_system.reflect_word`` call over the
whole Coxeter word, on one list in place; that is the only reflection
routine used here.

This module reads only ``root_system``: the ct table and the zero table of
``denominators`` that every Hom/Ext window query reads live above it, so the
representation oracle, which builds on it, stays independent of them.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple

from rmx import root_system as rs
from rmx.root_system import CartanData, Vec

DeltaVertex = tuple[int, int]  # (vertex i, height p) with p = eps_i mod 2


class DynkinQuiver:
    """An orientation of the Dynkin diagram: one directed arrow per edge.

    Interned: build it through ``orient``, never directly.
    """

    def __init__(self, cd: CartanData, arrows: tuple[tuple[int, int], ...]):
        undirected = {(min(u, v), max(u, v)) for u, v in arrows}
        expected = {(min(u, v), max(u, v)) for u, v in cd.edges}
        if undirected != expected or len(arrows) != len(cd.edges):
            raise ValueError("arrows must orient each diagram edge exactly once")
        object.__setattr__(self, "cd", cd)
        object.__setattr__(self, "arrows", arrows)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"DynkinQuiver is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"DynkinQuiver(cd={self.cd!r}, arrows={self.arrows!r})"

    def __reduce__(self):
        return orient, (self.cd, self.arrows)

    def label(self) -> str:
        return ",".join(f"{u}>{v}" for u, v in sorted(self.arrows))


def orient(cd: CartanData, arrows) -> DynkinQuiver:
    """The interned quiver with these arrows, in any order."""
    return _interned_quiver(cd, tuple(sorted(arrows)))


@lru_cache(maxsize=None)
def _interned_quiver(cd: CartanData, arrows: tuple[tuple[int, int], ...]) -> DynkinQuiver:
    return DynkinQuiver(cd=cd, arrows=arrows)


def monotone_quiver(cd: CartanData) -> DynkinQuiver:
    """The orientation of the type diagrams used throughout: u -> v for u < v."""
    return orient(cd, [(min(u, v), max(u, v)) for u, v in cd.edges])


def sink_source_quiver(cd: CartanData) -> DynkinQuiver:
    """Bipartite orientation: every odd-parity vertex a source."""
    arrows = []
    for u, v in cd.edges:
        if cd.eps_of(u) == 1:
            arrows.append((u, v))
        else:
            arrows.append((v, u))
    return orient(cd, arrows)


def random_orientation(cd: CartanData, seed: int) -> DynkinQuiver:
    import random

    rng = random.Random(seed)
    arrows = []
    for u, v in cd.edges:
        arrows.append((u, v) if rng.random() < 0.5 else (v, u))
    return orient(cd, arrows)


# ---------------------------------------------------------------------------
# height functions


def check_height(Q: DynkinQuiver, xi: tuple[int, ...]) -> None:
    cd = Q.cd
    if len(xi) != cd.rank:
        raise ValueError("height function has wrong length")
    for i in cd.vertices:
        if (xi[i - 1] - cd.eps_of(i)) % 2 != 0:
            raise ValueError(f"xi_{i} = {xi[i-1]} has wrong parity")
    for u, v in Q.arrows:
        if xi[u - 1] != xi[v - 1] + 1:
            raise ValueError(f"xi must drop by 1 along {u}->{v}")


@lru_cache(maxsize=None)
def default_height(Q: DynkinQuiver, xi1: int | None = None) -> tuple[int, ...]:
    """The height function with the given value at vertex 1 (default eps_1)."""
    cd = Q.cd
    if xi1 is None:
        xi1 = cd.eps_of(1)
    if (xi1 - cd.eps_of(1)) % 2 != 0:
        raise ValueError(f"xi1 = {xi1} has wrong parity for vertex 1")
    out = {1: xi1}
    queue = [1]
    while queue:
        u = queue.pop(0)
        for a, b in Q.arrows:
            for src, dst, step in ((a, b, -1), (b, a, +1)):
                if src == u and dst not in out:
                    out[dst] = out[u] + step
                    queue.append(dst)
    xi = tuple(out[i] for i in cd.vertices)
    check_height(Q, xi)
    return xi


# ---------------------------------------------------------------------------
# Coxeter element


@lru_cache(maxsize=None)
def coxeter_word(Q: DynkinQuiver) -> tuple[int, ...]:
    """Vertices by descending height (ties by index); leftmost acts last.

    Every height of Q is an even shift of ``default_height(Q)``, so the word
    depends on Q alone.
    """
    xi = default_height(Q)
    return tuple(sorted(Q.cd.vertices, key=lambda i: (-xi[i - 1], i)))


def coxeter_apply(cd: CartanData, word: tuple[int, ...], v: Vec, times: int) -> Vec:
    """Apply tau^times for the Coxeter element given by ``word``."""
    w = list(v)
    letters = word[::-1] if times > 0 else word
    for _ in range(abs(times)):
        rs.reflect_word(cd, letters, w)
    return tuple(w)


def gamma_vector(Q: DynkinQuiver, i: int) -> Vec:
    """Dimension vector of the injective hull I_i: sum of alpha_j over j with
    an oriented path j -> ... -> i (including j = i)."""
    cd = Q.cd
    reach = {i}
    changed = True
    while changed:
        changed = False
        for u, v in Q.arrows:
            if v in reach and u not in reach:
                reach.add(u)
                changed = True
    return tuple(1 if j in reach else 0 for j in cd.vertices)


# ---------------------------------------------------------------------------
# objects and knitting


class IndecObject(NamedTuple):
    """An indecomposable derived object M_root[shift]."""

    root: Vec
    shift: int


def _knit(Q: DynkinQuiver, obj: IndecObject, times: int):
    """Yield tau^s(obj) for s = 1..|times|, with tau^-1 when times < 0: one
    Coxeter step each, and a sign flip costs one shift."""
    word = coxeter_word(Q)
    letters, flip = (word[::-1], -1) if times > 0 else (word, 1)
    v, shift = list(obj.root), obj.shift
    for _ in range(abs(times)):
        rs.reflect_word(Q.cd, letters, v)
        if min(v) < 0:
            v = [-c for c in v]
            shift += flip
        yield IndecObject(tuple(v), shift)


def tau_object(Q: DynkinQuiver, obj: IndecObject, times: int) -> IndecObject:
    """Iterated AR translate via knitting: a sign flip costs one shift."""
    for obj in _knit(Q, obj, times):
        pass
    return obj


def check_vertex(cd: CartanData, *indices: int) -> None:
    rank = cd.rank
    for i in indices:
        if not 1 <= i <= rank:
            raise ValueError(f"vertex index {i} out of range")


def check_delta_vertex(cd: CartanData, *xs: DeltaVertex) -> None:
    """Each (i, p) in turn: 1 <= i <= rank, then p of the parity eps_i."""
    rank, eps = cd.rank, cd.eps
    for i, p in xs:
        if not 1 <= i <= rank:
            raise ValueError(f"vertex index {i} out of range")
        if (p - eps[i - 1]) % 2:
            raise ValueError(f"({i},{p}) violates the parity constraint")


@lru_cache(maxsize=None)
def _tau_orbits(Q: DynkinQuiver) -> tuple[tuple[IndecObject, ...], ...]:
    """For each vertex i, the objects tau^s(I_i) for s = 0..h-1.

    Knitting closes each orbit: tau^h(I_i) = I_i[-2], so these h objects and
    the shift determine tau^s(I_i) for every integer s, at every height
    function of Q.  Knitting reads only the arrows, the adjacency and h, so
    a parity-1 datum returns the table of its parity-0 twin.
    """
    cd = Q.cd
    if cd.parity_base:
        return _tau_orbits(orient(rs.build_cartan(cd.family, cd.rank), Q.arrows))
    orbits = []
    for i in cd.vertices:
        start = IndecObject(gamma_vector(Q, i), 0)
        orbit = (start, *_knit(Q, start, cd.h))
        if orbit[-1] != (start.root, -2):
            raise RuntimeError(f"knitting does not close: tau^h(I_{i}) = "
                               f"{orbit[-1]}, not I_{i}[-2]")
        orbits.append(orbit[:-1])
    return tuple(orbits)


def happel_object(Q: DynkinQuiver, xi: tuple[int, ...], x: DeltaVertex) -> IndecObject:
    """The object tau^((xi_i - p)/2)(I_i) attached to the vertex (i, p).

    xi_i and p both have the parity of eps_i, so xi_i - p is even.
    """
    check_height(Q, xi)
    check_delta_vertex(Q.cd, x)
    return _happel_object(Q, xi, x)


def _happel_object(Q: DynkinQuiver, xi: tuple[int, ...], x: DeltaVertex) -> IndecObject:
    """``happel_object`` unchecked: xi must fit Q and x be parity-valid."""
    i, p = x
    periods, s = divmod((xi[i - 1] - p) // 2, Q.cd.h)
    root, shift = _tau_orbits(Q)[i - 1][s]
    return IndecObject(root, shift - 2 * periods)


@lru_cache(maxsize=None)
def _orbit_index(Q: DynkinQuiver):
    """For each root and shift parity, the (i, s, shift) of its tau^s(I_i)."""
    index: dict[tuple[Vec, int], tuple[int, int, int]] = {}
    for i, orbit in zip(Q.cd.vertices, _tau_orbits(Q)):
        for s, obj in enumerate(orbit):
            key = (obj.root, obj.shift % 2)
            if key in index:
                raise RuntimeError(f"{obj} and the entry at {index[key]} share "
                                   "a root and shift parity")
            index[key] = (i, s, obj.shift)
    return index


def happel_inverse(Q: DynkinQuiver, xi: tuple[int, ...],
                   obj: IndecObject) -> DeltaVertex:
    """The unique (i, p) with happel_object(Q, xi, (i, p)) == obj."""
    check_height(Q, xi)
    if not rs.is_positive_root(Q.cd, obj.root):
        raise ValueError(f"{obj.root} is not a positive root")
    return _happel_inverse(Q, xi, obj)


def _happel_inverse(Q: DynkinQuiver, xi: tuple[int, ...],
                    obj: IndecObject) -> DeltaVertex:
    """``happel_inverse`` unchecked: xi must fit Q and obj.root be a root."""
    i, s, s0 = _orbit_index(Q)[(obj.root, obj.shift % 2)]
    return (i, xi[i - 1] - 2 * s + Q.cd.h * (obj.shift - s0))


@lru_cache(maxsize=None)
def module_strip(Q: DynkinQuiver, xi: tuple[int, ...]) -> dict:
    """All (i, p) whose object is an honest module, mapped to its root.

    These are the shift-0 prefixes of the tau orbits: (i, xi_i - 2s) for s
    up to the first tau^s(I_i) with a nonzero shift.
    """
    strip: dict[DeltaVertex, Vec] = {}
    for i, orbit in zip(Q.cd.vertices, _tau_orbits(Q)):
        for s, (root, shift) in enumerate(orbit):
            if shift:
                break
            strip[(i, xi[i - 1] - 2 * s)] = root
    return strip


# ---------------------------------------------------------------------------
# pairings


def euler_form(Q: DynkinQuiver, a: Vec, b: Vec) -> int:
    """<a, b> = sum_i a_i b_i - sum_{u -> v} a_u b_v."""
    total = sum(map(mul, a, b))
    total -= sum(a[u - 1] * b[v - 1] for u, v in Q.arrows)
    return total


def delta_vertices(cd: CartanData, p_lo: int, p_hi: int) -> list[DeltaVertex]:
    """Parity-valid vertices (i, p) with p_lo <= p <= p_hi, ordered."""
    out = []
    for i in cd.vertices:
        for p in range(p_lo, p_hi + 1):
            if (p - cd.eps_of(i)) % 2 == 0:
                out.append((i, p))
    return out

"""Simply-laced root systems: Cartan data, positive roots, Weyl reflections.

Vertex labels are 1-based and fixed once and for all:

* ``A_n``: path 1 - 2 - ... - n
* ``D_n``: path 1 - ... - (n-2), with both n-1 and n attached to n-2
* ``E_n``: path 1 - ... - (n-1), with n attached to 3

Root-lattice vectors are integer tuples in the simple-root basis, so the
pairing with the fundamental weight ``w_j`` is simply coordinate ``j``.

Cartan data are interned: build them through ``build_cartan``, never by
constructing ``CartanData`` directly.  There is one object per
``(family, rank, parity_base)``, so equality is identity and hashing is
O(1); the many caches keyed on a ``CartanData`` never walk its matrix.
Pickling and copying go back through ``build_cartan`` and return the
interned object.

``reflect_word`` is the one reflection routine: it applies a word of simple
reflections to a list in place.  ``reflect`` is its one-letter case, and the
Coxeter steps of ``ar_quiver`` apply a whole Coxeter word per call.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

Vec = tuple[int, ...]

FAMILIES = ("A", "D", "E")

# Largest rank build_cartan accepts.  It admits A60 and every type the
# benchmark runs, and it bounds the intern table (at most one entry per
# family, rank and parity base).
MAX_RANK = 64


class InvalidTypeError(ValueError):
    """Raised for a family/rank combination outside type ADE."""


def _edges_for(family: str, rank: int) -> list[tuple[int, int]]:
    if family not in FAMILIES:
        raise InvalidTypeError(f"unknown family {family!r}")
    if rank > MAX_RANK:
        raise InvalidTypeError(f"rank {rank} exceeds the supported maximum {MAX_RANK}")
    if family == "A":
        if rank < 1:
            raise InvalidTypeError(f"A_n needs n >= 1, got {rank}")
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        if rank < 4:
            raise InvalidTypeError(f"D_n needs n >= 4, got {rank}")
        edges = [(i, i + 1) for i in range(1, rank - 2)]
        edges += [(rank - 2, rank - 1), (rank - 2, rank)]
        return edges
    if rank not in (6, 7, 8):
        raise InvalidTypeError(f"E_n needs n in {{6,7,8}}, got {rank}")
    return [(i, i + 1) for i in range(1, rank - 1)] + [(3, rank)]


class CartanData:
    """Immutable, interned Cartan datum of a simply-laced simple Lie algebra.

    The fields are the interning key.  Everything else hangs off the
    instance and is computed once: ``edges`` (the unordered adjacency),
    ``adjacency`` (the neighbours of each vertex), ``adjacency0`` (the same,
    zero-based, for ``reflect_word``), ``distance`` (the graph
    distances), ``cartan`` (the symmetric Cartan matrix), ``eps`` (the
    parity function: eps_i != eps_j for adjacent i, j), ``h`` (the Coxeter
    number) and ``star`` (the involution i -> i* with w0(alpha_i) =
    -alpha_(i*) for the longest Weyl element w0).  h and star are the
    closed forms of each type (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI, Plates I, IV-VII), so neither builds the positive roots.
    """

    def __init__(self, family: str, rank: int, parity_base: int):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "parity_base", parity_base)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"CartanData is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return (f"CartanData(family={self.family!r}, rank={self.rank!r}, "
                f"parity_base={self.parity_base!r})")

    def __reduce__(self):
        return build_cartan, (self.family, self.rank, self.parity_base)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(_edges_for(self.family, self.rank))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[i - 1]``: the neighbours of vertex i."""
        return tuple(
            tuple(v for u, v in self.edges if u == i)
            + tuple(u for u, v in self.edges if v == i)
            for i in self.vertices
        )

    @cached_property
    def adjacency0(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency0[i - 1]``: the zero-based indices of the neighbours of i."""
        return tuple(tuple(j - 1 for j in nbrs) for nbrs in self.adjacency)

    @cached_property
    def distance(self) -> tuple[Vec, ...]:
        """``distance[i - 1][j - 1]``: the number of edges from i to j."""
        rows = []
        for s in self.vertices:
            dist = {s: 0}
            queue = [s]
            for u in queue:
                for w in self.adjacency[u - 1]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            rows.append(tuple(dist[i] for i in self.vertices))
        return tuple(rows)

    @cached_property
    def eps(self) -> Vec:
        # eps_i = (graph distance from vertex 1 + parity_base) mod 2
        return tuple((d + self.parity_base) % 2 for d in self.distance[0])

    @cached_property
    def cartan(self) -> tuple[Vec, ...]:
        rows = []
        for i in self.vertices:
            row = [0] * self.rank
            row[i - 1] = 2
            for j in self.adjacency[i - 1]:
                row[j - 1] = -1
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def positive_root_set(self) -> frozenset[Vec]:
        return frozenset(positive_roots(self))

    @cached_property
    def h(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return 2 * self.rank - 2
        return {6: 12, 7: 18, 8: 30}[self.rank]

    @cached_property
    def star(self) -> Vec:
        n = self.rank
        if self.family == "A":
            return tuple(range(n, 0, -1))
        if self.family == "D" and n % 2:
            return tuple(range(1, n - 1)) + (n, n - 1)
        if (self.family, n) == ("E", 6):
            return (5, 4, 3, 2, 1, 6)
        return tuple(self.vertices)

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i - 1]

    def c(self, i: int, j: int) -> int:
        return self.cartan[i - 1][j - 1]

    def adjacent(self, i: int, j: int) -> bool:
        return self.c(i, j) == -1

    def star_of(self, i: int) -> int:
        return self.star[i - 1]

    def eps_of(self, i: int) -> int:
        return self.eps[i - 1]

    def label(self) -> str:
        return f"{self.family}{self.rank}"


def simple_root(cd: CartanData, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in cd.vertices)


def reflect_word(cd: CartanData, word, v: list[int]) -> None:
    """Apply r_i for each i of ``word``, first letter first, to v in place.

    r_i subtracts (v, alpha_i)*alpha_i, so only coordinate i changes, to
    sum_{j ~ i} v_j - v_i.  This is the package's one reflection formula.
    """
    adj = cd.adjacency0
    for i in word:
        i -= 1
        s = -v[i]
        for j in adj[i]:
            s += v[j]
        v[i] = s


def reflect(cd: CartanData, i: int, v: Vec) -> Vec:
    """Simple reflection r_i in root coordinates: ``reflect_word`` on (i,).

    ``v`` itself is returned when the pairing is 0.
    """
    w = list(v)
    reflect_word(cd, (i,), w)
    return v if w[i - 1] == v[i - 1] else tuple(w)


@lru_cache(maxsize=None)
def _interned(family: str, rank: int, parity_base: int) -> CartanData:
    cd = CartanData(family=family, rank=rank, parity_base=parity_base)
    cd.edges  # rejects an invalid type; h and star are closed forms
    return cd


def build_cartan(family: str, rank: int, parity_base: int = 0) -> CartanData:
    """The interned Cartan datum for the given ADE type.

    ``parity_base`` selects between the two admissible parity functions:
    eps_i = (graph distance from vertex 1 + parity_base) mod 2.  Equal
    arguments, with the default spelled out or not, give the same object.
    """
    if parity_base not in (0, 1):
        raise ValueError("parity_base must be 0 or 1")
    return _interned(family, rank, int(parity_base))


@lru_cache(maxsize=None)
def positive_roots(cd: CartanData) -> tuple[Vec, ...]:
    """All positive roots in lexicographic order on root coordinates.

    The closure of the simple roots under simple reflections, keeping the
    images that stay in the positive cone; r_i changes only coordinate i,
    so that coordinate decides positivity, and is put back after each
    letter so that one list serves every r_i of a root.
    """
    roots = {simple_root(cd, i) for i in cd.vertices}
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            w = list(v)
            for i in cd.vertices:
                reflect_word(cd, (i,), w)
                if w[i - 1] != v[i - 1]:
                    if w[i - 1] >= 0 and (u := tuple(w)) not in roots:
                        roots.add(u)
                        nxt.append(u)
                    w[i - 1] = v[i - 1]
        frontier = nxt
    return tuple(sorted(roots))


def is_positive_root(cd: CartanData, v: Vec) -> bool:
    return v in cd.positive_root_set


def all_ade_types(max_rank: int = 8) -> list[tuple[str, int]]:
    """Every ADE (family, rank) pair with rank <= max_rank."""
    out = [("A", n) for n in range(1, max_rank + 1)]
    out += [("D", n) for n in range(4, max_rank + 1)]
    out += [("E", n) for n in (6, 7, 8) if n <= max_rank]
    return out

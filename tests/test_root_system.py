import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import root_system as rs


def test_a2_cartan_matrix():
    cd = rs.build_cartan("A", 2)
    assert cd.cartan == ((2, -1), (-1, 2))


def test_d4_adjacency():
    cd = rs.build_cartan("D", 4)
    assert set(cd.edges) == {(1, 2), (2, 3), (2, 4)}


def test_e6_adjacency():
    cd = rs.build_cartan("E", 6)
    assert set(cd.edges) == {(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)}


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 3), ("E", 5), ("E", 9)])
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(rs.InvalidTypeError):
        rs.build_cartan(family, rank)


def test_a2_positive_roots():
    cd = rs.build_cartan("A", 2)
    assert set(rs.positive_roots(cd)) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("family,rank,count", [("D", 4, 12), ("E", 8, 120)])
def test_positive_root_counts(family, rank, count):
    cd = rs.build_cartan(family, rank)
    roots = rs.positive_roots(cd)
    assert len(roots) == count
    assert len(roots) == rank * cd.h // 2


def test_positive_roots_sorted_and_deterministic():
    cd = rs.build_cartan("D", 5)
    roots = rs.positive_roots(cd)
    assert list(roots) == sorted(roots)
    assert roots == rs.positive_roots(rs.build_cartan("D", 5))


def test_simple_reflection_examples():
    cd = rs.build_cartan("A", 2)
    a1 = rs.simple_root(cd, 1)
    a2 = rs.simple_root(cd, 2)
    assert rs.reflect(cd, 1, a1) == (-1, 0)
    assert rs.reflect(cd, 1, a2) == (1, 1)


def test_simple_reflection_is_involutive():
    cd = rs.build_cartan("D", 4)
    for i in cd.vertices:
        for v in rs.positive_roots(cd):
            assert rs.reflect(cd, i, rs.reflect(cd, i, v)) == v


def test_reflection_closure_of_positive_roots():
    cd = rs.build_cartan("D", 4)
    pos = set(rs.positive_roots(cd))
    for alpha in pos:
        for i in cd.vertices:
            w = rs.reflect(cd, i, alpha)
            neg_simple = tuple(-c for c in rs.simple_root(cd, i))
            assert w in pos or w == neg_simple


@pytest.mark.parametrize(
    "family,rank,h",
    [("A", 1, 2), ("A", 4, 5), ("D", 4, 6), ("D", 7, 12),
     ("E", 6, 12), ("E", 7, 18), ("E", 8, 30)],
)
def test_coxeter_numbers(family, rank, h):
    cd = rs.build_cartan(family, rank)
    assert cd.h == h
    assert cd.star_of(cd.star_of(1)) == 1


def test_star_involution_values():
    assert rs.build_cartan("A", 3).star_of(1) == 3
    assert rs.build_cartan("D", 5).star_of(4) == 5
    assert rs.build_cartan("D", 4).star_of(3) == 3
    assert rs.build_cartan("E", 6).star_of(5) == 1
    assert rs.build_cartan("E", 7).star == tuple(range(1, 8))


def test_star_is_involution_and_preserves_adjacency():
    for family, rank in rs.all_ade_types(8):
        cd = rs.build_cartan(family, rank)
        for i in cd.vertices:
            assert cd.star_of(cd.star_of(i)) == i
        for u, v in cd.edges:
            su, sv = cd.star_of(u), cd.star_of(v)
            assert (min(su, sv), max(su, sv)) in set(cd.edges)


def test_parity_alternates_on_edges():
    for family, rank in rs.all_ade_types(8):
        for base in (0, 1):
            cd = rs.build_cartan(family, rank, parity_base=base)
            assert cd.eps_of(1) == base
            for u, v in cd.edges:
                assert cd.eps_of(u) != cd.eps_of(v)


def test_parity_base_flips_everything():
    a = rs.build_cartan("D", 5, parity_base=0)
    b = rs.build_cartan("D", 5, parity_base=1)
    assert all(x != y for x, y in zip(a.eps, b.eps))
    assert a.cartan == b.cartan and a.star == b.star and a.h == b.h


# ---------------------------------------------------------------------------
# the interned kernel against dense references, over many types

KERNEL_TYPES = rs.all_ade_types(12) + [
    (family, n) for family in ("A", "D") for n in range(13, 31)
]


def dense_cartan(cd):
    """The Cartan matrix read off the edge list, entry by entry."""
    edges = {frozenset(e) for e in cd.edges}
    return tuple(
        tuple(2 if i == j else (-1 if frozenset((i, j)) in edges else 0)
              for j in cd.vertices)
        for i in cd.vertices
    )


def dense_pairing(cartan, i, v):
    """(v, alpha_i) as the full sum over the Cartan matrix row."""
    return sum(v[j] * cartan[i - 1][j] for j in range(len(v)))


def dense_reflect(cartan, i, v):
    """r_i(v) = v - (v, alpha_i) alpha_i with the full pairing sum."""
    pairing = dense_pairing(cartan, i, v)
    return tuple(v[j] - (pairing if j == i - 1 else 0) for j in range(len(v)))


def star_from_longest_word(cd):
    """Reference: i* read off the longest Weyl element w0.

    w0 takes 2*rho (the sum of the positive roots, with (2*rho, alpha_i) = 2
    for every i) to -2*rho: reflect at the first i with (v, alpha_i) > 0
    until none is left, taking length(w0) = #positive roots steps.  The same
    reflections take u = sum_i i*alpha_i to w0(u) = -sum_i i*alpha_(i*),
    whose coordinate j is -j*.
    """
    roots = rs.positive_roots(cd)
    two_rho = tuple(map(sum, zip(*roots)))
    v, u = two_rho, tuple(cd.vertices)
    cartan = dense_cartan(cd)
    steps = 0
    while True:
        i = next((k for k in cd.vertices if dense_pairing(cartan, k, v) > 0), None)
        if i is None:
            break
        v, u = rs.reflect(cd, i, v), rs.reflect(cd, i, u)
        steps += 1
    assert steps == len(roots) and v == tuple(-c for c in two_rho)
    return tuple(-c for c in u)


@st.composite
def type_and_vector(draw):
    family, n = draw(st.sampled_from(KERNEL_TYPES))
    v = tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    return family, n, v


@settings(max_examples=200, deadline=None)
@given(type_and_vector(), st.data())
def test_sparse_reflect_matches_dense_reference(tv, data):
    family, n, v = tv
    cd = rs.build_cartan(family, n)
    i = data.draw(st.integers(1, n))
    w = rs.reflect(cd, i, v)
    assert w == dense_reflect(dense_cartan(cd), i, v)
    if w == v:
        assert w is v  # a zero pairing hands the vector back


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_TYPES), st.sampled_from((0, 1)))
def test_build_cartan_interns_equal_arguments(type_, base):
    family, n = type_
    cd = rs.build_cartan(family, n, base)
    assert rs.build_cartan(family, n, parity_base=base) is cd
    if base == 0:
        assert rs.build_cartan(family, n) is cd
    other = rs.build_cartan(family, n, 1 - base)
    assert other is not cd and other != cd
    assert cd.cartan == dense_cartan(cd)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_TYPES), st.sampled_from((0, 1)))
def test_hash_agrees_with_equality_through_pickle_and_copy(type_, base):
    cd = rs.build_cartan(*type_, base)
    for twin in (pickle.loads(pickle.dumps(cd)), copy.copy(cd), copy.deepcopy(cd)):
        assert twin is cd
        assert twin == cd and hash(twin) == hash(cd)
        assert {cd: 1}[twin] == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_TYPES))
def test_positive_root_count_and_star_closed_forms(type_):
    family, n = type_
    cd = rs.build_cartan(family, n)
    roots = rs.positive_roots(cd)
    assert 2 * len(roots) == n * cd.h
    assert all(rs.is_positive_root(cd, r) for r in roots)
    assert cd.star == star_from_longest_word(cd)
    assert all(cd.star_of(cd.star_of(i)) == i for i in cd.vertices)


@pytest.mark.parametrize("family,rank", rs.all_ade_types(8))
def test_positive_roots_match_dense_closure(family, rank):
    cd = rs.build_cartan(family, rank)
    cartan = dense_cartan(cd)
    roots = {rs.simple_root(cd, i) for i in cd.vertices}
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for i in cd.vertices:
                w = dense_reflect(cartan, i, v)
                if all(c >= 0 for c in w) and w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    assert rs.positive_roots(cd) == tuple(sorted(roots))


def test_rank_cap():
    cd = rs.build_cartan("A", rs.MAX_RANK)
    assert cd.h == rs.MAX_RANK + 1
    for family, rank in (("A", rs.MAX_RANK + 1), ("D", rs.MAX_RANK + 1), ("A", 10**12)):
        with pytest.raises(rs.InvalidTypeError, match="maximum"):
            rs.build_cartan(family, rank)


def test_neighbors_and_adjacency_follow_the_edges():
    for family, rank in rs.all_ade_types(8):
        cd = rs.build_cartan(family, rank)
        for i in cd.vertices:
            expected = {v for u, v in cd.edges if u == i} | {u for u, v in cd.edges if v == i}
            assert set(cd.neighbors(i)) == expected
            assert all(cd.adjacent(i, j) == (j in expected) for j in cd.vertices)

import math
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import linalg as la
from rmx import rep_oracle as ro
from rmx import root_system as rs
from rmx import selfcheck
from rmx.ar_quiver import IndecObject
from rmx.selfcheck import _three_orientations


def _a2():
    cd = rs.build_cartan("A", 2)
    return cd, ar.orient(cd, [(2, 1)])


def test_indec_rep_examples():
    cd, Q = _a2()
    M = ro.indec_rep(Q, (1, 1))
    assert M.dims == (1, 1)
    assert M.mats[(2, 1)][0][0] != 0
    assert ro.hom_dim_rep(M, M) == 1
    S1 = ro.indec_rep(Q, (1, 0))
    assert S1.dims == (1, 0)
    cd4 = rs.build_cartan("D", 4)
    Q4 = ar.monotone_quiver(cd4)
    H = ro.indec_rep(Q4, (1, 2, 1, 1))
    assert ro.hom_dim_rep(H, H) == 1


def test_indec_rep_rejects_non_roots():
    _, Q = _a2()
    with pytest.raises(ValueError):
        ro.indec_rep(Q, (2, 0))


def test_hom_dim_examples():
    cd, Q = _a2()
    M = ro.indec_rep(Q, (1, 1))
    S1, S2 = ro.simple_rep(Q, 1), ro.simple_rep(Q, 2)
    assert ro.hom_dim_rep(M, S2) == 1  # quotient onto the socle-free top
    assert ro.hom_dim_rep(S1, S2) == 0
    assert ro.hom_dim_rep(M, M) == 1


def test_hom_basis_dimension_matches():
    cd, Q = _a2()
    M = ro.indec_rep(Q, (1, 1))
    S2 = ro.simple_rep(Q, 2)
    assert len(ro.hom_basis(M, S2)) == ro.hom_dim_rep(M, S2) == 1


def test_ext1_dim_examples():
    cd, Q = _a2()
    S1, S2 = ro.simple_rep(Q, 1), ro.simple_rep(Q, 2)
    M = ro.indec_rep(Q, (1, 1))
    assert ro.ext1_dim_rep(S2, S1) == 1
    assert ro.ext1_dim_rep(S1, S2) == 0
    assert ro.ext1_dim_rep(M, M) == 0


def test_nonsplit_extension_example_and_error():
    cd, Q = _a2()
    S1, S2 = ro.simple_rep(Q, 1), ro.simple_rep(Q, 2)
    E = ro.nonsplit_extension(S1, S2)
    assert E.dims == (1, 1)
    assert ro.decompose(E) == Counter({(1, 1): 1})
    with pytest.raises(ValueError):
        ro.nonsplit_extension(S2, S1)


def test_nonsplit_extension_never_splits():
    cd4 = rs.build_cartan("D", 4)
    Q4 = ar.monotone_quiver(cd4)
    roots = rs.positive_roots(cd4)
    found = 0
    for a in roots:
        for b in roots:
            Ma, Mb = ro.indec_rep(Q4, a), ro.indec_rep(Q4, b)
            if ro.ext1_dim_rep(Mb, Ma) != 1:
                continue
            found += 1
            parts = ro.decompose(ro.nonsplit_extension(Ma, Mb))
            assert parts != Counter({a: 1, b: 1}) or a == b
    assert found > 0


def test_decompose_examples():
    cd, Q = _a2()
    S1, S2 = ro.simple_rep(Q, 1), ro.simple_rep(Q, 2)
    assert ro.decompose(ro.direct_sum([S1, S2])) == Counter({(1, 0): 1, (0, 1): 1})
    zero = ro.QuiverRep(Q, (0, 0), {a: [] for a in Q.arrows})
    assert ro.decompose(zero) == Counter()


def test_decompose_round_trips_random_sums():
    rng = random.Random(5)
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    roots = rs.positive_roots(cd)
    for _ in range(25):
        picks = [rng.choice(roots) for _ in range(rng.randint(1, 5))]
        total = ro.direct_sum([ro.indec_rep(Q, a) for a in picks])
        assert ro.decompose(total) == Counter(picks)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), type_=st.sampled_from(rs.all_ade_types(6)),
       orientation=st.integers(0, 2**32))
def test_decompose_round_trips_on_any_type_and_orientation(data, type_, orientation):
    cd = rs.build_cartan(*type_)
    Q = ar.random_orientation(cd, orientation)
    picks = data.draw(st.lists(st.sampled_from(rs.positive_roots(cd)),
                               min_size=1, max_size=4))
    total = ro.direct_sum([ro.indec_rep(Q, a) for a in picks])
    assert ro.decompose(total) == Counter(picks)


def _e6_middle_term():
    """E6 at (4, 1), (2, 5): a simple pole whose middle term has three
    summands, as (E, root_x, root_y)."""
    cd = rs.build_cartan("E", 6)
    Qp, _, root_x, root_y = dn.common_heart(cd, (4, 1), (2, 5))
    E = ro.nonsplit_extension(ro.indec_rep(Qp, root_x), ro.indec_rep(Qp, root_y))
    return E, root_x, root_y


@contextmanager
def _completion_calls():
    """Record each ``_completing`` call as (candidates, total, kept)."""
    calls = []
    completing = ro._completing

    def recording(candidates, total):
        calls.append((candidates, total, completing(candidates, total)))
        return calls[-1][2]

    with mock.patch.object(ro, "_completing", recording):
        yield calls


def test_completion_keeps_exactly_the_summands_of_an_e6_middle_term():
    E, root_x, root_y = _e6_middle_term()
    summands = {(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1), (0, 1, 1, 1, 1, 0)}
    with _completion_calls() as calls:
        assert ro.decompose(E, between=(root_x, root_y)) == Counter(dict.fromkeys(summands, 1))
    [(candidates, total, kept)] = calls
    assert total == E.dims and set(candidates) > summands
    assert set(kept) == summands


@pytest.mark.parametrize("between", [False, True], ids=["whole", "window"])
@pytest.mark.parametrize("dropped", [(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1),
                                     (0, 1, 1, 1, 1, 0)])
def test_a_completion_filter_that_drops_a_summand_raises(dropped, between):
    E, root_x, root_y = _e6_middle_term()
    completing = ro._completing

    def dropping(candidates, total):
        return [g for g in completing(candidates, total) if g != dropped]

    with mock.patch.object(ro, "_completing", dropping):
        with pytest.raises(ro.OracleError):
            ro.decompose(E, between=(root_x, root_y) if between else None)


def test_completion_is_a_sum_of_candidates_with_repeats():
    # (2, 1) = 2 (1, 0) + (0, 1); (0, 2) needs (0, 1) twice; nothing
    # completes (1, 1) in (2, 2) without (1, 1) itself
    assert ro._completing([(1, 0), (0, 1)], (2, 1)) == [(1, 0), (0, 1)]
    assert ro._completing([(1, 0), (0, 1), (1, 1)], (2, 2)) == [(1, 0), (0, 1), (1, 1)]
    assert ro._completing([(1, 0), (1, 1)], (2, 2)) == [(1, 1)]
    assert ro._completing([(1, 1)], (2, 1)) == []
    assert ro._completing([], (0, 0)) == []


@settings(max_examples=40, deadline=None)
@given(data=st.data(), type_=st.sampled_from([("A", 4), ("D", 5), ("E", 6)]),
       orientation=st.integers(0, 2**32))
def test_completion_keeps_every_summand_of_a_direct_sum(data, type_, orientation):
    cd = rs.build_cartan(*type_)
    Q = ar.random_orientation(cd, orientation)
    picks = data.draw(st.lists(st.sampled_from(rs.positive_roots(cd)),
                               min_size=1, max_size=5))
    total = ro.direct_sum([ro.indec_rep(Q, a) for a in picks])
    with _completion_calls() as calls:
        assert ro.decompose(total) == Counter(picks)
    [(_, _, kept)] = calls
    assert set(picks) <= set(kept)


def test_e6_simple_poles_stay_inside_their_hom_basis_budget():
    # every E6 simple pole with x at heights 0-1, tree modules built from
    # scratch: 171 hom_basis calls (320 while module builds solved Hom(M, M),
    # 682 before the completion filter)
    cd = rs.build_cartan("E", 6)
    Q = ar.monotone_quiver(cd)
    xi = ar.default_height(Q)
    poles = [(x, y) for x in ar.delta_vertices(cd, 0, 1)
             for y in ar.delta_vertices(cd, 0, cd.h + 1)
             if dn.pole_order(cd, x, y) == 1]
    ro._indec_rep.cache_clear()
    with mock.patch.object(ro, "hom_basis", wraps=ro.hom_basis) as hom_basis:
        for x, y in poles:
            dn.dorey_middle_term(cd, Q, xi, x, y)
    assert len(poles) == 110
    assert hom_basis.call_count <= 180


def test_rep_oracle_round_trips_stay_inside_their_hom_basis_budget():
    # the 100 decompose round-trips of the full rep-oracle check over A3 and
    # D4: 410 hom_basis calls (631 before the solve skipped the candidates
    # that no longer fit the rest of dim R)
    decompose, counts = ro.decompose, []

    def counted(R, between=None):
        with mock.patch.object(ro, "hom_basis", wraps=ro.hom_basis) as hom_basis:
            out = decompose(R, between)
        counts.append(hom_basis.call_count)
        return out

    with mock.patch.object(ro, "decompose", counted):
        assert selfcheck.check_rep_oracle(("A3", "D4"), 100)[0]
    assert len(counts) == 100
    assert sum(counts) <= 420


def reflection_functor(Q, i, R):
    """Reference: the BGP reflection at a sink or source vertex i.

    The result lives over the quiver with all arrows at i reversed; on
    indecomposables other than S_i the dimension vector is reflected by r_i.
    At a sink the new space at i is the kernel of the assembled map into
    R_i, at a source the cokernel of the assembled map out of R_i.
    """
    if R.Q != Q:
        raise ValueError("representation not over the given quiver")
    ins = sorted(a for a in Q.arrows if a[1] == i)
    outs = sorted(a for a in Q.arrows if a[0] == i)
    if ins and outs:
        raise ValueError(f"vertex {i} is neither a sink nor a source")
    flipped = ar.orient(
        Q.cd, [(v, u) if u == i or v == i else (u, v) for u, v in Q.arrows])
    if not ins and not outs:  # isolated vertex (rank 1): nothing to do
        return ro.QuiverRep(flipped, R.dims, R.mats)
    new_dims = list(R.dims)
    new_mats = {a: R.mats[a] for a in Q.arrows if i not in a}
    others = [u for u, _ in ins] or [v for _, v in outs]
    offs = [0, *accumulate(R.dims[u - 1] for u in others)]
    total = offs[-1]
    # T: the maps into R_i at a sink, the transposed maps out of it at a source
    T = [[0] * total for _ in range(R.dims[i - 1])]
    for u, off in zip(others, offs):
        m = R.mats[(u, i)] if ins else R.mats[(i, u)]
        for r in range(R.dims[i - 1]):
            for c in range(R.dims[u - 1]):
                T[r][off + c] = m[r][c] if ins else m[c][r]
    # the kernel of T is the new space at i: at a source, the cokernel
    kernel = la.nullspace(T, total)
    new_dims[i - 1] = len(kernel)
    for u, off in zip(others, offs):
        du = R.dims[u - 1]
        if ins:
            new_mats[(i, u)] = [[vec[off + r] for vec in kernel] for r in range(du)]
        else:
            new_mats[(u, i)] = [vec[off:off + du] for vec in kernel]
    return ro.QuiverRep(flipped, tuple(new_dims), new_mats)


def test_reflection_functor_examples():
    cd, Q = _a2()
    S1, S2 = ro.simple_rep(Q, 1), ro.simple_rep(Q, 2)
    R = reflection_functor(Q, 1, S2)
    assert R.dims == (1, 1)
    assert R.Q.arrows == ((1, 2),)
    assert reflection_functor(Q, 1, S1).dims == (0, 0)
    with pytest.raises(ValueError):
        cd3 = rs.build_cartan("A", 3)
        Q3 = ar.monotone_quiver(cd3)  # vertex 2 has arrows in and out
        reflection_functor(Q3, 2, ro.simple_rep(Q3, 1))


def test_reflection_functor_reflects_dimension_vectors():
    cd = rs.build_cartan("D", 4)
    Q = ar.monotone_quiver(cd)
    sinks = [v for v in cd.vertices if all(a[0] != v for a in Q.arrows)]
    sources = [v for v in cd.vertices if all(a[1] != v for a in Q.arrows)]
    for alpha in rs.positive_roots(cd):
        M = ro.indec_rep(Q, alpha)
        for v in sinks + sources:
            if alpha == rs.simple_root(cd, v):
                continue
            out = reflection_functor(Q, v, M)
            assert out.dims == rs.reflect(cd, v, alpha)
            assert ro.hom_dim_rep(out, out) == 1


def _injective_rep(Q, i):
    """Reference: I_i, k at each vertex with a path to i (a 0/1 dimension
    vector on a tree) and the identity on each arrow between two of them."""
    dims = ar.gamma_vector(Q, i)
    mats = {(u, v): [[1] * dims[u - 1]] * dims[v - 1] for u, v in Q.arrows}
    return ro.QuiverRep(Q, dims, mats)


def _indec_rep_bgp(Q, alpha):
    """Reference: M_alpha as tau^s(I_i) via sink-ordered reflection functors."""
    xi = ar.default_height(Q)
    i, p = ar.happel_inverse(Q, xi, IndecObject(alpha, 0))
    steps = (xi[i - 1] - p) // 2
    assert steps >= 0
    rep = _injective_rep(Q, i)
    order = tuple(sorted(Q.cd.vertices, key=lambda v: (xi[v - 1], v)))
    for _ in range(steps):
        for v in order:
            rep = reflection_functor(rep.Q, v, rep)
        assert rep.Q == Q
    assert rep.dims == alpha
    return rep


def test_bgp_construction_path():
    """Every indecomposable is a certified 0/1 tree module; up to rank 6 it
    is isomorphic to the module the reflection functors build."""
    for family, rank in rs.all_ade_types(8):
        cd = rs.build_cartan(family, rank)
        for Q in _three_orientations(cd):
            for alpha in rs.positive_roots(cd):
                M = ro.indec_rep(Q, alpha)
                assert M.dims == alpha
                assert {x for m in M.mats.values() for row in m for x in row} <= {0, 1}
                assert ro.hom_dim_rep(M, M) == 1
                if rank <= 6:
                    bgp = _indec_rep_bgp(Q, alpha)
                    assert ro.decompose(ro.direct_sum([M, bgp])) == Counter({alpha: 2})


def test_euler_identity_exhaustive_a3():
    """A3 and every other type of rank <= 6, every ordered pair, the three
    orientations (fewer where they coincide, as on A1 and A2): hom - ext1 is
    the Euler form (true of any modules by rank-nullity) and hom = max(<a,
    b>, 0) (directedness)."""
    pairs = 0
    for type_ in rs.all_ade_types(6):
        cd = rs.build_cartan(*type_)
        roots = rs.positive_roots(cd)
        for Q in _three_orientations(cd):
            reps = {a: ro.indec_rep(Q, a) for a in roots}
            for a in roots:
                for b in roots:
                    hom, e = ro.hom_dim_rep(reps[a], reps[b]), ar.euler_form(Q, a, b)
                    assert hom - ro.ext1_dim_rep(reps[a], reps[b]) == e, (Q, a, b)
                    assert hom == max(e, 0), (Q, a, b)
                    pairs += 1
    assert pairs == 10_645


def test_euler_identity_sampled_e6():
    cd = rs.build_cartan("E", 6)
    Q = ar.monotone_quiver(cd)
    roots = rs.positive_roots(cd)
    rng = random.Random(17)
    for _ in range(200):
        a, b = rng.choice(roots), rng.choice(roots)
        Ma, Mb = ro.indec_rep(Q, a), ro.indec_rep(Q, b)
        hom, e = ro.hom_dim_rep(Ma, Mb), ar.euler_form(Q, a, b)
        assert hom - ro.ext1_dim_rep(Ma, Mb) == e
        assert hom == max(e, 0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), type_=st.sampled_from(rs.all_ade_types(8)),
       orientation=st.integers(0, 2**32))
def test_hom_minus_ext_is_the_euler_form(data, type_, orientation):
    cd = rs.build_cartan(*type_)
    Q = ar.random_orientation(cd, orientation)
    a, b = (data.draw(st.sampled_from(rs.positive_roots(cd))) for _ in range(2))
    Ma, Mb = ro.indec_rep(Q, a), ro.indec_rep(Q, b)
    hom, e = ro.hom_dim_rep(Ma, Mb), ar.euler_form(Q, a, b)
    assert hom - ro.ext1_dim_rep(Ma, Mb) == e
    assert hom == max(e, 0)


def test_hom_dim_rep_is_one_rank_not_a_basis():
    # the length of the certified basis on every D4 pair, with no map built
    cd = rs.build_cartan("D", 4)
    roots = rs.positive_roots(cd)
    for Q in _three_orientations(cd):
        reps = [ro.indec_rep(Q, a) for a in roots]
        lengths = [len(ro.hom_basis(M, N)) for M in reps for N in reps]
        with mock.patch.object(ro, "hom_basis", side_effect=AssertionError):
            assert [ro.hom_dim_rep(M, N) for M in reps for N in reps] == lengths


def test_hom_basis_is_integral_and_primitive():
    cd = rs.build_cartan("D", 5)
    Q = ar.sink_source_quiver(cd)
    M, N = ro.indec_rep(Q, (1, 1, 1, 1, 0)), ro.indec_rep(Q, (0, 1, 1, 1, 0))
    basis = ro.hom_basis(M, ro.direct_sum([M, M, N]))
    assert len(basis) == 2 + ro.hom_dim_rep(M, N)
    for f in basis:
        entries = [x for m in f.values() for row in m for x in row]
        assert all(type(x) is int for x in entries)
        assert math.gcd(*entries) == 1


def test_rep_validation_rejects_bad_shapes():
    cd, Q = _a2()
    with pytest.raises(ValueError):
        ro.QuiverRep(Q, (1, 1), {(2, 1): [[1, 2]]})
    for entry in (Fraction(1, 2), Fraction(1), 1.0):  # entries are ints only
        with pytest.raises(ValueError):
            ro.QuiverRep(Q, (1, 1), {(2, 1): [[entry]]})
    with pytest.raises(ValueError, match=r"\(1, 2\)"):  # 1 -> 2 is no arrow of Q
        ro.QuiverRep(Q, (1, 1), {(1, 2): [[1]], (2, 1): [[0]]})
    # dims are non-negative ints, even where no arrow reads them
    A1 = ar.monotone_quiver(rs.build_cartan("A", 1))  # no arrows
    for dims in ((-3,), (2.0,), (True,)):
        with pytest.raises(ValueError, match="dims must be non-negative ints"):
            ro.QuiverRep(A1, dims, {})
    A3 = ar.monotone_quiver(rs.build_cartan("A", 3))
    with pytest.raises(ValueError, match="dims must be non-negative ints"):
        ro.QuiverRep(A3, (1, 1, 1.0), {(1, 2): [[0]], (2, 3): [[0]]})


def _validated_mats_reference(Q, dims, mats):
    """Reference: the matrices QuiverRep stored before a matrix on a pair
    that is not an arrow was rejected (such a matrix was dropped)."""
    if len(dims) != Q.cd.rank:
        raise ValueError("dims length mismatch")
    fixed = {}
    for a in Q.arrows:
        u, v = a
        m = [list(row) for row in mats.get(a, [])]
        if len(m) != dims[v - 1] or any(
            len(row) != dims[u - 1] for row in m
        ):
            raise ValueError(f"matrix shape mismatch on arrow {u}->{v}")
        if any(type(x) is not int for row in m for x in row):
            raise ValueError(f"non-integer entry on arrow {u}->{v}")
        fixed[a] = tuple(map(tuple, m))
    return fixed


_ENTRIES = st.one_of(st.integers(-3, 3), st.booleans(), st.floats(-2, 2),
                     st.fractions(max_denominator=3))


@st.composite
def _rep_arguments(draw):
    """(Q, dims, mats) for QuiverRep, each flaw switched on by a flag: a
    wrong dims length, missing arrows, wrong row counts, ragged rows,
    entries that are not ints, matrices on pairs that are no arrows."""
    cd = rs.build_cartan(*draw(st.sampled_from([("A", 1), ("A", 3), ("D", 4)])))
    Q = ar.random_orientation(cd, draw(st.integers(0, 2**32)))
    flaws = draw(st.fixed_dictionaries({k: st.booleans() for k in (
        "length", "missing", "rows", "ragged", "entries", "stray")}))
    n = cd.rank + (draw(st.sampled_from([-1, 1])) if flaws["length"] else 0)
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    entries = _ENTRIES if flaws["entries"] else st.integers(-3, 3)
    seq = st.sampled_from([list, tuple])

    def matrix(nrows, ncols):
        if flaws["rows"]:
            nrows = max(nrows + draw(st.integers(-1, 1)), 0)
        rows = []
        for _ in range(nrows):
            width = ncols + (draw(st.integers(-1, 1)) if flaws["ragged"] else 0)
            cells = draw(st.lists(entries, min_size=max(width, 0),
                                  max_size=max(width, 0)))
            rows.append(draw(seq)(cells))
        return draw(seq)(rows)

    mats = {}
    for u, v in Q.arrows:
        if flaws["missing"] and draw(st.booleans()):
            continue
        mats[(u, v)] = matrix(dims[v - 1] if v <= len(dims) else 0,
                              dims[u - 1] if u <= len(dims) else 0)
    if flaws["stray"]:
        for u, v in draw(st.lists(st.sampled_from(
                [(v, u) for u, v in Q.arrows] + [(1, 1), (1, cd.rank + 1)]),
                min_size=1, max_size=2)):
            mats[(u, v)] = [[1]]
    return Q, dims, mats


@settings(max_examples=200, deadline=None)
@given(args=_rep_arguments())
def test_rep_validation_matches_the_reference(args):
    Q, dims, mats = args
    stray = set(mats) - set(Q.arrows)
    try:
        expected = _validated_mats_reference(Q, dims, mats)
    except ValueError:
        expected = None
    if expected is None or stray:
        with pytest.raises(ValueError):
            ro.QuiverRep(Q, dims, mats)
    else:
        assert ro.QuiverRep(Q, dims, mats).mats == expected


@pytest.mark.parametrize("type_", rs.all_ade_types(6),
                         ids=lambda t: f"{t[0]}{t[1]}")
def test_every_module_has_end_spanned_by_the_identity(type_):
    cd = rs.build_cartan(*type_)
    for Q in _three_orientations(cd):
        for alpha in rs.positive_roots(cd):
            M = ro.indec_rep(Q, alpha)
            assert ro._end_is_scalar(M)
            assert ro.hom_dim_rep(M, M) == 1


def test_no_direct_sum_has_end_spanned_by_the_identity():
    cd = rs.build_cartan("D", 4)
    Q = ar.monotone_quiver(cd)
    roots = rs.positive_roots(cd)
    for a in roots:
        for b in roots:  # a = b included
            M = ro.direct_sum([ro.indec_rep(Q, a), ro.indec_rep(Q, b)])
            assert not ro._end_is_scalar(M)


def test_a_split_extension_is_never_taken_for_an_indecomposable():
    cd = rs.build_cartan("D", 4)
    Q = ar.monotone_quiver(cd)
    build = ro._indec_rep.__wrapped__  # past the cache, which holds the true ones
    with mock.patch.object(ro, "nonsplit_extension",
                           lambda sub, quot: ro.direct_sum([sub, quot])):
        for alpha in rs.positive_roots(cd):
            if sum(alpha) > 1:
                with pytest.raises(ro.OracleError, match="no split"):
                    build(Q, alpha)


def test_building_the_e6_modules_solves_no_hom_system():
    cd = rs.build_cartan("E", 6)
    Q = ar.monotone_quiver(cd)
    ro._indec_rep.cache_clear()
    with mock.patch.object(ro, "hom_basis", wraps=ro.hom_basis) as hom_basis:
        for alpha in rs.positive_roots(cd):
            ro.indec_rep(Q, alpha)
    assert ro._indec_rep.cache_info().currsize == len(rs.positive_roots(cd))
    assert hom_basis.call_count == 0


@pytest.mark.parametrize("type_", rs.all_ade_types(6),
                         ids=lambda t: f"{t[0]}{t[1]}")
def test_pairing_vectors_and_heights_match_their_definitions(type_):
    cd = rs.build_cartan(*type_)
    roots = rs.positive_roots(cd)
    for Q in _three_orientations(cd):
        # y runs over the roots backwards, so x and y differ but for one pair
        for x, y in zip(roots, reversed(roots)):
            xe, ye = ro._pairing_vectors(Q, x, y)
            for g in roots:
                assert sum(map(mul, xe, g)) == ar.euler_form(Q, x, g)
                assert sum(map(mul, g, ye)) == ar.euler_form(Q, g, y)
        strip = ar.module_strip(Q, ar.default_height(Q))
        heights = ro._heights(Q)
        assert sorted(heights) == sorted(roots) and len(strip) == len(roots)
        assert all(heights[g] == p for (_, p), g in strip.items())


def test_the_split_order_changes_some_basis(monkeypatch):
    cd = rs.build_cartan("E", 6)
    Q = ar.monotone_quiver(cd)
    splits = ro._splits
    ro._indec_rep.cache_clear()
    mats = [ro.indec_rep(Q, a).mats for a in rs.positive_roots(cd)]
    with monkeypatch.context() as m:
        m.setattr(ro, "_splits", lambda cd, alpha: reversed(list(splits(cd, alpha))))
        ro._indec_rep.cache_clear()
        try:
            reversed_mats = [ro.indec_rep(Q, a).mats for a in rs.positive_roots(cd)]
        finally:  # later tests must not see the reversed bases
            ro._indec_rep.cache_clear()
    assert reversed_mats != mats


def test_decompose_window_drops_roots_outside_it():
    # the AR quiver is S1 -> M_(1,1) -> S2: the window between S1 and S2
    # keeps M_(1,1), and the one between S1 and M_(1,1) keeps nothing
    cd, Q = _a2()
    xi = ar.default_height(Q)
    assert [ar.happel_inverse(Q, xi, IndecObject(g, 0))[1]
            for g in ((1, 0), (1, 1), (0, 1))] == [-1, 0, 1]
    M = ro.indec_rep(Q, (1, 1))
    R = ro.direct_sum([M, M])
    assert ro.decompose(R, between=((1, 0), (0, 1))) == Counter({(1, 1): 2})
    with pytest.raises(ro.OracleError, match="rebuild"):
        ro.decompose(R, between=((1, 0), (1, 1)))


def test_decompose_window_keeps_only_roots_with_maps_from_x_and_to_y():
    # on 1 -> 2 -> 3, S2 lies between S3 and M_(1,1,0) in height, but
    # Hom(S3, S2) = 0, so it is no candidate between them
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    x, y, s2 = (0, 0, 1), (1, 1, 0), (0, 1, 0)
    xi = ar.default_height(Q)
    assert (ar.happel_inverse(Q, xi, IndecObject(x, 0))[1]
            < ar.happel_inverse(Q, xi, IndecObject(s2, 0))[1]
            < ar.happel_inverse(Q, xi, IndecObject(y, 0))[1])
    assert ar.euler_form(Q, x, s2) == 0
    S2 = ro.indec_rep(Q, s2)
    assert ro.decompose(S2) == Counter({s2: 1})
    with pytest.raises(ro.OracleError, match="rebuild"):
        ro.decompose(S2, between=(x, y))
    middle = ro.nonsplit_extension(ro.indec_rep(Q, x), ro.indec_rep(Q, y))
    assert ro.decompose(middle, between=(x, y)) == Counter({(1, 1, 1): 1})


def test_decompose_rejects_a_window_without_a_summand():
    # the window between S1 and S2 keeps M_(1,1) alone: the Hom counts give
    # {(1,1): 1}, which rebuilds dim R, and no map M_(1,1) -> R is onto
    cd, Q = _a2()
    R = ro.direct_sum([ro.simple_rep(Q, 1), ro.simple_rep(Q, 2)])
    with mock.patch.object(la, "rank", wraps=la.rank) as rank:
        with pytest.raises(ro.OracleError, match="no isomorphism"):
            ro.decompose(R, between=((1, 0), (0, 1)))
    assert rank.call_count == ro._ISO_DRAWS  # a fixed number of draws


def test_a_wrong_claim_fails_after_the_fixed_number_of_draws():
    cd = rs.build_cartan("D", 4)
    Q = ar.monotone_quiver(cd)
    a, b = (1, 1, 0, 0), (0, 1, 1, 1)
    Ma, Mb = ro.indec_rep(Q, a), ro.indec_rep(Q, b)
    R = ro.direct_sum([Ma, Mb])
    c = tuple(x + y for x, y in zip(a, b))
    right = {a: ro.hom_basis(Ma, R), b: ro.hom_basis(Mb, R)}
    ro._certify_isomorphism(R, Counter({a: 1, b: 1}), right)
    assert rs.is_positive_root(cd, c)  # the highest root: dim R, a wrong claim
    with mock.patch.object(la, "rank", wraps=la.rank) as rank:
        with pytest.raises(ro.OracleError):
            ro._certify_isomorphism(R, Counter({c: 1}),
                                    {c: ro.hom_basis(ro.indec_rep(Q, c), R)})
    assert rank.call_count == ro._ISO_DRAWS


def test_the_zero_representation_needs_no_draw():
    cd = rs.build_cartan("D", 4)
    Q = ar.monotone_quiver(cd)
    zero = ro.QuiverRep(Q, (0,) * 4, {a: [] for a in Q.arrows})
    with mock.patch.object(la, "rank", wraps=la.rank) as rank:
        assert ro.decompose(zero) == Counter()
    assert rank.call_count == 0


@lru_cache(maxsize=None)
def _indec_rep_eager(Q, alpha):
    """Reference: the tree-module build that lists every split first."""
    if sum(alpha) == 1:
        return ro.simple_rep(Q, alpha.index(1) + 1)
    splits = []
    for beta in rs.positive_roots(Q.cd):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        if beta < gamma and rs.is_positive_root(Q.cd, gamma):
            splits.append((beta, gamma))
    for beta, gamma in splits:
        for sub, quot in ((beta, gamma), (gamma, beta)):
            if ar.euler_form(Q, quot, sub) != -1:
                continue
            rep = ro.nonsplit_extension(_indec_rep_eager(Q, sub),
                                        _indec_rep_eager(Q, quot))
            if ro.hom_dim_rep(rep, rep) == 1:
                return rep
    raise AssertionError(f"no split of {alpha} extends to an indecomposable")


@pytest.mark.parametrize("type_", [("A", 4), ("D", 5), ("E", 6)],
                         ids=["A4", "D5", "E6"])
@pytest.mark.parametrize("orientation", ["monotone", "sink_source"])
def test_lazy_split_search_builds_what_the_eager_one_did(type_, orientation):
    cd = rs.build_cartan(*type_)
    Q = getattr(ar, f"{orientation}_quiver")(cd)
    for alpha in rs.positive_roots(cd):
        lazy, eager = ro.indec_rep(Q, alpha), _indec_rep_eager(Q, alpha)
        assert (lazy.dims, lazy.mats) == (eager.dims, eager.mats)

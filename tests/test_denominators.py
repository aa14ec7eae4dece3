import random
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import linalg as la
from rmx import quantum_cartan as qc
from rmx import rep_oracle as ro
from rmx import root_system as rs
from rmx import schur_weyl as sw
from rmx.ar_quiver import IndecObject
from rmx.denominators import Monomial

from quivers import all_orientations, shift_height


def test_denominator_goldens():
    cd1 = rs.build_cartan("A", 1)
    assert dn.denominator(cd1, 1, 1).factors == ((2, 1),)
    cd2 = rs.build_cartan("A", 2)
    assert dn.denominator(cd2, 1, 1).factors == ((2, 1),)
    assert dn.denominator(cd2, 2, 2).factors == ((2, 1),)
    assert dn.denominator(cd2, 1, 2).factors == ((3, 1),)
    assert dn.denominator(cd2, 2, 1).factors == ((3, 1),)


@pytest.mark.parametrize("family,rank", rs.all_ade_types(8))
def test_denominator_reads_the_ctilde_row(family, rank):
    cd = rs.build_cartan(family, rank)
    for i in cd.vertices:
        for j in cd.vertices:
            expected = tuple(
                (l + 1, qc.ctilde(cd, i, j, l))
                for l in range(1, cd.h) if qc.ctilde(cd, i, j, l)
            )
            assert dn.denominator(cd, i, j).factors == expected


# The closed forms below are plain arithmetic and read no ct table, so they
# check the recurrence of ``quantum_cartan`` independently, at every ordered
# pair of A1-A32 and D4-D32.


def test_type_a_closed_form_zero_set():
    # Akasaka-Kashiwara: simple zeros at q^k for k = |i-j| + 2s,
    # s = 1..min(i, j, n+1-i, n+1-j)
    for n in range(1, 33):
        cd = rs.build_cartan("A", n)
        for i in cd.vertices:
            for j in cd.vertices:
                top = min(i, j, n + 1 - i, n + 1 - j)
                want = tuple((abs(i - j) + 2 * s, 1) for s in range(1, top + 1))
                assert dn.denominator(cd, i, j).factors == want, (n, i, j)


def _type_d_expected(n, i, j):
    # Kang-Kashiwara-Kim; Oh: path nodes pair up two arithmetic strings
    # (overlaps give multiplicity 2), fork nodes step by 4
    from collections import Counter

    spin = {n - 1, n}
    ks = Counter()
    if i not in spin and j not in spin:
        for s in range(1, min(i, j) + 1):
            ks[abs(i - j) + 2 * s] += 1
            ks[2 * n - 2 - i - j + 2 * s] += 1
    elif (i in spin) != (j in spin):
        v = i if i not in spin else j
        for s in range(1, v + 1):
            ks[n - v - 1 + 2 * s] += 1
    elif i == j:
        for s in range(1, n // 2 + 1):
            ks[4 * s - 2] += 1
    else:
        for s in range(1, (n - 1) // 2 + 1):
            ks[4 * s] += 1
    return tuple(sorted(ks.items()))


def test_type_d_closed_form_zero_set():
    for n in range(4, 33):
        cd = rs.build_cartan("D", n)
        for i in cd.vertices:
            for j in cd.vertices:
                assert dn.denominator(cd, i, j).factors == _type_d_expected(
                    n, i, j
                ), (n, i, j)


def test_kashiwara_convention_same_multiplicities():
    for family, rank in rs.all_ade_types(6):
        cd = rs.build_cartan(family, rank)
        for i in cd.vertices:
            for j in cd.vertices:
                a = dn.denominator(cd, i, j)
                b = dn.denominator_kashiwara(cd, i, j)
                assert a.factors == b.factors
                assert (a.convention, b.convention) == ("q", "minus_q")


def test_denominator_rendering():
    cd = rs.build_cartan("A", 2)
    assert dn.denominator(cd, 1, 2).render() == "(u - q^3)"
    assert dn.denominator_kashiwara(cd, 1, 2).render() == "(u - (-q)^3)"


def test_pole_positions_satisfy_parity_constraint():
    for family, rank in rs.all_ade_types(8):
        cd = rs.build_cartan(family, rank)
        for i in cd.vertices:
            for j in cd.vertices:
                for k, mult in dn.denominator(cd, i, j).factors:
                    assert k > 0 and mult > 0
                    assert (k + cd.eps_of(i) + cd.eps_of(j)) % 2 == 0
                    assert 2 <= k <= cd.h


def test_zero_set_reflects_through_star_involution():
    # multiplicity of q^k in d_ij equals that of q^(h+2-k) in d_(i*,j)
    for family, rank in rs.all_ade_types(8):
        cd = rs.build_cartan(family, rank)
        for i in cd.vertices:
            for j in cd.vertices:
                d = dn.denominator(cd, i, j).as_dict()
                ds = dn.denominator(cd, cd.star_of(i), j).as_dict()
                assert d == {cd.h + 2 - k: m for k, m in ds.items()}


def test_pole_order_examples():
    cd1 = rs.build_cartan("A", 1)
    assert dn.pole_order(cd1, (1, 0), (1, 2)) == 1
    cd2 = rs.build_cartan("A", 2)
    assert dn.pole_order(cd2, (1, 0), (1, 0)) == 0
    assert dn.pole_order(cd2, (1, 0), (2, 3)) == 1


@pytest.mark.parametrize("bad", [0, -1, 4])
def test_denominators_reject_vertex_indices_outside_1_to_rank(bad):
    # on A3, d(0, 3) would otherwise read d_33 and d(-1, 1) read d_21
    cd = rs.build_cartan("A", 3)
    for i, j in ((bad, 1), (1, bad), (bad, 3)):
        for read in (dn.denominator, dn.denominator_kashiwara):
            with pytest.raises(ValueError, match=f"vertex index {bad} out of range"):
                read(cd, i, j)
    # a pair no heart holds was answered None before its vertices were checked
    with pytest.raises(ValueError, match=f"vertex index {bad} out of range"):
        dn.common_heart(cd, (bad, 0), (1, 40))


@pytest.mark.parametrize("y", [(1, 2), (1, 40)])
def test_least_height_rejects_vertex_indices_outside_1_to_rank(y):
    # vertex 0 read vertex 3's distances: a height function for (1, 2), None
    # for (1, 40)
    cd = rs.build_cartan("A", 3)
    with pytest.raises(ValueError, match="vertex index 0 out of range"):
        dn.least_height(cd, (0, 0), y)


def test_the_window_queries_of_one_type_read_its_ct_table_once(monkeypatch):
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    calls = []
    ctilde_table = qc.ctilde_table

    def counted(*args):
        calls.append(args)
        return ctilde_table(*args)

    monkeypatch.setattr(qc, "ctilde_table", counted)
    dn.zero_orders.cache_clear()
    for p_lo, p_hi in ((-4, 4), (0, 8), (-10, -2)):
        assert list(sw.gamma_rows(cd, p_lo, p_hi))
    fam = sw.type_a_family(Q, ar.default_height(Q, -2), 4, -3, 3)
    assert sw.gamma_J(cd, fam).arrows
    for i, j in product(cd.vertices, repeat=2):
        dn.denominator(cd, i, j)
        dn.denominator_kashiwara(cd, i, j)
    assert calls == [(cd, 2 * cd.h)]


def reference_hom_dim(cd, x, y):
    """The Hom window read directly: ct_ij(r - p + 1) when 0 <= r - p <= h - 2,
    else 0."""
    (i, p), (j, r) = x, y
    if 0 <= r - p <= cd.h - 2:
        return qc.ctilde(cd, i, j, r - p + 1)
    return 0


def reference_ext1_dim(cd, x, y):
    """The Ext window read directly: dim Ext^1 from the object at y into the
    object at x is ct_ij(r - p - 1) when 1 <= r - p - 1 <= h - 1, else 0."""
    ar.check_delta_vertex(cd, x)
    ar.check_delta_vertex(cd, y)
    (i, p), (j, r) = x, y
    l = r - p - 1
    if 1 <= l <= cd.h - 1:
        return qc.ctilde(cd, i, j, l)
    return 0


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("family,rank", rs.all_ade_types(8))
def test_pole_order_is_the_ext_window(family, rank, parity):
    # hom_dim reads the Hom window through the Ext window at tau^-1 y (AR
    # duality); every ordered pair at heights -h-3..h+3 sees both ends of
    # each window and the zeros beyond them
    cd = rs.build_cartan(family, rank, parity_base=parity)
    verts = ar.delta_vertices(cd, -cd.h - 3, cd.h + 3)
    for x, y in product(verts, repeat=2):
        assert dn.pole_order(cd, x, y) == reference_ext1_dim(cd, x, y), (x, y)
        assert dn.hom_dim(cd, x, y) == reference_hom_dim(cd, x, y), (x, y)
        assert dn.is_tensor_irreducible(cd, x, y) == (
            dn.pole_order(cd, x, y) == 0 and dn.pole_order(cd, y, x) == 0), (x, y)


_A3_BAD_VERTICES = {(0, 0): "vertex index 0 out of range 1..3",
                    (4, 0): "vertex index 4 out of range 1..3",
                    (2, 0): "(2,0) violates the parity constraint"}


def raised(query, *args) -> str:
    with pytest.raises(ValueError) as exc:
        query(*args)
    return str(exc.value)


@pytest.mark.parametrize("read", [dn.denominator, dn.denominator_kashiwara])
def test_denominator_names_the_bad_index_in_either_argument(read):
    cd = rs.build_cartan("A", 3)
    for bad in (0, cd.rank + 1):
        message = f"vertex index {bad} out of range 1..3"
        assert raised(read, cd, bad, 2) == message
        assert raised(read, cd, 2, bad) == message
        assert raised(read, cd, bad, -bad) == message


@pytest.mark.parametrize("query", [dn.pole_order, dn.hom_dim, dn.is_tensor_irreducible])
def test_window_queries_name_the_bad_vertex_in_either_argument(query):
    # index 0, index rank + 1 and a parity-wrong vertex, as x and as y
    cd = rs.build_cartan("A", 3)
    for bad, message in _A3_BAD_VERTICES.items():
        for good in ((1, 0), (2, 1), (3, 4)):
            assert raised(query, cd, bad, good) == message
            assert raised(query, cd, good, bad) == message


def test_hom_dim_names_y_when_both_vertices_are_bad():
    cd = rs.build_cartan("A", 3)
    for x, y in product(_A3_BAD_VERTICES, repeat=2):
        assert raised(dn.hom_dim, cd, x, y) == _A3_BAD_VERTICES[y]
        for query in (dn.pole_order, dn.is_tensor_irreducible):
            assert raised(query, cd, x, y) == _A3_BAD_VERTICES[x]


def test_warm_denominator_queries_construct_no_denominator(monkeypatch):
    cd = rs.build_cartan("A", 32)
    dn.denominator(cd, 1, 1)
    made = []
    Denominator = dn.Denominator

    def counted(*args, **kwargs):
        made.append(args)
        return Denominator(*args, **kwargs)

    monkeypatch.setattr(dn, "Denominator", counted)
    answers = [dn.denominator(cd, i, j) for i, j in product(cd.vertices, repeat=2)]
    assert len(answers) == 1024 and not made
    assert all(type(d) is Denominator and d.convention == "q" for d in answers)


def test_pole_order_rejects_the_vertex_it_was_given():
    cd = rs.build_cartan("A", 2)
    with pytest.raises(ValueError, match=r"\(2,0\) violates"):
        dn.pole_order(cd, (1, 0), (2, 0))
    with pytest.raises(ValueError, match=r"\(1,1\) violates"):
        dn.hom_dim(cd, (1, 1), (2, 1))


def test_irreducibility_examples():
    cd2 = rs.build_cartan("A", 2)
    assert dn.is_tensor_irreducible(cd2, (1, 0), (2, 1))
    assert dn.is_tensor_irreducible(cd2, (1, 0), (1, 0))
    cd1 = rs.build_cartan("A", 1)
    assert not dn.is_tensor_irreducible(cd1, (1, 0), (1, 2))


def test_a_monomial_examples():
    cd2 = rs.build_cartan("A", 2)
    assert dn.a_monomial(cd2, 1, 1) == Monomial.from_dict(
        {(1, 2): 1, (1, 0): 1, (2, 1): -1}
    )
    cd1 = rs.build_cartan("A", 1)
    assert dn.a_monomial(cd1, 1, 1) == Monomial.from_dict({(1, 2): 1, (1, 0): 1})
    for i in cd2.vertices:
        assert dn.a_monomial(cd2, i, 0).degree() == 1


def test_monomial_algebra():
    m = Monomial.y(1, 0) * Monomial.y(1, 0) * Monomial.y(2, 1, -1)
    assert m.as_dict() == {(1, 0): 2, (2, 1): -1}
    assert (m * m.inv()) == Monomial.unit()
    assert not m.is_dominant()
    assert Monomial.y(1, 0).is_dominant()
    assert m.render() == "Y[1,0]^2*Y[2,1]^-1"
    assert Monomial.unit().render() == "1"


def test_monomial_leq_examples():
    cd = rs.build_cartan("A", 2)
    m = Monomial.y(1, 0)
    assert dn.monomial_leq(cd, m, m)
    assert dn.monomial_leq(cd, m, Monomial.y(2, -1) * Monomial.y(2, 1))
    assert not dn.monomial_leq(cd, m, Monomial.y(2, 1))
    # ratio needing two different A-monomials, and its inverse direction
    prod = dn.a_monomial(cd, 1, 0) * dn.a_monomial(cd, 2, 1)
    assert dn.monomial_leq(cd, Monomial.unit(), prod)
    assert not dn.monomial_leq(cd, prod, Monomial.unit())
    # a square of a single A-monomial (tests integrality handling)
    sq = dn.a_monomial(cd, 1, 0) * dn.a_monomial(cd, 1, 0)
    assert dn.monomial_leq(cd, Monomial.unit(), sq)


def _monomial_leq_by_elimination(cd, m, m2):
    """Reference: solve for the A-exponents on the whole grid window."""
    ratio = m2 * m.inv()
    if not ratio.exps:
        return True
    ps = [p for (_, p), _ in ratio.exps]
    p_lo, p_hi = min(ps), max(ps)
    unknowns = [(i, p) for i in cd.vertices for p in range(p_lo + 1, p_hi)]
    if not unknowns:
        return False
    rows_idx = [(i, p) for i in cd.vertices for p in range(p_lo, p_hi + 1)]
    row_pos = {k: t for t, k in enumerate(rows_idx)}
    mat = [[0] * len(unknowns) for _ in rows_idx]
    for col, (i, p) in enumerate(unknowns):
        for key, e in dn.a_monomial(cd, i, p).exps:
            mat[row_pos[key]][col] += e
    target = [ratio.as_dict().get(k, 0) for k in rows_idx]
    # the A-monomials are independent, so the solution, if any, is the
    # kernel vector of [mat | -target] scaled to last entry 1; the primitive
    # kernel vector has last entry 1 exactly when that solution is integral
    aug = [row + [-b] for row, b in zip(mat, target)]
    v = next((v for v in la.nullspace(aug, len(unknowns) + 1) if v[-1]), None)
    return v is not None and v[-1] == 1 and all(x >= 0 for x in v[:-1])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), type_=st.sampled_from(rs.all_ade_types(8)))
def test_monomial_leq_matches_elimination(data, type_):
    cd = rs.build_cartan(*type_)
    vertex = st.sampled_from(cd.vertices)
    height = st.integers(-6, 6)
    m = Monomial.unit()
    for i, p, e in data.draw(st.lists(st.tuples(vertex, height, st.integers(-2, 2)),
                                      max_size=4)):
        m = m * Monomial.y(i, p, e)
    m2 = m
    for i, p, e in data.draw(st.lists(st.tuples(vertex, height, st.integers(-1, 2)),
                                      max_size=5)):
        m2 = m2 * Monomial.from_dict({k: e * v for k, v in dn.a_monomial(cd, i, p).exps})
    if data.draw(st.booleans()):
        m2 = m2 * Monomial.y(data.draw(vertex), data.draw(height))
    assert dn.monomial_leq(cd, m, m2) == _monomial_leq_by_elimination(cd, m, m2)
    assert dn.monomial_leq(cd, m2, m) == _monomial_leq_by_elimination(cd, m2, m)


@lru_cache(maxsize=None)
def _orientations(cd):
    return tuple(all_orientations(cd))


@lru_cache(maxsize=None)
def _strip_shifts(Q, i, p):
    """The t with (i, p - 2t) in the strip of Q at its default height."""
    strip = ar.module_strip(Q, ar.default_height(Q))
    return frozenset((p - p0) // 2 for (i0, p0) in strip
                     if i0 == i and (p - p0) % 2 == 0)


def _placements_by_scan(cd, x, y):
    """Reference: scan each whole strip for the shifts placing x, then y."""
    (i, p), (j, r) = x, y
    for Q in _orientations(cd):
        base = ar.default_height(Q)
        strip = ar.module_strip(Q, base)
        for t in sorted(_strip_shifts(Q, i, p) & _strip_shifts(Q, j, r)):
            xi_t = shift_height(base, 2 * t)
            yield Q, xi_t, strip[(i, p - 2 * t)], strip[(j, r - 2 * t)]


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("D", 4), ("D", 5), ("D", 6), ("E", 6),
])
def test_placements_match_strip_scan(family, rank):
    # common_heart is the placement at the least height function the
    # whole-strip scan finds, and None exactly when the scan finds none;
    # dorey_heart is the scan's placement on the reference quiver with the
    # least dim X + dim Y, the lowest on a tie, or common_heart's placement
    # when no height function of the reference quiver holds both
    cd = rs.build_cartan(family, rank)
    ref = ar.monotone_quiver(cd)
    verts = ar.delta_vertices(cd, -cd.h, cd.h)
    for x, y in product(verts, repeat=2):
        scan = list(_placements_by_scan(cd, x, y))
        got = dn.common_heart(cd, x, y)
        if not scan:
            assert got is None and dn.dorey_heart(cd, x, y) is None, (x, y)
            continue
        lo = tuple(map(min, zip(*(xi for _, xi, _, _ in scan))))
        assert got in scan and got[1] == lo, (x, y)
        on_ref = [pl for pl in scan if pl[0] is ref]
        want = min(on_ref, key=lambda pl: (sum(pl[2]) + sum(pl[3]), pl[1]), default=got)
        assert dn.dorey_heart(cd, x, y) == want, (x, y)


def test_the_reference_quiver_is_the_monotone_quiver():
    # the type diagrams label every edge away from vertex 1
    for family, rank in rs.all_ade_types(64):
        for parity_base in (0, 1):
            cd = rs.build_cartan(family, rank, parity_base)
            assert dn.reference_height(cd) == ar.default_height(ar.monotone_quiver(cd))


@pytest.fixture
def orient_calls(monkeypatch):
    """The arrows of each quiver built through ``ar.orient`` from now on."""
    built = []
    orient = ar.orient

    def counting_orient(cd, arrows):
        built.append(arrows)
        return orient(cd, arrows)

    monkeypatch.setattr(ar, "orient", counting_orient)
    return built


def test_common_heart_builds_only_the_quivers_it_tries(orient_calls):
    # the first placement is read off x and y, so it is the only quiver
    # built, not all 2^(n-1)
    cd = rs.build_cartan("A", 12)
    assert dn.common_heart(cd, (1, 0), (1, 2)) is not None
    assert len(orient_calls) == 1


def test_common_heart_at_rank_40_is_the_monotone_placement():
    cd = rs.build_cartan("A", 40)
    Q, xi, root_x, root_y = dn.common_heart(cd, (1, 0), (1, 2))
    assert Q == ar.monotone_quiver(cd)
    assert xi == shift_height(ar.default_height(Q), 2)
    assert root_x == rs.simple_root(cd, 2)
    assert root_y == rs.simple_root(cd, 1)


def test_dorey_examples():
    cd2 = rs.build_cartan("A", 2)
    Q = ar.orient(cd2, [(2, 1)])
    xi = (0, 1)
    assert dn.dorey_middle_term(cd2, Q, xi, (2, -1), (2, 1)) == Monomial.y(1, 0)
    cd1 = rs.build_cartan("A", 1)
    Q1 = ar.monotone_quiver(cd1)
    xi1 = ar.default_height(Q1)
    assert dn.dorey_middle_term(cd1, Q1, xi1, (1, 0), (1, 2)) == Monomial.unit()
    with pytest.raises(dn.NotSimplePoleError):
        dn.dorey_middle_term(cd2, Q, xi, (1, 0), (2, 1))


def test_dorey_rejects_a_quiver_of_another_datum():
    # (Q, xi) never changes the answer, but an A4 quiver passed with A2 data
    # was validated against A4 and the A2 answer returned
    a2 = rs.build_cartan("A", 2)
    Q = ar.monotone_quiver(rs.build_cartan("A", 4))
    with pytest.raises(ValueError, match="not of"):
        dn.dorey_middle_term(a2, Q, ar.default_height(Q), (2, -1), (2, 1))


def test_dorey_e7_through_the_oracle():
    cd = rs.build_cartan("E", 7)
    Q = ar.monotone_quiver(cd)
    xi = ar.default_height(Q)
    assert dn.dorey_middle_term(cd, Q, xi, (1, 0), (1, 2)) == Monomial.y(2, 1)


@pytest.mark.parametrize("family,rank,x,y,want", [
    ("E", 8, (1, 0), (1, 2), (2, 1)),
    ("A", 24, (20, 3), (16, 17), (11, 12)),
    ("A", 40, (1, 0), (1, 2), (2, 1)),
])
def test_dorey_at_large_rank_places_the_pair_once(orient_calls, family, rank, x, y, want):
    # decompose works on the roots below dim R, not on a Hom matrix over all
    # roots, and the placement is read off x and y: one quiver is built
    cd = rs.build_cartan(family, rank)
    Q = ar.monotone_quiver(cd)
    xi = ar.default_height(Q)
    orient_calls.clear()
    assert dn.dorey_middle_term(cd, Q, xi, x, y) == Monomial.y(*want)
    assert len(orient_calls) == 1


@pytest.mark.parametrize("family,rank", rs.all_ade_types(8))
def test_every_simple_pole_has_a_common_heart(family, rank):
    # so no Dorey query at r - p != h is left without a placement
    cd = rs.build_cartan(family, rank)
    verts = ar.delta_vertices(cd, 0, cd.h)
    for x, y in product(verts, repeat=2):
        if y[1] - x[1] != cd.h and dn.pole_order(cd, x, y) == 1:
            assert dn.common_heart(cd, x, y) is not None, (x, y)


def _middle_term_at(Q, xi, root_x, root_y):
    """Reference: the middle term read off one placement, decomposed in full."""
    middle = ro.nonsplit_extension(ro.indec_rep(Q, root_x), ro.indec_rep(Q, root_y))
    mono = Monomial.unit()
    for delta, mult in ro.decompose(middle).items():
        mono = mono * Monomial.y(*ar.happel_inverse(Q, xi, IndecObject(delta, 0)), e=mult)
    return mono


def test_dorey_independent_of_placement():
    # Dorey's rule reads the middle term off any heart holding both modules,
    # so the one placement dorey_middle_term builds answers for all of them
    pairs = placements = 0
    for family, rank in rs.all_ade_types(5):
        cd = rs.build_cartan(family, rank)
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        for x, y in _simple_pole_pairs(cd):
            want = dn.dorey_middle_term(cd, Q, xi, x, y)
            for placement in _placements_by_scan(cd, x, y):
                assert _middle_term_at(*placement) == want, (x, y, placement)
                placements += 1
            pairs += 1
    assert (pairs, placements) == (124, 2158)


def test_dorey_heart_gives_the_least_hearts_middle_term():
    # dorey_middle_term reads the reference quiver's heart, which for most
    # pairs is not common_heart's least heart; both give the same E
    pairs = moved = 0
    for family, rank in rs.all_ade_types(6):
        cd = rs.build_cartan(family, rank)
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        for x, y in _simple_pole_pairs(cd):
            least = dn.common_heart(cd, x, y)
            assert dn.dorey_middle_term(cd, Q, xi, x, y) == _middle_term_at(*least), (x, y)
            pairs += 1
            moved += dn.dorey_heart(cd, x, y)[:2] != least[:2]
    assert (pairs, moved) == (362, 256)


def test_dorey_queries_of_a_type_share_their_modules():
    # the E6 poles build 93 tree modules over the reference quiver, where
    # their least hearts, spread over six quivers, built 185
    cd = rs.build_cartan("E", 6)
    Q = ar.monotone_quiver(cd)
    xi = ar.default_height(Q)
    poles = _simple_pole_pairs(cd)
    ro._indec_rep.cache_clear()
    for x, y in poles:
        dn.dorey_middle_term(cd, Q, xi, x, y)
    assert len(poles) == 104
    assert ro._indec_rep.cache_info().misses <= 100


def test_dorey_monomial_dominates_and_conserves_dimension():
    for label in ("A3", "D4"):
        cd = rs.build_cartan(label[0], int(label[1]))
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        vertices = ar.delta_vertices(cd, -2 * cd.h, 2 * cd.h)
        for x in vertices:
            for y in vertices:
                if dn.pole_order(cd, x, y) != 1:
                    continue
                m = dn.dorey_middle_term(cd, Q, xi, x, y)
                assert m.is_dominant()
                yxy = Monomial.y(*x) * Monomial.y(*y)
                assert dn.monomial_leq(cd, m, yxy)
                if y[1] - x[1] == cd.h:
                    continue
                Qp, xi_t, root_x, root_y = dn.common_heart(cd, x, y)
                total = [a + b for a, b in zip(root_x, root_y)]
                acc = [0] * cd.rank
                for (i, p), e in m.exps:
                    obj = ar.happel_object(Qp, xi_t, (i, p))
                    assert obj.shift == 0
                    acc = [s + e * c for s, c in zip(acc, obj.root)]
                assert acc == total


def test_dorey_distance_h_is_always_empty():
    for label in ("A3", "D4", "E6"):
        cd = rs.build_cartan(label[0], int(label[1]))
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        for i in cd.vertices:
            p = cd.eps_of(i)
            x = (i, p)
            y = (cd.star_of(i), p + cd.h)
            if dn.pole_order(cd, x, y) == 1:
                assert dn.dorey_middle_term(cd, Q, xi, x, y) == Monomial.unit()


def _simple_pole_pairs(cd):
    """Simple-pole pairs with x at heights 0-1 and a nonempty middle term."""
    return [(x, y) for x in ar.delta_vertices(cd, 0, 1)
            for y in ar.delta_vertices(cd, 0, cd.h + 1)
            if y[1] - x[1] != cd.h and dn.pole_order(cd, x, y) == 1]


def _window_keeps_every_summand(cd, x, y):
    Q, _, root_x, root_y = dn.common_heart(cd, x, y)
    middle = ro.nonsplit_extension(ro.indec_rep(Q, root_x), ro.indec_rep(Q, root_y))
    return ro.decompose(middle, between=(root_x, root_y)) == ro.decompose(middle)


@pytest.mark.parametrize("family,rank", rs.all_ade_types(6))
def test_dorey_window_keeps_every_summand(family, rank):
    cd = rs.build_cartan(family, rank)
    for x, y in _simple_pole_pairs(cd):
        assert _window_keeps_every_summand(cd, x, y), (x, y)


@pytest.mark.parametrize("rank", [7, 8])
def test_dorey_window_keeps_every_summand_sampled_e(rank):
    cd = rs.build_cartan("E", rank)
    for x, y in random.Random(rank).sample(_simple_pole_pairs(cd), 40):
        assert _window_keeps_every_summand(cd, x, y), (x, y)


def test_dorey_answers_do_not_depend_on_the_split_order(monkeypatch):
    """Tree modules with one root are isomorphic (Gabriel), so trying the
    splits alpha = beta + gamma in reverse changes bases, never answers."""
    def answers():
        out = []
        for family, rank in (("A", 4), ("D", 5), ("E", 6)):
            cd = rs.build_cartan(family, rank)
            Q = ar.monotone_quiver(cd)
            xi = ar.default_height(Q)
            out += [dn.dorey_middle_term(cd, Q, xi, x, y)
                    for x, y in _simple_pole_pairs(cd)]
        return out

    splits = ro._splits
    ro._indec_rep.cache_clear()
    forward = answers()
    with monkeypatch.context() as m:
        m.setattr(ro, "_splits", lambda cd, alpha: reversed(list(splits(cd, alpha))))
        ro._indec_rep.cache_clear()
        try:
            backward = answers()
        finally:  # later tests must not see the reversed bases
            ro._indec_rep.cache_clear()
    assert backward == forward


def test_dorey_checks_a_height_function_at_most_twice_per_query(monkeypatch):
    # once for the caller's (Q, xi), once for the heart's height function;
    # the Happel maps behind it then run unchecked
    calls = 0
    check_height = ar.check_height

    def counted(Q, xi):
        nonlocal calls
        calls += 1
        return check_height(Q, xi)

    monkeypatch.setattr(ar, "check_height", counted)
    for family, rank in (("A", 4), ("D", 5), ("E", 6)):
        cd = rs.build_cartan(family, rank)
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        for x in ar.delta_vertices(cd, 0, 1):
            for y in ar.delta_vertices(cd, 0, cd.h + 1):
                if dn.pole_order(cd, x, y) == 1:
                    calls = 0
                    dn.dorey_middle_term(cd, Q, xi, x, y)
                    assert calls <= 2, (cd.label(), x, y, calls)


def test_dorey_validates_its_vertices_once_per_query(monkeypatch):
    # pole_order checks x and y; the placement reads unchecked height bounds
    calls = 0
    check_delta_vertex = ar.check_delta_vertex

    def counted(cd, *xs):
        nonlocal calls
        calls += 1
        return check_delta_vertex(cd, *xs)

    monkeypatch.setattr(ar, "check_delta_vertex", counted)
    for family, rank in (("A", 4), ("D", 5), ("E", 6)):
        cd = rs.build_cartan(family, rank)
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        for x, y in _simple_pole_pairs(cd):
            calls = 0
            dn.dorey_middle_term(cd, Q, xi, x, y)
            assert calls == 1, (cd.label(), x, y, calls)


def test_a_simple_pole_at_distance_h_off_the_star_raises(monkeypatch):
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    x, y = (1, 0), (1, cd.h)  # 1* = 3, so ct_11(h - 1) = 0: no pole
    assert dn.pole_order(cd, x, y) == 0
    monkeypatch.setattr(dn, "pole_order", lambda cd, x, y: 1)
    with pytest.raises(RuntimeError, match="forces j = i\\*"):
        dn.dorey_middle_term(cd, Q, ar.default_height(Q), x, y)

from itertools import product
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import root_system as rs
from rmx import schur_weyl as sw
from rmx import selfcheck
from rmx.denominators import Monomial


def gamma_window(cd, p_lo, p_hi):
    """The Ext quiver on heights p_lo..p_hi: its vertices and all arrows."""
    return sw.GammaWindow(vertices=tuple(ar.delta_vertices(cd, p_lo, p_hi)),
                          arrows=tuple(sw.gamma_arrows(cd, p_lo, p_hi)))


def test_gamma_window_a2():
    # window [-1, 3]: every arrow demanded by the Ext table, including the
    # two landing on (2,-1)
    cd = rs.build_cartan("A", 2)
    win = gamma_window(cd, -1, 3)
    assert win.vertices == ((1, 0), (1, 2), (2, -1), (2, 1), (2, 3))
    assert set(win.arrows) == {
        ((1, 2), (1, 0), 1),
        ((1, 2), (2, -1), 1),
        ((2, 1), (2, -1), 1),
        ((2, 3), (1, 0), 1),
        ((2, 3), (2, 1), 1),
    }


def _all_pairs_arrows(cd, verts):
    """The reference Ext quiver: every ordered pair through ``pole_order``."""
    return tuple(
        (u, v, dn.pole_order(cd, v, u))
        for u in verts for v in verts if dn.pole_order(cd, v, u)
    )


def _all_pairs_gamma_J(cd, fam):
    return tuple(
        (j, jp, m) for j, jp in product(fam.domain, repeat=2)
        if (m := dn.pole_order(cd, fam.of(jp), fam.of(j)))
    )


@pytest.mark.parametrize("family,rank,p_lo,p_hi", [
    ("A", 5, -3, 9), ("D", 5, 0, 8), ("E", 6, -13, 14), ("A", 1, 2, 2),
])
def test_gamma_window_matches_all_pairs(family, rank, p_lo, p_hi):
    # the arrows read off the ct table are the all-pairs Ext quiver, in the
    # all-pairs order
    cd = rs.build_cartan(family, rank)
    verts = ar.delta_vertices(cd, p_lo, p_hi)
    win = gamma_window(cd, p_lo, p_hi)
    assert win.vertices == tuple(verts)
    assert win.arrows == _all_pairs_arrows(cd, verts)


_GAMMA_TYPES = rs.all_ade_types(8) + [("A", 32), ("D", 20)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_GAMMA_TYPES), st.integers(-80, 80), st.integers(-1, 64))
def test_gamma_arrows_match_all_pairs(ty, p_lo, width):
    # width -1 is an empty window (p_lo > p_hi), width 0 a single height
    cd = rs.build_cartan(*ty)
    p_hi = p_lo + width
    verts = ar.delta_vertices(cd, p_lo, p_hi)
    expected = _all_pairs_arrows(cd, verts)
    rows = list(sw.gamma_rows(cd, p_lo, p_hi))
    assert [u for u, _ in rows] == list(verts)  # one row per source, empty or not
    assert tuple(sw.gamma_arrows(cd, p_lo, p_hi)) == expected


def test_gamma_rows_share_each_target_entry():
    # the A32 export: one ((j, q), m) object per target and multiplicity,
    # shared by every row that points at it
    cd = rs.build_cartan("A", 32)
    rows = list(sw.gamma_rows(cd, 0, 33))
    entries = [entry for _, row in rows for entry in row]
    assert len(entries) == 49_368
    assert len({id(entry) for entry in entries}) == len(set(entries)) == 512


def _family_sizes(family, rank):
    """The N for which vertices 1..N-1 carry a type-A family."""
    cd = rs.build_cartan(family, rank)
    Q = ar.monotone_quiver(cd)
    out = []
    for N in range(2, rank + 2):
        try:
            sw._check_type_a_subquiver(Q, N)
        except ValueError:
            continue
        out.append(N)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GAMMA_TYPES), st.data())
def test_gamma_j_matches_all_pairs(ty, data):
    cd = rs.build_cartan(*ty)
    Q = ar.monotone_quiver(cd)
    N = data.draw(st.sampled_from(_family_sizes(*ty)))
    xi1 = cd.eps_of(1) + 2 * data.draw(st.integers(-20, 20))
    j_lo = data.draw(st.integers(-60, 60))
    j_hi = j_lo + data.draw(st.integers(0, 40))
    fam = sw.type_a_family(Q, ar.default_height(Q, xi1), N, j_lo, j_hi)
    if data.draw(st.booleans()):
        # any injective map: a source then has several targets, out of
        # domain order, where a type-A family has one
        verts = ar.delta_vertices(cd, xi1 - cd.h, xi1)
        image = data.draw(st.permutations(verts))[:len(fam.domain)]
        fam = sw.FamilyMap(j_lo, j_lo + len(image) - 1, tuple(image))
    gj = sw.gamma_J(cd, fam)
    assert gj.vertices == tuple(fam.domain)
    assert gj.arrows == _all_pairs_gamma_J(cd, fam)


def test_gamma_j_rejects_invalid_image():
    cd = rs.build_cartan("A", 2)
    for bad in ((1, 1), (3, 0), (0, 0)):
        with pytest.raises(ValueError):
            sw.gamma_J(cd, sw.FamilyMap(j_lo=0, j_hi=1, image=((1, 4), bad)))


@pytest.mark.parametrize("family,rank", rs.all_ade_types(8) + [("A", 20), ("D", 12)])
def test_window_arrows_are_sorted(family, rank):
    # arrows come by source, then by target, so exports print them as listed
    cd = rs.build_cartan(family, rank)
    Q = ar.monotone_quiver(cd)
    N = rank + 1 if family == "A" else rank
    fam = sw.type_a_family(Q, ar.default_height(Q, -2), N, -8, 8)
    for win in (gamma_window(cd, -cd.h, cd.h), sw.gamma_J(cd, fam)):
        assert win.arrows
        assert win.arrows == tuple(sorted(win.arrows))


def test_gamma_window_a1_chain():
    cd = rs.build_cartan("A", 1)
    win = gamma_window(cd, 0, 4)
    assert win.vertices == ((1, 0), (1, 2), (1, 4))
    assert win.arrows == (((1, 2), (1, 0), 1), ((1, 4), (1, 2), 1))


def test_gamma_window_is_acyclic():
    cd = rs.build_cartan("D", 4)
    win = gamma_window(cd, -6, 6)
    for u, v, _ in win.arrows:
        assert u[1] > v[1]
    assert gamma_window(cd, 3, 2).vertices == ()


def arrow_mult(win, u, v) -> int:
    """The multiplicity of the arrow u -> v of a GammaWindow, 0 if absent."""
    return next((m for a, b, m in win.arrows if (a, b) == (u, v)), 0)


def test_gamma_j_is_full_subquiver_of_window():
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    fam = sw.type_a_family(Q, ar.default_height(Q, -2), 4, -2, 2)
    ps = [p for _, p in fam.image]
    win = gamma_window(cd, min(ps), max(ps))
    gj = sw.gamma_J(cd, fam)
    for j in fam.domain:
        for jp in fam.domain:
            assert arrow_mult(gj, j, jp) == arrow_mult(win, fam.of(j), fam.of(jp))


def test_gamma_arrows_equal_pole_orders():
    cd = rs.build_cartan("A", 3)
    win = gamma_window(cd, -4, 4)
    for u in win.vertices:
        for v in win.vertices:
            assert arrow_mult(win, u, v) == dn.pole_order(cd, v, u)


def test_family_map_validation():
    with pytest.raises(ValueError):
        sw.FamilyMap(j_lo=0, j_hi=1, image=((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        sw.FamilyMap(j_lo=0, j_hi=2, image=((1, 0), (1, 2)))


def test_gamma_j_single_vertex():
    cd = rs.build_cartan("A", 2)
    fam = sw.FamilyMap(j_lo=5, j_hi=5, image=((1, 0),))
    win = sw.gamma_J(cd, fam)
    assert win.vertices == (5,) and win.arrows == ()
    assert sw.verify_a_infinity(cd, fam)


def test_type_a_family_closed_form():
    for n in range(1, 6):
        cd = rs.build_cartan("A", n)
        Q = ar.monotone_quiver(cd)
        fam = sw.type_a_family(Q, ar.default_height(Q, -2), n + 1, -8, 8)
        assert all(fam.of(j) == (1, -2 * j) for j in fam.domain)
        assert sw.verify_a_infinity(cd, fam)


def test_type_d_family_closed_form():
    for n in (4, 5):
        cd = rs.build_cartan("D", n)
        Q = ar.monotone_quiver(cd)
        h = cd.h
        star = cd.star_of(n - 1)
        assert star == (n - 1 if n % 2 == 0 else n)
        fam = sw.type_a_family(Q, ar.default_height(Q, -2), n, -8, 8)
        for j in fam.domain:
            i = (j - 1) % n + 1
            k = (j - i) // n
            if i <= n - 2:
                assert fam.of(j) == (1, -2 * i - 2 * k * h)
            elif i == n - 1:
                assert fam.of(j) == (star, -3 * n + 4 - 2 * k * h)
            else:
                assert fam.of(j) == (star, -n - h - 2 * k * h)
        assert sw.verify_a_infinity(cd, fam)


def test_type_e_family_closed_form():
    for n in (6, 7, 8):
        cd = rs.build_cartan("E", n)
        Q = ar.monotone_quiver(cd)
        h = cd.h
        star = cd.star_of(n - 1)
        assert star == (1 if n == 6 else n - 1)
        fam = sw.type_a_family(Q, ar.default_height(Q, -2), n, -8, 8)
        for j in fam.domain:
            i = (j - 1) % n + 1
            k = (j - i) // n
            if i <= 3:
                assert fam.of(j) == (1, -2 * i - 2 * k * h)
            else:
                assert fam.of(j) == (star, n - h - 2 * i - 2 * k * h)
        assert sw.verify_a_infinity(cd, fam)


def test_a_infinity_for_all_required_configurations():
    configs = [("A", n, n + 1) for n in range(1, 9)]
    configs += [("D", 4, 4), ("D", 5, 5), ("E", 6, 6), ("E", 7, 7), ("E", 8, 8)]
    for family, rank, N in configs:
        cd = rs.build_cartan(family, rank)
        Q = ar.monotone_quiver(cd)
        fam = sw.type_a_family(Q, ar.default_height(Q, -2), N, -8, 8)
        assert sw.verify_a_infinity(cd, fam), (family, rank)


def test_scrambled_family_fails_a_infinity():
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    fam = sw.type_a_family(Q, ar.default_height(Q, -2), 4, -2, 2)
    scrambled = sw.FamilyMap(j_lo=-2, j_hi=2, image=tuple(reversed(fam.image)))
    assert not sw.verify_a_infinity(cd, scrambled)


def reference_type_a_family(Q, xi, N, j_lo, j_hi):
    """The family map built on its own: simples of the type-A path at even
    shifts, theta = alpha_1 + ... + alpha_(N-1) at odd shifts, one checked
    ``happel_inverse`` per j."""
    cd = Q.cd
    ar.check_height(Q, xi)
    sw._check_type_a_subquiver(Q, N)
    theta = tuple(1 if v < N else 0 for v in cd.vertices)
    image = []
    for j in range(j_lo, j_hi + 1):
        i = (j - 1) % N + 1
        k = (j - i) // N
        if i < N:
            obj = ar.IndecObject(rs.simple_root(cd, i), -2 * k)
        else:
            obj = ar.IndecObject(theta, -2 * k - 1)
        image.append(ar.happel_inverse(Q, xi, obj))
    return sw.FamilyMap(j_lo=j_lo, j_hi=j_hi, image=tuple(image))


def reference_x_of_root(Q, xi, N, j, l):
    """x(j; l) for l < N with checked Happel maps: the subpath object at
    (l, xi_l - 2j + 2), padded and placed in Q."""
    cd = Q.cd
    sub_cd = rs.build_cartan("A", N - 1, parity_base=cd.eps_of(1))
    sub_Q = ar.orient(sub_cd, [(i, i + 1) for i in range(1, N - 1)])
    obj = ar.happel_object(sub_Q, tuple(xi[:N - 1]), (l, xi[l - 1] - 2 * j + 2))
    padded = obj.root + (0,) * (cd.rank - (N - 1))
    return ar.happel_inverse(Q, xi, ar.IndecObject(padded, obj.shift))


def _family_sweep():
    """(Q, xi, N) over every type of rank <= 8, both parities, the three
    orientations of the selfcheck and each N whose vertices 1..N-1 are a
    monotone path of Q, at xi_1 in {eps_1 - 2, eps_1, eps_1 + 2}."""
    for ty in rs.all_ade_types(8):
        for parity in (0, 1):
            cd = rs.build_cartan(*ty, parity_base=parity)
            for Q in selfcheck._three_orientations(cd):
                for N in range(2, cd.rank + 2):
                    try:
                        sw._check_type_a_subquiver(Q, N)
                    except ValueError:
                        continue
                    for xi1 in (cd.eps_of(1) - 2, cd.eps_of(1), cd.eps_of(1) + 2):
                        yield Q, ar.default_height(Q, xi1), N


def test_family_vertices_match_the_reference_constructions():
    cases = 0
    for Q, xi, N in _family_sweep():
        fam = sw.type_a_family(Q, xi, N, -9, 9)
        assert fam == reference_type_a_family(Q, xi, N, -9, 9), (Q, xi, N)
        for j in fam.domain:
            for l in range(1, N):
                assert sw.x_of_root(Q, xi, N, j, l) == reference_x_of_root(
                    Q, xi, N, j, l), (Q, xi, N, j, l)
                cases += 1
    assert cases == 37791  # 759 (Q, xi, N): each distinct quiver once


def test_type_a_family_preconditions():
    cd = rs.build_cartan("A", 3)
    backwards = ar.orient(cd, [(2, 1), (3, 2)])
    with pytest.raises(ValueError):
        sw.type_a_family(backwards, ar.default_height(backwards), 4, 0, 3)
    Q = ar.monotone_quiver(cd)
    with pytest.raises(ValueError):
        sw.type_a_family(Q, ar.default_height(Q, -2), 9, 0, 3)
    cde = rs.build_cartan("E", 6)
    Qe = ar.monotone_quiver(cde)
    with pytest.raises(ValueError):
        # vertices 1..6 of E6 are not a path (branch at 3)
        sw.type_a_family(Qe, ar.default_height(Qe, -2), 7, 0, 3)


def test_type_a_family_rejects_a_reversed_domain():
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    xi = (-2, -3, -4)
    assert sw.type_a_family(Q, xi, 4, 3, 2).domain == range(3, 3)
    for j_lo, j_hi in ((3, 0), (3, 1), (-5, -9)):
        with pytest.raises(ValueError, match=rf"reversed domain \[{j_lo}, {j_hi}\]"):
            sw.type_a_family(Q, xi, 4, j_lo, j_hi)


def test_every_family_function_validates_before_the_length_n_shortcut():
    # an interval of length N maps to ZERO, but only once (Q, xi, N) holds:
    # each case raises the error type_a_family raises for the same data
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    xi = ar.default_height(Q, -2)
    backwards = ar.orient(cd, [(2, 1), (3, 2)])
    cases = [(Q, xi, 1), (Q, xi, 9), (backwards, ar.default_height(backwards), 4),
             (Q, (0, 0, 0), 4), (backwards, (5, 5, 5), 4)]
    for Qc, xic, N in cases:
        with pytest.raises(ValueError) as family_error:
            sw.type_a_family(Qc, xic, N, 0, 0)
        message = re.escape(str(family_error.value))
        with pytest.raises(ValueError, match=message):
            sw.x_of_root(Qc, xic, N, 0, N)
        with pytest.raises(ValueError, match=message):
            sw.m_nu(Qc, xic, N, sw.delta_partition(0, N))


def test_kostant_partition_examples():
    two = sw.kostant_partitions({0: 1, 1: 1}, None)
    assert len(two) == 2
    assert sw.KostantPartition(nu=(((0, 2), 1),)) in two
    assert sw.KostantPartition(nu=(((0, 1), 1), ((1, 1), 1))) in two
    assert len(sw.kostant_partitions({0: 1}, 1)) == 1
    assert len(sw.kostant_partitions({0: 1, 1: 1}, 1)) == 1
    assert sw.kostant_partitions({}, None) == [sw.KostantPartition(nu=())]


def test_kostant_partition_weights():
    kps = sw.kostant_partitions({0: 2, 1: 2, 2: 1}, 3)
    for kp in kps:
        assert kp.beta() == {0: 2, 1: 2, 2: 1}
        assert kp.weight() == 5
    assert len(kps) == len(set(kps))


def test_x_of_root_examples():
    cd = rs.build_cartan("A", 2)
    Q = ar.orient(cd, [(1, 2)])
    xi = (-2, -3)
    assert sw.x_of_root(Q, xi, 3, 1, 1) == (1, -2)
    assert sw.x_of_root(Q, xi, 3, 0, 3) is sw.ZERO
    fam = sw.type_a_family(Q, xi, 3, -4, 4)
    for j in fam.domain:
        assert sw.x_of_root(Q, xi, 3, j, 1) == fam.of(j)
    # the length-2 interval at j=1 lands on the top interval module
    x = sw.x_of_root(Q, xi, 3, 1, 2)
    assert ar.happel_object(Q, xi, x) == ar.IndecObject((1, 1), 0)
    with pytest.raises(ValueError):
        sw.x_of_root(Q, xi, 3, 0, 4)


def test_m_nu_examples():
    cd = rs.build_cartan("A", 2)
    Q = ar.orient(cd, [(1, 2)])
    xi = (-2, -3)
    assert sw.m_nu(Q, xi, 3, sw.delta_partition(0, 3)) == Monomial.unit()
    fam = sw.type_a_family(Q, xi, 3, -4, 4)
    assert sw.m_nu(Q, xi, 3, sw.delta_partition(0, 1)) == Monomial.y(*fam.of(0))
    x = sw.x_of_root(Q, xi, 3, 1, 2)
    assert sw.m_nu(Q, xi, 3, sw.delta_partition(1, 2)) == Monomial.y(*x)


def test_orbit_census_example():
    census = sw.orbit_census({0: 1, 1: 1}, 2)
    assert len(census) == 2
    dims = {kp.nu: d for kp, d in census}
    assert dims[(((0, 2), 1),)] == 1
    assert dims[(((0, 1), 1), ((1, 1), 1))] == 0
    assert len(set(dims.values())) == 2
    open_orbit = max(census, key=lambda t: t[1])[0]
    assert open_orbit.parts() == 1


def test_orbit_census_counts():
    for beta in ({0: 2, 1: 1}, {0: 1, 1: 2, 2: 1}, {0: 3}):
        census = sw.orbit_census(beta, 4)
        assert len(census) == len(sw.kostant_partitions(beta, 4))
        for kp, d in census:
            assert d >= 0

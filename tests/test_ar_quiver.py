import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmx
from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import rep_oracle as ro
from rmx import root_system as rs
from rmx.ar_quiver import IndecObject

from quivers import all_orientations, shift_height


def _a2_setup():
    cd = rs.build_cartan("A", 2)
    Q = ar.orient(cd, [(2, 1)])
    return cd, Q, (0, 1)


def test_orientation_must_cover_each_edge_once():
    cd = rs.build_cartan("A", 2)
    with pytest.raises(ValueError):
        ar.orient(cd, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        ar.orient(cd, [])


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 4), ("D", 5), ("E", 6)])
def test_orient_interns_one_quiver_per_arrow_set(family, rank):
    rng = random.Random(rank)
    for parity in (0, 1):
        cd = rs.build_cartan(family, rank, parity)
        for Q in all_orientations(cd):
            arrows = list(Q.arrows)
            rng.shuffle(arrows)
            assert ar.orient(cd, arrows) is Q
            assert ar.orient(cd, reversed(Q.arrows)) is Q
            for twin in (pickle.loads(pickle.dumps(Q)), copy.copy(Q), copy.deepcopy(Q)):
                assert twin is Q
                assert twin == Q and hash(twin) == hash(Q)
                assert {Q: 1}[twin] == 1
    Q0 = ar.monotone_quiver(rs.build_cartan(family, rank, 0))
    Q1 = ar.monotone_quiver(rs.build_cartan(family, rank, 1))
    assert Q1 is not Q0 and Q1.arrows == Q0.arrows
    # knitting reads only the arrows, so the two parities share one table
    assert ar._tau_orbits(Q1) is ar._tau_orbits(Q0)


def test_hom_basis_accepts_representations_from_two_orient_calls():
    cd = rs.build_cartan("D", 4)
    arrows = [(2, 1), (2, 3), (4, 2)]
    P, Q = ar.orient(cd, arrows), ar.orient(cd, arrows[::-1])
    for a in rs.positive_roots(cd):
        M = ro.indec_rep(P, a)
        M = ro.QuiverRep(pickle.loads(pickle.dumps(P)), M.dims, M.mats)
        for b in rs.positive_roots(cd):
            N = ro.indec_rep(Q, b)
            assert len(ro.hom_basis(M, N)) == max(ar.euler_form(Q, a, b), 0)
            assert ro.ext1_dim_rep(M, N) == max(-ar.euler_form(Q, a, b), 0)


def test_coxeter_word_orderings():
    cd, Q, xi = _a2_setup()
    assert ar.coxeter_word(Q) == (2, 1)
    Qm = ar.orient(cd, [(1, 2)])
    assert ar.coxeter_word(Qm) == (1, 2)
    cd4 = rs.build_cartan("D", 4)
    Q4 = ar.monotone_quiver(cd4)
    assert len(ar.coxeter_word(Q4)) == 4


def test_invalid_height_functions_rejected():
    cd, Q, _ = _a2_setup()
    with pytest.raises(ValueError):
        ar.check_height(Q, (0, 2))  # wrong step along the arrow
    with pytest.raises(ValueError):
        ar.check_height(Q, (1, 2))  # wrong parity at vertex 1
    with pytest.raises(ValueError):
        ar.default_height(Q, xi1=1)


def test_coxeter_apply_examples():
    cd, Q, xi = _a2_setup()
    word = ar.coxeter_word(Q)
    assert ar.coxeter_apply(cd, word, (1, 1), 1) == (0, -1)
    assert ar.coxeter_apply(cd, word, (1, 1), cd.h) == (1, 1)
    v = (1, 0)
    assert ar.coxeter_apply(cd, word, ar.coxeter_apply(cd, word, v, 1), -1) == v


def test_tau_power_full_period_every_type():
    for family, rank in [("A", 3), ("D", 4), ("E", 6)]:
        cd = rs.build_cartan(family, rank)
        Q = ar.sink_source_quiver(cd)
        word = ar.coxeter_word(Q)
        for alpha in rs.positive_roots(cd):
            assert ar.coxeter_apply(cd, word, alpha, cd.h) == alpha


def test_gamma_vector_examples():
    cd, Q, xi = _a2_setup()
    assert ar.gamma_vector(Q, 1) == (1, 1)
    assert ar.gamma_vector(Q, 2) == (0, 1)
    cd4 = rs.build_cartan("D", 4)
    Qss = ar.sink_source_quiver(cd4)
    # vertex 2 has eps 1, so it is a source; sinks collect all neighbors
    assert ar.gamma_vector(Qss, 1) == (1, 1, 0, 0)
    assert ar.gamma_vector(Qss, 3) == (0, 1, 1, 0)


def test_tau_object_knitting_examples():
    cd, Q, xi = _a2_setup()
    obj = IndecObject((1, 1), 0)
    assert ar.tau_object(Q, obj, 1) == IndecObject((0, 1), -1)
    assert ar.tau_object(Q, obj, 0) == obj
    stepped = ar.tau_object(Q, obj, 1)
    assert ar.tau_object(Q, stepped, -1) == obj
    for alpha in rs.positive_roots(cd):
        start = IndecObject(alpha, 0)
        assert ar.tau_object(Q, start, cd.h) == IndecObject(alpha, -2)


def test_happel_object_examples():
    cd, Q, xi = _a2_setup()
    assert ar.happel_object(Q, xi, (1, 0)) == IndecObject((1, 1), 0)
    assert ar.happel_object(Q, xi, (2, -1)) == IndecObject((1, 0), 0)
    assert ar.happel_object(Q, xi, (1, -2)) == IndecObject((0, 1), -1)
    with pytest.raises(ValueError):
        ar.happel_object(Q, xi, (1, 1))  # parity violation


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 5), ("E", 6)])
def test_happel_object_matches_direct_knitting(family, rank):
    # happel_object reads one tau period and shifts by -2 per period;
    # knitting all the way from I_i must agree, also several periods out
    cd = rs.build_cartan(family, rank)
    for Q in (ar.monotone_quiver(cd), ar.random_orientation(cd, 7)):
        xi = ar.default_height(Q)
        for i, p in ar.delta_vertices(cd, -3 * cd.h, 3 * cd.h):
            start = IndecObject(ar.gamma_vector(Q, i), 0)
            direct = ar.tau_object(Q, start, (xi[i - 1] - p) // 2)
            assert ar.happel_object(Q, xi, (i, p)) == direct


def test_happel_inverse_examples_and_round_trip():
    cd, Q, xi = _a2_setup()
    for x in [(1, 0), (2, -1), (1, -2)]:
        assert ar.happel_inverse(Q, xi, ar.happel_object(Q, xi, x)) == x
    cdm = rs.build_cartan("A", 2)
    Qm = ar.orient(cdm, [(1, 2)])
    assert ar.happel_inverse(Qm, (-2, -3), IndecObject((1, 0), 0)) == (1, -2)
    for x in ar.delta_vertices(cd, -2 * cd.h, 2 * cd.h):
        assert ar.happel_inverse(Q, xi, ar.happel_object(Q, xi, x)) == x


@settings(max_examples=200, deadline=None)
@given(data=st.data(), type_=st.sampled_from(rs.all_ade_types(8)),
       orientation=st.integers(0, 2**32), shift=st.integers(-8, 8))
def test_happel_maps_are_mutually_inverse(data, type_, orientation, shift):
    # any orientation, any even shift of its height, up to 3 periods out
    cd = rs.build_cartan(*type_)
    Q = ar.random_orientation(cd, orientation)
    xi = shift_height(ar.default_height(Q), 2 * shift)
    i = data.draw(st.sampled_from(cd.vertices))
    x = (i, xi[i - 1] - 2 * data.draw(st.integers(-3 * cd.h, 3 * cd.h)))
    assert ar.happel_inverse(Q, xi, ar.happel_object(Q, xi, x)) == x
    obj = IndecObject(data.draw(st.sampled_from(rs.positive_roots(cd))),
                      data.draw(st.integers(-6, 6)))
    assert ar.happel_object(Q, xi, ar.happel_inverse(Q, xi, obj)) == obj


def _strip_holds_each_root_once(Q):
    strip = ar.module_strip(Q, ar.default_height(Q))
    return sorted(strip.values()) == list(rs.positive_roots(Q.cd))


@pytest.mark.parametrize("family,rank", rs.all_ade_types(6))
def test_default_strip_holds_each_root_once(family, rank):
    # rep_oracle.decompose reads the height of every root off this strip
    cd = rs.build_cartan(family, rank)
    assert all(map(_strip_holds_each_root_once, all_orientations(cd)))


@settings(max_examples=40, deadline=None)
@given(type_=st.sampled_from([("D", 7), ("D", 8), ("E", 7), ("E", 8)]),
       orientation=st.integers(0, 2**32))
def test_default_strip_holds_each_root_once_sampled(type_, orientation):
    cd = rs.build_cartan(*type_)
    assert _strip_holds_each_root_once(ar.random_orientation(cd, orientation))


def test_nakayama_shift_relation():
    for family, rank in [("A", 3), ("D", 4), ("E", 6)]:
        cd = rs.build_cartan(family, rank)
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        for x in ar.delta_vertices(cd, -cd.h, cd.h):
            i, p = x
            a = ar.happel_object(Q, xi, x)
            b = ar.happel_object(Q, xi, (cd.star_of(i), p + cd.h))
            assert b == IndecObject(a.root, a.shift + 1)


def _knit_strip(Q, xi):
    """Reference: knit from each I_i until the first nonzero shift."""
    strip = {}
    for i in Q.cd.vertices:
        obj = IndecObject(ar.gamma_vector(Q, i), 0)
        p = xi[i - 1]
        while obj.shift == 0:
            strip[(i, p)] = obj.root
            obj = ar.tau_object(Q, obj, 1)
            p -= 2
    return strip


def test_module_strip_has_one_object_per_root():
    # module_strip reads the shift-0 prefixes of the cached tau orbits; the
    # knitting loop above is the reference, insertion order included
    types = [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5), ("D", 6), ("E", 6)]
    for family, rank in types:
        cd = rs.build_cartan(family, rank)
        for Q in all_orientations(cd):
            for t in (0, -6, 6):
                xi = shift_height(ar.default_height(Q), t)
                strip = ar.module_strip(Q, xi)
                assert list(strip.items()) == list(_knit_strip(Q, xi).items())
                assert sorted(strip.values()) == sorted(rs.positive_roots(cd))


@pytest.mark.parametrize("family,rank", rs.all_ade_types(8))
def test_module_strip_is_the_closed_form_strip(family, rank):
    # the modules of (Q, xi) are the (k, q) with xi_{k*} - h + 2 <= q <= xi_k
    cd = rs.build_cartan(family, rank)
    for Q in all_orientations(cd):
        for t in (0, 4):
            xi = shift_height(ar.default_height(Q), t)
            want = {(k, q) for k in cd.vertices
                    for q in range(xi[k - 1], xi[cd.star_of(k) - 1] - cd.h + 1, -2)}
            assert set(ar.module_strip(Q, xi)) == want


def test_euler_form_examples():
    cd, Q, xi = _a2_setup()
    assert ar.euler_form(Q, (0, 1), (1, 0)) == -1
    assert ar.euler_form(Q, (1, 0), (0, 1)) == 0
    for alpha in rs.positive_roots(cd):
        assert ar.euler_form(Q, alpha, alpha) == 1
    cd4 = rs.build_cartan("D", 4)
    Q4 = ar.monotone_quiver(cd4)
    for alpha in rs.positive_roots(cd4):
        assert ar.euler_form(Q4, alpha, alpha) == 1


def test_ext1_dim_examples():
    cd, _, _ = _a2_setup()
    assert dn.pole_order(cd, (2, -1), (2, 1)) == 1
    assert dn.pole_order(cd, (1, 0), (2, 3)) == 1
    assert dn.pole_order(cd, (1, 0), (1, 0)) == 0
    assert dn.pole_order(cd, (2, 1), (2, -1)) == 0  # r <= p + 1


def test_hom_dim_examples():
    cd, _, _ = _a2_setup()
    assert dn.hom_dim(cd, (1, 0), (2, 1)) == 1
    assert dn.hom_dim(cd, (1, 0), (1, 0)) == 1
    assert dn.hom_dim(cd, (2, 1), (1, 0)) == 0  # r < p
    assert dn.hom_dim(cd, (1, 0), (2, 3)) == 0  # beyond the module window


def test_pairings_independent_of_orientation_and_height():
    # ext/hom reduce to the inverse-matrix coefficients, whose orbit-formula
    # route is the only (Q, xi)-dependent ingredient: pin it across
    # orientations and height shifts
    from rmx import quantum_cartan as qc

    cd = rs.build_cartan("D", 4)
    quivers = [
        ar.monotone_quiver(cd),
        ar.sink_source_quiver(cd),
        ar.random_orientation(cd, 5),
    ]
    for i in cd.vertices:
        for j in cd.vertices:
            for l in range(1, cd.h + 1):
                vals = set()
                for Q in quivers:
                    base = ar.default_height(Q)
                    for t in (0, -4, 6):
                        xi = shift_height(base, t)
                        vals.add(qc.ctilde_coxeter(cd, Q, xi, i, j, l))
                assert len(vals) == 1, (i, j, l, vals)


# ---------------------------------------------------------------------------
# the in-place Coxeter step against the reflect-per-letter knitting


def _reflect_by_pairing(cd, i, v):
    """Reference r_i: subtract (v, alpha_i) = the Cartan row i times v."""
    pairing = sum(c * x for c, x in zip(cd.cartan[i - 1], v))
    return tuple(x - pairing if k == i - 1 else x for k, x in enumerate(v))


def reference_coxeter_apply(cd, word, v, times):
    """tau^times with one fresh tuple per letter of the Coxeter word."""
    for _ in range(abs(times)):
        for i in (reversed(word) if times > 0 else word):
            v = _reflect_by_pairing(cd, i, v)
    return v


def reference_tau_object(Q, obj, times):
    word = ar.coxeter_word(Q)
    root, shift = obj
    for _ in range(abs(times)):
        v = reference_coxeter_apply(Q.cd, word, root, 1 if times > 0 else -1)
        if all(c >= 0 for c in v):
            root = v
        else:
            root = tuple(-c for c in v)
            shift += -1 if times > 0 else +1
    return IndecObject(root, shift)


def reference_tau_orbits(Q):
    """tau^s(I_i) for s = 0..h-1, one reference tau step at a time."""
    orbits = []
    for i in Q.cd.vertices:
        obj = IndecObject(ar.gamma_vector(Q, i), 0)
        orbit = []
        for _ in range(Q.cd.h):
            orbit.append(obj)
            obj = reference_tau_object(Q, obj, 1)
        assert obj == IndecObject(orbit[0].root, -2)
        orbits.append(tuple(orbit))
    return tuple(orbits)


def _knitting_quivers():
    """Every orientation up to rank 5, the selfcheck's three orientations at
    both parities up to rank 8, and monotone A32 and D20."""
    for family, rank in rs.all_ade_types(8):
        for parity in (0, 1):
            cd = rs.build_cartan(family, rank, parity)
            if rank <= 5:
                yield from all_orientations(cd)
            else:
                yield from (ar.monotone_quiver(cd), ar.sink_source_quiver(cd),
                            ar.random_orientation(cd, seed=11))
    yield ar.monotone_quiver(rs.build_cartan("A", 32))
    yield ar.monotone_quiver(rs.build_cartan("D", 20))


def test_tau_orbits_match_the_reflect_per_letter_knitting():
    for Q in _knitting_quivers():
        orbits = ar._tau_orbits(Q)
        assert orbits == reference_tau_orbits(Q), Q
        assert all(type(root) is tuple for orbit in orbits for root, _ in orbit)


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 5), ("E", 6), ("E", 8)])
def test_coxeter_steps_match_the_reflect_per_letter_knitting(family, rank):
    cd = rs.build_cartan(family, rank)
    for Q in (ar.monotone_quiver(cd), ar.random_orientation(cd, seed=3)):
        word = ar.coxeter_word(Q)
        for alpha in rs.positive_roots(cd):
            for times in (-cd.h - 1, -2, -1, 0, 1, 2, cd.h + 1):
                got = ar.coxeter_apply(cd, word, alpha, times)
                assert got == reference_coxeter_apply(cd, word, alpha, times)
                assert type(got) is tuple
                obj = IndecObject(alpha, 1)
                assert ar.tau_object(Q, obj, times) == reference_tau_object(Q, obj, times)


def test_a_broken_coxeter_step_raises_under_python_O():
    # the knitting closure tau^h(I_i) = I_i[-2] is an explicit check, so it
    # also holds in an interpreter that strips assert statements
    code = (
        "from rmx import ar_quiver as ar, root_system as rs\n"
        "step = rs.reflect_word\n"
        "rs.reflect_word = lambda cd, word, v: step(cd, word[:-1], v)\n"
        "ar._tau_orbits(ar.monotone_quiver(rs.build_cartan('A', 3)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(rmx.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "RuntimeError: knitting does not close" in run.stderr


def test_a_repeated_orbit_entry_raises(monkeypatch):
    Q = ar.monotone_quiver(rs.build_cartan("A", 3))
    orbits = ar._tau_orbits(Q)
    repeated = (orbits[0][:1] + orbits[1][1:2] + orbits[0][2:],) + orbits[1:]
    monkeypatch.setattr(ar, "_tau_orbits", lambda Q: repeated)
    with pytest.raises(RuntimeError, match="share a root and shift parity"):
        ar._orbit_index.__wrapped__(Q)

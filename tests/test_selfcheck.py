"""Each rewritten selfcheck check fails when one fact it covers is wrong.

The checks compare in bulk and compute each shared fact once; these
mutations show that one wrong knitting entry, one wrong single step, one
wrong ``ct`` entry, one wrong Hom count or one wrong module still reaches
the verdict.  Each test first runs the check unpatched, which also fills
the caches the patched function feeds, so the mutation cannot outlive the
test.  The pair enumerations behind ext-oracle build each quiver once per
least height function; they must still place every pair as
``common_heart`` does.  The family checks read their vertices from one
``schur_weyl._transport`` call per configuration, and a wrong vertex there
still fails ``dorey``.
"""

import random
from itertools import product

import pytest

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import quantum_cartan as qc
from rmx import rep_oracle as ro
from rmx import root_system as rs
from rmx import schur_weyl as sw
from rmx import selfcheck as sc
from rmx.ar_quiver import IndecObject

from test_quantum_cartan import identities_by_value, shifted_table


def test_a_wrong_knitting_entry_fails_the_dual_method(monkeypatch):
    assert sc.check_ctilde_dual_method(3)[0]
    target = ar.monotone_quiver(rs.build_cartan("A", 3))
    orig = ar._tau_orbits

    def corrupted(Q):
        orbits = orig(Q)
        if Q != target:
            return orbits
        root, shift = orbits[0][1]
        first = orbits[0][:1] + (IndecObject(root, shift + 1),) + orbits[0][2:]
        return (first,) + orbits[1:]

    monkeypatch.setattr(ar, "_tau_orbits", corrupted)
    passed, detail = sc.check_ctilde_dual_method(3)
    assert not passed
    assert f"first: ('A3', 0, '{target.label()}', 1," in detail


def test_a_wrong_tau_step_fails_tau_nakayama(monkeypatch):
    assert sc.check_tau_nakayama(3)[0]
    orig = ar.tau_object

    def one_wrong_step(Q, obj, times):
        out = orig(Q, obj, times)
        if Q.cd.label() == "A3" and times == 1 and obj.root == (0, 1, 0):
            return IndecObject(out.root, out.shift - 1)
        return out

    monkeypatch.setattr(ar, "tau_object", one_wrong_step)
    passed, detail = sc.check_tau_nakayama(3)
    assert not passed
    assert "A3: knitting tau^h is not shift -2" in detail


def test_a_wrong_coxeter_step_fails_tau_nakayama(monkeypatch):
    assert sc.check_tau_nakayama(3)[0]
    orig = ar.coxeter_apply

    def one_wrong_step(cd, word, v, times):
        out = orig(cd, word, v, times)
        if cd.label() == "A3" and times == 1 and v == (0, 1, 0):
            return tuple(-c for c in out)
        return out

    monkeypatch.setattr(ar, "coxeter_apply", one_wrong_step)
    passed, detail = sc.check_tau_nakayama(3)
    assert not passed
    assert "A3: tau^h moves" in detail


@pytest.mark.parametrize("family,rank,entry", [("A", 3, (1, 2, 1)), ("D", 4, (2, 2, 3)),
                                               ("E", 6, (2, 5, 4)), ("E", 8, (8, 8, 30))])
def test_one_wrong_ct_entry_fails_inversion_and_identities(monkeypatch, family, rank, entry):
    # entry = (i, j, l) with l <= h, moved by 1 in every table of that type
    assert sc.check_ctilde_inversion(rank)[0] and sc.check_ctilde_identities(rank)[0]
    target = rs.build_cartan(family, rank)
    orig = qc.ctilde_table

    def shifted(cd, L=None):
        t = orig(cd, L)
        return shifted_table(t, *entry) if cd is target else t

    monkeypatch.setattr(qc, "ctilde_table", shifted)
    passed, detail = sc.check_ctilde_inversion(rank)
    assert not passed
    reference = qc.check_ctilde_inversion(qc.ctilde_table(target, 4 * target.h))
    assert detail == f"{target.label()}: {reference[0]} (+{len(reference) - 1} more)"
    passed, detail = sc.check_ctilde_identities(rank)
    assert not passed
    reference = identities_by_value(qc.ctilde_table(target, 2 * target.h))
    assert detail == f"{target.label()}: {reference[0]} (+{len(reference) - 1} more)"


def test_one_wrong_hom_count_fails_ext_oracle(monkeypatch):
    assert sc.check_ext_oracle(("A3",))[0]
    cd = rs.build_cartan("A", 3)
    x, y, (Q0, _, a, b) = next(sc._ext_oracle_pairs(cd, 2 * cd.h))
    orig = ro.hom_dim_rep

    def off_by_one(M, N):
        return orig(M, N) + ((M.Q, M.dims, N.dims) == (Q0, a, b))

    monkeypatch.setattr(ro, "hom_dim_rep", off_by_one)
    passed, detail = sc.check_ext_oracle(("A3",))
    assert not passed
    assert detail.startswith(f"A3: hom mismatch at {x},{y}")


def test_a_random_module_at_one_root_fails_rep_oracle_but_not_the_euler_loop(monkeypatch):
    # A seeded 0/1 representation with the dimensions of the highest D4 root
    # stands in for its indecomposable.  hom - ext1 = <a, b> holds for any
    # modules of these dimensions, so the Euler loop cannot see the swap.
    assert sc.check_rep_oracle(("D4",), 0)[0]
    cd = rs.build_cartan("D", 4)
    Q, top = ar.monotone_quiver(cd), (1, 2, 1, 1)
    rng = random.Random(1)
    fake = ro.QuiverRep(Q, top, {
        (u, v): [[rng.randint(0, 1) for _ in range(top[u - 1])] for _ in range(top[v - 1])]
        for u, v in Q.arrows})
    orig = ro.indec_rep
    monkeypatch.setattr(ro, "indec_rep",
                        lambda Q0, a: fake if (Q0, a) == (Q, top) else orig(Q0, a))
    passed, detail = sc.check_rep_oracle(("D4",), 0)
    assert not passed
    assert detail.startswith("D4: hom != max(euler, 0) at ")
    assert str(top) in detail

    # the Euler loop this check replaced, inline: it passes on the same modules
    roots = rs.positive_roots(cd)
    reps = {a: ro.indec_rep(Q, a) for a in roots}
    assert reps[top] is fake
    for a in roots:
        for b in roots:
            h = ro.hom_dim_rep(reps[a], reps[b])
            e = ro.ext1_dim_rep(reps[a], reps[b])
            assert h - e == ar.euler_form(Q, a, b)


def test_the_window_pairs_are_the_common_heart_placements_in_order():
    cd = rs.build_cartan("D", 4)
    verts = ar.delta_vertices(cd, -2 * cd.h, 2 * cd.h)
    expected = [(x, y, placement) for x, y in product(verts, repeat=2)
                if (placement := dn.common_heart(cd, x, y)) is not None]
    assert list(sc._ext_oracle_pairs(cd, 2 * cd.h)) == expected


def test_the_sampled_pairs_draw_as_the_reference_loop_does():
    # x, then y, from Random(2024) until enough pairs are placed
    cd = rs.build_cartan("E", 6)
    rng = random.Random(2024)
    verts = ar.delta_vertices(cd, -2 * cd.h, 2 * cd.h)
    expected = []
    while len(expected) < 60:
        x, y = rng.choice(verts), rng.choice(verts)
        placement = dn.common_heart(cd, x, y)
        if placement is not None:
            expected.append((x, y, placement))
    assert list(sc._sampled_pairs(cd, 60)) == expected


def test_inversion_counts_the_types_it_checked():
    # every type of rank <= max_rank
    detail = "C(z)P(z) = Id + z^h nu, and ct to 4h follows it ({} types)"
    assert sc.check_ctilde_inversion(1) == (True, detail.format(1))
    assert sc.check_ctilde_inversion(5)[1] == detail.format(7)
    assert sc.check_ctilde_inversion(8)[1] == detail.format(16)


def test_three_orientations_lists_each_quiver_once_in_order():
    # the interned quivers coincide on small types (A1, A2, and A3 and D4 at
    # parity 1): 9 of the 96 built over rank <= 8 are repeats
    built = listed = 0
    for family, n in rs.all_ade_types(8):
        for parity in (0, 1):
            cd = rs.build_cartan(family, n, parity_base=parity)
            tried = [ar.monotone_quiver(cd), ar.sink_source_quiver(cd),
                     ar.random_orientation(cd, seed=11)]
            qs = sc._three_orientations(cd)
            assert list(qs) == list(dict.fromkeys(tried)), cd.label()
            built, listed = built + len(tried), listed + len(qs)
    assert (built, listed) == (96, 87)


def test_dual_method_builds_one_recurrence_table_per_type(monkeypatch):
    calls = []
    orig = qc.ctilde_table

    def counted(cd, L=None):
        calls.append(cd.label())
        return orig(cd, L)

    monkeypatch.setattr(qc, "ctilde_table", counted)
    assert sc.check_ctilde_dual_method(5)[0]
    assert calls == [f"{f}{n}" for f, n in rs.all_ade_types(5)]


def test_denominators_builds_each_d_ij_once_and_still_sees_asymmetry(monkeypatch):
    builds = []
    orig = dn.denominator

    def counted(cd, i, j):
        builds.append((cd.label(), i, j))
        return orig(cd, i, j)

    monkeypatch.setattr(dn, "denominator", counted)
    assert sc.check_denominators(5) == (True, "goldens, symmetry and zero positions OK")
    pairs = sum(rs.build_cartan(f, n).rank ** 2 for f, n in rs.all_ade_types(5))
    # the five goldens, then d_ij once per ordered pair plus the build inside
    # denominator_kashiwara
    assert len(builds) == 5 + 2 * pairs

    def asymmetric(cd, i, j):
        d = orig(cd, i, j)
        if (cd.label(), i, j) == ("A3", 1, 2):
            return dn.Denominator(d.factors + ((9, 2),), d.convention)
        return d

    monkeypatch.setattr(dn, "denominator", asymmetric)
    passed, detail = sc.check_denominators(5)
    assert not passed
    assert detail == "A3 d12 asymmetric; A3 d21 asymmetric"


_FULL_DOREY = (("A", 3, 4, 2), ("D", 4, 4, 4))


def counted_transports(monkeypatch):
    """Patch ``sw._transport`` and ``sw.x_of_root`` to log their calls."""
    transports, singles = [], []
    transport, x_of_root = sw._transport, sw.x_of_root

    def logged_transport(Q, xi, N, roots):
        transports.append((Q.cd.label(), N))
        return transport(Q, xi, N, roots)

    def logged_x_of_root(*args):
        singles.append(args)
        return x_of_root(*args)

    monkeypatch.setattr(sw, "_transport", logged_transport)
    monkeypatch.setattr(sw, "x_of_root", logged_x_of_root)
    return transports, singles


def test_dorey_reads_each_configs_vertices_from_one_transport(monkeypatch):
    transports, singles = counted_transports(monkeypatch)
    assert sc.check_dorey(_FULL_DOREY) == (True, "goldens plus 84 splittings")
    assert (transports, singles) == ([("A3", 4), ("D4", 4)], [])


def test_kostant_census_enumerates_each_beta_once(monkeypatch):
    # 4 + 10 + 20 + 35 + 56 betas of weight 1..5 on four positions; the
    # single-root monomials make one transport for their 20 vertices and
    # one inside each m_nu
    transports, singles = counted_transports(monkeypatch)
    calls = []
    orig = sw.kostant_partitions

    def counted(beta, max_len=None):
        calls.append(beta)
        return orig(beta, max_len)

    monkeypatch.setattr(sw, "kostant_partitions", counted)
    assert sc.check_kostant_census(5) == (True, "125 weight<= 5 betas checked")
    assert len(calls) == 125
    assert (len(transports), singles) == (1 + 20, [])


def test_ext_oracle_takes_one_euler_form_per_module_pair(monkeypatch):
    assert sc.check_ext_oracle(("A3", "D4"))[0]  # builds the modules
    module_pairs = {(Q, a, b) for label in ("A3", "D4")
                    for cd in [rs.build_cartan(label[0], int(label[1:]))]
                    for _, _, (Q, _, a, b) in sc._ext_oracle_pairs(cd, 2 * cd.h)}
    calls = []
    orig = ar.euler_form

    def counted(Q, a, b):
        calls.append((Q, a, b))
        return orig(Q, a, b)

    monkeypatch.setattr(ar, "euler_form", counted)
    assert sc.check_ext_oracle(("A3", "D4"))[0]
    assert len(calls) == len(module_pairs) and set(calls) == module_pairs


def test_a_wrong_family_vertex_fails_dorey(monkeypatch):
    # every vertex of an interval root of length 2 moves up by 2, which keeps
    # its parity; the rank-2 goldens read no family vertex
    assert sc.check_dorey(_FULL_DOREY)[0]
    orig = sw._transport

    def shifted(Q, xi, N, roots):
        roots = list(roots)
        return [(x[0], x[1] + 2) if l == 2 and x is not sw.ZERO else x
                for (_, l), x in zip(roots, orig(Q, xi, N, roots))]

    monkeypatch.setattr(sw, "_transport", shifted)
    passed, detail = sc.check_dorey(_FULL_DOREY)
    assert not passed
    assert detail.startswith("A3 N=4: ")

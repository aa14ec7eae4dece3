from fractions import Fraction
from functools import lru_cache
import random
from itertools import permutations

import pytest

from rmx import ar_quiver as ar
from rmx import quantum_cartan as qc
from rmx import root_system as rs

from quivers import all_orientations, shift_height


def ct_series(t, i, j):
    """ct_ij(1..L) of the table t."""
    return tuple(layer[i - 1][j - 1] for layer in t.values)


def test_a1_series_by_hand():
    cd = rs.build_cartan("A", 1)
    t = qc.ctilde_table(cd, 6)
    assert ct_series(t, 1, 1) == (1, 0, -1, 0, 1, 0)


def test_a2_offdiagonal_series_by_hand():
    cd = rs.build_cartan("A", 2)
    t = qc.ctilde_table(cd, 6)
    assert ct_series(t, 1, 2) == (0, 1, 0, -1, 0, 0)


def test_base_case_is_kronecker_delta():
    for family, rank in [("A", 3), ("D", 4), ("E", 6)]:
        cd = rs.build_cartan(family, rank)
        t = qc.ctilde_table(cd, 2)
        for i in cd.vertices:
            for j in cd.vertices:
                assert t.value(i, j, 1) == (1 if i == j else 0)


def _reference_ctilde_values(cd, L):
    """The recurrence as first written: lists, one per neighbour, copied
    into tuples at the end."""
    n = cd.rank
    layers = []
    prev2 = [[0] * n for _ in range(n)]
    prev1 = [[0] * n for _ in range(n)]
    for m in range(L):
        cur = []
        for i in range(n):
            row = [-x for x in prev2[i]]
            for k in cd.adjacency[i]:
                row = [a + b for a, b in zip(row, prev1[k - 1])]
            if m == 0:
                row[i] += 1
            cur.append(row)
        layers.append(cur)
        prev2, prev1 = prev1, cur
    return tuple(tuple(tuple(row) for row in layer) for layer in layers)


@pytest.mark.parametrize("family,rank", rs.all_ade_types(12))
def test_recurrence_matches_the_reference_loop(family, rank):
    # every order 1..4h, so both the tables computed from ct(1) and those
    # continued from the cached 2h table
    cd = rs.build_cartan(family, rank)
    longest = _reference_ctilde_values(cd, 4 * cd.h)
    for L in range(1, 4 * cd.h + 1):
        assert qc.ctilde_table(cd, L).values == longest[:L], L


def test_a_longer_table_continues_the_period_table():
    cd = rs.build_cartan("E", 6)
    period = qc.ctilde_table(cd, 2 * cd.h).values
    longer = qc.ctilde_table(cd, 4 * cd.h + 3).values
    assert len(longer) == 4 * cd.h + 3
    assert all(a is b for a, b in zip(longer, period))


def _poly_series_quotient(num, den, order):
    """Coefficients of num(z)/den(z) as a power series, exactly."""
    num = list(num) + [0] * (order + 1 - len(num))
    den = list(den)
    assert den[0] != 0
    out = []
    state = [Fraction(x) for x in num[: order + 1]]
    for k in range(order + 1):
        c = state[k] / den[0]
        out.append(c)
        for t in range(len(den)):
            if k + t <= order:
                state[k + t] -= c * den[t]
    return out


def test_a1_against_direct_rational_inversion():
    # inverse of z + 1/z is z / (1 + z^2)
    cd = rs.build_cartan("A", 1)
    t = qc.ctilde_table(cd, 12)
    series = _poly_series_quotient([0, 1], [1, 0, 1], 12)
    for l in range(1, 13):
        assert Fraction(t.value(1, 1, l)) == series[l]


def test_a2_against_direct_rational_inversion():
    # cofactor inversion: diagonal (z^3 + z)/(z^4 + z^2 + 1),
    # off-diagonal z^2/(z^4 + z^2 + 1)
    cd = rs.build_cartan("A", 2)
    t = qc.ctilde_table(cd, 12)
    diag = _poly_series_quotient([0, 1, 0, 1], [1, 0, 1, 0, 1], 12)
    off = _poly_series_quotient([0, 0, 1], [1, 0, 1, 0, 1], 12)
    for l in range(1, 13):
        assert Fraction(t.value(1, 1, l)) == diag[l]
        assert Fraction(t.value(1, 2, l)) == off[l]


def test_identity_suite_empty_for_small_types():
    for family, rank in [("A", 1), ("A", 2), ("A", 5), ("D", 4), ("E", 6)]:
        cd = rs.build_cartan(family, rank)
        assert qc.check_ctilde_identities(qc.ctilde_table(cd, 2 * cd.h)) == []


def brute_force_automorphisms(cd):
    """Every vertex permutation preserving the Cartan matrix, by search."""
    return tuple(
        perm for perm in permutations(cd.vertices)
        if all(cd.c(i, j) == cd.c(perm[i - 1], perm[j - 1])
               for i in cd.vertices for j in cd.vertices)
    )


@pytest.mark.parametrize("family,rank", rs.all_ade_types(8))
def test_known_automorphism_groups_match_brute_force(family, rank):
    cd = rs.build_cartan(family, rank)
    assert qc._diagram_automorphisms(cd) == brute_force_automorphisms(cd)


@pytest.mark.parametrize("family", ["A", "D"])
def test_identity_suite_empty_up_to_rank_30(family):
    for rank in range(1 if family == "A" else 4, 31):
        cd = rs.build_cartan(family, rank)
        assert qc.check_ctilde_identities(qc.ctilde_table(cd, 2 * cd.h)) == []


def test_identity_instances_from_hand_tables():
    cd1 = rs.build_cartan("A", 1)
    t1 = qc.ctilde_table(cd1, 4)
    assert t1.value(1, 1, 2) == 0 and t1.value(1, 1, 4) == 0  # ct(kh) = 0
    cd2 = rs.build_cartan("A", 2)
    t2 = qc.ctilde_table(cd2, 6)
    assert t2.value(1, 1, 1) == t2.value(1, 2, 2) == 1  # ct_ij(l) = ct_(j,i*)(h-l)


def test_table_too_short_raises():
    cd = rs.build_cartan("A", 2)
    with pytest.raises(ValueError):
        qc.check_ctilde_identities(qc.ctilde_table(cd, 5))


def test_coxeter_formula_examples():
    cd = rs.build_cartan("A", 2)
    Q = ar.orient(cd, [(2, 1)])
    xi = (0, 1)
    assert qc.ctilde_coxeter(cd, Q, xi, 1, 1, 1) == 1
    assert qc.ctilde_coxeter(cd, Q, xi, 2, 2, 1) == 1
    # l + eps_i + eps_j + 1 odd forces zero
    assert qc.ctilde_coxeter(cd, Q, xi, 1, 1, 2) == 0
    assert qc.ctilde_coxeter(cd, Q, xi, 1, 2, 1) == 0
    with pytest.raises(ValueError):
        qc.ctilde_coxeter(cd, Q, xi, 1, 1, 0)


def test_coxeter_formula_rejects_a_height_function_that_does_not_fit_q():
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    with pytest.raises(ValueError):
        qc.ctilde_coxeter(cd, Q, (0, 1, 0), 1, 2, 2)


@lru_cache(maxsize=None)
def _tau_power_gamma(Q, i, k):
    """Reference: c^k(gamma_i), one Coxeter step at a time from gamma_i."""
    if k == 0:
        return ar.gamma_vector(Q, i)
    word = ar.coxeter_word(Q)
    prev = _tau_power_gamma(Q, i, k - 1 if k > 0 else k + 1)
    return ar.coxeter_apply(Q.cd, word, prev, 1 if k > 0 else -1)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("D", 4), ("D", 5), ("D", 6), ("E", 6),
])
def test_coxeter_formula_matches_recursive_power(family, rank):
    # ctilde_coxeter reads tau^(k mod h)(I_i) off the knitting table; the
    # recursive Coxeter power is the reference, on every orientation
    cd = rs.build_cartan(family, rank)
    for Q in all_orientations(cd):
        for t in (0, -6, 6):
            xi = shift_height(ar.default_height(Q), t)
            for i in cd.vertices:
                for j in cd.vertices:
                    for l in range(1, 3 * cd.h + 1):
                        want = 0
                        if (l + cd.eps_of(i) + cd.eps_of(j)) % 2 == 1:
                            k = (l + xi[i - 1] - xi[j - 1] - 1) // 2
                            want = _tau_power_gamma(Q, i, k)[j - 1]
                        assert qc.ctilde_coxeter(cd, Q, xi, i, j, l) == want, (
                            Q.label(), t, i, j, l)


@pytest.mark.parametrize("family,rank", [("A", 1), ("E", 8)])
def test_coxeter_formula_far_out(family, rank):
    # one value costs the same at any l: a recursion of one Coxeter step
    # per power would overflow the stack here (k is about 1000 on A1)
    cd = rs.build_cartan(family, rank)
    Q = ar.monotone_quiver(cd)
    base = ar.default_height(Q)
    for xi in (base, shift_height(base, -2000)):
        for l in (2001, 20001):
            for i in cd.vertices:
                for j in cd.vertices:
                    assert qc.ctilde_coxeter(cd, Q, xi, i, j, l) == qc.ctilde(cd, i, j, l)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("D", 5), ("E", 6)])
def test_dual_method_agreement(family, rank):
    for parity in (0, 1):
        cd = rs.build_cartan(family, rank, parity_base=parity)
        table = qc.ctilde_table(cd, 2 * cd.h)
        quivers = [
            ar.monotone_quiver(cd),
            ar.sink_source_quiver(cd),
            ar.random_orientation(cd, seed=3),
        ]
        for Q in quivers:
            xi = ar.default_height(Q)
            assert qc.ctilde_coxeter_table(Q, xi, 2 * cd.h).values == table.values
            for i in cd.vertices:
                for j in cd.vertices:
                    for l in range(1, 2 * cd.h + 1):
                        assert table.value(i, j, l) == qc.ctilde_coxeter(
                            cd, Q, xi, i, j, l
                        ), (family, rank, parity, Q.label(), i, j, l)


@pytest.mark.parametrize("family,rank", rs.all_ade_types(6))
def test_coxeter_table_matches_the_formula_entry_by_entry(family, rank):
    # the table is built by columns, so the lengths that cut a column short
    # (L < h), end it exactly (h) or wrap it (2h + 1, 3h) are all checked
    for parity in (0, 1):
        cd = rs.build_cartan(family, rank, parity_base=parity)
        h = cd.h
        for Q in all_orientations(cd):
            for t in (0, -6):
                xi = shift_height(ar.default_height(Q), t)
                want = [tuple(qc.ctilde_coxeter(cd, Q, xi, i, j, l) for l in range(1, 3 * h + 1))
                        for i in cd.vertices for j in cd.vertices]
                for L in sorted({1, 2, h - 1, h, 2 * h + 1, 3 * h}):
                    table = qc.ctilde_coxeter_table(Q, xi, L)
                    assert (table.cd, table.L) == (cd, L)
                    assert [ct_series(table, i, j) for i in cd.vertices
                            for j in cd.vertices] == [series[:L] for series in want], (
                        parity, Q.label(), t, L)


def test_coxeter_table_rejects_bad_input():
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    with pytest.raises(ValueError):
        qc.ctilde_coxeter_table(Q, (0, 1, 0), 4)
    with pytest.raises(ValueError):
        qc.ctilde_coxeter_table(Q, ar.default_height(Q), 0)


def test_coxeter_formula_rejects_a_quiver_of_another_datum():
    # an A4 quiver read against A2 data gave wrong values, such as
    # ct_22(3) = 1 where the recurrence has 0
    a2 = rs.build_cartan("A", 2)
    Q = ar.monotone_quiver(rs.build_cartan("A", 4))
    assert qc.ctilde(a2, 2, 2, 3) == 0
    for cd in (a2, rs.build_cartan("A", 4, parity_base=1)):
        with pytest.raises(ValueError, match="not of"):
            qc.ctilde_coxeter(cd, Q, ar.default_height(Q), 2, 2, 3)


def test_table_independent_of_parity_choice():
    for family, rank in [("A", 4), ("D", 4), ("E", 6)]:
        t0 = qc.ctilde_table(rs.build_cartan(family, rank, parity_base=0))
        t1 = qc.ctilde_table(rs.build_cartan(family, rank, parity_base=1))
        assert t0.values == t1.values


def identities_by_value(t):
    """Reference: ``check_ctilde_identities`` through bounds-checked
    ``t.value`` calls, in the same order."""
    cd = t.cd
    h = cd.h
    bad = []
    autos = qc._diagram_automorphisms(cd)
    for i in cd.vertices:
        for j in cd.vertices:
            for l in range(1, 2 * h + 1):
                v = t.value(i, j, l)
                if v != t.value(j, i, l):
                    bad.append(f"(1) symmetry fails at ({i},{j},{l})")
                for sigma in autos:
                    if v != t.value(sigma[i - 1], sigma[j - 1], l):
                        bad.append(f"(2) automorphism invariance fails at ({i},{j},{l})")
                if l <= 2 * h - 1 and v != -t.value(i, j, 2 * h - l):
                    bad.append(f"(4) ct(l) = -ct(2h-l) fails at ({i},{j},{l})")
                if 1 <= l <= h - 1 and v != t.value(j, cd.star_of(i), h - l):
                    bad.append(f"(5) ct_ij(l) = ct_(j,i*)(h-l) fails at ({i},{j},{l})")
                if 1 <= l <= h - 1 and v < 0:
                    bad.append(f"(7) ct(l) >= 0 on 1..h-1 fails at ({i},{j},{l})")
                if h + 1 <= l <= 2 * h - 1 and v > 0:
                    bad.append(f"(8) ct(l) <= 0 on h+1..2h-1 fails at ({i},{j},{l})")
    return bad


def shifted_table(t, i, j, l, by=1):
    """t with the one entry ct_ij(l) moved by ``by``."""
    values = [[list(row) for row in layer] for layer in t.values]
    values[l - 1][i - 1][j - 1] += by
    return qc.CTildeTable(cd=t.cd, L=t.L, values=tuple(
        tuple(tuple(row) for row in layer) for layer in values))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 4), ("D", 4), ("D", 5), ("E", 6)])
def test_identity_violations_match_the_reference_loop(family, rank):
    cd = rs.build_cartan(family, rank)
    t = qc.ctilde_table(cd, 2 * cd.h)
    assert qc.check_ctilde_identities(t) == identities_by_value(t) == []
    longer = qc.ctilde_table(cd, 3 * cd.h)
    assert qc.check_ctilde_identities(longer) == identities_by_value(longer) == []
    rng = random.Random(rank)
    for _ in range(40):
        i, j = rng.choice(cd.vertices), rng.choice(cd.vertices)
        bad = shifted_table(t, i, j, rng.randint(1, 2 * cd.h), rng.choice((-2, -1, 1)))
        got = qc.check_ctilde_identities(bad)
        assert got == identities_by_value(bad)
        # a shifted ct_ii(2h) breaks no identity left in the suite; the
        # certificate proves (3) and (6) and sees every shift
        assert got or qc.check_ctilde_inversion(bad)


@pytest.mark.parametrize("bad", [0, -1, 4])
def test_vertex_indices_outside_1_to_rank_are_rejected(bad):
    # a negative or zero index would otherwise wrap around to another entry
    cd = rs.build_cartan("A", 3)
    t = qc.ctilde_table(cd, 8)
    for i, j in ((bad, 1), (1, bad), (bad, bad)):
        with pytest.raises(ValueError, match=f"vertex index {bad} out of range"):
            qc.ctilde(cd, i, j, 1)
        with pytest.raises(IndexError, match="outside table range"):
            t.value(i, j, 1)


def test_periodic_accessor_matches_long_table():
    cd = rs.build_cartan("A", 3)
    long = qc.ctilde_table(cd, 6 * cd.h)
    for l in range(1, 6 * cd.h + 1):
        assert qc.ctilde(cd, 1, 2, l) == long.value(1, 2, l)


@pytest.mark.parametrize("family,ranks", [("A", range(1, 33)), ("D", range(4, 33)),
                                          ("E", (6, 7, 8))])
def test_inversion_certificate_holds(family, ranks):
    # P alone, two periods and four, at both parities
    for rank in ranks:
        for parity in (0, 1):
            cd = rs.build_cartan(family, rank, parity_base=parity)
            for L in (cd.h - 1, 2 * cd.h, 4 * cd.h):
                assert qc.check_ctilde_inversion(qc.ctilde_table(cd, L)) == [], (rank, L)


@pytest.mark.parametrize("family,rank", rs.all_ade_types(8))
def test_inversion_certificate_sees_every_single_entry_shift(family, rank):
    # a shift inside P breaks C(z)P(z) = Id + z^h nu, one at l >= h breaks
    # that layer's equality with (-1)^k ct(l) nu^k
    cd = rs.build_cartan(family, rank)
    t = qc.ctilde_table(cd, 4 * cd.h)
    rng = random.Random(rank)
    for _ in range(50):
        i, j, l = rng.choice(cd.vertices), rng.choice(cd.vertices), rng.randint(1, 4 * cd.h)
        bad = shifted_table(t, i, j, l, rng.choice((-2, -1, 1, 2)))
        assert qc.check_ctilde_inversion(bad), (i, j, l)


def test_inversion_certificate_messages():
    cd = rs.build_cartan("A", 2)  # h = 3, star swaps 1 and 2
    t = qc.ctilde_table(cd, 4)
    # ct_12(2) enters three degrees of C(z)P(z): as ct(d+1), as the
    # neighbour row of ct(d) and as ct(d-1)
    assert qc.check_ctilde_inversion(shifted_table(t, 1, 2, 2)) == [
        "C(z)P(z) = Id + z^h nu fails in degree 1 at (1,2)",
        "C(z)P(z) = Id + z^h nu fails in degree 2 at (2,2)",
        "C(z)P(z) = Id + z^h nu fails in degree 3 at (1,2)",
    ]
    assert qc.check_ctilde_inversion(shifted_table(t, 2, 1, 3)) == [
        "ct(l + kh) = (-1)^k ct(l) nu^k fails at (2,1,3)"]
    assert qc.check_ctilde_inversion(shifted_table(t, 1, 1, 4, -1)) == [
        "ct(l + kh) = (-1)^k ct(l) nu^k fails at (1,1,4)"]


def test_inversion_certificate_rejects_a_table_shorter_than_p():
    cd = rs.build_cartan("D", 4)  # h = 6
    assert qc.check_ctilde_inversion(qc.ctilde_table(cd, 5)) == []
    with pytest.raises(ValueError):
        qc.check_ctilde_inversion(qc.ctilde_table(cd, 4))

"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; ``rmx selfcheck --scope full`` drives the same checks from the CLI.
"""

import time
from contextlib import contextmanager

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import root_system as rs
from rmx import selfcheck


@contextmanager
def criterion(num: int, name: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {name} ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_dual_method_ctilde():
    with criterion(1, "dual-method c~ agreement, rank <= 8, both parities"):
        t0 = time.monotonic()
        passed, detail = selfcheck.check_ctilde_dual_method(max_rank=8)
        elapsed = time.monotonic() - t0
        assert passed, detail
        assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_02_ctilde_identity_suite():
    with criterion(2, "six structural identities at L = 2h and C(z)P(z) = Id + z^h nu"
                      " to 4h, rank <= 8"):
        passed, detail = selfcheck.check_ctilde_identities(max_rank=8)
        assert passed, detail
        passed, detail = selfcheck.check_ctilde_inversion(max_rank=8)
        assert passed, detail


def test_criterion_03_ext_oracle_equivalence():
    with criterion(3, "formula Ext == representation Ext (A3, D4, E6 sample)"):
        t0 = time.monotonic()
        passed, detail = selfcheck.check_ext_oracle(("A3", "D4"), e6_samples=200)
        elapsed = time.monotonic() - t0
        assert passed, detail
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_04_denominator_goldens():
    with criterion(4, "golden denominators for A1 and A2"):
        cd1 = rs.build_cartan("A", 1)
        assert dn.denominator(cd1, 1, 1).factors == ((2, 1),)
        cd2 = rs.build_cartan("A", 2)
        assert dn.denominator(cd2, 1, 1).factors == ((2, 1),)
        assert dn.denominator(cd2, 2, 2).factors == ((2, 1),)
        assert dn.denominator(cd2, 1, 2).factors == ((3, 1),)
        assert dn.denominator(cd2, 2, 1).factors == ((3, 1),)


def test_criterion_05_closed_form_families():
    with criterion(5, "explicit family formulas for A (all ranks), D4/D5, E6/E7/E8"):
        passed, detail = selfcheck.check_closed_forms(include_e=True, max_a_rank=8)
        assert passed, detail


def test_criterion_06_dorey_checks():
    with criterion(6, "Dorey goldens and interval splittings (A3/N=4, D4/N=4)"):
        passed, detail = selfcheck.check_dorey((("A", 3, 4, 2), ("D", 4, 4, 4)))
        assert passed, detail


def test_criterion_07_pole_position_constraint():
    with criterion(7, "every zero is q^k with k > 0 and k + eps_i + eps_j even"):
        for family, rank in rs.all_ade_types(8):
            cd = rs.build_cartan(family, rank)
            for i in cd.vertices:
                for j in cd.vertices:
                    for k, mult in dn.denominator(cd, i, j).factors:
                        assert k > 0 and mult > 0
                        assert (k + cd.eps_of(i) + cd.eps_of(j)) % 2 == 0


def test_criterion_08_tau_and_nakayama_structure():
    with criterion(8, "tau^h identity, knitting period, shift-by-one relation"):
        passed, detail = selfcheck.check_tau_nakayama(max_rank=8)
        assert passed, detail


def test_criterion_09_kostant_orbit_census():
    with criterion(9, "orbit census equals partition count, weight <= 5, A3/N=4"):
        passed, detail = selfcheck.check_kostant_census(max_weight=5)
        assert passed, detail


def test_criterion_10_rep_oracle_coherence():
    with criterion(10, "hom = max(<a, b>, 0) exhaustively; 100 decompose round-trips"):
        passed, detail = selfcheck.check_rep_oracle(("A3", "D4"), roundtrips=100)
        assert passed, detail

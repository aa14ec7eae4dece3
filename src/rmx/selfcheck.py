"""Named end-to-end checks shared by the CLI selfcheck and the test suite.

Every check is a plain function returning (passed, detail); ``run`` bundles
them into a machine-readable report.  The ``fast`` scope covers ranks <= 5,
``full`` adds the exceptional types, the E6 sampled pairs and the exhaustive
rep-oracle sweeps.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from itertools import combinations_with_replacement, islice, product, repeat

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import quantum_cartan as qc
from rmx import rep_oracle as ro
from rmx import root_system as rs
from rmx import schur_weyl as sw
from rmx.ar_quiver import IndecObject


def _types(max_rank: int):
    return [rs.build_cartan(f, n) for f, n in rs.all_ade_types(max_rank)]


def _three_orientations(cd):
    """The monotone, sink-source and a random quiver of cd, each once: the
    quivers are interned, and on small types two of them coincide."""
    return list(dict.fromkeys([
        ar.monotone_quiver(cd),
        ar.sink_source_quiver(cd),
        ar.random_orientation(cd, seed=11),
    ]))


# ---------------------------------------------------------------------------
# individual checks; each returns (passed: bool, detail: str)


def check_ctilde_dual_method(max_rank: int = 8):
    """Recurrence table against the Coxeter-orbit formula, both parities.

    ``ctilde_coxeter_table`` gives the Coxeter route at every (l, i, j) of
    one (Q, xi); the two tables are compared whole, and walked in (i, j, l)
    order only to list the mismatches.
    """
    mismatches = []
    for family, n in rs.all_ade_types(max_rank):
        cds = [rs.build_cartan(family, n, parity_base=parity) for parity in (0, 1)]
        L = 2 * cds[0].h
        table = qc.ctilde_table(cds[0], L)  # the recurrence reads only the adjacency
        for parity, cd in enumerate(cds):
            for Q in _three_orientations(cd):
                coxeter = qc.ctilde_coxeter_table(Q, ar.default_height(Q), L)
                if coxeter.values == table.values:
                    continue
                for i in cd.vertices:
                    for j in cd.vertices:
                        for l in range(1, L + 1):
                            a, b = table.value(i, j, l), coxeter.value(i, j, l)
                            if a != b:
                                mismatches.append((cd.label(), parity, Q.label(), i, j, l, a, b))
    detail = f"{len(mismatches)} mismatches" + (f", first: {mismatches[0]}" if mismatches else "")
    return not mismatches, detail


def check_ctilde_identities(max_rank: int = 8):
    """The eight structural identities of the inverse-matrix coefficients."""
    bad = []
    for cd in _types(max_rank):
        t = qc.ctilde_table(cd, 2 * cd.h)
        v = qc.check_ctilde_identities(t)
        if v:
            bad.append(f"{cd.label()}: {v[0]} (+{len(v) - 1} more)")
    return not bad, "; ".join(bad) if bad else "all identities hold"


def check_ctilde_inversion(max_rank: int = 8):
    """The certificate C(z) P(z) = Id + z^h nu on the 4h table of every
    type.  The Coxeter tables need none of their own: ``ctilde-dual-method``
    requires each to equal the recurrence table, so it carries over."""
    bad = []
    types = _types(max_rank)
    for cd in types:
        v = qc.check_ctilde_inversion(qc.ctilde_table(cd, 4 * cd.h))
        if v:
            bad.append(f"{cd.label()}: {v[0]} (+{len(v) - 1} more)")
    detail = f"C(z)P(z) = Id + z^h nu, and ct to 4h follows it ({len(types)} types)"
    return not bad, "; ".join(bad) if bad else detail


def check_denominators(max_rank: int = 8):
    """Golden low-rank factors, zero-position parity, and symmetry."""
    bad = []
    cd1 = rs.build_cartan("A", 1)
    if dn.denominator(cd1, 1, 1).factors != ((2, 1),):
        bad.append("A1 d11 wrong")
    cd2 = rs.build_cartan("A", 2)
    if dn.denominator(cd2, 1, 1).factors != ((2, 1),):
        bad.append("A2 d11 wrong")
    if dn.denominator(cd2, 2, 2).factors != ((2, 1),):
        bad.append("A2 d22 wrong")
    if dn.denominator(cd2, 1, 2).factors != ((3, 1),):
        bad.append("A2 d12 wrong")
    if dn.denominator(cd2, 2, 1).factors != ((3, 1),):
        bad.append("A2 d21 wrong")
    for cd in _types(max_rank):
        dens = {(i, j): dn.denominator(cd, i, j) for i in cd.vertices for j in cd.vertices}
        for (i, j), d in dens.items():
            if d.factors != dens[j, i].factors:
                bad.append(f"{cd.label()} d{i}{j} asymmetric")
            if d.factors != dn.denominator_kashiwara(cd, i, j).factors:
                bad.append(f"{cd.label()} d{i}{j} convention changes multiplicities")
            for k, m in d.factors:
                if k <= 0 or m <= 0 or (k + cd.eps_of(i) + cd.eps_of(j)) % 2 != 0:
                    bad.append(f"{cd.label()} d{i}{j} zero q^{k} violates parity/positivity")
    return not bad, "; ".join(bad[:3]) if bad else "goldens, symmetry and zero positions OK"


def _walk(step, start, length: int) -> list:
    """start and its images under ``length`` single steps."""
    out = [start]
    for _ in range(length):
        out.append(step(out[-1]))
    return out


def check_tau_nakayama(max_rank: int = 8):
    """tau^h = 1 on roots, knitting period, and the shift-by-one relation.

    Each positive root is checked in a tau-orbit walk of 2h - 1 single
    steps of ``coxeter_apply`` (or ``tau_object``) from a root not yet
    checked: entry k + h is tau^h of entry k, so one walk checks its h
    entries k < h.  The Coxeter walk keys what it checked by signed vector,
    so every positive root is checked as itself.  ``default_height`` checks
    the xi that the unchecked Happel maps read.
    """
    bad = []
    for cd in _types(max_rank):
        label, h = cd.label(), cd.h
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        word = ar.coxeter_word(Q)
        moved, knitted = set(), set()  # vectors and roots already checked
        for alpha in rs.positive_roots(cd):
            if alpha not in moved:
                walk = _walk(lambda v: ar.coxeter_apply(cd, word, v, 1), alpha, 2 * h - 1)
                for v, w in zip(walk, walk[h:]):
                    if w != v:
                        bad.append(f"{label}: tau^h moves {v}")
                moved.update(walk[:h])
            if alpha not in knitted:
                walk = _walk(lambda o: ar.tau_object(Q, o, 1), IndecObject(alpha, 0),
                             2 * h - 1)
                for o, t in zip(walk, walk[h:]):
                    if t != IndecObject(o.root, o.shift - 2):
                        bad.append(f"{label}: knitting tau^h is not shift -2 at {o.root}")
                knitted.update(o.root for o in walk[:h])
        for i in cd.vertices:  # so every (i*, p + h) below is a vertex
            ar.check_delta_vertex(cd, (cd.star_of(i), cd.eps_of(i) + h))
        for i, p in ar.delta_vertices(cd, -3 * h, 3 * h):
            a = ar._happel_object(Q, xi, (i, p))
            b = ar._happel_object(Q, xi, (cd.star_of(i), p + h))
            if b != IndecObject(a.root, a.shift + 1):
                bad.append(f"{label}: H({i},{p})[1] != H(i*, p+h)")
            if not rs.is_positive_root(cd, a.root) or ar._happel_inverse(Q, xi, a) != (i, p):
                bad.append(f"{label}: happel round-trip fails at ({i},{p})")
    return not bad, "; ".join(bad[:3]) if bad else "tau and shift structure exact"


def _placed(cd, pairs):
    """(x, y, ``common_heart(cd, x, y)``) for the pairs that have one.  Shifting
    x = (i, p) and y = (j, r) by s shifts lo by s and keeps the quiver and the
    roots, so each class (i, j, r - p) is placed once, at its first pair."""
    classes = {}
    for x, y in pairs:
        (i, p), (j, r) = x, y
        key = (i, j, r - p)
        if key not in classes:
            classes[key] = p, dn.common_heart(cd, x, y)
        p0, placement = classes[key]
        if placement is None:
            continue
        Q, lo, root_x, root_y = placement
        if p != p0:
            lo = tuple(v + p - p0 for v in lo)
        yield x, y, (Q, lo, root_x, root_y)


def _ext_oracle_pairs(cd, window: int):
    """All ordered vertex pairs in the window that admit a common heart."""
    verts = ar.delta_vertices(cd, -window, window)
    return _placed(cd, product(verts, repeat=2))


def _sampled_pairs(cd, count: int):
    """``count`` seeded random vertex pairs that admit a common heart."""
    rng = random.Random(2024)
    verts = ar.delta_vertices(cd, -2 * cd.h, 2 * cd.h)
    draws = ((rng.choice(verts), rng.choice(verts)) for _ in repeat(None))
    return islice(_placed(cd, draws), count)


def check_ext_oracle(labels=("A3", "D4"), e6_samples: int = 0):
    """Window formulas against explicit-representation Hom/Ext, exactly.

    The oracle's ext1(My, Mx) and hom(Mx, My) are computed once per module
    pair (Qp, root_x, root_y), with max(<root_x, root_y>, 0), and compared
    with the window formulas at every vertex pair; hom(Mx, My) must also be
    that max.
    """
    cases = []
    for label in labels:
        cd = rs.build_cartan(label[0], int(label[1:]))
        cases.append((cd, _ext_oracle_pairs(cd, 2 * cd.h)))
    if e6_samples:
        cd = rs.build_cartan("E", 6)
        cases.append((cd, _sampled_pairs(cd, e6_samples)))
    bad = []
    tested = 0
    # (Qp, root_x, root_y) -> (ext1(My, Mx), hom(Mx, My), max(<root_x, root_y>, 0))
    oracle = {}
    for cd, pairs in cases:
        label = cd.label()
        for x, y, (Qp, _, root_x, root_y) in pairs:
            key = (Qp, root_x, root_y)
            if key not in oracle:
                Mx, My = ro.indec_rep(Qp, root_x), ro.indec_rep(Qp, root_y)
                oracle[key] = (ro.ext1_dim_rep(My, Mx), ro.hom_dim_rep(Mx, My),
                               max(ar.euler_form(Qp, root_x, root_y), 0))
            ext_yx, hom_xy, euler_hom = oracle[key]
            tested += 1
            if dn.pole_order(cd, x, y) != ext_yx:
                bad.append(f"{label}: ext mismatch at {x},{y}")
            if dn.hom_dim(cd, x, y) != hom_xy:
                bad.append(f"{label}: hom mismatch at {x},{y}")
            if hom_xy != euler_hom:
                bad.append(f"{label}: hom != max(euler, 0) at {x},{y}")
    return not bad, "; ".join(bad[:3]) if bad else f"{tested} common-heart pairs agree"


def check_closed_forms(include_e: bool = True, max_a_rank: int = 8):
    """Family positions against the explicit per-type formulas, xi_1 = -2."""
    bad = []
    for n in range(1, max_a_rank + 1):
        cd = rs.build_cartan("A", n)
        Q = ar.monotone_quiver(cd)
        fam = sw.type_a_family(Q, ar.default_height(Q, -2), n + 1, -8, 8)
        for j in fam.domain:
            if fam.of(j) != (1, -2 * j):
                bad.append(f"A{n}: x({j}) = {fam.of(j)}")
    families = [("D", n, n - 2) for n in (4, 5)]
    if include_e:
        families += [("E", n, 3) for n in (6, 7, 8)]
    for family, n, m in families:
        cd = rs.build_cartan(family, n)
        Q = ar.monotone_quiver(cd)
        h, star = cd.h, cd.star_of(n - 1)
        fam = sw.type_a_family(Q, ar.default_height(Q, -2), n, -8, 8)
        for j in fam.domain:
            i = (j - 1) % n + 1
            k = (j - i) // n
            if i <= m:
                want = (1, -2 * i - 2 * k * h)
            else:
                want = (star, n - h - 2 * i - 2 * k * h)
            if fam.of(j) != want:
                bad.append(f"{family}{n}: x({j}) = {fam.of(j)} != {want}")
    return not bad, "; ".join(bad[:3]) if bad else "A/D/E closed forms reproduced"


def check_dorey(configs=(("A", 3, 4, 2), ("D", 4, 4, 4))):
    """Middle terms: the rank-2 goldens plus interval-root splittings.

    Each config is (family, rank, N, j_window); for every splitting
    alpha(j;l) = alpha(j;l') + alpha(j+l';l'') with l <= N the middle term
    must be the Y at the combined interval (empty once l = N).  The vertices
    of a config's interval roots come from one ``_transport`` call.
    """
    bad = []
    cd2 = rs.build_cartan("A", 2)
    Q2 = ar.orient(cd2, [(2, 1)])
    got = dn.dorey_middle_term(cd2, Q2, (0, 1), (2, -1), (2, 1))
    if got != dn.Monomial.y(1, 0):
        bad.append(f"A2 golden: {got.render()}")
    cd1 = rs.build_cartan("A", 1)
    Q1 = ar.monotone_quiver(cd1)
    got = dn.dorey_middle_term(cd1, Q1, ar.default_height(Q1), (1, 0), (1, 2))
    if got != dn.Monomial.unit():
        bad.append(f"A1 golden: {got.render()}")
    checked = 0
    for family, rank, N, jwin in configs:
        cd = rs.build_cartan(family, rank)
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q, -2)
        splits = [(j, lp, l - lp) for j in range(-jwin, jwin + 1)
                  for l in range(2, N + 1) for lp in range(1, l)]
        roots = list(dict.fromkeys(root for j, lp, lpp in splits
                                   for root in ((j, lp), (j + lp, lpp), (j, lp + lpp))))
        vertex = dict(zip(roots, sw._transport(Q, xi, N, roots)))
        for j, lp, lpp in splits:
            y = vertex[j, lp]
            x = vertex[j + lp, lpp]
            want_x = vertex[j, lp + lpp]
            want = dn.Monomial.unit() if want_x is sw.ZERO else dn.Monomial.y(*want_x)
            if dn.pole_order(cd, x, y) != 1:
                bad.append(f"{family}{rank} N={N}: ({j},{lp},{lpp}) pole != 1")
                continue
            got = dn.dorey_middle_term(cd, Q, xi, x, y)
            checked += 1
            if got != want:
                bad.append(
                    f"{family}{rank} N={N}: ({j},{lp},{lpp}) -> "
                    f"{got.render()} != {want.render()}"
                )
    return not bad, "; ".join(bad[:3]) if bad else f"goldens plus {checked} splittings"


def check_kostant_census(max_weight: int = 5):
    """Orbit dimensions and single-root monomials, A3/N=4.

    ``orbit_census`` enumerates each beta's Kostant partitions once and
    gives one orbit per partition, so no partition count is compared.  The
    family vertices of the single-root monomials come from one
    ``_transport`` call.
    """
    bad = []
    N = 4
    cd = rs.build_cartan("A", 3)
    Q = ar.monotone_quiver(cd)
    xi = ar.default_height(Q, -2)

    checked = 0
    for w in range(1, max_weight + 1):
        for combo in combinations_with_replacement(range(4), w):
            beta = Counter(combo)
            key = tuple(sorted(beta.items()))
            checked += 1
            if any(d < 0 for _, d in sw.orbit_census(beta, N)):
                bad.append(f"beta {key}: negative orbit dimension")
    roots = list(product(range(-2, 3), range(1, N + 1)))
    for (j, l), x in zip(roots, sw._transport(Q, xi, N, roots)):
        got = sw.m_nu(Q, xi, N, sw.delta_partition(j, l))
        want = dn.Monomial.unit() if x is sw.ZERO else dn.Monomial.y(*x)
        if got != want:
            bad.append(f"m_delta({j},{l}) = {got.render()} != {want.render()}")
    return not bad, "; ".join(bad[:3]) if bad else f"{checked} weight<= {max_weight} betas checked"


def check_rep_oracle(exhaustive=("A3", "D4"), roundtrips: int = 100):
    """Directedness over indecomposable pairs; decompose round-trips.

    Hom and Ext^1 between Dynkin indecomposables are never both nonzero
    (Ringel 1984; Happel 1988), so hom(M_a, M_b) = max(<a, b>, 0): one
    ``hom_dim_rep`` per ordered pair.  a = b is End = k; hom - ext1 = <a, b>
    holds for any modules by rank-nullity, so it is not tested.
    """
    bad = []
    quivers = []
    for label in exhaustive:
        cd = rs.build_cartan(label[0], int(label[1:]))
        Q = ar.monotone_quiver(cd)
        roots = rs.positive_roots(cd)
        quivers.append((Q, roots))
        reps = {a: ro.indec_rep(Q, a) for a in roots}
        for a in roots:
            for b in roots:
                if ro.hom_dim_rep(reps[a], reps[b]) != max(ar.euler_form(Q, a, b), 0):
                    bad.append(f"{label}: hom != max(euler, 0) at {a},{b}")
    rng = random.Random(99)
    for case in range(roundtrips):
        Q, roots = quivers[case % len(quivers)]
        picks = [rng.choice(roots) for _ in range(rng.randint(1, 4))]
        total = ro.direct_sum([ro.indec_rep(Q, a) for a in picks])
        if ro.decompose(total) != Counter(picks):
            bad.append(f"round-trip fails for {picks}")
    detail = f"hom = max(euler, 0) exhaustive + {roundtrips} round-trips"
    return not bad, "; ".join(bad[:3]) if bad else detail


# ---------------------------------------------------------------------------
# scoped runner


def run(scope: str = "fast") -> dict:
    if scope not in ("fast", "full"):
        raise ValueError("scope must be 'fast' or 'full'")
    full = scope == "full"
    max_rank = 8 if full else 5
    plan = [
        ("ctilde-dual-method", lambda: check_ctilde_dual_method(max_rank)),
        ("ctilde-identities", lambda: check_ctilde_identities(max_rank)),
        ("ctilde-inversion", lambda: check_ctilde_inversion(max_rank)),
        ("denominators", lambda: check_denominators(max_rank)),
        ("tau-nakayama", lambda: check_tau_nakayama(max_rank)),
        ("ext-oracle", lambda: check_ext_oracle(
            ("A3", "D4") if full else ("A3",), e6_samples=200 if full else 0)),
        ("closed-forms", lambda: check_closed_forms(include_e=full,
                                                    max_a_rank=max_rank)),
        ("dorey", lambda: check_dorey(
            (("A", 3, 4, 2), ("D", 4, 4, 4)) if full else (("A", 3, 4, 2),))),
        ("kostant-census", lambda: check_kostant_census(5 if full else 4)),
        ("rep-oracle", lambda: check_rep_oracle(
            ("A3", "D4") if full else ("A3",), 100 if full else 40)),
    ]
    checks = []
    for name, fn in plan:
        t0 = time.monotonic()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failed check, not a crash of the tool
            passed, detail = False, f"exception: {exc!r}"
        checks.append({
            "name": name,
            "passed": passed,
            "detail": detail,
            "seconds": round(time.monotonic() - t0, 3),
        })
    return {
        "scope": scope,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)

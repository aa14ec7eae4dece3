import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import ar_quiver as ar
from rmx import cli
from rmx import quantum_cartan as qc
from rmx import root_system as rs
from rmx import schur_weyl as sw
from rmx import selfcheck


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ctilde_csv_contains_a1_series(capsys):
    code, out, _ = run_cli(
        capsys, "ctilde", "--type", "A", "--rank", "1", "--order", "6",
        "--format", "csv",
    )
    assert code == 0
    assert "1,0,-1,0,1,0" in out


def test_ctilde_markdown(capsys):
    code, out, _ = run_cli(
        capsys, "ctilde", "--type", "A", "--rank", "2", "--order", "4",
        "--format", "markdown-table",
    )
    assert code == 0
    assert out.startswith("| i | j |")


def test_invalid_rank_exits_2(capsys):
    code, _, err = run_cli(capsys, "ctilde", "--type", "D", "--rank", "3")
    assert code == 2
    assert "D_n" in err


def test_denominator_outputs(capsys):
    code, out, _ = run_cli(
        capsys, "denominator", "--type", "A", "--rank", "2", "--i", "1",
        "--j", "2", "--format", "csv",
    )
    assert code == 0
    assert "3,1,q" in out
    code, out, _ = run_cli(
        capsys, "denominator", "--type", "A", "--rank", "2", "--i", "1",
        "--j", "2", "--convention", "minus_q", "--format", "csv",
    )
    assert code == 0
    assert "3,1,minus_q" in out


def test_denominator_out_of_range_index(capsys):
    code, _, err = run_cli(
        capsys, "denominator", "--type", "A", "--rank", "2", "--i", "1", "--j", "5",
    )
    assert code == 2 and "1..2" in err


def test_query_commands(capsys):
    code, out, _ = run_cli(capsys, "pole-order", "A", "2", "--x", "2,-1", "--y", "2,1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "irreducible", "A", "2", "--x", "1,0", "--y", "2,1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "dorey", "A", "2", "--x", "2,-1", "--y", "2,1")
    assert (code, out) == (0, "Y[1,0]\n")


def test_query_rejects_parity_violation(capsys):
    code, _, err = run_cli(capsys, "pole-order", "A", "2", "--x", "1,1", "--y", "2,1")
    assert code == 2 and "parity" in err


def test_dorey_precondition_exit_3(capsys):
    code, _, err = run_cli(capsys, "dorey", "A", "2", "--x", "1,0", "--y", "2,1")
    assert code == 3
    assert "simple pole" in err


def test_dorey_exit_3_only_for_its_preconditions(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("an internal fault, not a precondition")

    monkeypatch.setattr(cli.dn, "dorey_middle_term", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["dorey", "A", "2", "--x", "2,-1", "--y", "2,1"])


@pytest.mark.parametrize("quiver", ["1>x", "x>1", "1>2>3", ""])
def test_malformed_quiver_exits_2(capsys, quiver):
    code, _, err = run_cli(
        capsys, "dorey", "A", "3", "--quiver", quiver, "--x", "1,0", "--y", "2,1",
    )
    assert code == 2 and "u>v" in err


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_ctilde_rejects_nonpositive_order(capsys):
    code, _, err = run_cli(
        capsys, "ctilde", "--type", "A", "--rank", "2", "--order", "0",
    )
    assert code == 2 and "order" in err


def test_export_requires_range_arguments(capsys):
    code, _, err = run_cli(
        capsys, "export", "gamma", "--type", "A", "--rank", "2", "--p-lo", "0",
    )
    assert code == 2 and "--p-hi" in err


def test_dorey_with_explicit_orientation(capsys):
    code, out, _ = run_cli(
        capsys, "dorey", "A", "2", "--x", "2,-1", "--y", "2,1",
        "--quiver", "2>1", "--xi1", "0",
    )
    assert (code, out) == (0, "Y[1,0]\n")
    code, _, err = run_cli(
        capsys, "dorey", "A", "2", "--x", "2,-1", "--y", "2,1",
        "--quiver", "2-1",
    )
    assert code == 2 and "u>v" in err


def test_export_gamma_dot_counts(capsys):
    code, out, _ = run_cli(
        capsys, "export", "gamma", "--type", "A", "--rank", "1",
        "--p-lo", "0", "--p-hi", "4", "--format", "dot",
    )
    assert code == 0
    assert out.count(";") == 5  # 3 nodes + 2 edges
    assert '"1,2" -> "1,0" [mult=1];' in out


def test_export_json_round_trip_and_determinism(capsys):
    args = ("export", "gamma", "--type", "A", "--rank", "2",
            "--p-lo", "-1", "--p-hi", "3", "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"vertices", "arrows"}
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out1
    assert len(payload["vertices"]) == 5 and len(payload["arrows"]) == 5


def test_export_empty_range(capsys):
    code, out, _ = run_cli(
        capsys, "export", "gamma", "--type", "A", "--rank", "2",
        "--p-lo", "2", "--p-hi", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"vertices": [], "arrows": []}


def test_export_gamma_j_chain(capsys):
    code, out, _ = run_cli(
        capsys, "export", "gamma-j", "--type", "A", "--rank", "3", "--N", "4",
        "--j-lo", "-3", "--j-hi", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == list(range(-3, 4))
    assert payload["arrows"] == [
        {"from": j, "mult": 1, "to": j + 1} for j in range(-3, 3)
    ]


def test_export_ar_quiver_includes_roots(capsys):
    code, out, _ = run_cli(
        capsys, "export", "ar-quiver", "--type", "A", "--rank", "2",
        "--p-lo", "-2", "--p-hi", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    for v in payload["vertices"]:
        assert set(v) == {"i", "p", "root", "shift"}


def test_selfcheck_fast_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--scope", "fast", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 10


def test_selfcheck_corrupted_table_names_identity(capsys, monkeypatch):
    real = qc.ctilde_table

    def corrupted(cd, L=None):
        t = real(cd, L)
        values = [
            [list(row) for row in layer] for layer in t.values
        ]
        values[0][0][0] = -values[0][0][0]  # flip the sign of ct_11(1)
        frozen = tuple(tuple(tuple(r) for r in layer) for layer in values)
        return qc.CTildeTable(cd=t.cd, L=t.L, values=frozen)

    monkeypatch.setattr(qc, "ctilde_table", corrupted)
    code, out, _ = run_cli(capsys, "selfcheck", "--scope", "fast", "--format", "json")
    assert code == 1
    report = json.loads(out)
    identities = next(c for c in report["checks"] if c["name"] == "ctilde-identities")
    assert not identities["passed"]
    assert "(4)" in identities["detail"] or "(7)" in identities["detail"]


# ---------------------------------------------------------------------------
# input bounds


def test_rank_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "ctilde", "--type", "A", "--rank", "65")
    assert code == 2 and "maximum 64" in err
    code, _, err = run_cli(capsys, "pole-order", "D", str(10**12), "--x", "1,0", "--y", "1,2")
    assert code == 2 and "maximum 64" in err


def test_order_cap_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "ctilde", "--type", "A", "--rank", "2", "--order", str(cli.MAX_ORDER + 1),
    )
    assert code == 2 and "--order" in err
    code, out, _ = run_cli(
        capsys, "ctilde", "--type", "A", "--rank", "1", "--order", str(cli.MAX_ORDER),
    )
    assert code == 0 and out.startswith("i,j,l1,")


@pytest.mark.parametrize("what", ["gamma", "ar-quiver"])
def test_p_window_cap_exits_2(capsys, what):
    code, _, err = run_cli(
        capsys, "export", what, "--type", "A", "--rank", "2",
        "--p-lo", "-40", "--p-hi", str(cli.MAX_P_WIDTH - 39),
    )
    assert code == 2 and "--p-hi - --p-lo" in err
    code, _, _ = run_cli(
        capsys, "export", what, "--type", "A", "--rank", "2",
        "--p-lo", "-40", "--p-hi", str(cli.MAX_P_WIDTH - 40),
    )
    assert code == 0


def test_j_window_cap_exits_2(capsys):
    args = ("export", "gamma-j", "--type", "A", "--rank", "3", "--N", "4", "--j-lo", "0")
    code, _, err = run_cli(capsys, *args, "--j-hi", str(cli.MAX_J_WIDTH + 1))
    assert code == 2 and "--j-hi - --j-lo" in err
    code, _, _ = run_cli(capsys, *args, "--j-hi", str(cli.MAX_J_WIDTH))
    assert code == 0


# ---------------------------------------------------------------------------
# export bytes are a contract: these digests were taken before the root-system
# kernel was rewritten and must never move


GOLDEN_SHA256 = {
    ("ctilde", "--type", "A", "--rank", "12"):
        "eed9878e147540979f0bd5cb157935756dd9f45285b4c681bd5e534c12da2485",
    ("export", "gamma", "--type", "E", "--rank", "8", "--p-lo", "0", "--p-hi", "30"):
        "ec9ea7e0cf67f2acc67381c072f2980645fcfa606dcda4ce2c4fc3606eb239a1",
    ("export", "ar-quiver", "--type", "D", "--rank", "7", "--p-lo", "-6", "--p-hi", "6"):
        "a273b102f1cd3f5ef3dfc14d79f4fb5ff5d86d7090c798b9eb1eabe0e0ba3091",
    ("export", "gamma-j", "--type", "E", "--rank", "6", "--N", "5",
     "--j-lo", "-6", "--j-hi", "6"):
        "8591858e1e00d967381feccca5b7b0b627ce6783b289dc0e8549d16664ab1500",
    # the benchmark's own exports, taken before the graph exports streamed
    ("export", "gamma", "--type", "A", "--rank", "32", "--p-lo", "0", "--p-hi", "33"):
        "436008ab13ddc96358db285717763d40aab30d84dadc926723d9d9bbc38a08b8",
    ("export", "gamma", "--type", "D", "--rank", "20", "--p-lo", "0", "--p-hi", "38"):
        "90b3e394cf1a61281bdb35b289beb62f03d143ccf453db83c226c5c0b21bc9d5",
    ("export", "ar-quiver", "--type", "A", "--rank", "32", "--p-lo", "-16", "--p-hi", "16"):
        "1041f381c993132340af1fb50ef4e09637aa73ad790cb3b824574d40400bcbb3",
    ("export", "gamma", "--type", "E", "--rank", "7", "--p-lo", "-18", "--p-hi", "18",
     "--format", "dot"):
        "84a5ba1b1fed15d76e8548ac8f7b4526916aa6e2e4e2ff6f4dda939d308137b0",
    # the rest of the benchmark's exports, taken before the writers formatted
    # each arrow tail and cell value once
    ("ctilde", "--type", "A", "--rank", "32", "--format", "csv"):
        "98142b726e9eb5bf268af41474aee7c444bf11fed858f418c8fe2c6a017284b2",
    ("ctilde", "--type", "D", "--rank", "20", "--format", "csv"):
        "8eea041b6d02e2a5cf5864290794676f9e3ef34a9a72212e0e3a8e67c7e7d8d7",
    ("ctilde", "--type", "E", "--rank", "7", "--format", "csv"):
        "823ed96cfaa24a803ea6672d9a3ebd3da53ba134b30b92c92605c53cfbb82ccd",
    ("ctilde", "--type", "E", "--rank", "8", "--format", "csv"):
        "3c8786e7a3d3d27cbf0dfcdfbeab6a3db7847f7abdecc212e35d9bd169fab092",
    ("export", "ar-quiver", "--type", "D", "--rank", "20", "--p-lo", "-19", "--p-hi", "19"):
        "2def9de7b1bdbc4ee7cb2d70bca8b08bde0f3b811a28d5286bdbab48cb6c4284",
    ("export", "ar-quiver", "--type", "E", "--rank", "7", "--p-lo", "-9", "--p-hi", "9"):
        "02cd4572adeb3766f7b5196363bdf53cb86ef610543a7099463071da853eaf4c",
    ("export", "ar-quiver", "--type", "E", "--rank", "8", "--p-lo", "-15", "--p-hi", "15"):
        "6be6f3c888caeded3afc7587be19c03f9ba9382c9e560457f2899bc46ddcdef4",
    ("export", "gamma", "--type", "E", "--rank", "7", "--p-lo", "0", "--p-hi", "18",
     "--format", "json"):
        "8ecf730f43c38715029a60c37bf4016f774d0e1c541bb7ce3505d31613c3d288",
    # JSON tables, taken before their rows were joined from text made once
    ("ctilde", "--type", "E", "--rank", "6", "--format", "json"):
        "f5a9b18f36535266148013c24d9e34165e1cfb18b615cf0e35c115360d0f5b35",
    ("denominator", "--type", "E", "--rank", "8", "--i", "1", "--j", "1",
     "--format", "json"):
        "9011f04266aeedf274ab9f66f54e62f3083d24b5e045837fe94837d5e875688d",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_cli_golden_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]


# The full selfcheck report without the "seconds" of each check: every
# verdict and detail line.  A change meant to keep all results keeps this
# digest; one that changes a check on purpose updates it and says why.
SELFCHECK_FULL_SHA256 = "6131dbdbc1ba44a5d7c6a2038af189a74e8c2fe4212a85e9e8603e1af029816a"


def test_selfcheck_full_report_is_pinned():
    report = selfcheck.run("full")
    for check in report["checks"]:
        del check["seconds"]
    text = selfcheck.render_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == SELFCHECK_FULL_SHA256, text


@pytest.mark.parametrize("vertices,arrows,attrs", [
    ((), (), None),
    (((1, 0), (2, -1)), (), None),
    (((1, 2), (1, 0), (2, -1)), (((1, 2), (1, 0), 1), ((1, 2), (2, -1), 2)), None),
    ((3, 4, 5), ((3, 4, 1), (4, 5, 1)), None),
    (((1, 0),), (), {(1, 0): {"i": 1, "p": 0, "root": "1,0", "shift": -1}}),
])
def test_streamed_json_graph_is_json_dumps(vertices, arrows, attrs):
    # the streamed writer prints exactly json.dumps of the whole payload
    payload = {
        "arrows": [{"from": cli._vkey(u), "to": cli._vkey(v), "mult": m}
                   for u, v, m in arrows],
        "vertices": [attrs[v] if attrs else cli._vkey(v) for v in vertices],
    }
    chunks = cli._json_graph(vertices, cli._arrow_rows(iter(arrows)), attrs)
    assert "".join(chunks) == cli._emit_json(payload)


# ---------------------------------------------------------------------------
# fuzzing: every input is answered or rejected with a documented exit code


_MALFORMED = st.sampled_from(["", "1", "1,2,3", "a,b", "1;2", "1.5,2", ",", "x>1"])
_FORMATS = {
    "ctilde": ("csv", "json", "markdown-table"),
    "denominator": ("csv", "json", "markdown-table"),
    "pole-order": ("text", "json"),
    "irreducible": ("text", "json"),
    "dorey": ("text", "json"),
    "export": ("json", "dot"),
}
_FAULTS = [None] * 6 + ["type", "rank", "vertex", "quiver", "format", "window"]


@st.composite
def _command_line(draw):
    """A command line with at most one part malformed or out of range."""
    cmd = draw(st.sampled_from(sorted(_FORMATS)))
    fault = draw(st.sampled_from(_FAULTS))
    family = "B" if fault == "type" else draw(st.sampled_from("ADE"))
    low = {"D": 4, "E": 6}.get(family, 1)
    rank = draw(st.sampled_from([-1, 0, low - 1, 65, 1000]) if fault == "rank"
                else st.integers(low, 8))
    n = max(rank, 1)

    def vertex(k):
        if fault == "vertex":
            return draw(st.one_of(_MALFORMED, st.builds(
                "{},{}".format, st.sampled_from([0, n + 1]), st.integers(-9, 9))))
        # p = i - 1 mod 2 is the parity of every vertex of A_n, most of D, E
        i = draw(st.integers(1, n))
        return f"{i},{i - 1 + 2 * k}"

    def quiver():
        if fault == "quiver":
            return ["--quiver", draw(_MALFORMED)]
        try:
            edges = rs.build_cartan(family, rank).edges
        except ValueError:
            return []
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        arrows = [f"{v}>{u}" if f else f"{u}>{v}" for (u, v), f in zip(edges, flips)]
        return draw(st.sampled_from([[], ["--quiver", ",".join(arrows)]]))

    def width(cap):
        return draw(st.integers(cap + 1, cap + 9) if fault == "window"
                    else st.integers(0, cap))

    if cmd in ("pole-order", "irreducible", "dorey"):
        k = draw(st.integers(-2, 8))
        argv = [cmd, family, str(rank), "--x", vertex(k),
                "--y", vertex(k + draw(st.integers(0, 8)))]
        if cmd == "dorey":
            argv += quiver() + draw(st.sampled_from([[], ["--xi1", "0"], ["--xi1", "6"]]))
    elif cmd == "export":
        what = draw(st.sampled_from(["ar-quiver", "gamma", "gamma-j"]))
        argv = [cmd, what, "--type", family, "--rank", str(rank)]
        lo = draw(st.integers(-12, 40))
        if what == "gamma-j":
            argv += ["--N", str(draw(st.integers(1, n + 1))), "--j-lo", str(lo),
                     "--j-hi", str(lo + width(cli.MAX_J_WIDTH))]
        else:
            argv += ["--p-lo", str(lo), "--p-hi", str(lo + width(cli.MAX_P_WIDTH))]
        if what != "gamma":
            argv += quiver()
    elif cmd == "ctilde":
        argv = [cmd, "--type", family, "--rank", str(rank)]
        argv += draw(st.sampled_from([[], ["--order", str(width(cli.MAX_ORDER) or 1)]]))
    else:
        argv = [cmd, "--type", family, "--rank", str(rank)]
        for flag in ("--i", "--j"):
            argv += [flag, draw(st.sampled_from(["0", str(n + 1), "x", ""])
                                if fault == "vertex" else st.integers(1, n).map(str))]
    fmt = draw(st.sampled_from(_FORMATS[cmd])) if fault != "format" else "xml"
    return argv + ["--format", fmt]


@settings(max_examples=300, deadline=None)
@given(argv=_command_line())
def test_cli_fuzz_exits_with_a_documented_code(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)


# ---------------------------------------------------------------------------
# the streamed writers against the whole-output writers they replaced, kept
# here as references


def _reference_emit_table(header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(x) for x in row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown-table":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        lines += ["| " + " | ".join(str(x) for x in row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    return cli._emit_json([dict(zip(header, row)) for row in rows])


def _reference_ctilde(cd, order, fmt):
    t = qc.ctilde_table(cd, order)
    header = ["i", "j"] + [f"l{l}" for l in range(1, order + 1)]
    rows = [[i, j] + [t.value(i, j, l) for l in range(1, order + 1)]
            for i in cd.vertices for j in cd.vertices]
    return _reference_emit_table(header, rows, fmt)


def _reference_json_graph(vertices, arrows, vertex_attrs=None):
    key = {v: json.dumps(cli._vkey(v)) for v in vertices}
    yield '{"arrows":['
    sep = ""
    for u, v, m in arrows:
        yield f'{sep}{{"from":{key[u]},"mult":{m},"to":{key[v]}}}'
        sep = ","
    yield '],"vertices":['
    yield ",".join(
        json.dumps(vertex_attrs[v], sort_keys=True, separators=(",", ":"))
        if vertex_attrs else key[v] for v in vertices)
    yield "]}\n"


def _reference_emit_dot(name, vertices, arrows, vertex_attrs=None):
    key = {v: cli._vkey(v) for v in vertices}
    yield f"digraph {name} {{\n"
    for v in vertices:
        extra = vertex_attrs[v] if vertex_attrs else {}
        attrs = ", ".join(f'{k}="{val}"' for k, val in extra.items()
                          if k not in ("i", "p", "j"))
        yield f'  "{key[v]}"' + (f" [{attrs}]" if attrs else "") + ";\n"
    for u, v, m in arrows:
        yield f'  "{key[u]}" -> "{key[v]}" [mult={m}];\n'
    yield "}\n"


def _reference_graph(fmt, name, vertices, arrows, vertex_attrs=None):
    writer = _reference_emit_dot if fmt == "dot" else _reference_json_graph
    args = (name,) if fmt == "dot" else ()
    return "".join(writer(*args, vertices, arrows, vertex_attrs))


def _stdout(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


_TYPES_TO_12 = st.sampled_from(rs.all_ade_types(12))


@st.composite
def _type_and_order(draw):
    """A type of rank <= 12 and an order 1..4h."""
    ty = draw(_TYPES_TO_12)
    return ty, draw(st.integers(1, 4 * rs.build_cartan(*ty).h))


@settings(max_examples=60, deadline=None)
@given(_type_and_order(), st.sampled_from(_FORMATS["ctilde"]))
def test_streamed_ctilde_is_the_reference_table(ty_order, fmt):
    ty, order = ty_order
    cd = rs.build_cartan(*ty)
    code, out = _stdout(["ctilde", "--type", ty[0], "--rank", str(ty[1]),
                         "--order", str(order), "--format", fmt])
    assert code == 0 and out == _reference_ctilde(cd, order, fmt)


@settings(max_examples=60, deadline=None)
@given(_TYPES_TO_12, st.integers(-40, 40), st.integers(-3, 16),
       st.sampled_from(_FORMATS["export"]))
def test_streamed_gamma_export_is_the_reference_graph(ty, p_lo, width, fmt):
    # a negative width is an empty window
    cd = rs.build_cartan(*ty)
    p_hi = p_lo + width
    code, out = _stdout(["export", "gamma", "--type", ty[0], "--rank", str(ty[1]),
                         "--p-lo", str(p_lo), "--p-hi", str(p_hi), "--format", fmt])
    expected = _reference_graph(fmt, "gamma", ar.delta_vertices(cd, p_lo, p_hi),
                                sw.gamma_arrows(cd, p_lo, p_hi))
    assert code == 0 and out == expected


@settings(max_examples=40, deadline=None)
@given(_TYPES_TO_12, st.integers(2, 13), st.integers(-40, 40), st.integers(0, 24),
       st.sampled_from(_FORMATS["export"]))
def test_streamed_gamma_j_export_is_the_reference_graph(ty, N, j_lo, width, fmt):
    # the CLI rejects an empty domain (--j-lo > --j-hi) before any family
    cd = rs.build_cartan(*ty)
    Q = ar.monotone_quiver(cd)
    argv = ["export", "gamma-j", "--type", ty[0], "--rank", str(ty[1]), "--N", str(N),
            "--j-lo", str(j_lo), "--j-hi", str(j_lo + width), "--format", fmt]
    try:
        fam = sw.type_a_family(Q, ar.default_height(Q, -2), N, j_lo, j_lo + width)
    except ValueError:
        assert _stdout(argv) == (2, "")
        return
    win = sw.gamma_J(cd, fam)
    assert _stdout(argv) == (0, _reference_graph(fmt, "gamma_J", win.vertices, win.arrows))


@st.composite
def _graphs(draw):
    """Vertices (pairs or ints), arrows sorted by source, and maybe attrs."""
    pairs = draw(st.booleans())
    keys = st.tuples(st.integers(1, 4), st.integers(-9, 9)) if pairs else st.integers(-9, 9)
    vertices = tuple(draw(st.lists(keys, unique=True, max_size=8)))
    arrows = []
    if vertices:
        arrows = sorted(draw(st.lists(st.tuples(st.sampled_from(vertices),
                                                st.sampled_from(vertices),
                                                st.integers(1, 12)), max_size=12)))
    attrs = None
    if pairs and draw(st.booleans()):
        attrs = {v: {"i": v[0], "p": v[1], "root": draw(st.sampled_from(["1,0", "0,1,1"])),
                     "shift": draw(st.integers(-3, 3))} for v in vertices}
    return vertices, arrows, attrs


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.sampled_from(_FORMATS["export"]))
def test_streamed_graph_writers_are_the_reference_writers(graph, fmt):
    vertices, arrows, attrs = graph
    out = "".join(cli._emit_graph(fmt, "g", vertices, cli._arrow_rows(arrows), attrs))
    assert out == _reference_graph(fmt, "g", vertices, arrows, attrs)


@st.composite
def _tables(draw):
    """A header, repeats allowed, and rows of ints and strings to fit it."""
    header = draw(st.lists(st.text(max_size=3), max_size=6))
    cells = st.one_of(st.integers(-300, 300), st.text(max_size=3))
    rows = draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)),
                         max_size=6))
    return header, rows


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_streamed_json_table_is_json_dumps_of_the_whole_list(table):
    header, rows = table
    out = "".join(cli._table_chunks(header, iter(rows), "json"))
    assert out == json.dumps([dict(zip(header, row)) for row in rows],
                             sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv", [
    ["ctilde", "--type", "A", "--rank", "3", "--order", "0"],
    ["ctilde", "--type", "A", "--rank", "3", "--order", str(cli.MAX_ORDER + 1)],
    ["ctilde", "--type", "A", "--rank", "3", "--format", "text"],
    ["denominator", "--type", "A", "--rank", "3", "--i", "1", "--j", "2", "--format", "dot"],
])
def test_bad_order_or_format_exits_2_before_any_output(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the format
        code = exc.code
    assert (code, capsys.readouterr().out) == (2, "")


def test_a_table_format_is_checked_before_the_first_row():
    def rows():
        raise AssertionError("a row was read")
        yield

    with pytest.raises(cli.CliError, match="format 'text' not valid here"):
        cli._emit_table(["i"], rows(), "text")


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import cli
from rmx import quantum_cartan as qc
from rmx import root_system as rs
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
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_cli_golden_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]


# The full selfcheck report without the "seconds" of each check: every
# verdict and detail line.  A change meant to keep all results keeps this
# digest; one that changes a check on purpose updates it and says why.
SELFCHECK_FULL_SHA256 = "428ec812aebe8bbd3d3d33bf84ec8cca070fa9b996abaa092b76120a86d5bd30"


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
    chunks = cli._json_graph(vertices, iter(arrows), attrs)
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

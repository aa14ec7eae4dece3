"""Command-line surface: tables, single queries, graph exports, selfcheck.

Exit codes: 0 success, 1 failed selfcheck, 2 bad arguments, 3 unmet Dorey
precondition.  All output is deterministic byte-for-byte for fixed arguments.
``main`` is the one place that maps an exception to an exit code: 2 for
``root_system.InputError``, which the library's argument checks and the
CLI's own bounds and text parsing raise, and 3 for
``denominators.NotSimplePoleError``.  A command hands each argument to the
library call that checks it, so it is checked once; any other exception is
a fault and propagates.

Inputs are bounded, so that no request runs without limit; a larger one
exits 2 with a message:

* ``--rank`` (or the positional rank) at most ``root_system.MAX_RANK`` (64);
* ``--order`` at most ``MAX_ORDER`` (512, two periods 4h for every admitted type);
* ``--p-hi - --p-lo`` at most ``MAX_P_WIDTH`` (64);
* ``--j-hi - --j-lo`` at most ``MAX_J_WIDTH`` (256).

Tables and graph exports stream, one chunk per row, so their time and memory
are proportional to the output: D64 ``export gamma`` over 64 heights (34 MB)
takes about 0.7 s at a 32 MB peak RSS, and D64 ``ctilde --order 512
--format json`` about 0.7 s at 34 MB (Python 3.11, shared 2-CPU host).  A
row is joined from text made once per export: an arrow is its source's head
followed by the tail of its (target, multiplicity), a CSV or Markdown cell
is the text of its value, and a JSON cell is its column's ``"key":`` prefix
followed by the text of its value.

``cmd_selfcheck`` imports ``selfcheck`` and ``cmd_export`` imports
``schur_weyl`` when they run, so that the query commands, which read
neither, start without compiling and importing them.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import groupby
from operator import add, itemgetter

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import quantum_cartan as qc
from rmx import root_system as rs


MAX_ORDER = 512
MAX_P_WIDTH = 64
MAX_J_WIDTH = 256


def _parse_vertex(text: str) -> tuple[int, int]:
    try:
        i, p = text.split(",")
        return int(i), int(p)
    except ValueError as exc:
        raise rs.InputError(f"expected 'i,p', got {text!r}") from exc


def _parse_quiver(cd: rs.CartanData, text: str | None) -> ar.DynkinQuiver:
    if text is None:
        return ar.monotone_quiver(cd)
    arrows = []
    for part in text.split(","):
        try:
            u, v = part.split(">")
            arrows.append((int(u), int(v)))
        except ValueError as exc:
            raise rs.InputError(f"bad arrow {part!r}, expected 'u>v'") from exc
    return ar.orient(cd, arrows)


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class _Texts(dict):
    """value -> its text, each made by ``make`` on first use; values that
    compare equal (1 and True) share one text."""

    def __init__(self, make=str):
        super().__init__()
        self.make = make

    def __missing__(self, value):
        text = self[value] = self.make(value)
        return text


def _table_chunks(header, rows, fmt):
    """The table in chunks, one line (for json, one object) per row, rows
    read as they come."""
    cell = _Texts().__getitem__  # each distinct cell value formatted once
    if fmt == "csv":
        yield ",".join(header) + "\n"
        for row in rows:
            yield ",".join(map(cell, row)) + "\n"
    elif fmt == "markdown-table":
        yield "| " + " | ".join(header) + " |\n"
        yield "|" + "|".join(" --- " for _ in header) + "|\n"
        for row in rows:
            yield "| " + " | ".join(map(cell, row)) + " |\n"
    else:
        # json.dumps of the whole list, one row at a time: the keys are
        # sorted once (a repeated key keeps its last column, as in a dict),
        # each '"key":' is made once and each distinct value written once
        value = _Texts(json.dumps).__getitem__
        columns = sorted({key: k for k, key in enumerate(header)}.items())
        order = [k for _, k in columns]
        keys = [json.dumps(key) + ":" for key, _ in columns]
        yield "["
        sep = "{"
        for row in rows:
            yield sep + ",".join(map(add, keys, map(value, map(row.__getitem__, order)))) + "}"
            sep = ",{"
        yield "]\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_ctilde(args):
    cd = rs.build_cartan(args.type, args.rank)
    order = args.order if args.order is not None else 2 * cd.h
    if not 1 <= order <= MAX_ORDER:
        raise rs.InputError(f"--order must lie in 1..{MAX_ORDER}, got {order}")
    values = qc.ctilde_table(cd, order).values
    header = ["i", "j"] + [f"l{l}" for l in range(1, order + 1)]
    # the series ct_ij(1..order) of row i, one per j
    rows = ((i + 1, j, *series) for i in range(cd.rank)
            for j, series in enumerate(zip(*(layer[i] for layer in values)), 1))
    return _table_chunks(header, rows, args.format)


def cmd_denominator(args):
    cd = rs.build_cartan(args.type, args.rank)
    d = (
        dn.denominator_kashiwara(cd, args.i, args.j)
        if args.convention == "minus_q"
        else dn.denominator(cd, args.i, args.j)
    )
    header = ["exponent", "multiplicity", "convention"]
    rows = [[e, m, d.convention] for e, m in d.factors]
    return _table_chunks(header, rows, args.format)


def _query_vertices(args):
    """The type and the two vertices, parsed; the query validates them."""
    cd = rs.build_cartan(args.type, args.rank)
    return cd, _parse_vertex(args.x), _parse_vertex(args.y)


def cmd_pole_order(args) -> str:
    cd, x, y = _query_vertices(args)
    value = dn.pole_order(cd, x, y)
    if args.format == "json":
        return _emit_json({"pole_order": value, "x": list(x), "y": list(y)})
    return f"{value}\n"


def cmd_irreducible(args) -> str:
    cd, x, y = _query_vertices(args)
    value = dn.is_tensor_irreducible(cd, x, y)
    if args.format == "json":
        return _emit_json({"irreducible": value, "x": list(x), "y": list(y)})
    return ("true" if value else "false") + "\n"


def cmd_dorey(args) -> str:
    cd, x, y = _query_vertices(args)
    Q = _parse_quiver(cd, args.quiver)
    mono = dn.dorey_middle_term(cd, Q, ar.default_height(Q, args.xi1), x, y)
    if args.format == "json":
        return _emit_json({"middle_term": dict(
            (f"{i},{p}", e) for (i, p), e in mono.exps)})
    return mono.render() + "\n"


def _vkey(v):
    if isinstance(v, tuple):
        return f"{v[0]},{v[1]}"
    return v


def _arrow_rows(arrows):
    """Arrows (u, v, m) sorted by source, as source rows (u, [(v, m), ...])."""
    return ((u, [(v, m) for _, v, m in group])
            for u, group in groupby(arrows, itemgetter(0)))


def _json_graph(vertices, rows, vertex_attrs=None):
    """``_emit_json({"arrows": [...], "vertices": [...]})`` in chunks, one per
    source row (u, [(v, m), ...]), rows read as they come.  An arrow's text
    is its source's head ``{"from":u,"mult":`` and the tail ``m,"to":v}`` of
    its (v, m), each made once."""
    key = {v: json.dumps(_vkey(v)) for v in vertices}
    tail = _Texts(lambda vm: f'{vm[1]},"to":{key[vm[0]]}}}').__getitem__
    yield '{"arrows":['
    sep = ""
    for u, row in rows:
        if row:
            head = f'{{"from":{key[u]},"mult":'
            yield sep + head + ("," + head).join(map(tail, row))
            sep = ","
    yield '],"vertices":['
    yield (json.dumps([vertex_attrs[v] for v in vertices], sort_keys=True,
                      separators=(",", ":"))[1:-1]
           if vertex_attrs else ",".join([key[v] for v in vertices]))
    yield "]}\n"


def _emit_dot(name: str, vertices, rows, vertex_attrs=None):
    """The DOT graph in chunks, one per source row (u, [(v, m), ...]), rows
    read as they come.  An arrow line is its source's head ``  "u" -> "``
    and the tail ``v" [mult=m];`` of its (v, m), each made once."""
    key = {v: _vkey(v) for v in vertices}
    tail = _Texts(lambda vm: f'{key[vm[0]]}" [mult={vm[1]}];\n').__getitem__
    yield f"digraph {name} {{\n"
    for v in vertices:
        extra = vertex_attrs[v] if vertex_attrs else {}
        attrs = ", ".join(f'{k}="{val}"' for k, val in extra.items()
                          if k not in ("i", "p", "j"))
        yield f'  "{key[v]}"' + (f" [{attrs}]" if attrs else "") + ";\n"
    for u, row in rows:
        if row:
            head = f'  "{key[u]}" -> "'
            yield head + head.join(map(tail, row))
    yield "}\n"


def _emit_graph(fmt: str, name: str, vertices, rows, vertex_attrs=None):
    if fmt == "dot":
        return _emit_dot(name, vertices, rows, vertex_attrs)
    return _json_graph(vertices, rows, vertex_attrs)


def _check_p_window(args) -> None:
    if args.p_lo is None or args.p_hi is None:
        raise rs.InputError("--p-lo and --p-hi are required")
    if args.p_hi - args.p_lo > MAX_P_WIDTH:
        raise rs.InputError(f"--p-hi - --p-lo must be at most {MAX_P_WIDTH}, "
                            f"got {args.p_hi - args.p_lo}")


def cmd_export(args):
    cd = rs.build_cartan(args.type, args.rank)
    if args.what == "ar-quiver":
        _check_p_window(args)
        Q = _parse_quiver(cd, args.quiver)
        xi = ar.default_height(Q, args.xi1)
        vertices = ar.delta_vertices(cd, args.p_lo, args.p_hi)
        vset = set(vertices)
        # the mesh arrows (i, p) -> (j, p + 1), by source, then by target
        targets = [sorted(cd.neighbors(i)) for i in cd.vertices]
        rows = (((i, p), [((j, p + 1), 1) for j in targets[i - 1] if (j, p + 1) in vset])
                for i, p in vertices)
        # default_height checked xi, and delta_vertices are valid by construction
        cell, attrs = _Texts().__getitem__, {}
        for i, p in vertices:
            root, shift = ar._happel_object(Q, xi, (i, p))
            attrs[i, p] = {"i": i, "p": p, "root": ",".join(map(cell, root)),
                           "shift": shift}
        return _emit_graph(args.format, "ar_quiver", vertices, rows, attrs)
    from rmx import schur_weyl as sw

    if args.what == "gamma":
        _check_p_window(args)
        return _emit_graph(args.format, "gamma",
                           ar.delta_vertices(cd, args.p_lo, args.p_hi),
                           sw.gamma_rows(cd, args.p_lo, args.p_hi))
    # gamma-j, the last of the parser's choices
    if args.N is None or args.j_lo is None or args.j_hi is None:
        raise rs.InputError("--N, --j-lo and --j-hi are required")
    if args.j_lo > args.j_hi:
        raise rs.InputError("--j-lo must be <= --j-hi")
    if args.j_hi - args.j_lo > MAX_J_WIDTH:
        raise rs.InputError(f"--j-hi - --j-lo must be at most {MAX_J_WIDTH}, "
                            f"got {args.j_hi - args.j_lo}")
    Q = _parse_quiver(cd, args.quiver)
    xi = ar.default_height(Q, args.xi1 if args.xi1 is not None else -2)
    win = sw.gamma_J(cd, sw.type_a_family(Q, xi, args.N, args.j_lo, args.j_hi))
    return _emit_graph(args.format, "gamma_J", win.vertices, _arrow_rows(win.arrows))


def cmd_selfcheck(args) -> tuple[str, int]:
    from rmx import selfcheck

    report = selfcheck.run(args.scope)
    if args.format == "json":
        out = selfcheck.render_report(report) + "\n"
    else:
        lines = [f"scope: {report['scope']}"]
        for c in report["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{mark} {c['name']} ({c['seconds']}s): {c['detail']}")
        lines.append("all passed" if report["passed"] else "FAILURES present")
        out = "\n".join(lines) + "\n"
    return out, 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser


_RANK_HELP = f"rank, at most {rs.MAX_RANK}"


def _add_type_rank_flags(p):
    p.add_argument("--type", required=True, choices=("A", "D", "E"))
    p.add_argument("--rank", required=True, type=int, help=_RANK_HELP)


def _add_type_rank_positional(p):
    p.add_argument("type", choices=("A", "D", "E"))
    p.add_argument("rank", type=int, help=_RANK_HELP)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    p = argparse.ArgumentParser(
        prog="rmx",
        description="Exact R-matrix denominators for quantum loop algebras of type ADE.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ctilde", help="inverse quantum Cartan matrix table")
    _add_type_rank_flags(sp)
    sp.add_argument("--order", type=int, default=None,
                    help=f"truncation (default 2h, at most {MAX_ORDER})")
    sp.add_argument("--format", default="csv",
                    choices=("csv", "json", "markdown-table"))
    sp.set_defaults(fn=cmd_ctilde)

    sp = sub.add_parser("denominator", help="denominator factor list")
    _add_type_rank_flags(sp)
    sp.add_argument("--i", required=True, type=int)
    sp.add_argument("--j", required=True, type=int)
    sp.add_argument("--convention", default="q", choices=("q", "minus_q"))
    sp.add_argument("--format", default="csv",
                    choices=("csv", "json", "markdown-table"))
    sp.set_defaults(fn=cmd_denominator)

    for name, fn in (("pole-order", cmd_pole_order), ("irreducible", cmd_irreducible)):
        sp = sub.add_parser(name, help=f"{name} query")
        _add_type_rank_positional(sp)
        sp.add_argument("--x", required=True, help="vertex 'i,p'")
        sp.add_argument("--y", required=True, help="vertex 'j,r'")
        sp.add_argument("--format", default="text", choices=("text", "json"))
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("dorey", help="middle-term monomial at a simple pole")
    _add_type_rank_positional(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--quiver", default=None, help="orientation, e.g. '2>1'")
    sp.add_argument("--xi1", type=int, default=None, help="height at vertex 1")
    sp.add_argument("--format", default="text", choices=("text", "json"))
    sp.set_defaults(fn=cmd_dorey)

    sp = sub.add_parser("export", help="graph exports")
    sp.add_argument("what", choices=("ar-quiver", "gamma", "gamma-j"))
    _add_type_rank_flags(sp)
    sp.add_argument("--p-lo", type=int, default=None)
    sp.add_argument("--p-hi", type=int, default=None,
                    help=f"at most {MAX_P_WIDTH} above --p-lo")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--j-lo", type=int, default=None)
    sp.add_argument("--j-hi", type=int, default=None,
                    help=f"at most {MAX_J_WIDTH} above --j-lo")
    sp.add_argument("--quiver", default=None)
    sp.add_argument("--xi1", type=int, default=None)
    sp.add_argument("--format", default="json", choices=("json", "dot"))
    sp.set_defaults(fn=cmd_export)

    sp = sub.add_parser("selfcheck", help="run the acceptance suite")
    sp.add_argument("--scope", default="fast", choices=("fast", "full"))
    sp.add_argument("--format", default="json", choices=("json", "text"))
    sp.set_defaults(fn=cmd_selfcheck)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
    except (rs.InputError, dn.NotSimplePoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, dn.NotSimplePoleError) else 2
    out, code = result if isinstance(result, tuple) else (result, 0)
    # a command returns its output whole or, for tables and graph exports, in
    # chunks; it checks all its arguments before the first chunk
    sys.stdout.writelines([out] if isinstance(out, str) else out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The import graph of the package: acyclic, and the oracle route apart.

The representation oracle and its linear-algebra kernel are the second,
independent route to every answer, so neither may reach the ct table, the
window formulas or anything built on them, not even through a call-time
import.  No module of the package uses ``Fraction``.
"""

import ast
from pathlib import Path

import rmx

PACKAGE = Path(rmx.__file__).parent
ORACLE_ROUTE = ("rep_oracle", "linalg")
COMBINATORICS_ONLY = {"quantum_cartan", "denominators", "schur_weyl", "selfcheck", "cli"}


def _rmx_imports(path: Path) -> set[str]:
    """The rmx modules imported anywhere in the file, function bodies too."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = ([f"rmx.{a.name}" for a in node.names] if node.module == "rmx"
                     else [node.module])
        else:
            continue
        out.update(n.split(".")[1] for n in names if n.startswith("rmx."))
    return out


def module_graph() -> dict[str, set[str]]:
    return {p.stem: _rmx_imports(p) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def closure(graph, start: str) -> set[str]:
    seen, stack = set(), [start]
    while stack:
        for dep in graph[stack.pop()]:
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def test_the_graph_reads_every_module():
    graph = module_graph()
    assert {"ar_quiver", "denominators", "rep_oracle", "root_system"} <= graph.keys()
    assert graph["denominators"] >= {"ar_quiver", "quantum_cartan", "rep_oracle"}
    for deps in graph.values():
        assert deps <= graph.keys()


def test_the_ct_table_has_three_readers():
    # every window query reads ct through the zero table of denominators;
    # cli prints the table and selfcheck certifies it
    graph = module_graph()
    assert {m for m, deps in graph.items() if "quantum_cartan" in deps} == {
        "denominators", "cli", "selfcheck"}


def test_module_graph_has_no_cycle():
    graph = module_graph()
    cyclic = sorted(m for m in graph if m in closure(graph, m))
    assert not cyclic, f"modules on an import cycle: {cyclic}"


def test_oracle_route_imports_no_combinatorics():
    graph = module_graph()
    for start in ORACLE_ROUTE:
        assert not closure(graph, start) & COMBINATORICS_ONLY, (start, closure(graph, start))


def test_the_package_holds_no_fraction():
    # the ct table is proved by an integer identity and the oracle
    # eliminates in integers, so no module needs one
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "Fraction" in p.read_text()] == []


def test_only_the_knitting_and_its_coxeter_reader_name_the_tau_orbit_table():
    # everything else reads tau-orbits through ar_quiver's public functions
    # or ar._happel_object, so the table has one layout to keep
    assert [p.stem for p in sorted(PACKAGE.glob("*.py")) if "_tau_orbits" in p.read_text()] == [
        "ar_quiver", "quantum_cartan"]

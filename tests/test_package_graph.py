"""The ``repro.*`` packages import each other without a cycle.

Every module under ``src/repro`` is parsed, not imported, and every
``import`` statement counts — module level and inside functions alike
— so a late import cannot hide an upward edge. A node is a top-level
subpackage (``repro.chaos``) or a top-level module (``repro.__main__``).

    PYTHONPATH=src python -m pytest -q tests/test_package_graph.py
"""

import ast
import pathlib
from typing import Dict, List, Optional, Set

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _node(module: str) -> Optional[str]:
    """The ``repro.<top>`` node a dotted module belongs to, if any."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return ".".join(parts[:2])


def _is_subpackage_or_module(name: str) -> bool:
    return (PACKAGE / name).is_dir() or (PACKAGE / f"{name}.py").is_file()


def _imported_nodes(path: pathlib.Path) -> Set[str]:
    out: Set[str] = set()
    for stmt in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(stmt, ast.Import):
            out.update(_node(alias.name) for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            # The package imports absolutely; a relative import would
            # need resolving here before it could be trusted.
            assert stmt.level == 0, f"{path}:{stmt.lineno}: relative import"
            if stmt.module == "repro":
                # ``from repro import sim`` names a subpackage.
                out.update(f"repro.{alias.name}" for alias in stmt.names
                           if _is_subpackage_or_module(alias.name))
            else:
                out.add(_node(stmt.module))
    out.discard(None)
    return out


def package_graph() -> Dict[str, Set[str]]:
    graph: Dict[str, Set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = _node(_module_name(path))
        edges = graph.setdefault(source, set())
        edges.update(_imported_nodes(path) - {source})
    return graph


def find_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    """One cycle as a closed node list, or ``None`` if the graph is a DAG."""
    done: Set[str] = set()
    stack: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        if node in stack:
            return stack[stack.index(node):] + [node]
        if node in done:
            return None
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt)
            if cycle is not None:
                return cycle
        stack.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle is not None:
            return cycle
    return None


def test_graph_sees_every_package_and_late_imports():
    graph = package_graph()
    for name in ("sim", "chaos", "fleet", "fabric", "experiments"):
        assert f"repro.{name}" in graph
    # ``repro.parallel`` pre-imports the domain packages inside a
    # function only; the walk must still see those edges.
    assert {"repro.chaos", "repro.experiments"} <= graph["repro.parallel"]
    # The kernel is the bottom layer.
    assert graph["repro.sim"] == set()


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == [
        "a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_package_import_graph_is_acyclic():
    cycle = find_cycle(package_graph())
    assert cycle is None, "package import cycle: " + " -> ".join(cycle)

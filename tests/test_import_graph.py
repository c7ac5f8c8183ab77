"""The package's modules import one another without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import cocktail

PACKAGE = Path(cocktail.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def sibling_imports(path: Path) -> set[str]:
    """Package modules that ``path`` imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (("cocktail." if node.level else "") + (node.module or "")).rstrip(".")
            targets = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "cocktail" and len(parts) > 1 and parts[1] in MODULES:
                found.add(parts[1])
    return found - {path.stem}


def test_module_graph_has_no_cycle():
    graph = {path.stem: sibling_imports(path) for path in PACKAGE.glob("*.py")}
    assert {"frontend", "scene"} <= graph["agent"]  # the walk sees real imports
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))

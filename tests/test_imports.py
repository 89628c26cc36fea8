"""The package's modules import each other without a cycle.

Imports made inside functions count too: a module that reaches a sibling at
call time still depends on it.
"""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import codedswitch

PACKAGE = Path(codedswitch.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}


def _imported_modules(path: Path) -> set:
    """Sibling modules named by any import anywhere in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # from .x import y names x; from . import x, y names x and y
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("codedswitch."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("codedswitch.")}
    return names & MODULES


def test_internal_import_graph_is_acyclic():
    graph = {m: _imported_modules(PACKAGE / f"{m}.py") for m in MODULES}
    assert "analysis" in graph["ensemble"] and "placement" in graph["analysis"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_probabilities_and_conditions_run_no_read_solver():
    # analysis and conditions share the Hall table; neither reaches a read solver
    assert "solvers" not in _imported_modules(PACKAGE / "analysis.py")
    assert not {"solvers", "ensemble"} & _imported_modules(PACKAGE / "conditions.py")

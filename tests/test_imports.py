"""Every module imports only names it uses."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/grainflow", "tests", "tools")
                 for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds and the module never
    reads; ``__future__`` imports and lines marked ``# noqa`` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys  # noqa\nfrom a.b import c as d, e\n"
              "import x.y\nprint(e, x.y)\n")
    assert unused_imports(source) == [(2, "os"), (4, "d")]


def test_no_unused_imports():
    hits = [(str(p.relative_to(ROOT)), line, name) for p in MODULES
            for line, name in unused_imports(p.read_text())]
    assert hits == []

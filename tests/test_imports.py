"""No package module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "citebench"


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of `source` bind (`from
    __future__` aside) and that no expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport json, random as r\n"
              "import os.path\nfrom a.b import c, d as e\n\njson.dumps(e)\n")
    assert unused_imports(source) == ["r", "os", "c"]


# __init__.py imports to re-export
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""Every name that a module under src/demkit imports is used there.

A name counts as used when the module reads it or lists it in __all__.
An import left behind after its last use moved elsewhere fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "demkit"


def unused_imports(source: str) -> list:
    """The names that source imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_found():
    source = "from .graph import Graph, _SIZE_CAP\nimport os.path\n\ndef f(g: Graph): pass\n"
    assert unused_imports(source) == ["_SIZE_CAP", "os"]
    assert unused_imports("import os\n__all__ = ['os']\n") == []

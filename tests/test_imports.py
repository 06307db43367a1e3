"""Every name that a module under src/demkit imports is used there, and
every private name that one defines is read somewhere under src/demkit.

An imported name counts as used when the module reads it or lists it in
__all__: an import left behind after its last use moved elsewhere fails
here.  A private module-level name counts as read when some module loads
it, reads it as an attribute or imports it by name: a helper folded into
its caller cannot be kept alive for the tests alone.
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


def unread_private_names(sources: dict) -> list:
    """The private module-level names defined in sources (module name to
    source text) that no module reads, as (module, name) pairs in order."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                (module, name) for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_every_private_name_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_name_found():
    sources = {
        "a.py": "_X = 1\n_Y: int = 2\ndef _check(): pass\nclass _C: pass\n__all__ = []\n",
        "b.py": "from .a import _C\nfrom . import a\nprint(a._X)\n_Y = 3\n",
    }
    assert unread_private_names(sources) == [("a.py", "_Y"), ("a.py", "_check"), ("b.py", "_Y")]

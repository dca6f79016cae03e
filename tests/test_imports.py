"""Every top-level import of a module in src/robustmc/ or tests/ is read by it,
and every private top-level name of src/robustmc/ is read somewhere in it.

`__init__.py` is exempt from the import check: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "robustmc").glob("*.py"))
MODULES = sorted(
    path for path in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_detects_an_unread_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np.zeros(1), d)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants that no module reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unread += [
                f"{module} line {node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_detects_an_unread_private_name():
    sources = {
        "a.py": "def _used():\n    pass\ndef _unused():\n    pass\n_K = 1\n_J: int = 2\n",
        "b.py": "from . import a\nprint(a._used(), a._K)\n",
    }
    assert _unread_private_names(sources) == ["a.py line 3: _unused", "a.py line 6: _J"]


def test_every_private_name_is_read():
    assert _unread_private_names({path.name: path.read_text(encoding="utf-8") for path in PACKAGE}) == []

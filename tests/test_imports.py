"""Every module-level import of the package and of the tests is read.

An import that nothing reads is dead code that still costs its load on
every request.  The check parses each module with `ast` and compares the
names its module-level imports bind with the names the module reads; a
name listed in `__all__` counts as read.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "eqsing").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _module_imports(node):
    """The import statements outside every function and class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef, ast.Lambda)):
            yield from _module_imports(child)


def unused_imports(source):
    """[(line, name), ...]: each module-level import binding never read."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for imp in _module_imports(tree):
        if isinstance(imp, ast.ImportFrom) and imp.module == "__future__":
            continue
        for alias in imp.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                unused.append((imp.lineno, name))
    return unused


def test_detector_finds_an_unused_import():
    source = ("import os\nimport os.path\nimport sys\n"
              "from json import dumps as d, loads\n"
              "def f():\n    import re\n    return sys.argv\n"
              "__all__ = ['d']\n")
    assert unused_imports(source) == [(1, "os"), (2, "os"), (4, "loads")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

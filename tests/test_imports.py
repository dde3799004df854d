"""Every module-level import of the package and of the tests is read, and
so is every private module-level name of the package.

An import that nothing reads is dead code that still costs its load on
every request.  The check parses each module with `ast` and compares the
names its module-level imports bind with the names the module reads; a
name listed in `__all__` counts as read.  A private function, class or
constant of the package that no module of the package reads is a helper
left behind by a deletion; the tests alone do not keep it alive.  Nor do
they keep a public function, class, method or property of the package
alive: the package or the benchmark reads each, by name or as an
attribute.  Nor an error class:
each class of `errors.py` is raised by the package, or is a base of one
that is.  And since a refusal is told apart by its message alone, each
raise of such a class passes a message first.  And a record checks its
entries and never converts them: no `__post_init__` of the package calls
`int(`.  Last, every package name that the benchmark's worker and tracer
use exists, read from their source, so that a rename fails here and not
in a benchmark run.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "eqsing").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def _names_read(trees):
    """Every name loaded and every attribute read in the syntax `trees`."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources):
    """[(module, line, name), ...]: each private module-level function,
    class or constant of the modules `sources` ({module: source}) that
    none of them reads, as a name or as an attribute.  Dunder names are
    exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _names_read(trees.values())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and name not in read
                       and not (name.startswith("__") and name.endswith("__"))]
    return unread


def test_detector_finds_an_unread_private_name():
    sources = {
        "a": ("_A = 1\n_B: int = 2\n__version__ = '1'\n"
              "def _f():\n    return _A\n"
              "def _g():\n    pass\n"
              "class _C:\n    pass\n"),
        "b": "from a import _f\nimport a\n_f()\na._C\n_g = 3\n",
    }
    assert unread_private_names(sources) == [("a", 2, "_B"), ("a", 6, "_g"), ("b", 5, "_g")]


def test_no_unread_private_name_in_the_package():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private_names(sources) == []


def unread_public_methods(sources, readers):
    """[(module, line, "Class.name"), ...]: each public method or property
    of a module-level class of `sources` ({module: source}) whose name no
    source of `sources` or `readers` reads as an attribute.  Names that
    begin with an underscore are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [(module, node.lineno, f"{cls.name}.{node.name}")
            for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in read]


def test_detector_finds_an_unread_public_method():
    sources = {
        "a": ("class A:\n    def __init__(self):\n        pass\n"
              "    def _helper(self):\n        pass\n"
              "    def used(self):\n        return self.size\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    def unused(self):\n        pass\n"
              "def unused2():\n    pass\n"),
        "b": "class B:\n    def read(self):\n        pass\n    def unused(self):\n        pass\n",
    }
    readers = ["from a import A\nA().used()\nb.read\n"]
    assert unread_public_methods(sources, readers) == [
        ("a", 11, "A.unused"), ("b", 4, "B.unused")]


def test_every_public_method_is_read_by_the_package_or_the_benchmark():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unread_public_methods(sources, readers) == []


def unread_public_names(sources, readers):
    """[(module, line, name), ...]: each public module-level function or
    class of `sources` ({module: source}) whose name no source of
    `sources` or `readers` reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _names_read([*trees.values(), *map(ast.parse, readers)])
    return [(module, node.lineno, node.name)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_detector_finds_an_unread_public_name():
    sources = {
        "a": ("def used():\n    pass\n"
              "def unused():\n    pass\n"
              "class Base:\n    pass\n"
              "class Leaf(Base):\n    pass\n"
              "def _private():\n    pass\n"),
        "b": "from a import unused\nimport a\na.used()\n",
    }
    readers = ["from a import Leaf\nLeaf()\n"]
    assert unread_public_names(sources, readers) == [("a", 3, "unused")]


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    # the tests alone do not keep a public function or class alive
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unread_public_names(sources, readers) == []


# the record classes, as "layer.Class", that the benchmark's variables and
# fields of these names hold
BENCHMARK_RECEIVERS = {
    "result": ("monodromy.AnalysisOutcome",),
    "verdict": ("monodromy.Finite", "monodromy.Infinite", "monodromy.Unknown"),
    "certificate": ("monodromy.MonodromyElement",),
    "report": ("localalg.LocalAlgebraReport",),
}


def benchmark_names(sources, package, receivers=BENCHMARK_RECEIVERS):
    """(used, missing): the package names that `sources` use, each as
    "layer.name" or "Class.attribute", and those of them that `package`
    (a function from layer name to module) lacks.

    A layer is reached as `self.<layer>` once `from eqsing import <layer>`
    names it, as an entry of a module-level LAYERS, or in a "layer.name"
    string of CLOSURE or of RESULT_COUNTERS' keys.  A record's field or
    method is an attribute of a variable or field named in `receivers`,
    or a `getattr` of one with a constant name, and exists when one of its
    classes has it."""
    used, missing = set(), set()

    def find(name, owners, attr):
        classes = [getattr(package(layer), cls, None)
                   for layer, cls in (owner.split(".") for owner in owners)]
        have = [cls.__name__ for cls in classes if hasattr(cls, attr)]
        used.update(f"{cls}.{attr}" for cls in have)
        if not have:
            missing.add(f"{name}.{attr}")

    def resolve(dotted):
        layer, _, name = dotted.partition(".")
        used.add(dotted)
        if package(layer) is None or (name and not hasattr(package(layer), name)):
            missing.add(dotted)

    for tree in map(ast.parse, sources):
        layers = {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "eqsing"
                  for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                if target == "LAYERS":
                    for layer in ast.literal_eval(node.value):
                        resolve(layer)
                elif target == "CLOSURE":
                    resolve(ast.literal_eval(node.value))
                elif target == "RESULT_COUNTERS":
                    for key in node.value.keys:
                        resolve(ast.literal_eval(key))
            elif isinstance(node, ast.Attribute):
                base = node.value
                if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                        and base.value.id == "self" and base.attr in layers):
                    resolve(f"{base.attr}.{node.attr}")
                key = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                if key in receivers:
                    find(key, receivers[key], node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and isinstance(node.args[0], ast.Name)
                  and node.args[0].id in receivers and isinstance(node.args[1], ast.Constant)):
                find(node.args[0].id, receivers[node.args[0].id], node.args[1].value)
    return used, sorted(missing)


def test_detector_finds_a_missing_benchmark_name():
    class Verdict:
        kind = "finite"

    layers = {"mono": type("mono", (), {"solve": len, "Verdict": Verdict})}
    sources = ['LAYERS = ("mono", "gone")\nCLOSURE = "mono.solve"\n'
               'RESULT_COUNTERS = {"mono.lost": 1}\n',
               "from eqsing import mono\nclass W:\n    def f(self, verdict):\n"
               "        self.mono.solve(verdict.kind, verdict.order)\n"
               "        return self.mono.vanished, getattr(verdict, 'cap', None)\n"]
    used, missing = benchmark_names(sources, layers.get, {"verdict": ("mono.Verdict",)})
    assert missing == ["gone", "mono.lost", "mono.vanished", "verdict.cap", "verdict.order"]
    assert {"mono", "mono.solve", "Verdict.kind"} <= used


def test_every_package_name_the_benchmark_uses_exists():
    # the benchmark's worker and tracer are read, not run, so that a name
    # they need and the package loses fails here and not in a benchmark run
    import importlib

    def package(layer):
        try:
            return importlib.import_module(f"eqsing.{layer}")
        except ModuleNotFoundError:
            return None

    sources = [(ROOT / "perfbench" / name).read_text(encoding="utf-8")
               for name in ("worker.py", "tracing.py")]
    used, missing = benchmark_names(sources, package)
    assert missing == []
    assert {"catalog.run_analysis", "catalog.weyl_order", "monodromy.power_law_check",
            "localalg.germ", "monodromy.generate_group", "Infinite.validate",
            "MonodromyElement.word", "LocalAlgebraReport.truncation_degree"} <= used


def unraised_error_classes(errors_source, sources):
    """[(line, name), ...]: each class of `errors_source` that no module of
    `sources` raises by name, as `raise Name(...)` or `raise Name`, and
    that is no base, at any remove, of a class one of them raises."""
    classes = {node.name: node for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)}
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in classes:
                    used.add(exc.id)
    todo = list(used)
    while todo:
        for base in classes[todo.pop()].bases:
            if isinstance(base, ast.Name) and base.id in classes and base.id not in used:
                used.add(base.id)
                todo.append(base.id)
    return [(node.lineno, name) for name, node in classes.items() if name not in used]


def test_detector_finds_an_unraised_error_class():
    errors = ("class Base(Exception):\n    pass\n"
              "class Mid(Base):\n    pass\n"
              "class Leaf(Mid, ValueError):\n    pass\n"
              "class Named(Base):\n    pass\n"
              "class Gone(Base):\n    pass\n")
    sources = ["def f():\n    raise Leaf('x')\n",
               "def g():\n    try:\n        pass\n    except Gone:\n        raise\n"
               "    raise Named\n"]
    assert unraised_error_classes(errors, sources) == [(9, "Gone")]


def test_every_error_class_is_raised_by_the_package():
    errors = (ROOT / "src" / "eqsing" / "errors.py").read_text(encoding="utf-8")
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unraised_error_classes(errors, sources) == []


def _is_message(node):
    """True for a string literal, an f-string, a concatenation of them, or
    the `detail` of a caught DiagramError, which is the message it was
    raised with."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_message(node.left) and _is_message(node.right)
    return (isinstance(node, ast.JoinedStr)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)
            or isinstance(node, ast.Attribute) and node.attr == "detail")


def raises_without_message(errors_source, sources):
    """[(module, line, name), ...]: each `raise Name(...)` or `raise Name`
    in `sources` ({module: source}) of a class of `errors_source` whose
    first argument is no message (`_is_message`)."""
    classes = {node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)}
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            call = node.exc if isinstance(node.exc, ast.Call) else None
            name = call.func if call else node.exc
            if not (isinstance(name, ast.Name) and name.id in classes):
                continue
            if not (call and call.args and _is_message(call.args[0])):
                found.append((module, node.lineno, name.id))
    return found


def test_detector_finds_a_raise_without_a_message():
    errors = "class Base(Exception):\n    pass\nclass Leaf(Base):\n    pass\n"
    sources = {"a": ("def f(n, err):\n"
                     "    raise Base('literal')\n"
                     "    raise Leaf(f'{n} ' + 'x' + f'{n}')\n"
                     "    raise Leaf(err.detail, line=n)\n"
                     "    raise Base(n)\n"
                     "    raise Leaf\n"
                     "    raise Base(message=n)\n"
                     "    raise Leaf(str(n))\n"
                     "    raise ValueError(n)\n")}
    assert raises_without_message(errors, sources) == [
        ("a", 5, "Base"), ("a", 6, "Leaf"), ("a", 7, "Base"), ("a", 8, "Leaf")]


def test_every_refusal_of_the_package_passes_a_message():
    errors = (ROOT / "src" / "eqsing" / "errors.py").read_text(encoding="utf-8")
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    assert raises_without_message(errors, sources) == []


def post_init_int_calls(sources):
    """[(module, line), ...]: each call of `int(...)` inside a method named
    `__post_init__` in `sources` ({module: source})."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                found += [(module, call.lineno) for call in ast.walk(node)
                          if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id == "int"]
    return sorted(found)


def test_detector_finds_an_int_call_in_a_post_init():
    sources = {"a": ("class A:\n"
                     "    def __post_init__(self):\n"
                     "        x = [int(v) for v in self.v]\n"
                     "        isinstance(x, int)\n"
                     "    def other(self):\n"
                     "        return int(self.v)\n"
                     "def __post_init__():\n"
                     "    return int('1')\n")}
    assert post_init_int_calls(sources) == [("a", 3), ("a", 8)]


def test_no_post_init_converts_with_int():
    # a record refuses an entry that is not an int (IntLattice's rule)
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    assert post_init_int_calls(sources) == []

"""Source hygiene: every name a module of the library or of its tests
imports is used in it, every private module-level function of the
library is used in it, no library module imports inside a function body
or imports numpy when it is itself imported, and none uses
``dataclasses``."""

import ast
from pathlib import Path

import pytest

import quathyp

SOURCES = sorted(Path(quathyp.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"] + sorted(
    Path(__file__).parent.glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports and never read in it."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_name():
    source = "from math import gcd, lcm\nimport os.path\nimport json as j\nprint(gcd, j)\n"
    assert unused_imports(source) == ["lcm (line 1)", "os (line 2)"]


def function_imports(source: str) -> list[str]:
    """Import statements inside the body of a function."""
    lines = {
        inner.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_level_imports(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_function_import_guard_sees_nested_bodies():
    source = (
        "import math\n"
        "def f():\n    from .algebras import x\n    return x\n"
        "class A:\n    import json\n"
        "    def g(self):\n        def h():\n            import os\n        return h\n"
    )
    assert function_imports(source) == ["line 3", "line 9"]


def _is_module(name, module: str) -> bool:
    return isinstance(name, str) and name.split(".")[0] == module


def _imports(node: ast.AST, module: str) -> bool:
    if isinstance(node, ast.Import):
        return any(_is_module(alias.name, module) for alias in node.names)
    return isinstance(node, ast.ImportFrom) and _is_module(node.module, module)


def _import_time_nodes(node: ast.AST):
    """The nodes that run when the module is imported: all but the
    bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def eager_numpy_imports(source: str) -> list[str]:
    """Import statements that load numpy when the module is imported."""
    nodes = _import_time_nodes(ast.parse(source))
    return [f"line {node.lineno}" for node in nodes if _imports(node, "numpy")]


def names_module(source: str, module: str = "numpy") -> bool:
    """Whether the module imports ``module`` anywhere or names it in a
    string (``importlib.import_module("numpy")`` and the like)."""
    return any(
        _imports(node, module)
        or (isinstance(node, ast.Constant) and _is_module(node.value, module))
        for node in ast.walk(ast.parse(source))
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_numpy_is_lazy_and_only_in_geometry(path):
    source = path.read_text(encoding="utf-8")
    assert eager_numpy_imports(source) == []
    assert names_module(source) == (path.name == "geometry.py")


def test_numpy_guard_sees_eager_and_hidden_imports():
    source = (
        "import math\n"
        "try:\n    import numpy.linalg as la\nexcept ImportError:\n    la = None\n"
        "from numpy import eye\n"
        "class A:\n    import numpy as np\n"
        "def f():\n    import numpy\n    return numpy\n"
    )
    assert eager_numpy_imports(source) == ["line 3", "line 6", "line 8"]
    assert eager_numpy_imports("def f():\n    import numpy\n") == []
    assert names_module("def f():\n    from numpy import eye\n")
    assert names_module('np = __import__("numpy")\n')
    assert not names_module('"""Rows of a numpy array."""\nimport numbers\n')


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dataclasses(path):
    # importing dataclasses loads inspect, ast, dis and tokenize: about
    # 12 ms of every CLI process; records derive from quathyp.records
    assert not names_module(path.read_text(encoding="utf-8"), "dataclasses")


def test_dataclasses_guard_sees_every_import():
    assert names_module("from dataclasses import dataclass\n", "dataclasses")
    assert names_module("def f():\n    import dataclasses as dc\n", "dataclasses")
    assert names_module('importlib.import_module("dataclasses")\n', "dataclasses")
    assert not names_module('"""Slots, not dataclasses."""\nimport dataclass_x\n', "dataclasses")


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named with one leading underscore that no
    module reads, by name, attribute or import, outside their own body."""
    defined, used = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                owner.startswith("_") and not owner.startswith("__")
            ):
                defined[owner] = f"{module}:{stmt.lineno}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, owner))
                elif isinstance(node, ast.ImportFrom):
                    used.update((alias.name, owner) for alias in node.names)
    readers: dict[str, set] = {}
    for name, owner in used:
        readers.setdefault(name, set()).add(owner)
    return sorted(
        f"{name} ({where})"
        for name, where in defined.items()
        if not readers.get(name, set()) - {name}
    )


def test_private_functions_are_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_functions(sources) == []


def test_private_function_guard_sees_leftovers():
    sources = {
        "a.py": (
            "def _called():\n    return 1\n"
            "def _left_over(x):\n    return x\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
            "def _imported():\n    pass\n"
            "class A:\n    def _method(self):\n        return _called()\n"
        ),
        "b.py": "from .a import _imported\nimport a\nprint(a._called)\n",
    }
    assert unreferenced_private_functions(sources) == ["_left_over (a.py:3)", "_recursive (a.py:5)"]


def unraised_errors(errors_source: str, sources: dict[str, str]) -> list[str]:
    """Exception classes of ``errors_source``, other than the base
    ``QuathypError``, that no ``raise`` statement in ``sources`` names,
    called or not, by name or attribute."""
    raised = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    tree = ast.parse(errors_source)
    classes = (stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef))
    return [name for name in classes if name not in raised | {"QuathypError"}]


def test_every_error_is_raised():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unraised_errors(sources["errors.py"], sources) == []


def test_error_guard_sees_unraised_classes():
    errors = "".join(
        f"class {name}(QuathypError):\n    pass\n" for name in ("A", "B", "C", "D", "E")
    )
    sources = {
        "errors.py": "class QuathypError(Exception):\n    pass\n" + errors,
        "a.py": "from .errors import C\nraise A('a')\ntry:\n    pass\nexcept C:\n    x = C\n",
        "b.py": "from . import errors\ndef f():\n    raise errors.B from None\nraise E\n",
    }
    assert unraised_errors(sources["errors.py"], sources) == ["C", "D"]

"""Source hygiene: every name a module of the library or of its tests
imports is used in it."""

import ast
from pathlib import Path

import pytest

import quathyp

MODULES = sorted(
    path for path in Path(quathyp.__file__).parent.glob("*.py") if path.name != "__init__.py"
) + sorted(Path(__file__).parent.glob("*.py"))


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

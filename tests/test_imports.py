"""Each module of the package uses every name it imports and holds no assert statement."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tconnect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detects_a_dead_name():
    assert unused_imports("from os import path, sep\nimport sys\nprint(sep)\n") == ["path", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list[int]:
    """Lines of the assert statements of a module; ``python -O`` strips them."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_lines_detects_an_assert():
    assert assert_lines("x = 1\nassert x\nif x:\n    assert x > 0, 'positive'\n") == [2, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []

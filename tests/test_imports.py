"""Each module of the package uses every name it imports, holds no assert statement
and reads the environment only in ``homology.oracle_cap``."""

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


ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Where a module touches os.environ or os.getenv: the enclosing function, or <module>."""
    found = []

    def scan(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in ENV_NAMES
                    and isinstance(child.value, ast.Name) and child.value.id == "os"):
                found.append(where)
            elif (isinstance(child, ast.ImportFrom) and child.module == "os"
                    and ENV_NAMES & {a.name for a in child.names}):
                found.append(where)
            scan(child, where)

    scan(ast.parse(source), "<module>")
    return found


def test_environment_reads_finds_every_form():
    source = ("import os\nfrom os import getenv\nHOME = os.environ['HOME']\n"
              "def cap():\n    return os.getenv('CAP')\n"
              "def size():\n    return os.sysconf('SC_PAGE_SIZE')\n")
    assert environment_reads(source) == ["<module>", "<module>", "cap"]


def test_only_oracle_cap_reads_the_environment():
    reads = {p.name: environment_reads(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: where for name, where in reads.items() if where} == {"homology.py": ["oracle_cap"]}

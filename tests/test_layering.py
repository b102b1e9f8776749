"""Import layering: every module imports at its top level.

An import inside a function or under `if TYPE_CHECKING` is how a cycle
between modules gets hidden; the package keeps its imports acyclic instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "handcam"


def misplaced_imports(source: str) -> list[int]:
    """Line numbers of imports inside a function or an `if TYPE_CHECKING` block."""
    found = []

    def visit(node: ast.AST, nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if nested and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append(child.lineno)
            visit(
                child,
                nested
                or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                or (isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test)),
            )

    visit(ast.parse(source), False)
    return found


def test_detector_finds_each_form():
    source = (
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from x import y\n"
        "def f():\n"
        "    import z\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import w\n"
    )
    assert misplaced_imports(source) == [4, 6, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_top(path):
    assert misplaced_imports(path.read_text()) == []

"""Every exhaustive triple scan goes a row at a time through one driver,
`_rows.first_violation`: it is the only caller of the row kernel
`core._row_violation`, so no second loop over rows can rescan what it
decided."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gyrogroups"
SOURCES = sorted(PACKAGE.glob("*.py"))


def callers(source, name):
    """The functions of a module that call ``name``, by their dotted path
    through enclosing functions and classes, one entry per call; calls
    outside any function read ``<module>``."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join(path) or "<module>")
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_callers_are_found():
    source = (
        "def f():\n    def g():\n        core._row_violation(G)\n    _row_violation(G)\n"
        "class K:\n    def m(self):\n        return [_row_violation(x) for x in y]\n"
        "_row_violation(G)\nh = _row_violation\n"
    )
    assert callers(source, "_row_violation") == ["f.g", "f", "K.m", "<module>"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_row_kernel_is_called_only_by_the_row_driver(path):
    expected = ["first_violation"] * 2 if path.name == "_rows.py" else []
    assert callers(path.read_text(encoding="utf-8"), "_row_violation") == expected

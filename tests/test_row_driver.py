"""Every exhaustive triple scan goes a row at a time through one driver,
`_rows.first_violation`: it is the only caller of the row kernel
`core._row_violation`, so no second loop over rows can rescan what it
decided, and only the two triple laws call it.  The identity gyration is
named once, by its index (`core._identity_gyration`)."""

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_row_driver_is_called_only_by_the_two_triple_laws(path):
    # left gyroassociativity within its budget, and the gyrator identity's
    # own scan; no other code sets how many rows are scanned
    expected = ["_assoc_violation", "check_gyrator_identity"] if path.name == "core.py" else []
    assert callers(path.read_text(encoding="utf-8"), "first_violation") == expected


def identity_tests(source):
    """The lines of the comparisons with ``perm_matrix`` on one side and a
    call of ``arange`` on another: a gyration tested for the identity by its
    images, where `core._identity_gyration` gives its one index."""

    def mentions(node, test):
        return any(test(sub) for sub in ast.walk(node))

    def perm_matrix(node):
        return isinstance(node, ast.Attribute) and node.attr == "perm_matrix"

    def arange(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "arange"

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(mentions(x, perm_matrix) and mentions(y, arange)
                   for x in sides for y in sides if x is not y):
                found.append(node.lineno)
    return found


def test_identity_tests_are_found():
    source = (
        "a = (G.perm_matrix == np.arange(n)).all(axis=1)\n"
        "b = (np.arange(n) != G.perm_matrix[k]).any()\n"
        "c = G.perm_matrix[np.arange(2)] == 3\n"
        "d = k == _identity_gyration(G)\n"
    )
    assert identity_tests(source) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_gyration_is_tested_for_the_identity_by_its_images(path):
    assert identity_tests(path.read_text(encoding="utf-8")) == []

"""The reference modules check the package from outside: none of them may
import or read a private (``_``-prefixed) name of ``gyrogroups``, or it
would share the code it is meant to check."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
REFERENCES = sorted(TESTS.glob("*_reference.py")) + [TESTS / "witness_checks.py"]


def private_names(source):
    """The private names of ``gyrogroups`` that a module imports or reads
    as an attribute of a name it imported from the package."""
    tree = ast.parse(source)
    bound, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gyrogroups":
            names += [a.name for a in node.names if a.name.startswith("_")]
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            bound |= {
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.split(".")[0] == "gyrogroups"
            }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                names.append(node.attr)
    return names


def test_private_names_are_found():
    assert private_names("from gyrogroups.core import FiniteGyrogroup, _close") == ["_close"]
    assert private_names("import gyrogroups.core\ngyrogroups.core._close(G, s)") == ["_close"]
    assert private_names("from gyrogroups import core as c\nc._distinct(x)") == ["_distinct"]
    assert private_names("from gyrogroups import Permutation\nPermutation.__call__") == []


@pytest.mark.parametrize("path", REFERENCES, ids=lambda path: path.name)
def test_reference_reads_no_private_name(path):
    assert private_names(path.read_text(encoding="utf-8")) == []

"""No module in the package or the tests imports a name it never uses.

A stdlib-``ast`` scan: a name bound by ``import`` or ``from ... import``
counts as used when it is read anywhere in the module (attribute chains
count through their root) or listed in ``__all__``.  ``from __future__``
imports bind nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "quadralab").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_unused_and_used_names():
    source = ("import os, sys\nimport a.b\nfrom x import y as z, w\n"
              "__all__ = ['w']\nprint(sys.argv, a.b)\n")
    assert unused_imports(source) == [(1, "os"), (3, "z")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

"""Every top-level function and class of the package is read by the program.

A stdlib-``ast`` scan over the package and ``perfbench``: a definition is
live when its name is read (as a name, or as the attribute of a module or
an object) in some scanned file outside its own body.  A recursive call,
an import or an ``__all__`` entry does not keep a definition alive, and
neither does a test: the tests are not scanned, so a definition that only
tests read is dead.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadralab").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "perfbench").glob("*.py")])


def names_read(tree):
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def dead_definitions(source: str, reads):
    """(line, name) of each top-level def of source read only in its own body.

    reads counts the names read over every scanned file, source included.
    """
    return [(d.lineno, d.name) for d in ast.parse(source).body
            if isinstance(d, (ast.FunctionDef, ast.ClassDef))
            and reads[d.name] == names_read(d)[d.name]]


def test_the_scan_sees_dead_and_live_definitions():
    source = ("def used():\n    pass\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "class Dead:\n    pass\n\n"
              "used()\n")
    reads = names_read(ast.parse(source))
    assert dead_definitions(source, reads) == [(4, "recursive"), (7, "Dead")]


@pytest.fixture(scope="module")
def reads():
    return sum((names_read(ast.parse(path.read_text())) for path in FILES), Counter())


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dead_definitions(path, reads):
    assert dead_definitions(path.read_text(), reads) == []

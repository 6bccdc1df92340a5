"""Every top-level function and class, and every method, of the package is read.

A stdlib-``ast`` scan over the package and ``perfbench``: a top-level
definition is live when its name is read (as a name, or as the attribute
of a module or an object) in some scanned file outside its own body; a
method is live only when it is read as an attribute (``x.name``) there,
since a bare name of the same spelling is some other variable.  A
recursive call, an import or an ``__all__`` entry does not keep a
definition alive, and neither does a test: the tests are not scanned, so
a definition that only tests read is dead.  Methods are the functions in
the body of a top-level class, dunder methods aside (Python calls those
itself).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadralab").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "perfbench").glob("*.py")])


def names_read(tree):
    """Count the names read: ``name`` for a bare name, ``.name`` for an attribute."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts["." + node.attr] += 1
    return counts


def definitions(tree):
    """(definition, keys that read it) for each top-level function and class,
    and each non-dunder method."""
    for d in tree.body:
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
            yield d, (d.name, "." + d.name)
        if isinstance(d, ast.ClassDef):
            yield from ((m, ("." + m.name,)) for m in d.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def dead_definitions(source: str, reads):
    """(line, name) of each definition of source read only in its own body.

    reads counts the names read over every scanned file, source included.
    """
    dead = []
    for d, keys in definitions(ast.parse(source)):
        own = names_read(d)
        if all(reads[k] == own[k] for k in keys):
            dead.append((d.lineno, d.name))
    return dead


def test_the_scan_sees_dead_and_live_definitions():
    source = ("def used():\n    pass\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "class Dead:\n    pass\n\n"
              "class Live:\n"
              "    def __init__(self):\n        pass\n\n"
              "    def called(self):\n        return 1\n\n"
              "    def uncalled(self):\n        return self.uncalled()\n\n"
              "    def shadowed(self):\n        return 2\n\n"
              "shadowed = 3\n"
              "used(shadowed)\n"
              "Live().called()\n")
    reads = names_read(ast.parse(source))
    assert dead_definitions(source, reads) == [
        (4, "recursive"), (7, "Dead"), (17, "uncalled"), (20, "shadowed")]


@pytest.fixture(scope="module")
def reads():
    return sum((names_read(ast.parse(path.read_text())) for path in FILES), Counter())


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dead_definitions(path, reads):
    assert dead_definitions(path.read_text(), reads) == []

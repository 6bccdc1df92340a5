"""The package reduces against an echelon basis in one loop.

A stdlib-``ast`` scan over the package: a function pops a heap when its
own body (not a nested function's) calls ``heappop``, as an attribute
(``heapq.heappop``) or as a name imported from ``heapq``, under any alias.
Only ``linalg.SparseEchelon._reduce`` may: it is the one reduction loop,
for Q(i), F_p and every other field, so the loop cannot fork per field
again without this test failing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadralab").glob("*.py"))


def heap_poppers(source: str, module: str):
    """Qualified names (module.Class.function) of the functions of source that call heappop."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "heapq"
               for a in node.names if a.name == "heappop"}
    return callers(tree, module, lambda func: _is_heappop(func, aliases))


def callers(tree, module: str, is_target):
    """Qualified names of the functions of tree whose own body calls a func is_target accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, ast.Call) and is_target(n.func)
                        for n in _own_nodes(child)):
                    found.append(".".join(inner))
                visit(child, inner)
            else:
                visit(child, scope)

    visit(tree, [module])
    return found


def _is_heappop(func, aliases):
    return ((isinstance(func, ast.Attribute) and func.attr == "heappop")
            or (isinstance(func, ast.Name) and func.id in aliases))


def _own_nodes(function):
    """The nodes of function's body, not descending into nested definitions."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [node for node in function.body if not isinstance(node, nested)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, nested))


def test_the_scan_sees_every_heap_popper():
    source = ("import heapq\n"
              "from heapq import heappop as pop\n\n"
              "def plain(h):\n    return heapq.heappop(h)\n\n"
              "def aliased(h):\n    return pop(h)\n\n"
              "def pushes(h):\n    heapq.heappush(h, 1)\n\n"
              "def outer(h):\n"
              "    def inner():\n        return heapq.heappop(h)\n"
              "    return inner\n\n"
              "class Echelon:\n"
              "    def _reduce(self, h):\n        while h:\n            heapq.heappop(h)\n")
    assert heap_poppers(source, "m") == ["m.plain", "m.aliased", "m.outer.inner",
                                         "m.Echelon._reduce"]


def test_one_function_pops_a_heap():
    found = [name for path in PACKAGE for name in heap_poppers(path.read_text(), path.stem)]
    assert found == ["linalg.SparseEchelon._reduce"]

"""Every defaulted parameter of the package's functions and methods is set by a caller.

A stdlib-``ast`` scan over the package and ``perfbench``: a parameter with
a default value is live when some call in a scanned file sets it, by
keyword or by position.  A call is matched to a definition by name (the
called name, or the attribute of a module or an object); a constructor
is matched by its class name, or by a call of ``__init__``.  A call that
unpacks ``*args`` or ``**kwargs`` counts as setting every parameter.  The
tests are not scanned, so a default that only tests override is a
constant in disguise.  Methods are the functions in the body of a
top-level class, dunder methods other than ``__init__`` aside (Python
calls those itself).
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadralab").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "perfbench").glob("*.py")])
EVERY = "*"


def called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def calls_by_name(tree):
    """Map each called name to the (positional count, keywords) of its calls.

    A call that unpacks ``*`` or ``**`` records ``EVERY`` among its keywords.
    """
    calls = defaultdict(list)
    for node in ast.walk(tree):
        name = isinstance(node, ast.Call) and called_name(node)
        if name:
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            keywords = {k.arg for k in node.keywords if k.arg} | ({EVERY} if unpacks else set())
            calls[name].append((len(node.args), keywords))
    return calls


def defaulted_parameters(func, bound):
    """(position, name) of each defaulted parameter; position is None for keyword-only.

    Positions count the arguments a caller writes, so a bound first
    parameter (``self`` or ``cls``) is dropped.
    """
    positional = [*func.args.posonlyargs, *func.args.args][1 if bound else 0:]
    first = len(positional) - len(func.args.defaults)
    out = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
    out += [(None, a.arg) for a, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
            if default is not None]
    return out


def definitions(tree):
    """(label, names a call may use, function, bound) for each function and method."""
    for d in tree.body:
        if isinstance(d, ast.FunctionDef):
            yield d.name, {d.name}, d, False
        elif isinstance(d, ast.ClassDef):
            for m in d.body:
                if not isinstance(m, ast.FunctionDef):
                    continue
                if m.name == "__init__":
                    yield d.name, {d.name, "__init__"}, m, True
                elif not (m.name.startswith("__") and m.name.endswith("__")):
                    static = any(isinstance(x, ast.Name) and x.id == "staticmethod"
                                 for x in m.decorator_list)
                    yield f"{d.name}.{m.name}", {m.name}, m, not static


def unset_parameters(source: str, calls):
    """(line, 'function(parameter)') of each defaulted parameter no call sets.

    calls maps called names to their calls over every scanned file,
    source included.
    """
    out = []
    for label, names, func, bound in definitions(ast.parse(source)):
        sites = [site for name in names for site in calls.get(name, ())]
        for position, param in defaulted_parameters(func, bound):
            if not any(EVERY in kw or param in kw or (position is not None and n > position)
                       for n, kw in sites):
                out.append((func.lineno, f"{label}({param})"))
    return out


def test_the_scan_sees_set_and_unset_parameters():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
              "def g(x=0):\n    pass\n\n"
              "class K:\n"
              "    def __init__(self, p, q=None):\n        pass\n\n"
              "    def m(self, r=1, s=2):\n        pass\n\n"
              "    @staticmethod\n"
              "    def s(t=1):\n        pass\n\n"
              "f(0, 1, e=5)\n"
              "g(*[])\n"
              "K(1).m(2)\n"
              "K.s()\n")
    assert unset_parameters(source, calls_by_name(ast.parse(source))) == [
        (1, "f(c)"), (1, "f(d)"), (8, "K(q)"), (11, "K.m(s)"), (15, "K.s(t)")]


@pytest.fixture(scope="module")
def calls():
    merged = defaultdict(list)
    for path in FILES:
        for name, sites in calls_by_name(ast.parse(path.read_text())).items():
            merged[name] += sites
    return merged


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_defaulted_parameter_is_set(path, calls):
    assert unset_parameters(path.read_text(), calls) == []

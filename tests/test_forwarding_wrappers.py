"""No package function only forwards its arguments to another package callable.

A stdlib-``ast`` scan over the package: a forwarding wrapper is a
module-level function with at least one parameter whose whole body, after
an optional docstring, is one ``return`` of a call to a package callable
(a top-level function or class of some package module, called by its bare
name) that passes every parameter through unchanged, by position, by
keyword or starred, and otherwise only constants.  Its callers can call
the callable behind it directly.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadralab").glob("*.py"))


def package_callables(sources):
    """The names of the top-level functions and classes of the sources."""
    return {d.name for source in sources for d in ast.parse(source).body
            if isinstance(d, (ast.FunctionDef, ast.ClassDef))}


def _passed_value(node):
    return node.value if isinstance(node, ast.Starred) else node


def forwarding_wrappers(source: str, callables):
    """(line, name) of each forwarding wrapper defined at the top of source."""
    found = []
    for d in ast.parse(source).body:
        if not isinstance(d, ast.FunctionDef):
            continue
        body = d.body
        if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        a = d.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        if not params or len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in callables):
            continue
        passed = [_passed_value(v) for v in (*call.args, *(k.value for k in call.keywords))]
        if (all(isinstance(v, (ast.Name, ast.Constant)) for v in passed)
                and sorted(v.id for v in passed if isinstance(v, ast.Name)) == sorted(params)):
            found.append((d.lineno, d.name))
    return found


def test_the_scan_sees_wrappers_and_non_wrappers():
    source = ("class Field:\n    pass\n\n"
              "def build(base, n, r):\n    return Field()\n\n"
              "def plain(base, r):\n    return build(base, 2, r)\n\n"
              "def documented(base, r):\n    \"\"\"Doc.\"\"\"\n    return build(r=r, n=4, base=base)\n\n"
              "def starred(*args, **kwargs):\n    return Field(*args, **kwargs)\n\n"
              "def constructor(x):\n    return Field(x)\n\n"
              "def no_parameters():\n    return build(1, 2, 3)\n\n"
              "def drops_one(base, r):\n    return build(base, 2, 3)\n\n"
              "def changes_one(base, r):\n    return build(base, 2, -r)\n\n"
              "def computes_one(base, r):\n    return build(base, len(r), r)\n\n"
              "def outside_call(base, r):\n    return sorted(base, r)\n\n"
              "def two_statements(base, r):\n    r = base\n    return build(base, 2, r)\n")
    assert forwarding_wrappers(source, package_callables([source])) == [
        (7, "plain"), (10, "documented"), (14, "starred"), (17, "constructor")]


@pytest.fixture(scope="module")
def callables():
    return package_callables(path.read_text() for path in PACKAGE)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_forwarding_wrappers(path, callables):
    assert forwarding_wrappers(path.read_text(), callables) == []

"""The quotient tower eliminates each degree in one routine.

A stdlib-``ast`` scan over the package: a function reads a degree's image
rows when its own body (not a nested function's) calls ``_image_rows``,
as a method (``self._image_rows``) or as a bare name.  Only
``graded.QuotientTower._echelon`` may: it inserts the rows in the tower's
one row order, untracked for ``_extend`` and tracked for ``certificate``,
so a second elimination order cannot come back without this test failing.
"""

import ast

from test_one_reduction_loop import PACKAGE, callers


def image_row_readers(source: str, module: str):
    """Qualified names (module.Class.function) of the functions of source that call _image_rows."""
    return callers(ast.parse(source), module, lambda func: (
        (isinstance(func, ast.Attribute) and func.attr == "_image_rows")
        or (isinstance(func, ast.Name) and func.id == "_image_rows")))


def test_the_scan_sees_every_image_row_reader():
    source = ("def _image_rows(n):\n    yield n\n\n"
              "def bare(n):\n    return list(_image_rows(n))\n\n"
              "def named_only(n):\n    return _image_rows\n\n"
              "class Tower:\n"
              "    def _echelon(self, n):\n        return sorted(self._image_rows(n))\n\n"
              "    def certificate(self, n):\n"
              "        def rows():\n            return self._image_rows(n)\n"
              "        return rows\n")
    assert image_row_readers(source, "m") == ["m.bare", "m.Tower._echelon",
                                              "m.Tower.certificate.rows"]


def test_one_function_reads_the_image_rows():
    found = [name for path in PACKAGE for name in image_row_readers(path.read_text(), path.stem)]
    assert found == ["graded.QuotientTower._echelon"]

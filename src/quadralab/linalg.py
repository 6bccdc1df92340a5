"""Exact linear algebra over arbitrary scalar fields.

Rows are sparse (dict column -> scalar) and the code is generic: any scalar
with +, -, *, /, bool works (Q(i), rational functions, root adjunctions,
prime fields; prime-field elements hold Python integers, so no modulus can
overflow).  Rows are kept in echelon form with the pivot at the leading
(smallest) column, normalized to 1, so reduction against the basis scans
columns left to right and never reintroduces a pivot column.  Pivot choice
is therefore "lex-first", which makes normal forms canonical.

``SparseEchelon`` is the one elimination kernel: relation spaces, the
quotient tower, Macaulay slices and the 4x4 inverses all use it.
``back_substitute`` brings an untracked echelon to reduced form in one
pass (the quotient tower reads its multiplication maps off the reduced
rows); it refuses a tracked echelon, whose certificate combos it would not
update.
"""

from __future__ import annotations

import heapq


class SparseEchelon:
    """An online echelon basis over any exact field.

    ``insert`` reduces an incoming row and either absorbs it (returns the
    new pivot column) or reports linear dependence (returns None).  With
    ``track=True`` every stored row remembers its expression in terms of
    the inserted source rows, which yields membership certificates.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self.rows = []        # list[dict[int, scalar]], leading col normalized to 1
        self.pivot_of = {}    # column -> row index
        self.combos = []      # parallel to rows when track=True

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.pivot_of)

    def _reduce(self, vec, combo=None):
        """Destructively reduce vec (a dict) against the basis."""
        heap = list(vec.keys())
        heapq.heapify(heap)
        seen = set()
        while heap:
            col = heapq.heappop(heap)
            if col in seen:
                continue
            seen.add(col)
            coeff = vec.get(col)
            if coeff is None or not coeff:
                vec.pop(col, None)
                continue
            ridx = self.pivot_of.get(col)
            if ridx is None:
                continue
            row = self.rows[ridx]
            del vec[col]
            neg = -coeff
            for c, v in row.items():
                if c == col:
                    continue
                s = vec.get(c)
                s = neg * v if s is None else s + neg * v
                if s:
                    vec[c] = s
                    if c not in seen:
                        heapq.heappush(heap, c)
                else:
                    vec.pop(c, None)
            if combo is not None:
                for k, v in self.combos[ridx].items():
                    s = combo.get(k)
                    s = neg * v if s is None else s + neg * v
                    if s:
                        combo[k] = s
                    else:
                        combo.pop(k, None)
        return vec

    def reduce(self, vec):
        """Residual of vec modulo the row space (vec is not modified)."""
        return self._reduce(dict(vec))

    def reduce_with_combo(self, vec):
        """(residual, combo) with vec = residual + sum(combo[k] * source_k)."""
        if not self.track:
            raise ValueError("echelon was built without certificate tracking")
        combo = {}
        residual = self._reduce(dict(vec), combo)
        return residual, {k: -v for k, v in combo.items()}

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec, tag=None):
        """Reduce and store vec if independent; returns pivot column or None.

        With tracking, ``tag`` names vec in the combos.
        """
        combo = {} if self.track else None
        work = self._reduce(dict(vec), combo)
        if not work:
            return None
        col = min(work)
        inv = work[col].inverse()
        row = {c: v * inv for c, v in work.items()}
        if self.track:
            combo[tag] = self.field.one()
            self.combos.append({k: v * inv for k, v in combo.items()})
        self.rows.append(row)
        self.pivot_of[col] = len(self.rows) - 1
        return col

    def back_substitute(self):
        """Bring the stored rows to reduced echelon form, in place.

        Each row becomes its pivot plus the residual of the rest, so no row
        keeps an entry on another row's pivot column and the residual of a
        pivot column is minus the rest of its row.  Rows go in decreasing
        pivot order, so each reduces against rows already reduced.  Refused
        with tracking, whose combos it would not update.
        """
        if self.track:
            raise ValueError("back-substitution does not update certificate combos")
        for col in sorted(self.pivot_of, reverse=True):
            ridx = self.pivot_of[col]
            row = self.rows[ridx]
            self.rows[ridx] = {col: row[col],
                               **self._reduce({c: v for c, v in row.items() if c != col})}


# ---------------------------------------------------------------------------
# dense matrices over small scalar fields (4x4 automorphism work)
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [
        [sum_products(a[i], b, j, k) for j in range(m)]
        for i in range(n)
    ]


def sum_products(row, b, j, k):
    total = row[0] * b[0][j]
    for t in range(1, k):
        total = total + row[t] * b[t][j]
    return total


def mat_inverse(field, a):
    """Inverse from a tracked echelon of the rows; raises ValueError when singular.

    Row j of the inverse is the combination of a's rows that gives e_j.
    """
    n = len(a)
    ech = SparseEchelon(field, track=True)
    for i, row in enumerate(a):
        ech.insert({j: v for j, v in enumerate(row) if v}, tag=i)
    if ech.rank < n:
        raise ValueError("matrix is singular")
    combos = [ech.reduce_with_combo({j: field.one()})[1] for j in range(n)]
    return [[combo.get(i, field.zero()) for i in range(n)] for combo in combos]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def identity_matrix(field):
    """The 4x4 identity over field."""
    return scalar_matrix(field, field.one())


def scalar_matrix(field, c):
    """c times the 4x4 identity over field."""
    c = field.coerce(c)
    return [[c if i == j else field.zero() for j in range(4)] for i in range(4)]


def mats_equal(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def proportional_matrices(field, a, b):
    """Return s with a == s*b, or None."""
    ratio = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if bool(x) != bool(y):
                return None
            if not y:
                continue
            r = x / y
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
    return ratio

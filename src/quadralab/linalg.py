"""Exact linear algebra over arbitrary scalar fields.

Rows are sparse (dict column -> scalar) and the code is generic: any scalar
with +, -, *, /, bool works (Q(i), rational functions, root adjunctions).
Over a prime field F_p the values are plain ints, as ``PrimeField`` holds
them, so no update allocates a field element: the kernel takes any int
representatives, and every row, residual and combo it stores or returns
holds ints in [0, p) (``residues`` brings other scalars to that form;
Python integers, so no modulus can overflow).

Rows are kept in echelon form with the pivot at the leading (smallest)
column, normalized to 1, so reduction against the basis scans columns left
to right and never reintroduces a pivot column.  Pivot choice is therefore
"lex-first", which makes normal forms canonical.

Reduction is lazy: a row update neither tests for zero nor, over F_p,
takes a remainder.  A column's value is settled when the column is popped
(taken mod p once, dropped if it is zero), and every column of the vector
is popped exactly once, so what the kernel returns is canonical.

``SparseEchelon`` is the one elimination kernel: relation spaces, the
quotient tower and Macaulay slices all use it.
``back_substitute`` brings an untracked echelon to reduced form in one
pass (the quotient tower reads its multiplication maps off the reduced
rows with ``pivot_residual``); it refuses a tracked echelon, whose
certificate combos it would not update.
"""

from __future__ import annotations

import heapq

from .scalars import PrimeField


def residues(field, vec):
    """vec as ``SparseEchelon`` holds it over field.

    Over F_p each value goes through ``field.coerce`` and the zeros are
    dropped, leaving nonzero ints in [0, p).  Over any other field vec is
    returned as it is.
    """
    if not isinstance(field, PrimeField):
        return vec
    coerce = field.coerce
    return {k: r for k, v in vec.items() if (r := coerce(v))}


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
        self.p = field.p if isinstance(field, PrimeField) else None
        self.rows = []        # list[dict[int, scalar]], leading col normalized to 1
        self.pivot_of = {}    # column -> row index
        self.combos = []      # parallel to rows when track=True

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.pivot_of)

    def _reduce(self, vec, combo=None):
        """Destructively reduce vec (a dict) against the basis.

        A row's columns lie right of its pivot, so a popped column never
        comes back: each column enters the heap once, when it enters vec,
        and its value is settled when it leaves the heap.  combo values
        are left unreduced.
        """
        p = self.p
        rows, pivot_of = self.rows, self.pivot_of
        heap = list(vec)
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            coeff = vec[col] % p if p else vec[col]
            if not coeff:
                del vec[col]
                continue
            ridx = pivot_of.get(col)
            if ridx is None:
                vec[col] = coeff
                continue
            del vec[col]
            neg = -coeff
            for c, v in rows[ridx].items():
                if c == col:
                    continue
                s = vec.get(c)
                if s is None:
                    vec[c] = neg * v
                    heapq.heappush(heap, c)
                else:
                    vec[c] = s + neg * v
            if combo is not None:
                for k, v in self.combos[ridx].items():
                    s = combo.get(k)
                    combo[k] = neg * v if s is None else s + neg * v
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
        return residual, _negated(combo, self.p)

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
        p = self.p
        inv = pow(work[col], -1, p) if p else work[col].inverse()
        if self.track:
            combo[tag] = self.field.one()
            self.combos.append(_scaled(combo, inv, p))
        self.rows.append(_scaled(work, inv, p))
        self.pivot_of[col] = len(self.rows) - 1
        return col

    def back_substitute(self):
        """Bring the stored rows to reduced echelon form, in place.

        Each row becomes its pivot plus the residual of the rest, so no row
        keeps an entry on another row's pivot column and the residual of a
        pivot column is minus the rest of its row (``pivot_residual``).
        Rows go in decreasing pivot order, so each reduces against rows
        already reduced.  Refused with tracking, whose combos it would not
        update.
        """
        if self.track:
            raise ValueError("back-substitution does not update certificate combos")
        for col in sorted(self.pivot_of, reverse=True):
            ridx = self.pivot_of[col]
            row = self.rows[ridx]
            self.rows[ridx] = {col: row[col],
                               **self._reduce({c: v for c, v in row.items() if c != col})}

    def pivot_residual(self, col):
        """The residual of the unit vector at pivot column col, once back-substituted.

        That is minus the rest of col's row, read off without a reduction.
        """
        rest = dict(self.rows[self.pivot_of[col]])
        del rest[col]
        return _negated(rest, self.p)


def _scaled(vec, c, p):
    """c * vec without its zeros; over F_p (p not None) as residues."""
    if p:
        return {k: r for k, v in vec.items() if (r := v * c % p)}
    return {k: v * c for k, v in vec.items() if v}


def _negated(vec, p):
    """-vec without its zeros; over F_p (p not None) as residues."""
    if p:
        return {k: r for k, v in vec.items() if (r := -v % p)}
    return {k: -v for k, v in vec.items() if v}


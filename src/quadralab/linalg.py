"""Exact linear algebra over arbitrary scalar fields.

Rows are sparse (dict column -> scalar) and the code is generic: any scalar
with +, -, *, /, bool works (Q(i), rational functions, root adjunctions).
Over a prime field F_p the values are plain ints, as ``PrimeField`` holds
them, so no update allocates a field element: the kernel takes any int
representatives, and every row, residual and combo it stores or returns
holds ints in [0, p) (Python integers, so no modulus can overflow).

Rows are kept in echelon form with the pivot at the leading (smallest)
column, normalized to 1.  A stored row holds only the entries right of its
pivot; the pivot's 1 is implied by ``pivot_of``, so a row update needs no
column to leave out.  Reduction against the basis scans columns left to
right and never reintroduces a pivot column.  Pivot choice is therefore
"lex-first", which makes normal forms canonical.

Reduction is lazy: a row update (``add_multiple``) neither tests for zero
nor, over F_p, takes a remainder.  Over Q(i) the kernel holds no
``GaussianRational``: its rows, its tracked combos and the values under
elimination are (x, y, d) int triples, (x + y*i)/d with d > 0
(``add_multiple_qi``).  A stored triple is reduced, gcd(x, y, d) = 1;
under elimination a product is not reduced, and a sum is taken over the
lcm of the two denominators and divided by its gcd only when that lcm is
larger than both.  One reduction loop (``_reduce``) serves every field,
and a column's value is settled when the column is popped (over F_p taken
mod p, over Q(i) divided by one gcd, over any other field coerced into
it; dropped if it is zero), the one step of the loop that depends on the
field.  Every column of the vector is popped exactly once, so what the
kernel stores is canonical.  The pivot inverse and the row scaling in
``insert`` are taken on triples too.  Values leave the kernel as
``GaussianRational``s only at ``reduce`` and ``reduce_with_combo``, which
convert their results once (``public``), and at ``settled``;
``pivot_residual`` and ``held_combo`` hand out triples.

``kernel_form`` picks a field's row update and its one and minus one in
that form, for the echelon and the quotient tower alike.  For both Q(i)
and F_p ``unsettled`` is the way into the kernel's form and ``settled``
the way out; the quotient tower builds, reads and certifies between the
two.

``SparseEchelon`` is the one elimination kernel: relation spaces, the
quotient tower and Macaulay slices all use it.
``back_substitute`` brings an untracked echelon to reduced form in one
pass (the quotient tower reads its multiplication maps off the reduced
rows with ``pivot_residual``); it refuses a tracked echelon, whose
certificate combos it would not update.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

from .scalars import GaussianRational, PrimeField, RationalField, _inverse, _qi, _reduced, _triple


def unsettled(field, vec):
    """vec in the form the kernel holds and sums it in over field, its zeros dropped.

    Over F_p each value goes through ``field.coerce`` into [0, p); over
    Q(i) each value, or each summed triple, becomes a reduced (x, y, d)
    triple, as ``add_multiple_qi`` and ``settled`` read it.
    """
    coerce = field.coerce
    if isinstance(field, PrimeField):
        return {k: r for k, v in vec.items() if (r := coerce(v))}
    out = {}
    for k, v in vec.items():
        x, y, d = v if type(v) is tuple else ((z := coerce(v)).x, z.y, z.d)
        if x or y:
            out[k] = _triple(x, y, d)
    return out


def settled(field, vec):
    """An accumulated vec in canonical form, its zeros dropped.

    Over F_p each int is taken mod p; over Q(i) each triple is divided by
    one gcd into a ``GaussianRational`` in normal form.
    """
    if isinstance(field, PrimeField):
        p = field.p
        return {k: r for k, v in vec.items() if (r := v % p)}
    return {k: _reduced(x, y, d) for k, (x, y, d) in vec.items() if x or y}


def kernel_form(field):
    """(row update, one, minus one) as the kernel holds and sums field's values.

    Over Q(i) ``add_multiple_qi`` on (x, y, d) triples; over F_p and any
    other field ``add_multiple`` on the field's own values (plain ints over
    F_p).
    """
    if isinstance(field, RationalField):
        return add_multiple_qi, (1, 0, 1), (-1, 0, 1)
    one = field.one()
    return add_multiple, one, -one


class SparseEchelon:
    """An online echelon basis over any exact field.

    ``insert`` reduces an incoming row and either absorbs it (returns the
    new pivot column) or reports linear dependence (returns None).  With
    ``track=True`` every stored row remembers its expression in terms of
    the inserted source rows, which yields membership certificates.  Over
    Q(i) rows and combos hold reduced (x, y, d) triples.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self.p = field.p if isinstance(field, PrimeField) else None
        self.qi = isinstance(field, RationalField)
        self._add, self.one, self.minus_one = kernel_form(field)
        self.rows = []        # list[dict[int, scalar]], the entries right of each pivot
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
        and its value is settled when it leaves the heap, the one step that
        depends on the field: over F_p taken mod p; over Q(i) a nonzero
        triple divided by one gcd (kept as it is when it needs none); over
        any other field coerced into the field, so a residual and a pivot
        hold the field's own values whatever vec held.  A zero is dropped.
        Over Q(i) vec's values are ``GaussianRational``s, triples or
        anything the field coerces, and become triples first; while a
        column is in the heap its triple (x + y*i)/d, d > 0, need not be
        reduced (``add_multiple_qi`` says when an update reduces it).  combo
        values are left unreduced, for ``_scaled`` to settle.
        """
        rows, pivot_of, combos = self.rows, self.pivot_of, self.combos
        add, p, qi = self._add, self.p, self.qi
        if qi:
            for c, v in vec.items():
                if type(v) is not tuple:
                    if type(v) is not GaussianRational:
                        v = self.field.coerce(v)
                    vec[c] = (v.x, v.y, v.d)
        heap = list(vec)
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            v = vec[col]
            if p:
                v %= p
            elif qi:
                x, y, d = v
                if not (x or y):
                    v = 0
                elif d != 1 and (g := gcd(x, y, d)) != 1:
                    x, y, d = v = x // g, y // g, d // g
            else:
                v = self.field.coerce(v)
            if not v:
                del vec[col]
                continue
            ridx = pivot_of.get(col)
            if ridx is None:
                vec[col] = v
                continue
            del vec[col]
            neg = (-x, -y, d) if qi else -v
            add(vec, heap, neg, rows[ridx])
            if combo is not None:
                add(combo, None, neg, combos[ridx])
        return vec

    def public(self, vec):
        """A held vec as ``reduce`` returns it: over Q(i) as ``GaussianRational``s, no gcd."""
        return {k: _qi(*t) for k, t in vec.items()} if self.qi else vec

    def reduce(self, vec):
        """Residual of vec modulo the row space (vec is not modified)."""
        return self.public(self._reduce(dict(vec)))

    def held_combo(self, vec):
        """``reduce_with_combo``'s pair as the kernel holds it, before ``public``."""
        if not self.track:
            raise ValueError("echelon was built without certificate tracking")
        combo = {}
        residual = self._reduce(dict(vec), combo)
        return residual, _scaled(combo, self.minus_one, self.p)

    def reduce_with_combo(self, vec):
        """(residual, combo) with vec = residual + sum(combo[k] * source_k)."""
        residual, combo = self.held_combo(vec)
        return self.public(residual), self.public(combo)

    def contains(self, vec) -> bool:
        return not self._reduce(dict(vec))

    def insert(self, vec, tag=None):
        """Reduce and store vec if independent; returns pivot column or None.

        The stored row is the rest of the reduced vec, scaled by the
        inverse of its popped pivot.  With tracking, ``tag`` names vec in
        the combos.
        """
        combo = {} if self.track else None
        work = self._reduce(dict(vec), combo)
        if not work:
            return None
        col = min(work)
        p, pivot = self.p, work.pop(col)
        inv = pow(pivot, -1, p) if p else _inverse(*pivot) if self.qi else pivot.inverse()
        if self.track:
            combo[tag] = self.one
            self.combos.append(_scaled(combo, inv, p))
        self.rows.append(_scaled(work, inv, p))
        self.pivot_of[col] = len(self.rows) - 1
        return col

    def back_substitute(self):
        """Bring the stored rows to reduced echelon form, in place.

        Each row becomes its residual, so no row keeps an entry on another
        row's pivot column and the residual of a pivot column is minus its
        row (``pivot_residual``).  Rows go in decreasing pivot order, so
        each reduces against rows already reduced.  Refused with tracking,
        whose combos it would not update.
        """
        if self.track:
            raise ValueError("back-substitution does not update certificate combos")
        for col in sorted(self.pivot_of, reverse=True):
            r = self.pivot_of[col]
            self.rows[r] = self._reduce(dict(self.rows[r]))

    def pivot_residual(self, col):
        """The residual of the unit vector at pivot column col, once back-substituted.

        That is minus col's stored row, read off without a reduction; over
        Q(i) as reduced triples.
        """
        return _scaled(self.rows[self.pivot_of[col]], self.minus_one, self.p)


def add_multiple(acc, heap, coeff, row):
    """acc += coeff * row with the field's own + and *.

    Nothing is tested for zero, and over F_p nothing is taken mod p: the
    ints stay unreduced until their reader settles them.  A column new to
    acc is pushed on heap, if one is given.
    """
    for c, v in row.items():
        s = acc.get(c)
        if s is None:
            acc[c] = coeff * v
            if heap is not None:
                heapq.heappush(heap, c)
        else:
            acc[c] = s + coeff * v


def add_multiple_qi(acc, heap, coeff, row):
    """``add_multiple`` over Q(i), on (x, y, d) int triples.

    coeff, row's values and acc's values are triples (x + y*i)/d with
    d > 0, not necessarily reduced.  A product is not
    reduced, and each sum is taken over the lcm of the two denominators.
    Only when that lcm is larger than both is the sum divided by its gcd,
    which keeps the denominators near their reduced size: left to grow,
    their mean reaches about five times the bits of the settled ones at
    degree 7 of the Sklyanin tower, and the lcms then cost more than the
    gcds they replace.
    """
    x, y, d = coeff
    for c, (a, b, e) in row.items():
        px, py, pd = x * a - y * b, x * b + y * a, d * e
        s = acc.get(c)
        if s is None:
            acc[c] = (px, py, pd)
            if heap is not None:
                heapq.heappush(heap, c)
        else:
            sx, sy, sd = s
            if sd == pd:
                acc[c] = (sx + px, sy + py, pd)
            else:
                m = lcm(sd, pd)
                u, w = m // sd, m // pd
                sx, sy = sx * u + px * w, sy * u + py * w
                if m != sd and m != pd:
                    g = gcd(sx, sy, m)
                    if g != 1:
                        sx, sy, m = sx // g, sy // g, m // g
                acc[c] = (sx, sy, m)


def _scaled(vec, c, p):
    """c * vec without its zeros.

    Over F_p (p not None) as residues; over Q(i) (c a triple) as reduced
    triples.
    """
    if p:
        return {k: r for k, v in vec.items() if (r := v * c % p)}
    if type(c) is tuple:
        x, y, d = c
        return {k: _triple(x * a - y * b, x * b + y * a, d * e)
                for k, (a, b, e) in vec.items() if a or b}
    return {k: v * c for k, v in vec.items() if v}

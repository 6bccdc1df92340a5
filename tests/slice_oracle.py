"""The ideal slices of (R), built directly: a test oracle for the quotient tower.

The degree-n slice of (R) is spanned by the rows w * r * w' with
|w| + |w'| = n - 2, built as

    W_n = V (x) W_{n-1}  +  R (x) V^{(n-2)}

and dim A_n = 4^n - rank W_n.  The first summand contributes four disjoint
column blocks (one per leading letter) that are already in echelon form,
so inserting them reduces nothing; only the 6*4^(n-2) relation rows need
actual reduction.  Pivots are lex-first, so the non-pivot columns are the
normal words and ``reduce`` gives normal forms.
"""

from quadralab.freealg import NGENS
from quadralab.linalg import SparseEchelon


class ExactSlices:
    """Sparse echelon bases of the ideal slices over the relations' field."""

    def __init__(self, space):
        self.space = space
        self._cache = {}

    def slice(self, n: int) -> SparseEchelon:
        if n < 2:
            raise ValueError("ideal slices start at degree 2")
        if n not in self._cache:
            self._cache[n] = self._build(n)
        return self._cache[n]

    def _build(self, n: int) -> SparseEchelon:
        ech = SparseEchelon(self.space.field)
        if n == 2:
            for row in self.space.rows:
                ech.insert(row)
            return ech
        prev = self.slice(n - 1)
        width = NGENS ** (n - 1)
        # x_g (x) W_{n-1}: shifted copies of the previous echelon rows, each
        # with its pivot's 1 put back (a stored row holds only the rest)
        one = self.space.field.one()
        rows = [{col: one, **prev.rows[ridx]} for col, ridx in sorted(prev.pivot_of.items())]
        for g in range(NGENS):
            base = g * width
            for row in rows:
                ech.insert({base + c: v for c, v in row.items()})
        # R (x) V^{(n-2)}: the only rows that need honest reduction
        suffix_count = NGENS ** (n - 2)
        for rel in self.space.rows:
            for suffix in range(suffix_count):
                ech.insert({c * suffix_count + suffix: v for c, v in rel.items()})
        return ech

    def rank(self, n: int) -> int:
        return self.slice(n).rank

"""Exact linear algebra over arbitrary scalar fields.

Rows are sparse (dict column -> scalar) and the code is generic: any scalar
with +, -, *, /, bool works (Q(i), rational functions, root adjunctions,
prime fields; prime-field elements hold Python integers, so no modulus can
overflow).  Rows are kept in echelon form with the pivot at the leading
(smallest) column, normalized to 1, so reduction against the basis scans
columns left to right and never reintroduces a pivot column.  Pivot choice
is therefore "lex-first", which makes normal forms canonical.
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
            for c, v in row.items():
                if c == col:
                    continue
                s = vec.get(c)
                s = -coeff * v if s is None else s - coeff * v
                if s:
                    vec[c] = s
                    if c not in seen:
                        heapq.heappush(heap, c)
                else:
                    vec.pop(c, None)
            if combo is not None:
                for k, v in self.combos[ridx].items():
                    s = combo.get(k)
                    s = -coeff * v if s is None else s - coeff * v
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


class PolyRowEchelon:
    """Cross-multiplied echelon for function-field rows.

    Dividing by pivots over a multivariate function field piles up huge
    unreduced fractions, so instead rows are stored with polynomial
    entries and unnormalized pivots, and elimination uses

        vec <- pivot_coeff * vec - vec_coeff * pivot_row

    which never divides.  The reduced vector is therefore a known
    multiple, scale * residual, of the true one; ``contains`` only needs
    to know whether it is zero, and ``reduce`` divides the scale out of
    a nonzero residual, so both echelons return the same residuals.  Rows
    are stripped of their monomial and rational content after every
    combination to keep growth down.
    """

    #: pool members larger than this are useless as strip candidates
    POOL_TERM_LIMIT = 12

    def __init__(self, field):
        self.field = field            # FunctionField
        self.ring = field.ring
        self.rows = []                # dict[int, MultiPoly]
        self.pivot_of = {}
        self.factor_pool = []         # small polys that keep showing up as content
        self._pool_keys = set()

    def _pool_add(self, poly):
        if poly.degree() < 1 or len(poly.terms) > self.POOL_TERM_LIMIT:
            return
        _, lc = poly.leading()
        normalized = poly.scale(lc.inverse())
        if normalized not in self._pool_keys:
            self._pool_keys.add(normalized)
            self.factor_pool.append(normalized)
            self.factor_pool.sort(key=lambda f: (f.degree(), len(f.terms)))

    def _strip_pool(self, vec, stripped):
        """Divide out pool factors and scalar/monomial content, recording them."""
        from fractions import Fraction
        from math import gcd

        from .poly import monomial_content, shift_down

        changed = True
        while changed and vec:
            changed = False
            for q in self.factor_pool:
                quo = self._try_divide_row(vec, q)
                if quo is not None:
                    vec = quo
                    stripped.append(q)
                    changed = True
        if not vec:
            return vec
        # monomial content
        mins = None
        for v in vec.values():
            m = monomial_content(v)
            mins = m if mins is None else tuple(min(x, y) for x, y in zip(mins, m))
        if any(mins):
            vec = {c: shift_down(v, mins) for c, v in vec.items()}
            stripped.append(self.ring.monomial(mins))
        # rational content
        num_gcd, den_lcm = 0, 1
        for v in vec.values():
            for coeff in v.terms.values():
                for part in (coeff.re, coeff.im):
                    if part:
                        num_gcd = gcd(num_gcd, abs(part.numerator))
                        den_lcm = den_lcm * part.denominator // gcd(den_lcm, part.denominator)
        if num_gcd and (num_gcd != 1 or den_lcm != 1):
            content = Fraction(num_gcd, den_lcm)
            vec = {c: v.scale(Fraction(1) / content) for c, v in vec.items()}
            stripped.append(self.ring.constant(content))
        return vec

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.pivot_of)

    @staticmethod
    def _try_divide_row(vec, q):
        """Entrywise exact quotient vec/q, or None if any entry fails."""
        if q.degree() <= 0:
            return None
        out = {}
        for c, v in vec.items():
            quo = v.divide_exact(q)
            if quo is None:
                return None
            out[c] = quo
        return out

    def _clear_denominators(self, vec):
        """(poly row, common denominator): row == den * vec entrywise.

        Denominators repeat heavily across a row, so the common multiple
        is grown by exact-division probes rather than a blind product.
        """
        fractions = {}
        for c, v in vec.items():
            v = self.field.coerce(v)
            if v.num:
                fractions[c] = v
        den_total = self.ring.one()
        for v in fractions.values():
            den = v.den
            if den.degree() <= 0:
                continue
            if den_total.divide_exact(den) is None:
                den_total = den_total * den
        out = {}
        for c, v in fractions.items():
            # every entry's denominator divides den_total by construction
            q = den_total.divide_exact(v.den)
            out[c] = v.num * q
        return out, den_total

    def _reduce_poly(self, vec):
        """Reduce a polynomial-entry dict via cross multiplication.

        Returns (residual, multiplied, stripped): lists of polynomial
        factors with

            (prod multiplied) * input == (prod stripped) * residual

        modulo the row space.  Each elimination step multiplies the whole
        row by a pivot polynomial; the spurious content this creates is a
        product of small factors seen earlier (typically the original
        relation coefficients), so after every step the row is
        test-divided against the factor pool and its content recorded.
        """
        multiplied = []
        stripped = []
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
            p = row[col]
            del vec[col]
            if p.degree() > 0 or p.constant_term() != 1:
                for c in list(vec):
                    vec[c] = vec[c] * p
                multiplied.append(p)
            for c, v in row.items():
                if c == col:
                    continue
                s = vec.get(c)
                s = -coeff * v if s is None else s - coeff * v
                if s:
                    vec[c] = s
                    if c not in seen:
                        heapq.heappush(heap, c)
                else:
                    vec.pop(c, None)
            # stripping after every step is wasteful; wait for real growth
            if vec and any(len(v.terms) > 8 for v in vec.values()):
                vec = self._strip_pool(vec, stripped)
        if vec:
            vec = self._strip_pool(vec, stripped)
        return vec, multiplied, stripped

    def reduce(self, vec):
        """Residual of vec modulo the row space, on the non-pivot columns.

        The polynomial residual is scale * vec modulo the row space, where
        scale is the common denominator times the cross-multiplication
        factors, divided by everything stripped as content along the way.
        """
        from .poly import RationalFunction

        work, den_total = self._clear_denominators(vec)
        residual, multiplied, stripped = self._reduce_poly(work)
        if not residual:
            return residual
        num = self.ring.one()
        for f in stripped:
            num = num * f
        den = den_total
        for f in multiplied:
            den = den * f
        return {c: RationalFunction(num * v, den) for c, v in residual.items()}

    def contains(self, vec) -> bool:
        work, _ = self._clear_denominators(vec)
        return not self._reduce_poly(work)[0]

    def insert(self, vec):
        work, _ = self._clear_denominators(vec)
        for v in work.values():
            self._pool_add(v)
        work, _, _ = self._reduce_poly(work)
        if not work:
            return None
        work = self._strip_pool(work, [])
        for v in work.values():
            self._pool_add(v)
        col = min(work)
        self.rows.append(work)
        self.pivot_of[col] = len(self.rows) - 1
        return col


def make_echelon(field):
    """Echelon implementation suited to the scalar field.

    Function fields get the cross-multiplied polynomial-row variant; every
    other exact field divides by pivots directly.
    """
    from .poly import FunctionField

    if isinstance(field, FunctionField):
        return PolyRowEchelon(field)
    return SparseEchelon(field)


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
    """Gauss-Jordan inverse; raises ValueError when singular."""
    n = len(a)
    aug = [list(row) + [field.one() if i == j else field.zero() for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col or not aug[r][col]:
                continue
            f = aug[r][col]
            aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def identity_matrix(field, n=4):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def scalar_matrix(field, c, n=4):
    c = field.coerce(c)
    return [[c if i == j else field.zero() for j in range(n)] for i in range(n)]


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

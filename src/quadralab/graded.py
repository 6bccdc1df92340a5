"""Degree-truncated computation in the quotient A = TV/(R).

Everything comes from the quotient side.  The ideal satisfies
(R)_n = (R)_{n-1} (x) V + V^{(n-2)} (x) R, so

    A_n = (A_{n-1} (x) V) / image(A_{n-2} (x) R)

where a relation sum c_ab x_a x_b sends a basis element e of A_{n-2} to
sum c_ab mu_a(e) (x) x_b, and mu_a : A_{n-1} -> A_n, right multiplication
by x_a, is known from the degree below.  Each degree eliminates the rows
e * r against 4*d_{n-1} columns with the generic sparse echelon, over the
relation space's own field (backend "exact") or over F_p for a prime
p = 1 (mod 4) (backend "modular"); its free columns give the basis of A_n,
so a dimension needs no more.  Degree 2 eliminates the six given
relations.  From degree 3 on, r runs over the reduced relations
x_a x_b - NF(x_a x_b), one per non-normal quadratic word, that degree 2's
back-substituted echelon holds (the degree-2 reduction system of
Bergman's diamond lemma): at most three terms each for A(alpha, beta,
gamma) instead of four, with coefficient 1 on x_a x_b.  They span the same
R, and the rows are linear in r, so each degree's row space is the one the
given relations span.  The rows go in by decreasing leading column, which
stores a third to a half of the entries that generation order does
(``_extend`` gives counts).  Neither the relation basis nor the order can
change the basis or mu, since the lex-first pivots and the reduced rows
depend only on the row space.  The certificate-tracked copy of the rows
is built from the given relations in generation order, so that a
certificate names ``space.elements``.  The mu_a of degree n are read only
when something asks for them (degree n + 1, a class or a normal form in
degree n): the echelon is then back-substituted once, and mu_a read off
the reduced rows (a pivot column's class in A_n is minus its row, which
the kernel stores without the pivot).  So a Hilbert prefix never
back-substitutes its top degree.
The tower holds its values as the kernel does, over F_p plain ints in
[0, p) (Python integers, so nothing overflows) and over Q(i) reduced
(x, y, d) int triples, and one code path serves both fields: the
relations are converted once (``linalg.unsettled``), the image rows are
summed from mu's values by the kernel's own row update for the field
(``linalg.kernel_form``) and reach the kernel unreduced, which settles
each value, and drops it if it is zero, once, when its column comes up
in the elimination; mu is read off the kernel's rows (``pivot_residual``)
in the same form, so building the tower over Q(i) makes no
``GaussianRational`` product or sum.
Pivots are lex-first and the lex order is multiplicative within a degree,
so the basis words of A_n are exactly the normal words of the ideal slices.
Over Q a rank mod p can only drop, so modular dimensions are upper bounds
for the exact ones and are labeled as evidence, not proof.

An element's class in A_n composes the mu maps along its words, and is
read breadth-first, one degree at a time (``_classes``): the words are
grouped once by the suffix after their first letter, and degree d's mu
carries each group's class in A_{d-1}, through the suffix's next letter,
into the class in A_d of the group whose suffix is one letter shorter.
Level n holds the class in A_n (suffix ``()``), which membership, normal
forms and centrality read; level n - 1, where the suffixes are single
letters x_b, holds the image in A_{n-1} (x) V (class k fills column
k * 4 + b).  Each word is sliced once and each group's class carried
once per degree, one row update per coordinate.  The read side, like the
write side, keeps its values unsettled, as the kernel does: over Q(i)
(x, y, d) int triples summed by ``linalg.add_multiple_qi``, over F_p
unreduced ints.  Each coordinate of a class is settled once, with one gcd
or one ``% p`` (``linalg.settled``), and an image goes to the kernel
unsettled, which settles each column as it pops it; so at A(2,-3,-1/5) a
30-word degree-5 normal form makes no ``GaussianRational`` product or
sum.  Certificates use (R)_n = (R)_{n-1} V + N_{n-2} R, N the span of the
normal words: the degree-n rows account for f's image in A_{n-1} (x) V,
and what is left is certified one degree down, each piece grouped by its
last letter as the read groups by suffix, all on the tracked kernel's own
values (``held_combo``) and settled between letter steps by
``unsettled``.

Over a function field F = Q(i)(params) the recursion is too slow to build
(its degree-3 elimination over Q(i)(a,b,c,d) ran for minutes), so ``tower``
refuses, and no elimination above degree two runs over F.  Degree 2 reads
the relation space's own echelon.  From degree 3 on, ``ParametricSlices``
decides membership by polynomial certificates over Q(i), checked by
re-expansion, and certifies dimensions and non-membership by the generic
rank: the rank at a fixed Q(i) point, matched by syzygies that stay
independent there.  Normal forms above degree two are not computed over F.
"""

from __future__ import annotations

import os
from itertools import product

from .errors import DegreeCapExceeded, InvalidInput, NotInvertible, PreconditionViolated
from .freealg import NGENS, FreeElement, commutator, from_vector, generators, index_word, word_index
from .linalg import SparseEchelon, kernel_form, settled, unsettled
from .poly import FunctionField, MacaulaySlice, RationalFunction
from .presentations import RelationSpace
from .scalars import GaussianRational, PrimeField, DEFAULT_PRIME, QQi, RationalField, gaussian

DEFAULT_DEGREE_CAP = 7
#: the Q(i) point at which function-field quotients are specialised, one
#: coordinate per parameter in the ring's order
SPECIALIZATION_POINT = (2, 3, 5, 7, 11, 13)
#: the syzygy search stops this many parameter degrees above the relations
SYZYGY_DEGREE_CEILING = 3
ENV_DEGREE_CAP = "QUADRALAB_DEGREE_CAP"


def degree_cap() -> int:
    value = os.environ.get(ENV_DEGREE_CAP)
    if value is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise InvalidInput(f"{ENV_DEGREE_CAP} must be a non-negative integer, "
                           f"got {value!r}")
    return cap


def _check_cap(n: int, force=False):
    cap = degree_cap()
    if n > cap and not force:
        raise DegreeCapExceeded(n, cap)


class QuotientTower:
    """The graded pieces A_n over one field, built one degree at a time.

    ``words[n]`` holds the lex ranks of the basis words of A_n, increasing;
    ``mu(n)[j][i]`` is e_i * x_j as a sparse dict over the basis of A_n,
    where e_i is the i-th basis element of A_{n-1}.  Building degree n
    eliminates its rows and reads ``words[n]`` off the pivots; its echelon
    stays unreduced until ``mu(n)`` is first asked for.  It is then
    back-substituted once, so e_i * x_j on a pivot column is read off its
    reduced row, with no reduction per column.  At most the top degree is
    left unfinished.  ``rows`` and mu hold their values as the kernel does,
    reduced triples over Q(i) and residues over F_p; ``linalg.settled``
    gives their canonical form.
    """

    def __init__(self, field, rows):
        if not isinstance(field, (PrimeField, RationalField)):
            raise PreconditionViolated("the quotient tower is built over Q(i) or F_p only")
        self.field = field
        self._add, self.one, _ = kernel_form(field)
        # the relations (column a*4+b -> coefficient of x_a x_b) and their negatives
        self.rows = [unsettled(field, row) for row in rows]
        self._minus_rows = [unsettled(field, {c: -v for c, v in row.items()}) for row in rows]
        self.words = [[0], list(range(NGENS))]
        self._mu = [None, [[{j: self.one}] for j in range(NGENS)]]
        self._open = None         # the top degree's echelon while its mu is unread
        self._reduced = None      # x_a x_b - NF(x_a x_b), kept when degree 2 is finished
        self._tracked = {}        # degree -> the degree's rows, certificate-tracked

    def dimension(self, n: int) -> int:
        while len(self.words) <= n:
            self._extend()
        return len(self.words[n])

    def mu(self, n: int):
        """The maps mu_j : A_{n-1} -> A_n, back-substituting degree n if it is open."""
        self.dimension(n)
        if n == len(self._mu):
            self._finish()
        return self._mu[n]

    def _image_rows(self, n: int, relations):
        """((i, relation index), row): the image of e_i * r in A_{n-1} (x) V.

        e_i runs over the basis of A_{n-2} and r over relations, each a row
        over the columns a * 4 + b of the quadratic words; column = basis
        index * 4 + letter.  Each term adds its coefficient times mu's
        entries, shifted to its letter's columns, with the kernel's row
        update.  A first term whose coefficient is the field's one, as
        each reduced relation's x_a x_b is, takes mu's entries as they are,
        so the row shares them: building each product anew took 1 MB more
        at degree 9 of A(2,-3,-1/5).  A row may keep an entry that
        cancelled to zero; the echelon drops it.
        """
        below = self.mu(n - 1)
        add, one = self._add, self.one
        rels = [[(*divmod(c, NGENS), v) for c, v in rel.items()] for rel in relations]
        for i in range(len(self.words[n - 2])):
            for r, rel in enumerate(rels):
                row = {}
                for a, b, v in rel:
                    shifted = {k * NGENS + b: w for k, w in below[a][i].items()}
                    if not row and v == one:
                        row = shifted
                    else:
                        add(row, None, v, shifted)
                yield (i, r), row

    def _extend(self):
        """Eliminate degree n's image rows and read ``words[n]`` off the pivots.

        Degree 2 eliminates the given relations.  From degree 3 on the rows
        are the images of the reduced relations that ``_finish`` kept from
        degree 2: a basis of the same R, so the row space, and with it
        ``words`` and mu, is the one the given relations span.  At
        A(2,-3,-1/5) degree 6's rows hold 2,994 entries this way against
        3,840, and the elimination makes 1,619 row updates against 2,203.
        The rows go in by decreasing leading (smallest) column, an empty row
        last, so a row meets only pivots at or right of its leading column,
        whose rows in turn met only pivots at or right of theirs.
        Generation order mixes the two ends and fills the rows in: at
        A(2,-3,-1/5) the unreduced degree-6 echelon stores 1,270 entries
        this way against 3,606, and the degree-7 one 2,374 against 8,490,
        its largest coefficient 145 bits against 206.  The order cannot
        change ``words`` or mu: the lex-first pivots depend only on the row
        space, and so does the back-substituted form that ``_finish`` reads.
        ``certificate`` eliminates the given relations in generation order,
        so its terms name ``space.elements`` and do not move.
        """
        n = len(self.words)
        prev = self.words[n - 1]
        ech = SparseEchelon(self.field)
        self.mu(n - 1)   # finishing degree 2 keeps the reduced relations
        relations = self.rows if n == 2 else self._reduced
        rows = [row for _, row in self._image_rows(n, relations)]
        rows.sort(key=lambda row: min(row, default=-1), reverse=True)
        for row in rows:
            ech.insert(row)
        self.words.append([prev[c // NGENS] * NGENS + c % NGENS
                           for c in range(NGENS * len(prev)) if c not in ech.pivot_of])
        self._open = ech

    def _finish(self):
        """Back-substitute the open top degree and read its mu off the reduced rows.

        Degree 2's reduced rows, x_a x_b - NF(x_a x_b) for each pivot
        column a * 4 + b, are kept, by pivot column, as the relations
        ``_extend`` builds the higher degrees from.  The echelon stores a
        row without its pivot, so the unit x_a x_b is put back first, as
        the term ``_image_rows`` shares.
        """
        ech, self._open = self._open, None
        ech.back_substitute()
        if len(self._mu) == 2:
            self._reduced = [{c: self.one, **ech.rows[ech.pivot_of[c]]}
                             for c in sorted(ech.pivot_of)]
        prev = self.words[len(self._mu) - 1]
        free = [c for c in range(NGENS * len(prev)) if c not in ech.pivot_of]
        index = {c: k for k, c in enumerate(free)}
        mu = [[] for _ in range(NGENS)]
        for i in range(len(prev)):
            for j in range(NGENS):
                col = i * NGENS + j
                if col in index:
                    mu[j].append({index[col]: self.one})
                else:
                    mu[j].append({index[c]: v for c, v in ech.pivot_residual(col).items()})
        self._mu.append(mu)

    def _classes(self, terms: dict, top: int) -> dict:
        """{suffix: class in A_top of the prefix} for the words prefix + suffix.

        The element is {word: value}, the prefixes have length top, and the
        classes are unsettled (degree top's mu already read).  The words are
        grouped once by the suffix after their first letter, that letter
        being its own class in A_1.  For d = 2 .. top each group's class
        goes through degree d's mu of the suffix's first letter, one row
        update per coordinate, into the group of the suffix one letter
        shorter.  At A(2,-3,-1/5) a 30-word degree-5 class makes 234 row
        updates over 715 entries.
        """
        groups = {}
        for word, v in terms.items():
            groups.setdefault(word[1:], {})[word[0]] = v
        add = self._add
        for d in range(2, top + 1):
            mu, level = self._mu[d], {}
            for suffix, cls in groups.items():
                out, row = level.setdefault(suffix[1:], {}), mu[suffix[0]]
                for k, v in cls.items():
                    add(out, None, v, row[k])
            groups = level
        return groups

    def coordinates(self, f: FreeElement, n: int) -> dict:
        """The class of the degree-n element f in A_n, over the basis words[n].

        Read breadth-first to level n (``_classes``), whose one suffix is
        ``()``; each coordinate is settled once.
        """
        self.mu(n)
        return settled(self.field, self._classes(unsettled(self.field, f.terms), n).get((), {}))

    def certificate(self, f: FreeElement, n: int):
        """f as a list of (left word, relation index, right word, coeff), or None.

        None means f is not in (R)_n.  Each degree's rows are eliminated
        once more with tracking, on the first certificate that needs them,
        built from the given relations and not the reduced ones, so that a
        term's relation index names one of ``self.rows`` and the term
        re-expands against the relation space's own elements.  f's image in
        A_{n-1} (x) V is read from level n - 1 of ``_classes``, where the
        suffixes are single letters.  Each held coefficient is converted
        once and adds its multiple of the negated relation; what is left is
        split by its last letter, grouped by suffix as ``_classes`` groups,
        into pieces certified one degree down.
        """
        self.dimension(n)
        out = []
        pending = [(unsettled(self.field, f.terms), n, ())]
        while pending:
            terms, m, right = pending.pop()
            ech = self._tracked.get(m)
            if ech is None:
                ech = self._tracked[m] = SparseEchelon(self.field, track=True)
                for tag, row in self._image_rows(m, self.rows):
                    ech.insert(row, tag=tag)
            image = {k * NGENS + b: v for (b,), cls in self._classes(terms, m - 1).items()
                     for k, v in cls.items()}
            residual, combo = ech.held_combo(image)
            if residual:
                return None  # only f itself can fail: the later pieces lie in (R)_m
            lams = ech.public(combo)
            for (i, r), lam in combo.items():
                left = index_word(self.words[m - 2][i], m - 2)
                out.append((left, r, right, lams[i, r]))
                self._add(terms, None, lam,
                          {left + divmod(c, NGENS): v for c, v in self._minus_rows[r].items()})
            # what is left has image zero, so each letter's piece lies in (R)_{m-1}
            pieces = {}
            for word, v in unsettled(self.field, terms).items():
                pieces.setdefault(word[-1:] + right, {})[word[:-1]] = v
            pending += [(piece, m - 1, suffix) for suffix, piece in pieces.items()]
        return out


def _cleared(f: FreeElement, field):
    """(f', s) with f' = s * f: MultiPoly coefficients, s a nonzero MultiPoly.

    Denominators are taken largest first and multiplied in only when they
    do not divide the product so far, so one that divides a larger one
    (bc and bcQ, say) adds no degree.
    """
    values = [field.coerce(v) for v in f.terms.values()]
    s = field.ring.one()
    for den in sorted((v.den for v in values), reverse=True,
                      key=lambda den: (den.degree(), len(den.terms))):
        if s.divide_exact(den) is None:
            s = s * den
    return FreeElement({w: v.num * s.divide_exact(v.den)
                        for w, v in zip(f.terms, values)}), s


def _parameter_degree(f: FreeElement):
    """The one total degree of f's polynomial coefficients, or None."""
    degrees = {sum(e) for v in f.terms.values() for e in v.terms}
    return degrees.pop() if len(degrees) == 1 else None


def _parts(f: FreeElement, left=(), right=()):
    """left * f * right as {(word rank, parameter exponent): Q(i) scalar}."""
    return {(word_index(left + w + right), e): c
            for w, v in f.terms.items() for e, c in v.terms.items()}


class ParametricSlices:
    """(R)_n over F = Q(i)(params), n >= 2, from linear algebra over Q(i).

    The relations r_k and each target f are cleared of denominators, to
    u_k * r_k and f' = s * f (units of F, so membership is unchanged), and
    must then be homogeneous in the parameters.  If f' is a sum of
    lambda * w * u_k r_k * w' with polynomials lambda, their degree is
    deg f' - deg r_k, so the unknowns are Q(i) coefficients: one tracked
    ``MacaulaySlice`` per (n, deg f'), shared across queries, solves for
    the certificate.

    Otherwise the generic rank of (R)_n decides.  Specialising to the
    point p only lowers rank; syzygies among the rows (the dependent rows
    of the same slices) that stay independent at p are independent over F
    and bound the rank from above.  When the bounds meet, dim_F A_n =
    dim A_n(p), and f is not a member if f'(p) has a nonzero class in
    A_n(p).  A target that neither way decides is refused.
    """

    def __init__(self, space: RelationSpace):
        field = space.field
        if field.ring.nvars > len(SPECIALIZATION_POINT):
            raise PreconditionViolated(f"more than {len(SPECIALIZATION_POINT)} parameters")
        self.space = space
        self.ring = field.ring
        self.relations, self.units = zip(*(_cleared(e, field) for e in space.elements))
        self.degrees = [_parameter_degree(r) for r in self.relations]
        if None in self.degrees:
            raise PreconditionViolated("relations over a function field must be homogeneous "
                                       "in the parameters above degree two")
        self.point = dict(zip(self.ring.variables, map(gaussian, SPECIALIZATION_POINT)))
        self.at_point = QuotientTower(
            QQi, [self._at_point(r).coefficient_vector(2) for r in self.relations])
        self._rows = {}
        self._slices = {}
        self._certified = set()

    def _at_point(self, f: FreeElement) -> FreeElement:
        values = {w: v.evaluate(self.point) for w, v in f.terms.items()}
        return FreeElement({w: c for w, c in values.items() if c})

    def _generators(self, n: int):
        """The rows w * r * w' of (R)_n: tags (w, relation index, w') and parts."""
        if n not in self._rows:
            tags, parts = [], []
            for k, rel in enumerate(self.relations):
                for i in range(n - 1):
                    for left in product(range(NGENS), repeat=i):
                        for right in product(range(NGENS), repeat=n - 2 - i):
                            tags.append((left, k, right))
                            parts.append(_parts(rel, left, right))
            self._rows[n] = tags, parts
        return self._rows[n]

    def _slice(self, n: int, d: int) -> MacaulaySlice:
        if (n, d) not in self._slices:
            self._slices[n, d] = MacaulaySlice(QQi, self._generators(n)[1], d, self.ring.nvars)
        return self._slices[n, d]

    def _verified(self, n: int, combo, target: FreeElement, s=None):
        """{(row, monomial): c} as terms (w, k, w', lambda * u_k / s) summing to target."""
        tags = self._generators(n)[0]
        lam = {}
        for (gi, mono), c in combo.items():
            lam[gi] = lam.get(gi, self.ring.zero()) + self.ring.monomial(mono, c)
        out = [tags[gi] + (RationalFunction(v * self.units[tags[gi][1]], s),)
               for gi, v in lam.items()]
        if not verify_certificate(self.space, out, target):
            raise AssertionError("a certificate does not re-expand to its target")
        return out

    def dimension(self, n: int) -> int:
        """dim A_n(p), once the syzygies prove it is the generic dimension."""
        if n not in self._certified:
            needed = len(self._generators(n)[0]) - NGENS ** n + self.at_point.dimension(n)
            at_point = SparseEchelon(QQi)
            for d in range(min(self.degrees), max(self.degrees) + SYZYGY_DEGREE_CEILING + 1):
                if at_point.rank == needed:
                    break
                for syzygy in self._slice(n, d).syzygies():
                    terms = self._verified(n, syzygy, FreeElement())
                    at_point.insert({t[:3]: t[3].evaluate(self.point) for t in terms})
            if at_point.rank < needed:
                raise PreconditionViolated(f"no syzygies up to degree {SYZYGY_DEGREE_CEILING} "
                                           f"certify the generic rank in degree {n}")
            self._certified.add(n)
        return self.at_point.dimension(n)

    def certificate(self, f: FreeElement, n: int):
        """f as re-expanded (left word, relation index, right word, coeff) terms, or None.

        None means f is not in (R)_n; an undecided f raises PreconditionViolated.
        """
        cleared, s = _cleared(f, self.space.field)
        d = _parameter_degree(cleared)
        if d is None:
            raise PreconditionViolated("the target must be homogeneous in the parameters "
                                       "once its denominators are cleared")
        combo = self._slice(n, d).certificate(_parts(cleared))
        if combo is not None:
            return self._verified(n, combo, f, s)
        self.dimension(n)
        if self.at_point.coordinates(self._at_point(cleared), n):
            return None
        raise PreconditionViolated("undecided: no certificate, and the class vanishes "
                                   "at the specialisation point")


class GradedQuotient:
    """Hilbert data, ideal membership, and normal forms for TV/(R)."""

    def __init__(self, space: RelationSpace, p: int = DEFAULT_PRIME):
        self.space = space
        self.p = p
        self._towers = {}
        self._symbolic = isinstance(space.field, FunctionField)
        self._parametric = None

    def tower(self, backend="exact") -> QuotientTower:
        """The quotient-side recursion over the field the backend names.

        Refused over a function field (see ``parametric``), as over any
        field but Q(i).
        """
        if backend not in self._towers:
            if backend == "exact":
                tower = QuotientTower(self.space.field, self.space.rows)
            elif backend == "modular":
                tower = self._modular_tower()
            else:
                raise ValueError(f"unknown backend {backend!r}")
            self._towers[backend] = tower
        return self._towers[backend]

    def parametric(self) -> ParametricSlices:
        """The function-field side above degree two, built on first use."""
        if self._parametric is None:
            self._parametric = ParametricSlices(self.space)
        return self._parametric

    def _modular_tower(self) -> QuotientTower:
        if not all(isinstance(v, GaussianRational) for row in self.space.rows
                   for v in row.values()):
            raise PreconditionViolated("modular backend needs Q(i) relation coefficients")
        try:
            return QuotientTower(PrimeField(self.p), self.space.rows)
        except NotInvertible:
            raise InvalidInput(f"the prime {self.p} divides a denominator of the "
                               f"relations of {self.space.label}") from None

    # -- dimensions ------------------------------------------------------

    def dimension(self, n: int, backend="exact", force=False) -> int:
        _check_cap(n, force)
        if self._symbolic and backend == "exact":
            if n <= 2:
                return NGENS ** n - (self.space.echelon.rank if n == 2 else 0)
            return self.parametric().dimension(n)
        return self.tower(backend).dimension(n)

    def hilbert_function(self, top_degree: int, backend="exact", force=False):
        """HilbertProfile up to the requested degree, every degree on one backend."""
        _check_cap(top_degree, force)
        dims = [self.dimension(n, backend, force) for n in range(top_degree + 1)]
        tags = [backend if n >= 2 else "exact" for n in range(top_degree + 1)]
        root = self.tower(backend).field.sqrt_minus_one if "modular" in tags else None
        return HilbertProfile(dims, tags, self.space.label, self.p, root)

    # -- membership and normal forms (always exact) -----------------------

    def contains(self, f: FreeElement) -> bool:
        if f.is_zero():
            return True
        n = f.degree()
        if n < 2:
            return False
        _check_cap(n)
        if self._symbolic:
            if n == 2:
                return self.space.echelon.contains(f.coefficient_vector(2))
            return self.parametric().certificate(f, n) is not None
        return not self.tower().coordinates(f, n)

    def normal_form(self, f: FreeElement) -> FreeElement:
        """The canonical representative of f + (R) supported on normal words.

        Over a function field only in degree 2.
        """
        if f.is_zero():
            return f
        n = f.degree()
        if n < 2:
            return f
        _check_cap(n)
        if self._symbolic:
            if n > 2:
                raise PreconditionViolated("normal forms above degree two are not computed "
                                           "over a function field")
            return from_vector(self.space.echelon.reduce(f.coefficient_vector(2)), 2)
        tower = self.tower()
        return from_vector({tower.words[n][k]: v
                            for k, v in tower.coordinates(f, n).items()}, n)

    def is_central(self, z: FreeElement):
        """(True, None) or (False, index of a generator that fails).

        Centrality in each degree is the finite condition [z, x_g] in (R)
        for all four generators; exact backend only.
        """
        if z.is_zero():
            return True, None
        for g, xg in enumerate(generators(self.space.field)):
            if not self.contains(commutator(z, xg)):
                return False, g
        return True, None

    def membership_certificate(self, f: FreeElement):
        """Express f as sum coeff * left * relation * right, or None.

        Returns a list of (left word, relation index, right word, coeff).
        Over a function field the coefficients are polynomial whenever the
        relations and f are.
        """
        if f.is_zero():
            return []
        n = f.degree()
        if n < 2:
            return None
        _check_cap(n)
        if self._symbolic:
            return self.parametric().certificate(f, n)
        return self.tower().certificate(f, n)


class HilbertProfile:
    """Graded dimensions with their provenance."""

    def __init__(self, dims, backends, label, p, sqrt_minus_one):
        self.dims = list(dims)
        self.backends = list(backends)
        self.label = label
        self.p = p
        self.sqrt_minus_one = sqrt_minus_one

    @property
    def backend(self) -> str:
        # degrees 0 and 1 are combinatorial; only degree >= 2 involves ranks
        return "exact" if self.all_exact() else f"modular p={self.p}"

    def all_exact(self) -> bool:
        return "modular" not in self.backends

    def as_dict(self):
        out = {
            "algebra": self.label,
            "dims": self.dims,
            "backend": self.backend,
            "per_degree": self.backends,
        }
        if self.sqrt_minus_one is not None:
            out["modular_sqrt_minus_one"] = self.sqrt_minus_one
        return out

    def __repr__(self):
        return f"HilbertProfile({self.label}: {self.dims}, {self.backend})"


def verify_certificate(space: RelationSpace, certificate, expected: FreeElement) -> bool:
    """Re-expand a membership certificate and compare with the target, exactly.

    A term (w, k, w', c) adds c * v at the word w + u + w' for each term
    v * u of relation k, in the relations' own field.
    """
    total = {}
    for left, k, right, coeff in certificate:
        for word, v in space.elements[k].terms.items():
            key = left + word + right
            s = total.get(key)
            total[key] = coeff * v if s is None else s + coeff * v
    return {w: v for w, v in total.items() if v} == expected.terms

"""Degree-truncated computation in the quotient A = TV/(R).

Everything comes from the quotient side.  The ideal satisfies
(R)_n = (R)_{n-1} (x) V + V^{(n-2)} (x) R, so

    A_n = (A_{n-1} (x) V) / image(A_{n-2} (x) R)

where a relation sum c_ab x_a x_b sends a basis element e of A_{n-2} to
sum c_ab mu_a(e) (x) x_b, and mu_a : A_{n-1} -> A_n, right multiplication
by x_a, is known from the degree below.  Each degree eliminates 6*d_{n-2}
rows against 4*d_{n-1} columns with the generic sparse echelon, over the
relation space's own field (backend "exact") or over F_p for a prime
p = 1 (mod 4) (backend "modular"; Python integers, so nothing overflows).
Pivots are lex-first and the lex order is multiplicative within a degree,
so the basis words of A_n are exactly the normal words of the ideal slices.
Over Q a rank mod p can only drop, so modular dimensions are upper bounds
for the exact ones and are labeled as evidence, not proof.

A word's class in A_n composes the mu maps along its letters; membership,
normal forms and centrality read that class.  Certificates use
(R)_n = (R)_{n-1} V + N_{n-2} R, N the span of the normal words: the
degree-n rows account for f's image in A_{n-1} (x) V, and what is left is
certified one degree down, letter by letter.

Over function fields the recursion is too slow to build (its degree-3
elimination over Q(i)(a,b,c,d) ran for minutes), so there every query,
dimensions included, uses the ideal slices, and ``tower`` refuses; the
slices are also the quotient side's test reference.  The degree-n slice
of (R) is spanned by the rows w * r * w' with |w| + |w'| = n - 2, built as

    W_n = V (x) W_{n-1}  +  R (x) V^{(n-2)}

and dim A_n = 4^n - rank W_n.  The first summand contributes four disjoint
column blocks (one per leading letter) that are already in echelon form,
so inserting them reduces nothing; only the 6*4^(n-2) relation rows need
actual reduction.
"""

from __future__ import annotations

import os

from .errors import DegreeCapExceeded, InvalidInput, PreconditionViolated
from .freealg import NGENS, FreeElement, commutator, from_vector, generators, index_word
from .linalg import SparseEchelon, make_echelon
from .poly import FunctionField
from .presentations import RelationSpace
from .scalars import GaussianRational, PrimeField, DEFAULT_PRIME

DEFAULT_DEGREE_CAP = 7
ENV_DEGREE_CAP = "QUADRALAB_DEGREE_CAP"


def degree_cap() -> int:
    value = os.environ.get(ENV_DEGREE_CAP)
    if value is None:
        return DEFAULT_DEGREE_CAP
    try:
        return int(value)
    except ValueError:
        raise InvalidInput(f"{ENV_DEGREE_CAP} must be an integer, got {value!r}") from None


def _check_cap(n: int, force=False):
    cap = degree_cap()
    if n > cap and not force:
        raise DegreeCapExceeded(n, cap)


class ExactSlices:
    """Sparse echelon bases of the ideal slices over the exact field."""

    def __init__(self, space: RelationSpace):
        self.space = space
        self.field = space.field
        self._cache = {}

    def slice(self, n: int, force=False):
        if n < 2:
            raise ValueError("ideal slices start at degree 2")
        _check_cap(n, force)
        if n not in self._cache:
            self._cache[n] = self._build(n, force)
        return self._cache[n]

    def _build(self, n: int, force: bool):
        ech = make_echelon(self.field)
        if n == 2:
            for row in self.space.rows:
                ech.insert(row)
            return ech
        prev = self.slice(n - 1, force)
        width = NGENS ** (n - 1)
        # x_g (x) W_{n-1}: shifted copies of the previous echelon rows
        for g in range(NGENS):
            base = g * width
            for _, ridx in sorted(prev.pivot_of.items()):
                ech.insert({base + c: v for c, v in prev.rows[ridx].items()})
        # R (x) V^{(n-2)}: the only rows that need honest reduction
        suffix_count = NGENS ** (n - 2)
        for rel in self.space.rows:
            for suffix in range(suffix_count):
                ech.insert({c * suffix_count + suffix: v for c, v in rel.items()})
        return ech

    def rank(self, n: int, force=False) -> int:
        return self.slice(n, force).rank


def _add_scaled(out: dict, vec: dict, c):
    """out += c * vec, dropping entries that cancel."""
    for k, v in vec.items():
        s = out.get(k)
        s = c * v if s is None else s + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)


class QuotientTower:
    """The graded pieces A_n over one field, built one degree at a time.

    ``words[n]`` holds the lex ranks of the basis words of A_n, increasing;
    ``mu[n][j][i]`` is e_i * x_j as a sparse dict over the basis of A_n,
    where e_i is the i-th basis element of A_{n-1}.
    """

    def __init__(self, field, rows):
        self.field = field
        self.rows = rows          # the relations: column a*4+b -> coefficient of x_a x_b
        one = field.one()
        self.words = [[0], list(range(NGENS))]
        self.mu = [None, [[{j: one}] for j in range(NGENS)]]
        self._tracked = {}        # degree -> the degree's rows, certificate-tracked

    def dimension(self, n: int) -> int:
        while len(self.words) <= n:
            self._extend()
        return len(self.words[n])

    def _image_rows(self, n: int):
        """((i, relation index), row): the image of e_i * r in A_{n-1} (x) V.

        e_i runs over the basis of A_{n-2}; column = basis index * 4 + letter.
        """
        below = self.mu[n - 1]
        for i in range(len(self.words[n - 2])):
            for r, rel in enumerate(self.rows):
                row = {}
                for c, v in rel.items():
                    a, b = divmod(c, NGENS)
                    _add_scaled(row, {k * NGENS + b: w for k, w in below[a][i].items()}, v)
                yield (i, r), row

    def _extend(self):
        n = len(self.words)
        prev = self.words[n - 1]
        ech = SparseEchelon(self.field)
        for _, row in self._image_rows(n):
            ech.insert(row)
        free = [c for c in range(NGENS * len(prev)) if c not in ech.pivot_of]
        index = {c: k for k, c in enumerate(free)}
        self.words.append([prev[c // NGENS] * NGENS + c % NGENS for c in free])
        one = self.field.one()
        mu = [[] for _ in range(NGENS)]
        for i in range(len(prev)):
            for j in range(NGENS):
                col = i * NGENS + j
                if col in index:
                    mu[j].append({index[col]: one})
                else:
                    # the residual of a pivot column lies on free columns only
                    residual = ech.reduce({col: one})
                    mu[j].append({index[c]: v for c, v in residual.items()})
        self.mu.append(mu)

    def _project(self, vec: dict, n: int) -> dict:
        """A vector of A_{n-1} (x) V mapped to A_n."""
        out = {}
        for col, v in vec.items():
            i, j = divmod(col, NGENS)
            _add_scaled(out, self.mu[n][j][i], v)
        return out

    def _image(self, terms: dict, n: int) -> dict:
        """The image in A_{n-1} (x) V of the degree-n element {word: coeff}."""
        classes = {(): {0: self.field.one()}}

        def class_of(word):
            # prefixes are shared between the words of one element
            if word not in classes:
                below = class_of(word[:-1])
                classes[word] = self._project(
                    {k * NGENS + word[-1]: v for k, v in below.items()}, len(word))
            return classes[word]

        out = {}
        for word, c in terms.items():
            _add_scaled(out, {k * NGENS + word[-1]: v
                              for k, v in class_of(word[:-1]).items()}, c)
        return out

    def coordinates(self, f: FreeElement, n: int) -> dict:
        """The class of the degree-n element f in A_n, over the basis words[n]."""
        self.dimension(n)
        return self._project(self._image(f.terms, n), n)

    def certificate(self, f: FreeElement, n: int):
        """f as a list of (left word, relation index, right word, coeff), or None.

        None means f is not in (R)_n.  Each degree's rows are eliminated
        once more with tracking, on the first certificate that needs them.
        """
        self.dimension(n)
        out = []
        pending = [(dict(f.terms), n, ())]
        while pending:
            terms, m, right = pending.pop()
            if m not in self._tracked:
                self._tracked[m] = SparseEchelon(self.field, track=True)
                for tag, row in self._image_rows(m):
                    self._tracked[m].insert(row, tag=tag)
            residual, combo = self._tracked[m].reduce_with_combo(self._image(terms, m))
            if residual:
                return None  # only f itself can fail: the later pieces lie in (R)_m
            for (i, r), lam in combo.items():
                left = index_word(self.words[m - 2][i], m - 2)
                out.append((left, r, right, lam))
                _add_scaled(terms, {left + divmod(c, NGENS): v
                                    for c, v in self.rows[r].items()}, -lam)
            # what is left has image zero, so each letter's piece lies in (R)_{m-1}
            pieces = {}
            for word, v in terms.items():
                pieces.setdefault(word[-1], {})[word[:-1]] = v
            pending += [(piece, m - 1, (j,) + right) for j, piece in pieces.items()]
        return out


class GradedQuotient:
    """Hilbert data, ideal membership, and normal forms for TV/(R)."""

    def __init__(self, space: RelationSpace, p: int = DEFAULT_PRIME):
        self.space = space
        self.exact = ExactSlices(space)
        self.p = p
        self._towers = {}
        self._ideal_side = isinstance(space.field, FunctionField)

    def tower(self, backend="exact") -> QuotientTower:
        """The quotient-side recursion over the field the backend names.

        Refused over a function field, where every query uses the ideal slices.
        """
        if self._ideal_side:
            raise PreconditionViolated("the quotient tower is not built over a function field")
        if backend not in self._towers:
            if backend == "exact":
                tower = QuotientTower(self.space.field, self.space.rows)
            elif backend == "modular":
                tower = self._modular_tower()
            else:
                raise ValueError(f"unknown backend {backend!r}")
            self._towers[backend] = tower
        return self._towers[backend]

    def _modular_tower(self) -> QuotientTower:
        field = PrimeField(self.p)
        rows = []
        for row in self.space.rows:
            if not all(isinstance(v, GaussianRational) for v in row.values()):
                raise PreconditionViolated(
                    "modular backend needs Q(i) relation coefficients"
                )
            rows.append({c: field.coerce(v) for c, v in row.items()})
        return QuotientTower(field, rows)

    # -- dimensions ------------------------------------------------------

    def dimension(self, n: int, backend="exact", force=False) -> int:
        _check_cap(n, force)
        if self._ideal_side and backend == "exact":
            return NGENS ** n - (self.exact.rank(n, force) if n >= 2 else 0)
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
        if self._ideal_side:
            return self.exact.slice(n).contains(f.coefficient_vector(n))
        return not self.tower().coordinates(f, n)

    def normal_form(self, f: FreeElement) -> FreeElement:
        """The canonical representative of f + (R) supported on normal words."""
        if f.is_zero():
            return f
        n = f.degree()
        if n < 2:
            return f
        _check_cap(n)
        if self._ideal_side:
            return from_vector(self.exact.slice(n).reduce(f.coefficient_vector(n)), n)
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
        Function-field coefficients are refused: the quotient side, which
        builds certificates, cannot be built over them in reasonable time.
        """
        if f.is_zero():
            return []
        n = f.degree()
        if n < 2:
            return None
        _check_cap(n)
        if self._ideal_side:
            raise PreconditionViolated("membership certificates need coefficients "
                                       "outside a function field")
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
    """Re-expand a membership certificate and compare with the target."""
    total = FreeElement()
    for left, rel_idx, right, coeff in certificate:
        w = FreeElement.from_word(left, space.field.one())
        r = space.elements[rel_idx]
        wp = FreeElement.from_word(right, space.field.one())
        total = total + (w * r * wp).scale(coeff)
    return total == expected

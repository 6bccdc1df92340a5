"""Degree-truncated computation in the quotient A = TV/(R).

Dimensions come from the quotient side.  The ideal satisfies
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

Membership, normal forms, centrality and certificates work on the ideal
side, which zero tests over function fields need.  The degree-n slice of
(R) is spanned by the rows w * r * w' with |w| + |w'| = n - 2, built as

    W_n = V (x) W_{n-1}  +  R (x) V^{(n-2)}

The first summand contributes four disjoint column blocks (one per leading
letter) that are already in echelon form, so only the 6*4^(n-2) relation
rows need actual reduction.
"""

from __future__ import annotations

import os

from .errors import DegreeCapExceeded, PreconditionViolated
from .freealg import NGENS, FreeElement, commutator, from_vector, generators
from .linalg import SparseEchelon, make_echelon
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
        raise ValueError(f"{ENV_DEGREE_CAP} must be an integer, got {value!r}") from None


def _check_cap(n: int, force: bool):
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
            for col, ridx in sorted(prev.pivot_of.items()):
                row = prev.rows[ridx]
                ech.insert_independent(
                    {base + c: v for c, v in row.items()}, base + col
                )
        # R (x) V^{(n-2)}: the only rows that need honest reduction
        suffix_count = NGENS ** (n - 2)
        for rel in self.space.rows:
            for suffix in range(suffix_count):
                ech.insert({c * suffix_count + suffix: v for c, v in rel.items()})
        return ech

    def rank(self, n: int, force=False) -> int:
        return self.slice(n, force).rank

    def reduce(self, vec: dict, n: int, force=False) -> dict:
        return self.slice(n, force).reduce(vec)


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

    def dimension(self, n: int) -> int:
        while len(self.words) <= n:
            self._extend()
        return len(self.words[n])

    def _extend(self):
        n = len(self.words)
        below = self.mu[n - 1]
        prev = self.words[n - 1]
        # image of A_{n-2} (x) R in A_{n-1} (x) V; column = basis index * 4 + letter
        ech = SparseEchelon(self.field)
        for i in range(len(self.words[n - 2])):
            for rel in self.rows:
                row = {}
                for c, v in rel.items():
                    a, b = divmod(c, NGENS)
                    for k, w in below[a][i].items():
                        col = k * NGENS + b
                        s = row.get(col)
                        row[col] = v * w if s is None else s + v * w
                ech.insert({c: v for c, v in row.items() if v})
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


class GradedQuotient:
    """Hilbert data, ideal membership, and normal forms for TV/(R)."""

    def __init__(self, space: RelationSpace, p: int = DEFAULT_PRIME):
        self.space = space
        self.exact = ExactSlices(space)
        self.p = p
        self._towers = {}

    def tower(self, backend="exact") -> QuotientTower:
        """The quotient-side recursion over the field the backend names."""
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
        return self.tower(backend).dimension(n)

    def hilbert_function(self, top_degree: int, backend="auto", force=False):
        """HilbertProfile up to the requested degree.

        backend "exact" or "modular" applies to every degree; "auto" uses
        exact arithmetic through degree 4 and the modular backend above.
        """
        _check_cap(top_degree, force)
        dims, tags = [], []
        for n in range(top_degree + 1):
            tag = backend
            if backend == "auto":
                tag = "exact" if n <= 4 else "modular"
            dims.append(self.dimension(n, tag, force))
            tags.append(tag if n >= 2 else "exact")
        return HilbertProfile(dims, tags, self.space.label, self.p,
                              self.modular_sqrt_minus_one() if "modular" in tags else None)

    def modular_sqrt_minus_one(self):
        return self.tower("modular").field.sqrt_minus_one

    # -- membership and normal forms (always exact) -----------------------

    def contains(self, f: FreeElement, force=False) -> bool:
        if f.is_zero():
            return True
        n = f.degree()
        if n < 2:
            return False
        return not self.exact.reduce(f.coefficient_vector(n), n, force)

    def normal_form(self, f: FreeElement, force=False) -> FreeElement:
        """The canonical representative of f + (R) supported off pivot words."""
        if f.is_zero():
            return f
        n = f.degree()
        if n < 2:
            return f
        residual = self.exact.reduce(f.coefficient_vector(n), n, force)
        return from_vector(residual, n)

    def is_central(self, z: FreeElement, force=False):
        """(True, None) or (False, index of a generator that fails).

        Centrality in each degree is the finite condition [z, x_g] in (R)
        for all four generators; exact backend only.
        """
        if z.is_zero():
            return True, None
        gens = generators(self.space.field)
        for g, xg in enumerate(gens):
            if not self.contains(commutator(z, xg), force):
                return False, g
        return True, None

    def membership_certificate(self, f: FreeElement, force=False):
        """Express f as sum lambda * w * rel * w', or None.

        Returns a list of (left word, relation index, right word, coeff).
        Builds a tracked echelon from scratch, so keep to small degrees.
        """
        if f.is_zero():
            return []
        n = f.degree()
        if n < 2:
            return None
        _check_cap(n, force)
        ech = SparseEchelon(self.space.field, track=True)
        from .freealg import index_word
        for a in range(n - 1):
            left_count = NGENS ** a
            right_count = NGENS ** (n - 2 - a)
            for rel_idx, rel in enumerate(self.space.rows):
                for li in range(left_count):
                    for ri in range(right_count):
                        row = {
                            (li * 16 + c) * right_count + ri: v
                            for c, v in rel.items()
                        }
                        tag = (index_word(li, a), rel_idx, index_word(ri, n - 2 - a))
                        ech.insert(row, tag=tag)
        residual, combo = ech.reduce_with_combo(f.coefficient_vector(n))
        if residual:
            return None
        return [(lw, rel, rw, coeff) for (lw, rel, rw), coeff in combo.items()]


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
        kinds = set(self.backends[2:]) or {"exact"}
        if kinds == {"exact"}:
            return "exact"
        if "exact" in kinds:
            return f"exact<=4, modular p={self.p} above"
        return f"modular p={self.p}"

    def all_exact(self) -> bool:
        return set(self.backends[2:] or ["exact"]) == {"exact"}

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

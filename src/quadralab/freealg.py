"""The free algebra on four degree-one generators.

Words are tuples of generator indices in {0,1,2,3}; elements are sparse
scalar-weighted word combinations over any exact scalar domain.  The same
engine serves every presentation in the package: generators print as
x0..x3, x1..x4, or z0..z3 depending on the label set attached at render
time, but indices always run 0..3.
"""

from __future__ import annotations

from .scalars import QQi

#: generator label sets, keyed by presentation
LABELS_X = ("x0", "x1", "x2", "x3")
LABELS_CHL = ("x1", "x2", "x3", "x4")
LABELS_Z = ("z0", "z1", "z2", "z3")

NGENS = 4


def word_index(word) -> int:
    """Rank of a word among all words of its length, in lex order."""
    idx = 0
    for letter in word:
        idx = idx * NGENS + letter
    return idx


def index_word(idx: int, n: int):
    letters = []
    for _ in range(n):
        letters.append(idx % NGENS)
        idx //= NGENS
    return tuple(reversed(letters))


class FreeElement:
    """A finite scalar combination of words; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def generator(cls, i: int, one=None):
        one = QQi.one() if one is None else one
        return cls({(i,): one})

    @classmethod
    def scalar(cls, c):
        if not c:
            return cls()
        return cls({(): c})

    @classmethod
    def from_word(cls, word, coeff):
        if not coeff:
            return cls()
        return cls({tuple(word): coeff})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            s = c if s is None else s + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return FreeElement(terms)

    def __neg__(self):
        return FreeElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FreeElement):
            return self.scale(other)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = terms.get(w)
                p = c1 * c2
                s = p if s is None else s + p
                if s:
                    terms[w] = s
                else:
                    terms.pop(w, None)
        return FreeElement(terms)

    def __rmul__(self, other):
        # scalars commute with everything here
        return self.scale(other)

    def scale(self, c):
        if not c:
            return FreeElement()
        return FreeElement({w: c * v for w, v in self.terms.items()})

    def degrees(self):
        return sorted({len(w) for w in self.terms})

    def degree(self):
        """Degree of a homogeneous element; -1 for zero."""
        degs = self.degrees()
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {degs}")
        return degs[0]

    def coefficient_vector(self, n: int) -> dict:
        """Sparse coordinates of the degree-n part in the lex word basis."""
        return {word_index(w): c for w, c in self.terms.items() if len(w) == n}

    def render(self, labels=LABELS_X) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            mono = "*".join(labels[i] for i in w) if w else "1"
            cs = str(c)
            if cs == "1" and w:
                t = mono
            elif cs == "-1" and w:
                t = f"-{mono}"
            else:
                if any(op in cs[1:] for op in "+-") or "/" in cs:
                    cs = f"({cs})"
                t = f"{cs}*{mono}" if w else cs
            if parts and not t.startswith("-"):
                parts.append("+" + t)
            else:
                parts.append(t)
        return "".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"FreeElement({self.render()})"


def generators(field=QQi):
    one = field.one()
    return tuple(FreeElement.generator(i, one) for i in range(NGENS))


def commutator(f: FreeElement, g: FreeElement) -> FreeElement:
    return f * g - g * f


def anticommutator(f: FreeElement, g: FreeElement) -> FreeElement:
    return f * g + g * f


def from_vector(vec: dict, n: int) -> FreeElement:
    return FreeElement({index_word(i, n): c for i, c in vec.items() if c})


def apply_linear(matrix, f: FreeElement) -> FreeElement:
    """Substitute x_j -> sum_k matrix[k][j] * x_k and expand products.

    This is the unique algebra endomorphism extending the linear map, so
    apply_linear(m1*m2, f) == apply_linear(m1, apply_linear(m2, f)).
    """
    images = []
    for j in range(NGENS):
        img = {}
        for k in range(NGENS):
            c = matrix[k][j]
            if c:
                img[(k,)] = c
        images.append(FreeElement(img))
    out_terms = {}
    for w, c in f.terms.items():
        prod = FreeElement.scalar(c)
        for letter in w:
            prod = prod * images[letter]
        for pw, pc in prod.terms.items():
            s = out_terms.get(pw)
            s = pc if s is None else s + pc
            if s:
                out_terms[pw] = s
            else:
                out_terms.pop(pw, None)
    return FreeElement(out_terms)

"""Root-adjunction towers: K[t]/(t^n - r) over any exact base field.

Each ``ExtensionField`` wraps a base field context (Q(i), a rational
function field, or another extension) and a defining power t^n = r.
Elements are coefficient tuples of length n over the base, so a tower of
adjunctions flattens to the expected product-length coordinate vector.

Arithmetic reduces t^k for k >= n through the defining relation.  The
quotient need not be a field, and only monomials c*t^k are inverted, as
c^-1 r^-1 t^(n-k) (see ``inverse``); any other element is refused with
PreconditionViolated.  ``ExtensionElement`` supplies
``_lift``, ``+``, unary ``-``, ``*``, ``_one`` and that ``inverse``, and
derives ``-``, ``/`` and ``**`` from ``scalars.FieldOps``; the base field's
elements are inverted with their own ``inverse``.
"""

from __future__ import annotations

from .errors import NotInvertible, PreconditionViolated
from .scalars import FieldOps


class ExtensionField:
    def __init__(self, base, symbol: str, power: int, radicand):
        if power < 2:
            raise ValueError("adjunction power must be at least 2")
        radicand = base.coerce(radicand)
        if not radicand:
            raise ValueError("radicand must be nonzero")
        self.base = base
        self.symbol = symbol
        self.power = power
        self.radicand = radicand

    # -- constructors --------------------------------------------------------

    def element(self, coeffs) -> "ExtensionElement":
        coeffs = list(coeffs)
        if len(coeffs) > self.power:
            raise ValueError("too many coefficients")
        coeffs = [self.base.coerce(c) for c in coeffs]
        coeffs += [self.base.zero()] * (self.power - len(coeffs))
        return ExtensionElement(self, tuple(coeffs))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([self.base.one()])

    def root(self) -> "ExtensionElement":
        """The adjoined symbol itself."""
        return self.element([self.base.zero(), self.base.one()])

    def coerce(self, value) -> "ExtensionElement":
        if isinstance(value, ExtensionElement):
            if value.field is self or value.field == self:
                return value
            # an element of some level further down lifts as a constant
            try:
                lifted = self.base.coerce(value)
            except (TypeError, ValueError):
                raise TypeError(f"cannot coerce {value!r} into {self!r}") from None
            return self.element([lifted])
        return self.element([self.base.coerce(value)])

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.symbol == self.symbol
            and other.power == self.power
            and other.base == self.base
            and other.radicand == self.radicand
        )

    def __hash__(self):
        return hash(("ExtensionField", self.symbol, self.power, self.base))

    def __repr__(self):
        return f"{self.base!r}[{self.symbol}; {self.symbol}^{self.power}={self.radicand}]"


class ExtensionElement(FieldOps):
    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtensionField, coeffs: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def _lift(self, other):
        if isinstance(other, ExtensionElement) and (
            other.field is self.field or other.field == self.field
        ):
            return other
        try:
            return self.field.coerce(other)
        except (TypeError, ValueError):
            return None

    def _one(self):
        return self.field.one()

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_part())
        return hash((self.field.symbol, self.coeffs))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ExtensionElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return ExtensionElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = self.field.power
        r = self.field.radicand
        zero = self.field.base.zero()
        acc = [zero] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if not b:
                    continue
                k = i + j
                v = a * b
                if k >= n:
                    k -= n
                    v = v * r
                acc[k] = acc[k] + v
        return ExtensionElement(self.field, tuple(acc))

    __rmul__ = __mul__

    def inverse(self) -> "ExtensionElement":
        """The inverse of a monomial c*t^k.

        It is c^-1 for k = 0 and c^-1 r^-1 t^(n-k) otherwise, since t^n = r;
        c and r are inverted by the base's own ``inverse``, so nested towers
        recurse.  Zero raises NotInvertible, and any element with two or
        more terms raises PreconditionViolated: every tower element the
        package inverts (psi's taus, the scaled-basis factors 1/s_i, the
        pivots of relations whose columns each carry one tower monomial)
        is a monomial by construction.
        """
        if not self:
            raise NotInvertible(self, "zero element")
        support = [k for k, c in enumerate(self.coeffs) if c]
        if len(support) > 1:
            raise PreconditionViolated("a root tower inverts monomials c*t^k only")
        k = support[0]
        inv = self.coeffs[k].inverse()
        if k == 0:
            return self.field.element([inv])
        n = self.field.power
        coeffs = [self.field.base.zero()] * n
        coeffs[n - k] = inv * self.field.radicand.inverse()
        return ExtensionElement(self.field, tuple(coeffs))

    def constant_part(self):
        """Base-field coefficient of t^0."""
        return self.coeffs[0]

    def is_constant(self):
        return not any(bool(c) for c in self.coeffs[1:])

    def __str__(self):
        parts = []
        sym = self.field.symbol
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(f"({c})")
            elif k == 1:
                parts.append(f"({c})*{sym}")
            else:
                parts.append(f"({c})*{sym}^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ExtensionElement<{self.field.symbol}>({self})"


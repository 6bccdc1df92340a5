"""Q(i) as a pair of Fractions: a test oracle for ``scalars.GaussianRational``.

The library stores (x + y*i)/d as three reduced ints.  This class is the
plain form it replaced, re + im*i with two ``fractions.Fraction`` parts,
kept so that a property test can compare the two on every operation.
"""

from fractions import Fraction

from quadralab.errors import NotInvertible
from quadralab.scalars import FieldOps, format_scalar


class GaussianRational(FieldOps):
    """An element re + im*i of Q(i), with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @staticmethod
    def _lift(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    @staticmethod
    def _one():
        return GaussianRational(1)

    def __add__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm()
        if not n:
            raise NotInvertible(self, "zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __eq__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        return format_scalar(self)

"""Exact coefficient arithmetic: Q(i) triples, plus F_p as a context over ints.

* rationals -- ``fractions.Fraction`` from the standard library, which
  already maintains the gcd-reduced, positive-denominator normal form;
* ``GaussianRational`` -- elements (x + y*i)/d of Q(i), a triple of Python
  ints over one common denominator in the normal form d > 0,
  gcd(x, y, d) = 1 (Cohen, GTM 138, section 4.2);
* ``PrimeField`` -- the modular rank backend F_p for a prime p = 1 (mod 4),
  whose elements are plain ints in [0, p) with no wrapper type.  The
  congruence condition guarantees a square root of -1 exists mod p; the
  chosen root is fixed per field and reported.

The secondary operators of every scalar type in the package derive from
two bases defined here.  ``RingOps`` gives ``-`` (both sides), ``**`` for
n >= 0, ``is_zero`` and the immutability guard; ``FieldOps`` adds ``/``
(both sides) and negative powers.  A subclass supplies ``_lift`` (the
other operand in its own type, or None), ``+``, unary ``-``, ``*``,
``_one`` and, for a field, ``inverse``.

Everything is immutable and safe to share.  Scalar literals round-trip
through ``parse_scalar`` / ``str``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotInvertible, ScalarParseError


class RingOps:
    """Subtraction, powers, ``is_zero`` and immutability from ``+``, ``-x``, ``*``."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self):
        return not self

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self._one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out


class FieldOps(RingOps):
    """Division and negative powers from ``inverse``."""

    __slots__ = ()

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if isinstance(n, int) and n < 0:
            return self.inverse() ** -n
        return RingOps.__pow__(self, n)


class GaussianRational(FieldOps):
    """An element (x + y*i)/d of Q(i), held as three ints.

    The triple is kept in its unique normal form, d > 0 and
    gcd(x, y, d) = 1 (zero is (0, 0, 1)), so ``==`` compares ints and each
    operation reduces its result with one gcd.  ``re`` and ``im`` give the
    parts as exact Fractions.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_x(self, re)
            _set_y(self, im)
            _set_d(self, 1)
            return
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # both parts are in lowest terms, so the triple is already reduced
        _set_x(self, re.numerator * (d // re.denominator))
        _set_y(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    @staticmethod
    def _lift(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    @staticmethod
    def _one():
        return QI_ONE

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._lift(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.x + other.x, self.y + other.y, d)
        return _reduced(self.x * e + other.x * d, self.y * e + other.y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._lift(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.x - other.x, self.y - other.y, d)
        return _reduced(self.x * e - other.x * d, self.y * e - other.y * d, d * e)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._lift(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.x, self.y, other.x, other.y
        if not b:
            return _reduced(a * c, a * e, self.d * other.d)
        if not e:
            return _reduced(a * c, b * c, self.d * other.d)
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __neg__(self):
        return _qi(-self.x, -self.y, self.d)

    def __pos__(self):
        return self

    def inverse(self):
        if not (self.x or self.y):
            raise NotInvertible(self, "zero in Q(i)")
        return _qi(*_inverse(self.x, self.y, self.d))

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.d == other.d

    def __hash__(self):
        # a real value hashes as its Fraction, so as the int it may equal
        if self.y:
            return hash((self.re, self.im))
        return hash(self.x) if self.d == 1 else hash(self.re)

    def __bool__(self):
        return self.x != 0 or self.y != 0

    # -- formatting ------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({self})"


_new = object.__new__
_set_x = GaussianRational.x.__set__
_set_y = GaussianRational.y.__set__
_set_d = GaussianRational.d.__set__


def _qi(x, y, d):
    """(x + y*i)/d from a triple already in normal form."""
    z = _new(GaussianRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _reduced(x, y, d):
    """(x + y*i)/d for d > 0, divided through by gcd(x, y, d).

    Every ``+``, ``-`` and ``*`` ends here, so ``_qi`` is written out
    inline rather than called.
    """
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x //= g
            y //= g
            d //= g
    z = _new(GaussianRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _triple(x, y, d):
    """(x + y*i)/d, d > 0, as its reduced triple: divided through by gcd(x, y, d)."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            return x // g, y // g, d // g
    return x, y, d


def _inverse(x, y, d):
    """1 / ((x + y*i)/d) for a reduced triple: (d*x, -d*y, x^2 + y^2), reduced.

    A real x is prime to d, so d/x needs only its sign fixed; zero raises
    ``NotInvertible``.
    """
    if not y:
        if not x:
            raise NotInvertible((x, y, d), "zero in Q(i)")
        return (d, 0, x) if x > 0 else (-d, 0, -x)
    return _triple(d * x, -d * y, x * x + y * y)


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


def gaussian(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions, or strings."""
    if isinstance(re, str):
        if im:
            raise ValueError("cannot mix a string literal with an im part")
        return parse_scalar(re)
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# Scalar literal grammar:
#
#   scalar := sign? part (sign part)?
#   part   := nat ('/' nat)? ('*'? 'i')?  |  'i'
#
# with at most one real and one imaginary part, imaginary last.  Examples:
# "3/5+2/7*i", "-i", "2", "1-2i", "0/1".
# ---------------------------------------------------------------------------


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact Q(i) literal; raises ScalarParseError with position."""
    s = text.strip()
    if not s:
        raise ScalarParseError(text, 0, "empty literal")
    pos = 0
    parts = []  # (is_imag, Fraction)

    def peek():
        return s[pos] if pos < len(s) else ""

    while pos < len(s):
        if parts and peek() not in "+-":
            raise ScalarParseError(text, pos, "expected '+' or '-'")
        sign = 1
        if peek() in "+-":
            if peek() == "-":
                sign = -1
            pos += 1
        if peek() == "i":
            pos += 1
            parts.append((True, Fraction(sign)))
            continue
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise ScalarParseError(text, pos, "expected digits or 'i'")
        num = int(s[start:pos])
        den = 1
        if peek() == "/":
            pos += 1
            dstart = pos
            while pos < len(s) and s[pos].isdigit():
                pos += 1
            if pos == dstart:
                raise ScalarParseError(text, pos, "expected denominator digits")
            den = int(s[dstart:pos])
            if den == 0:
                raise ScalarParseError(text, dstart, "zero denominator")
        is_imag = False
        if peek() == "*":
            pos += 1
            if peek() != "i":
                raise ScalarParseError(text, pos, "expected 'i' after '*'")
        if peek() == "i":
            pos += 1
            is_imag = True
        parts.append((is_imag, Fraction(sign * num, den)))

    if len(parts) > 2:
        raise ScalarParseError(text, len(s), "more than two parts")
    re = im = Fraction(0)
    seen_real = seen_imag = False
    for is_imag, value in parts:
        if is_imag:
            if seen_imag:
                raise ScalarParseError(text, len(s), "two imaginary parts")
            seen_imag = True
            im = value
        else:
            if seen_real or seen_imag:
                raise ScalarParseError(
                    text, len(s), "real part must come first and only once"
                )
            seen_real = True
            re = value
    return GaussianRational(re, im)


def _imag_str(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{q}*i"


def format_scalar(z: GaussianRational) -> str:
    """Canonical literal; parse_scalar(format_scalar(z)) == z."""
    if not z:
        return "0"
    if not z.im:
        return str(z.re)
    if not z.re:
        return _imag_str(z.im)
    sign = "+" if z.im > 0 else "-"
    mag = abs(z.im)
    tail = "i" if mag == 1 else f"{mag}*i"
    return f"{z.re}{sign}{tail}"


# ---------------------------------------------------------------------------
# Prime fields, p = 1 (mod 4)
# ---------------------------------------------------------------------------

DEFAULT_PRIME = 65537

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Miller-Rabin with the bases above is proven deterministic below this bound
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with p = 1 (mod 4) and a fixed square root of -1.

    The elements are plain ints in [0, p): Python's int arithmetic followed
    by ``% p`` is the field's, so there is no element type.  The root is the
    smaller of the two candidates, so runs are reproducible and the choice
    can be recorded in reports.
    """

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= MR_DETERMINISTIC_BOUND:
            raise ValueError(
                f"{p} is not below {MR_DETERMINISTIC_BOUND}, the bound up to "
                "which the primality test is proven"
            )
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p % 4 != 1:
            raise ValueError(f"{p} is not congruent to 1 mod 4")
        self.p = p
        self.sqrt_minus_one = self._find_sqrt_minus_one()

    def _find_sqrt_minus_one(self) -> int:
        p = self.p
        for a in range(2, p):
            s = pow(a, (p - 1) // 4, p)
            if s * s % p == p - 1:
                return min(s, p - s)
        raise AssertionError("unreachable for p = 1 mod 4")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, value) -> int:
        """value reduced mod p, for an int, a Fraction or a GaussianRational.

        (x + y*i)/d maps to (x + y*s) * d^-1 with s the fixed root of -1;
        a denominator divisible by p raises NotInvertible.
        """
        p = self.p
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
        elif isinstance(value, GaussianRational):
            # p | d exactly when p divides the denominator of re or im
            num, den = value.x + value.y * self.sqrt_minus_one, value.d
        else:
            raise TypeError(f"cannot reduce {value!r} into F_{p}")
        if den % p == 0:
            raise NotInvertible(value, f"denominator divisible by {p}")
        return num * pow(den, -1, p) % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p}, i={self.sqrt_minus_one})"


class RationalField:
    """Field context for GaussianRational scalars (the default field)."""

    def zero(self):
        return QI_ZERO

    def one(self):
        return QI_ONE

    def coerce(self, value) -> GaussianRational:
        got = GaussianRational._lift(value)
        if got is None:
            if isinstance(value, str):
                return parse_scalar(value)
            raise TypeError(f"cannot coerce {value!r} into Q(i)")
        return got

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQi"


#: the shared Q(i) field context
QQi = RationalField()

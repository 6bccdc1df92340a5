"""Seeded ring and field axioms for the four scalar types.

Every type writes ``+``, unary ``-``, ``*`` and ``inverse`` itself and
derives ``-``, ``/``, ``**`` and immutability from ``RingOps``/``FieldOps``;
the properties tie the two together.  F_p has no scalar type: its
elements are plain ints, and ``test_scalars`` checks ``PrimeField.coerce``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadralab.errors import NotInvertible
from quadralab.extension import ExtensionField
from quadralab.poly import MultiPoly, PolyRing, RationalFunction
from quadralab.scalars import GaussianRational, QQi

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=15)

RING = PolyRing(("x", "y"))
SQRT2 = ExtensionField(QQi, "t", 2, 2)

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_qi = st.builds(GaussianRational, _fractions, _fractions)


def _polys(max_terms):
    terms = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), _qi)
    return st.lists(terms, max_size=max_terms).map(
        lambda ts: sum((RING.monomial(e, c) for e, c in ts), RING.zero()))


FIELDS = {
    "qi": _qi,
    "ratfunc": st.builds(RationalFunction, _polys(2), _polys(2).filter(bool)),
    "sqrt2": st.lists(_qi, min_size=2, max_size=2).map(SQRT2.element),
}
RINGS = {**FIELDS, "poly": _polys(3)}
# a root tower inverts monomials only, so its field axioms draw c*t^k
UNITS = {**FIELDS, "sqrt2": st.builds(lambda c, k: SQRT2.coerce(c) * SQRT2.root() ** k,
                                      _qi, st.integers(0, 1))}


@pytest.mark.parametrize("kind", RINGS)
@SEEDED
@given(data=st.data())
def test_ring_axioms(kind, data):
    a, b, c = (data.draw(RINGS[kind]) for _ in range(3))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("kind", RINGS)
@SEEDED
@given(data=st.data(), k=st.integers(-5, 5))
def test_subtraction_is_adding_the_negative(kind, data, k):
    a, b = data.draw(RINGS[kind]), data.draw(RINGS[kind])
    assert a - b == a + (-b)
    assert a - k == a + (-k)
    assert k - a == k + (-a)


@pytest.mark.parametrize("kind", RINGS)
@SEEDED
@given(data=st.data(), m=st.integers(0, 3), n=st.integers(0, 3))
def test_powers_add_exponents(kind, data, m, n):
    a = data.draw(RINGS[kind])
    assert a ** m * a ** n == a ** (m + n)


@pytest.mark.parametrize("kind", UNITS)
@SEEDED
@given(data=st.data(), m=st.integers(-2, 2), n=st.integers(-2, 2))
def test_negative_powers_add_exponents(kind, data, m, n):
    a = data.draw(UNITS[kind].filter(bool))
    assert a ** m * a ** n == a ** (m + n)


@pytest.mark.parametrize("kind", UNITS)
@SEEDED
@given(data=st.data(), k=st.integers(1, 5))
def test_division_undoes_multiplication(kind, data, k):
    a, b = data.draw(FIELDS[kind]), data.draw(UNITS[kind].filter(bool))
    assert (a / b) * b == a
    assert (a / k) * k == a
    assert (k / b) * b == k


@pytest.mark.parametrize("kind", FIELDS)
@SEEDED
@given(data=st.data())
def test_zero_is_not_invertible(kind, data):
    a = data.draw(FIELDS[kind])
    zero = a - a
    assert not zero
    with pytest.raises(NotInvertible):
        zero.inverse()
    with pytest.raises(NotInvertible):
        a / zero
    with pytest.raises(NotInvertible):
        zero ** -1


@SEEDED
@given(a=FIELDS["ratfunc"], c=_polys(2).filter(bool))
def test_equal_rational_functions_hash_equal(a, c):
    b = RationalFunction(a.num * c, a.den * c, reduce=False)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("kind", RINGS)
@SEEDED
@given(data=st.data(), k=st.integers(0, 12))
def test_equal_to_an_int_hashes_as_it(kind, data, k):
    a = data.draw(RINGS[kind])
    for x in (a, a - a + k):
        if x == k:
            assert hash(x) == hash(k) and len({k, x}) == 1


@pytest.mark.parametrize("kind", RINGS)
@SEEDED
@given(data=st.data())
def test_assignment_raises(kind, data):
    a = data.draw(RINGS[kind])
    with pytest.raises(AttributeError, match=f"^{type(a).__name__} is immutable$"):
        a.coeffs = None


class TestPolynomialDivisionIsRefused:
    x, y = RING.gens()

    @pytest.mark.parametrize("op", [
        lambda x, y: x / y,
        lambda x, y: x / 2,
        lambda x, y: 2 / x,
        lambda x, y: x ** -1,
        lambda x, y: x ** 1.5,
    ])
    def test_type_error(self, op):
        with pytest.raises(TypeError):
            op(self.x, self.y)

    def test_mixed_division_is_a_rational_function(self):
        fy = RationalFunction(self.y)
        assert isinstance(self.x / fy, RationalFunction)
        assert (self.x / fy) * fy == self.x
        assert isinstance(fy - self.x, RationalFunction)
        assert isinstance(self.x - fy, RationalFunction)
        assert isinstance(self.x - self.y, MultiPoly)

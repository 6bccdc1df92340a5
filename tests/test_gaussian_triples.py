"""Seeded properties: Q(i) as reduced int triples against the Fraction-pair oracle.

``scalars.GaussianRational`` holds (x + y*i)/d with d > 0 and
gcd(x, y, d) = 1; ``qi_oracle.GaussianRational`` holds re + im*i as two
Fractions.  Every operation must give the same value, hash and literal,
and every result must be in normal form.
"""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadralab.errors import NotInvertible
from quadralab.scalars import GaussianRational, PrimeField

import qi_oracle

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)
_pairs = st.one_of(
    st.tuples(_parts, _parts),
    st.tuples(_parts, st.just(Fraction(0))),
)
_ints = st.integers(-10**6, 10**6)


def _both(parts):
    re, im = parts
    return GaussianRational(re, im), qi_oracle.GaussianRational(re, im)


def _agrees(z, ref):
    assert type(z) is GaussianRational
    assert z.d > 0 and gcd(z.x, z.y, z.d) == 1
    assert (z.re, z.im) == (ref.re, ref.im)
    assert hash(z) == hash(ref)
    assert str(z) == str(ref)
    assert bool(z) == bool(ref)


OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
}


@pytest.mark.parametrize("op", OPS)
@SEEDED
@given(a=_pairs, b=_pairs)
def test_binary_ops_match_the_oracle(op, a, b):
    (z, ref), (w, ref_w) = _both(a), _both(b)
    if op == "truediv" and not ref_w:
        with pytest.raises(NotInvertible):
            z / w
        return
    _agrees(OPS[op](z, w), OPS[op](ref, ref_w))


@pytest.mark.parametrize("op", OPS)
@SEEDED
@given(a=_pairs, k=_ints, q=_parts)
def test_mixed_operands_match_the_oracle(op, a, k, q):
    z, ref = _both(a)
    for other in (k, q):
        if op == "truediv" and not other:
            with pytest.raises(NotInvertible):
                z / other
            continue
        _agrees(OPS[op](z, other), OPS[op](ref, other))
        if ref:
            _agrees(OPS[op](other, z), OPS[op](other, ref))


@SEEDED
@given(a=_pairs, n=st.integers(-3, 4))
def test_inverse_and_powers_match_the_oracle(a, n):
    z, ref = _both(a)
    _agrees(z, ref)
    _agrees(-z, -ref)
    if not ref:
        with pytest.raises(NotInvertible):
            z.inverse()
        return
    _agrees(z.inverse(), ref.inverse())
    _agrees(z ** n, ref ** n)


@SEEDED
@given(a=_pairs, b=_pairs, k=_ints)
def test_equality_matches_the_oracle(a, b, k):
    (z, ref), (w, ref_w) = _both(a), _both(b)
    assert (z == w) == (ref == ref_w)
    assert (z == k) == (ref == k)
    assert (z == a[0]) == (ref == a[0])
    if ref_w:
        # the same value reached by a different route hashes alike
        back = z * w / w
        assert back == z and hash(back) == hash(z)
        assert (back.x, back.y, back.d) == (z.x, z.y, z.d)


def test_zero_is_the_triple_0_0_1():
    z = GaussianRational(Fraction(3, 7), Fraction(-2, 9))
    for zero in (GaussianRational(), GaussianRational(Fraction(0, 5)), z - z, z * 0,
                 z + (-z)):
        assert (zero.x, zero.y, zero.d) == (0, 0, 1)
        assert zero == 0 and hash(zero) == hash(0)


def test_fraction_input_is_reduced_like_a_product():
    half = GaussianRational(Fraction(2, 4))
    product = GaussianRational(Fraction(1, 3)) * GaussianRational(Fraction(3, 2))
    assert (half.x, half.y, half.d) == (product.x, product.y, product.d) == (1, 0, 2)
    assert half == product == Fraction(1, 2)
    assert hash(half) == hash(product) == hash(Fraction(1, 2))
    assert len({half, product, Fraction(1, 2)}) == 1


def test_common_denominator_of_the_parts():
    z = GaussianRational(Fraction(1, 4), Fraction(5, 6))
    assert (z.x, z.y, z.d) == (3, 10, 12)
    assert z.re == Fraction(1, 4) and z.im == Fraction(5, 6)


@SEEDED
@given(a=_pairs)
def test_prime_field_reduction_matches_the_parts(a):
    field = PrimeField(13)
    z = GaussianRational(*a)
    if any(part.denominator % 13 == 0 for part in a):
        with pytest.raises(NotInvertible):
            field.coerce(z)
        return
    s = field.sqrt_minus_one
    assert field.coerce(z) == (field.coerce(a[0]) + field.coerce(a[1]) * s) % field.p

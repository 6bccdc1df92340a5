import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadralab.freealg import generators
from quadralab.poly import (
    FunctionField,
    MultiPoly,
    PolyRing,
    RationalFunction,
    det4,
    ideal_slice_membership,
    proportionality_scalar,
    verify_slice_certificate,
)
from quadralab.scalars import GaussianRational, gaussian

import qi_oracle
from poly_oracle import substitute


@pytest.fixture
def ring():
    return PolyRing(("a", "b", "c", "d"))


def rand_poly(rng, ring, terms=4, deg=3):
    out = ring.zero()
    for _ in range(terms):
        exp = tuple(rng.randint(0, deg) for _ in range(ring.nvars))
        out = out + ring.monomial(exp, gaussian(rng.randint(-5, 5), rng.randint(-2, 2)))
    return out


class TestMultiPoly:
    def test_grlex_leading(self, ring):
        a, b, c, d = ring.gens()
        p = a * a + b * c * d
        exp, coeff = p.leading()
        assert exp == (0, 1, 1, 1)  # degree 3 beats degree 2

    def test_ring_axioms_random(self, ring):
        rng = random.Random(3)
        for _ in range(60):
            f, g, h = (rand_poly(rng, ring) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)

    def test_exact_division(self, ring):
        rng = random.Random(9)
        for _ in range(60):
            f, g = rand_poly(rng, ring), rand_poly(rng, ring)
            if not g:
                continue
            q = (f * g).divide_exact(g)
            assert q == f
        a, b, _, _ = ring.gens()
        assert (a * a + b).divide_exact(a) is None

    def test_split_remultiplies_to_itself(self, ring):
        a, b, c, d = ring.gens()
        # a*c and a*d share the inner part a, a*c and b*c the outer part c
        f = a * c + a * d + b * c + a * a * c * d.scale(gaussian(2, -1)) + b + d + 3
        parts = f.split(("a", "b"))
        assert set(parts) == {(1, 0), (0, 1), (2, 0), (0, 0)}
        total = ring.zero()
        for exp, part in parts.items():
            total = total + ring.monomial(exp + (0, 0)) * part
            assert all(not e[0] and not e[1] for e in part.terms)
        assert total == f

    def test_substitute(self, ring):
        a, b, c, d = ring.gens()
        p = a * a - b
        q = substitute(p, {"a": b})
        assert q == b * b - b


SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=80)

_parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)
# a few exponents in two variables, so that term products collide
_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(_parts, _parts).filter(any),
    max_size=5,
)


def _oracle_product(f, g):
    """{exp: qi_oracle value} of f * g, summed term by term in Fraction pairs."""
    terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(exp, qi_oracle.GaussianRational()) + c1 * c2
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
    return terms


@SEEDED
@given(p=_terms, q=_terms, cancel=st.booleans())
def test_product_matches_the_oracle(p, q, cancel):
    # with cancel, the factors are p + q and p - q: every cross term cancels
    ring = PolyRing(("a", "b"))
    f, g = (MultiPoly(ring, {e: GaussianRational(*c) for e, c in t.items()})
            for t in (p, q))
    if cancel:
        f, g = f + g, f - g
    product = (f * g).terms
    expected = _oracle_product(
        *({e: qi_oracle.GaussianRational(c.re, c.im) for e, c in h.terms.items()}
          for h in (f, g)))
    assert list(product) == list(expected)
    for exp, z in product.items():
        assert type(z) is GaussianRational
        assert z and z.d > 0 and gcd(z.x, z.y, z.d) == 1
        assert (z.re, z.im) == (expected[exp].re, expected[exp].im)


class TestRationalFunction:
    def test_cross_multiplied_equality(self, ring):
        a, b, c, d = ring.gens()
        x = RationalFunction(a * b + b * b, b)  # reduces to a+b
        y = RationalFunction(a + b)
        assert x == y

    def test_equal_values_hash_equal(self, ring):
        a = ring.gen("a")
        f = RationalFunction((a + 1) * (a + 2), (a + 1) * (a + 3))
        g = RationalFunction(a + 2, a + 3)
        assert f == g and f.den != g.den
        assert hash(f) == hash(g) and len({f, g}) == 1
        field = FunctionField(ring)
        x0 = generators(field)[0]
        assert len({x0.scale(f), x0.scale(g)}) == 1
        assert hash(field.zero()) == hash(RationalFunction(a - a, a + 1))

    def test_monic_denominator(self, ring):
        a, b, _, _ = ring.gens()
        f = RationalFunction(a, b.scale(gaussian(3)))
        _, lc = f.den.leading()
        assert lc == gaussian(1)
        # a unit denominator is kept as it is; other ones still reduce
        x, y = RationalFunction(a + b), RationalFunction(a * b - gaussian(0, 1))
        assert (x * y).den == ring.one() and (x + y).den == ring.one()
        assert (x * y).num == (a + b) * (a * b - gaussian(0, 1))
        half = RationalFunction(a.scale(gaussian(2)), ring.constant(2))
        assert half.num == a and half.den == ring.one()
        q = RationalFunction(a * a - b * b, a - b)
        assert q.num == a + b and q.den == ring.one()

    def test_field_ops_random(self, ring):
        rng = random.Random(31)
        F = FunctionField(ring)
        for _ in range(25):
            nf, ng = rand_poly(rng, ring, 2, 2), rand_poly(rng, ring, 2, 2)
            df, dg = rand_poly(rng, ring, 2, 2), rand_poly(rng, ring, 2, 2)
            if not (df and dg and nf and ng):
                continue
            x = RationalFunction(nf, df)
            y = RationalFunction(ng, dg)
            assert (x + y) - y == x
            assert (x * y) / y == x

    def test_evaluate(self, ring):
        a, b, c, d = ring.gens()
        f = RationalFunction(a * a - b, b)
        vals = {"a": gaussian(3), "b": gaussian(2), "c": gaussian(0), "d": gaussian(0)}
        assert f.evaluate(vals) == gaussian(Fraction(7, 2))

    def test_evaluate_matches_term_by_term_powers(self, ring):
        rng = random.Random(17)
        for _ in range(20):
            f = rand_poly(rng, ring, 6, 4)
            vals = {name: gaussian(rng.randint(-3, 3), rng.randint(-2, 2)) for name in "abcd"}
            expected = gaussian(0)
            for exp, c in f.terms.items():
                for name, e in zip("abcd", exp):
                    c = c * vals[name] ** e
                expected = expected + c
            assert f.evaluate(vals) == expected
        with pytest.raises(KeyError):
            ring.gens()[3].evaluate({"a": gaussian(1)})


class TestMembership:
    def test_generator_itself(self, ring):
        a, b, c, d = ring.gens()
        g = a * c + b * d
        cert = ideal_slice_membership(g, [g])
        assert cert == [(0, (0, 0, 0, 0), gaussian(1))]
        assert verify_slice_certificate(g, [g], cert, ring.variables)

    def test_non_member(self):
        r = PolyRing(("x0", "x1"))
        x0, x1 = r.gens()
        assert ideal_slice_membership(x0 * x0 + x1 * x1, [x0]) is None

    def test_parametric_coefficients(self):
        # membership of alpha*x0^2 in (x0^2) over Q(i)(alpha)
        r = PolyRing(("alpha", "x0", "x1"))
        al = r.gen("alpha")
        x0 = r.gen("x0")
        f = al * x0 * x0
        cert = ideal_slice_membership(f, [x0 * x0], main_names=("x0", "x1"))
        assert verify_slice_certificate(f, [x0 * x0], cert, main_names=("x0", "x1"))


class TestProportionality:
    def test_constant_ratio(self, ring):
        a, b, _, _ = ring.gens()
        f = (a + b).scale(gaussian(0, 2))
        s = proportionality_scalar(f, a + b, ring.variables)
        assert s is not None and s.num.constant_term() == gaussian(0, 2)

    def test_parameter_ratio(self):
        r = PolyRing(("alpha", "x0"))
        al, x0 = r.gens()
        f = al * x0
        s = proportionality_scalar(f, x0, ("x0",))
        assert s is not None and s.num == al

    def test_not_proportional(self, ring):
        a, b, _, _ = ring.gens()
        assert proportionality_scalar(a + b, a - b, ring.variables) is None


def test_det4_antisymmetry(ring):
    rng = random.Random(41)
    rows = [[rand_poly(rng, ring, 2, 1) for _ in range(4)] for _ in range(4)]
    d1 = det4(rows)
    swapped = [rows[1], rows[0], rows[2], rows[3]]
    assert det4(swapped) == -d1
    rows[1] = rows[0]
    assert det4(rows).is_zero()

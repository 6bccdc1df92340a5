import random
from fractions import Fraction

import pytest

from quadralab.errors import NotInvertible, ScalarParseError
from quadralab.scalars import (
    DEFAULT_PRIME,
    MR_DETERMINISTIC_BOUND,
    GaussianRational,
    PrimeField,
    QQi,
    format_scalar,
    gaussian,
    parse_scalar,
)


def rand_gaussian(rng, span=20):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
    )


class TestParsing:
    @pytest.mark.parametrize("text,re_, im", [
        ("3/5+2/7*i", Fraction(3, 5), Fraction(2, 7)),
        ("-i", 0, -1),
        ("0/1", 0, 0),
        ("7", 7, 0),
        ("-4/9", Fraction(-4, 9), 0),
        ("i", 0, 1),
        ("2*i", 0, 2),
        ("1-2*i", 1, -2),
        ("-3/2-i", Fraction(-3, 2), -1),
    ])
    def test_literals(self, text, re_, im):
        z = parse_scalar(text)
        assert z.re == re_ and z.im == im

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            z = rand_gaussian(rng)
            assert parse_scalar(format_scalar(z)) == z

    def test_position_in_errors(self):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar("3/0")
        assert err.value.pos == 2
        with pytest.raises(ScalarParseError):
            parse_scalar("1+2")  # second part must be imaginary
        with pytest.raises(ScalarParseError):
            parse_scalar("")
        with pytest.raises(ScalarParseError):
            parse_scalar("i+i")


class TestFieldAxioms:
    def test_random_triples(self):
        rng = random.Random(23)
        for _ in range(150):
            x, y, z = (rand_gaussian(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x and x * y == y * x
            if x:
                assert x * x.inverse() == QQi.one()

    def test_i_squared(self):
        assert gaussian(0, 1) * gaussian(0, 1) == gaussian(-1)

    def test_zero_inverse_raises(self):
        with pytest.raises(NotInvertible):
            GaussianRational(0).inverse()


class TestPrimeField:
    def test_default_prime_root(self):
        field = PrimeField(DEFAULT_PRIME)
        s = field.sqrt_minus_one
        assert s == 256
        assert s * s % field.p == field.p - 1
        assert s <= field.p - s

    def test_requires_one_mod_four(self):
        with pytest.raises(ValueError):
            PrimeField(7)
        with pytest.raises(ValueError):
            PrimeField(100)

    def test_strong_pseudoprime_to_bases_up_to_37_rejected(self):
        # 399165290221 * 798330580441 passes Miller-Rabin to every prime base below 41
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(318665857834031151167461)

    def test_refuses_primes_past_the_proven_bound(self):
        # the bound itself passes Miller-Rabin to bases 2..41 but is composite
        for p in (MR_DETERMINISTIC_BOUND, 2 ** 89 - 1):
            with pytest.raises(ValueError, match=str(MR_DETERMINISTIC_BOUND)):
                PrimeField(p)

    def test_reduction_is_ring_homomorphism(self):
        field = PrimeField(DEFAULT_PRIME)
        rng = random.Random(17)
        for _ in range(200):
            x, y = rand_gaussian(rng), rand_gaussian(rng)
            fx, fy = field.coerce(x), field.coerce(y)
            assert field.coerce(x + y) == (fx + fy) % field.p
            assert field.coerce(x * y) == fx * fy % field.p

    def test_p_divides_denominator_rejected(self):
        field = PrimeField(13)
        with pytest.raises(NotInvertible):
            field.coerce(Fraction(1, 13))

    def test_p_dividing_only_the_imaginary_denominator_rejected(self):
        field = PrimeField(13)
        with pytest.raises(NotInvertible):
            field.coerce(GaussianRational(Fraction(1, 2), Fraction(3, 26)))
        # 13 divides only the imaginary numerator: that part vanishes mod 13
        z = GaussianRational(Fraction(1, 2), Fraction(26, 3))
        assert field.coerce(z) == field.coerce(Fraction(1, 2))

    @pytest.mark.parametrize("p", [13, DEFAULT_PRIME, 2 ** 64 + 13])
    def test_coerce_returns_the_residue(self, p):
        # an element of F_p is a plain int in [0, p): (x + y*s) * d^-1 mod p
        field = PrimeField(p)
        s = field.sqrt_minus_one
        rng = random.Random(p)
        span = 3 * p
        for _ in range(200):
            x, y = rng.randint(-span, span), rng.randint(-span, span)
            d = rng.randint(1, span)
            if d % p == 0:
                continue
            cases = [(x, x, 0, 1), (Fraction(x, d), x, 0, d),
                     (GaussianRational(Fraction(x, d), Fraction(y, d)), x, y, d)]
            for value, num_re, num_im, den in cases:
                got = field.coerce(value)
                assert type(got) is int and 0 <= got < p
                assert got == (num_re + num_im * s) * pow(den, -1, p) % p
        for value in (-1, -p, p, p + 1, 5 * p - 2):
            assert field.coerce(value) == value % p

    def test_zero_and_one_are_ints(self):
        field = PrimeField(13)
        assert type(field.zero()) is int and field.zero() == 0
        assert type(field.one()) is int and field.one() == 1

    def test_float_is_refused(self):
        with pytest.raises(TypeError):
            PrimeField(13).coerce(0.5)

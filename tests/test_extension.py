import random
from fractions import Fraction

import pytest

from quadralab.errors import NotInvertible
from quadralab.extension import ExtensionField
from quadralab.poly import FunctionField, PolyRing
from quadralab.scalars import QQi, gaussian


class TestDefiningRelation:
    def test_fourth_root_of_one(self):
        K = ExtensionField(QQi, "t", 4, 1)
        t = K.root()
        assert t * t ** 3 == K.one()
        assert t ** 4 == K.one()

    def test_reduction_of_high_powers(self):
        K = ExtensionField(QQi, "q", 4, 9)
        q = K.root()
        assert q ** 4 == K.coerce(9)
        assert q ** 6 == K.coerce(9) * q * q
        assert (q ** 4 - K.coerce(9)).is_zero()

    def test_zero_divisor_detected(self):
        # q^4 = 9 factors through q^2 = +-3, so q^2 - 3 kills q^2 + 3
        K = ExtensionField(QQi, "q", 4, 9)
        q = K.root()
        zd = q * q - K.coerce(3)
        assert (zd * (q * q + K.coerce(3))).is_zero()
        with pytest.raises(NotInvertible):
            zd.inverse()

    def test_inverse_of_root(self):
        K = ExtensionField(QQi, "q", 4, 2)
        q = K.root()
        inv = q.inverse()
        assert inv == q ** 3 * K.coerce(Fraction(1, 2))
        assert q * inv == K.one()


class TestTower:
    def test_mixed_arithmetic(self):
        K1 = ExtensionField(QQi, "q2", 4, 9)
        K2 = ExtensionField(K1, "q3", 4, Fraction(1, 4))
        q2 = K2.coerce(K1.root())
        q3 = K2.root()
        prod = q2 * q3
        assert prod ** 4 == K2.coerce(Fraction(9, 4))
        assert (prod * prod.inverse()) == K2.one()

    def test_random_inverses(self):
        rng = random.Random(77)
        K = ExtensionField(QQi, "r", 3, 5)  # cube root, non-power-of-two path
        for _ in range(40):
            coeffs = [gaussian(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(3)]
            x = K.element(coeffs)
            if not x:
                continue
            assert x * x.inverse() == K.one()

    def test_function_field_base(self):
        ring = PolyRing(("a", "b"))
        F = FunctionField(ring)
        a, b = F.gens()
        K = ExtensionField(F, "q", 4, a / b)
        q = K.root()
        assert q ** 4 == K.coerce(a / b)
        assert q.inverse() * q == K.one()

    def test_zero_radicand_rejected(self):
        with pytest.raises(ValueError):
            ExtensionField(QQi, "q", 4, 0)

import random
from fractions import Fraction

import pytest

from quadralab.errors import NotInvertible, PreconditionViolated
from quadralab.extension import ExtensionField
from quadralab.poly import FunctionField, PolyRing
from quadralab.scalars import QQi, gaussian


def fourth_root_tower(base, r2, r3):
    """base[q2; q2^4 = r2][q3; q3^4 = r3] with its roots, both read in the top level."""
    k1 = ExtensionField(base, "q2", 4, r2)
    k2 = ExtensionField(k1, "q3", 4, r3)
    return k2, k2.coerce(k1.root()), k2.root()


def function_field_tower():
    """(base, r2, r3, scalars c) over Q(i)(a,b,c,d)."""
    F = FunctionField(PolyRing(("a", "b", "c", "d")))
    a, b, c, d = F.gens()
    return F, (a + b) / (c * d), (c - d) / a, [a - b, (a + c) / (b * d)]


def gaussian_tower():
    """(base, r2, r3, scalars c) over Q(i)."""
    return QQi, gaussian(2), gaussian(3, 1), [gaussian(1), gaussian(-3, 2) / 4]


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
        # q^4 = 9 factors through q^2 = +-3, so q^2 - 3 kills q^2 + 3; it has
        # two terms, so the monomial-only inverse refuses it
        K = ExtensionField(QQi, "q", 4, 9)
        q = K.root()
        zd = q * q - K.coerce(3)
        assert (zd * (q * q + K.coerce(3))).is_zero()
        with pytest.raises(PreconditionViolated,
                           match=r"a root tower inverts monomials c\*t\^k only"):
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
        # random monomials c*r^k of a cube-root tower, a non-power-of-two n
        rng = random.Random(77)
        K = ExtensionField(QQi, "r", 3, 5)
        r = K.root()
        for _ in range(40):
            c = gaussian(rng.randint(-4, 4), rng.randint(-2, 2))
            if not c:
                continue
            x = K.coerce(c) * r ** rng.randint(0, 2)
            assert x * x.inverse() == K.one()

    def test_function_field_base(self):
        ring = PolyRing(("a", "b"))
        F = FunctionField(ring)
        a, b = F.gens()
        K = ExtensionField(F, "q", 4, a / b)
        q = K.root()
        assert q ** 4 == K.coerce(a / b)
        assert q.inverse() * q == K.one()

    @pytest.mark.parametrize("fixture", [gaussian_tower, function_field_tower])
    def test_monomial_inverses(self, fixture):
        # (c q2^i q3^j)^-1 = c^-1 r2^-1 r3^-1 q2^(4-i) q3^(4-j), a radicand
        # factor present only where its root is
        base, r2, r3, scalars = fixture()
        K, q2, q3 = fourth_root_tower(base, r2, r3)
        one = base.one()
        for c in scalars:
            for i in range(4):
                for j in range(4):
                    x = K.coerce(c) * q2 ** i * q3 ** j
                    s = one / c
                    s = s / r2 if i else s
                    s = s / r3 if j else s
                    expected = K.coerce(s) * q2 ** ((4 - i) % 4) * q3 ** ((4 - j) % 4)
                    assert x.inverse() == expected
                    assert x * x.inverse() == K.one()

    def test_root_over_a_zero_divisor_radicand(self):
        # s^2 = 1 makes 1 + s a zero divisor, so t with t^2 = 1 + s is one
        # too; the root over that two-term radicand is refused
        S = ExtensionField(QQi, "s", 2, 1)
        s = S.root()
        T = ExtensionField(S, "t", 2, S.one() + s)
        t = T.root()
        assert (t * t * T.coerce(S.one() - s)).is_zero()
        for x in (t, t * T.coerce(3)):
            with pytest.raises(PreconditionViolated,
                               match=r"a root tower inverts monomials c\*t\^k only"):
                x.inverse()

    def test_non_monomial_inverse(self):
        # 1 + q is a unit (its inverse is -(1 - q + q^2 - q^3) when q^4 = 2),
        # but a root tower inverts monomials only, so it is refused
        K = ExtensionField(QQi, "q", 4, 2)
        q = K.root()
        assert ((K.one() + q) * K.element([-1, 1, -1, 1])) == K.one()
        with pytest.raises(PreconditionViolated,
                           match=r"a root tower inverts monomials c\*t\^k only"):
            (K.one() + q).inverse()

    @pytest.mark.parametrize("fixture", [gaussian_tower, function_field_tower])
    def test_zero_is_not_invertible(self, fixture):
        base, r2, r3, _ = fixture()
        K, _, _ = fourth_root_tower(base, r2, r3)
        with pytest.raises(NotInvertible, match="zero element"):
            K.zero().inverse()

    def test_zero_radicand_rejected(self):
        with pytest.raises(ValueError):
            ExtensionField(QQi, "q", 4, 0)

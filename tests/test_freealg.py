import random
from fractions import Fraction

from dense_oracle import mat_mul
from quadralab.freealg import (
    FreeElement,
    anticommutator,
    apply_linear,
    commutator,
    generators,
    index_word,
    word_index,
)
from quadralab.scalars import QQi, gaussian


def rand_matrix(rng):
    return [[gaussian(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(4)]
            for _ in range(4)]


def rand_element(rng, max_deg=3):
    out = FreeElement()
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, max_deg)))
        out = out + FreeElement.from_word(word, gaussian(rng.randint(-4, 4)))
    return out


def rand_homogeneous(rng, n):
    """The degree-n part of a random element of degree at most n."""
    return FreeElement({w: c for w, c in rand_element(rng, n).terms.items() if len(w) == n})


class TestBrackets:
    def test_self_commutator_vanishes(self):
        x = generators()
        assert commutator(x[0], x[0]).is_zero()

    def test_commutator_words(self):
        x = generators()
        c = commutator(x[0], x[1])
        assert c.terms == {(0, 1): gaussian(1), (1, 0): gaussian(-1)}

    def test_anticommutator_words(self):
        x = generators()
        a = anticommutator(x[2], x[3])
        assert a.terms == {(2, 3): gaussian(1), (3, 2): gaussian(1)}


class TestLinearSubstitution:
    def test_identity(self):
        rng = random.Random(2)
        m = [[QQi.one() if i == j else QQi.zero() for j in range(4)] for i in range(4)]
        for _ in range(20):
            f = rand_element(rng)
            assert apply_linear(m, f) == f

    def test_composition(self):
        rng = random.Random(4)
        for _ in range(15):
            m1, m2 = rand_matrix(rng), rand_matrix(rng)
            f = rand_element(rng, max_deg=2)
            lhs = apply_linear(mat_mul(m1, m2), f)
            rhs = apply_linear(m1, apply_linear(m2, f))
            assert lhs == rhs

    def test_ring_homomorphism(self):
        rng = random.Random(6)
        for _ in range(15):
            m = rand_matrix(rng)
            f, g = rand_element(rng, 2), rand_element(rng, 2)
            assert apply_linear(m, f * g) == apply_linear(m, f) * apply_linear(m, g)


class TestCoefficientVector:
    def test_basis_position(self):
        x = generators()
        f = x[0] * x[1]
        assert f.coefficient_vector(2) == {1: gaussian(1)}

    def test_zero(self):
        assert FreeElement().coefficient_vector(3) == {}

    def test_bracket_combination(self):
        x = generators()
        f = commutator(x[0], x[1]) - anticommutator(x[2], x[3]).scale(gaussian(4))
        vec = f.coefficient_vector(2)
        assert vec == {
            word_index((0, 1)): gaussian(1),
            word_index((1, 0)): gaussian(-1),
            word_index((2, 3)): gaussian(-4),
            word_index((3, 2)): gaussian(-4),
        }

    def test_injective_on_homogeneous(self):
        rng = random.Random(8)
        for _ in range(30):
            f = rand_homogeneous(rng, 2)
            g = rand_homogeneous(rng, 2)
            if f.coefficient_vector(2) == g.coefficient_vector(2):
                assert f == g

    def test_word_index_round_trip(self):
        for idx in range(64):
            assert word_index(index_word(idx, 3)) == idx


def test_degree_additive():
    rng = random.Random(10)
    for _ in range(30):
        f = rand_homogeneous(rng, 2)
        g = rand_homogeneous(rng, 3)
        if f and g:
            assert (f * g).degree() == 5


def test_render_uses_labels():
    x = generators()
    f = x[0] * x[1] - x[2].scale(gaussian(Fraction(1, 2)))
    assert f.render(("z0", "z1", "z2", "z3")) == "(-1/2)*z2+z0*z1"

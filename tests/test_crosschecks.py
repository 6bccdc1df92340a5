"""Cross-backend and cross-route validations.

These tests pit independent computation paths against each other: the
quotient-side Hilbert recursion vs the ideal-side slices, identity-based relation
preservation vs rank-based preservation over a root tower, and randomized
robustness checks on the scalar parser.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from quadralab import linalg
from quadralab.errors import ScalarParseError
from quadralab.extension import ExtensionField
from quadralab.freealg import FreeElement, from_vector
from quadralab.geometry import PointTable
from quadralab.graded import GradedQuotient
from quadralab.linalg import SparseEchelon, settled, unsettled
from quadralab.presentations import chl_relations, chl_z_relations, sklyanin_relations
from quadralab.scalars import MR_DETERMINISTIC_BOUND, GaussianRational, QI_I, gaussian, parse_scalar
from quadralab.symmetry import ChlPsi

from slice_oracle import ExactSlices


@pytest.fixture(scope="module")
def both_sides():
    """(quotient, ideal slices) for three algebras, shared by the checks that pit them."""
    return [(GradedQuotient(space), ExactSlices(space))
            for space in (sklyanin_relations(2, 3, 5),
                          sklyanin_relations(2, -3, Fraction(-1, 5)),
                          chl_relations(1, 2, -4, 2))]


def _dense(rng, n, count):
    """A degree-n element of count words, denominators 1-7 and nonzero i-parts."""
    f = FreeElement()
    for _ in range(count):
        word = tuple(rng.randrange(4) for _ in range(n))
        coeff = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                 Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)))
        f = f + FreeElement.from_word(word, coeff)
    return f


class TestBackendCrossValidation:
    def test_quotient_side_equals_ideal_side(self, both_sides):
        # the recursion on A_{n-1} (x) V and the slices of (R) in V^n share
        # only the echelon kernel: equal dimensions, equal normal words and
        # equal normal forms through degree 5 check the recursion
        rng = random.Random(29)
        for quotient, slices in both_sides:
            tower = quotient.tower("exact")
            for n in range(2, 6):
                ideal = slices.slice(n)
                assert quotient.dimension(n) == 4 ** n - ideal.rank
                assert tower.words[n] == [c for c in range(4 ** n)
                                          if c not in ideal.pivot_of]
                for _ in range(20):
                    f = FreeElement()
                    for _ in range(rng.randint(1, 6)):
                        word = tuple(rng.randrange(4) for _ in range(n))
                        coeff = gaussian(rng.randint(-5, 5), rng.randint(-2, 2))
                        f = f + FreeElement.from_word(word, coeff)
                    residual = ideal.reduce(f.coefficient_vector(n))
                    assert quotient.normal_form(f) == from_vector(residual, n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_read_side_on_dense_elements(self, both_sides, n, monkeypatch):
        # the class is read on unsettled triples and settled once per
        # coordinate; mixed denominators make the sums take lcms and gcds
        calls = Counter()

        def counted(name, original):
            return lambda *args: calls.update([name]) or original(*args)

        rng = random.Random(97 + n)
        for quotient, slices in both_sides:
            exact, modular = quotient.tower("exact"), quotient.tower("modular")
            ideal = slices.slice(n)
            exact.mu(n)
            for _ in range(3):
                f = _dense(rng, n, 8 * n)
                with monkeypatch.context() as patch:
                    for name in ("lcm", "gcd"):
                        patch.setattr(linalg, name, counted(name, getattr(linalg, name)))
                    coords = exact.coordinates(f, n)
                assert all(type(v) is GaussianRational and v and v.d > 0
                           and gcd(v.x, v.y, v.d) == 1 for v in coords.values())
                residual = ideal.reduce(f.coefficient_vector(n))
                assert {exact.words[n][k]: v for k, v in coords.items()} == residual
                assert modular.coordinates(f, n) == unsettled(modular.field, coords)
                member = f - from_vector(residual, n)
                assert exact.coordinates(member, n) == {}
                assert modular.coordinates(member, n) == {}
        assert calls["lcm"] and calls["gcd"]

    def test_modular_tower_is_the_exact_tower_mod_p(self):
        # the two backends eliminate over different fields; where p divides
        # no denominator and no rank drops, the modular words, maps and
        # coordinates are the exact ones reduced mod p (the modular tower
        # holds them as int residues, the exact one mu as (x, y, d)
        # triples, settled here); the last algebra has non-real
        # coefficients, so i |-> s is checked through the whole tower
        rng = random.Random(43)
        for space in (sklyanin_relations(2, 3, 5),
                      sklyanin_relations(2, -3, Fraction(-1, 5)),
                      chl_relations(1, 2, -4, 2),
                      chl_relations(-2 * QI_I, 1, -QI_I, 2)):
            quotient = GradedQuotient(space)
            exact, modular = quotient.tower("exact"), quotient.tower("modular")
            field = modular.field

            def mod_p(vec):
                return {k: field.coerce(v) for k, v in vec.items()}

            for n in range(2, 6):
                assert modular.dimension(n) == exact.dimension(n)
                assert modular.words[n] == exact.words[n]
                for mod_j, exact_j in zip(modular.mu(n), exact.mu(n)):
                    assert mod_j == [mod_p(settled(exact.field, e)) for e in exact_j]
                for _ in range(10):
                    f = FreeElement()
                    for _ in range(rng.randint(1, 6)):
                        word = tuple(rng.randrange(4) for _ in range(n))
                        coeff = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                                 rng.randint(-2, 2))
                        f = f + FreeElement.from_word(word, coeff)
                    assert modular.coordinates(f, n) == mod_p(exact.coordinates(f, n))

    def test_modular_certificates_re_expand_mod_p(self):
        # the ideal part of a seeded element has a certificate on both
        # towers; the modular one re-expands to it mod p
        rng = random.Random(47)
        quotient = GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5)))
        modular = quotient.tower("modular")
        p = modular.field.p
        for n in (2, 3, 4):
            for _ in range(5):
                f = FreeElement()
                for _ in range(3):
                    word = tuple(rng.randrange(4) for _ in range(n))
                    f = f + FreeElement.from_word(word, gaussian(rng.randint(-3, 3), 1))
                g = f - quotient.normal_form(f)
                expanded = {}
                for left, r, right, lam in modular.certificate(g, n):
                    assert type(lam) is int and 0 < lam < p
                    for c, v in modular.rows[r].items():
                        w = left + divmod(c, 4) + right
                        expanded[w] = (expanded.get(w, 0) + lam * v) % p
                assert ({w: v for w, v in expanded.items() if v}
                        == unsettled(modular.field, g.terms))

    def test_prime_above_two_to_the_64(self):
        # residues past the machine word: the dims of A(2,3,5) mod a
        # 65-bit prime are the exact ones
        p = 2 ** 64 + 13
        assert p % 4 == 1 and p < MR_DETERMINISTIC_BOUND
        quotient = GradedQuotient(sklyanin_relations(2, 3, 5), p=p)
        assert (quotient.hilbert_function(6, backend="modular").dims
                == quotient.hilbert_function(6).dims)

    def test_two_primes_agree(self):
        q1 = GradedQuotient(chl_relations(1, 2, -4, 2), p=65537)
        q2 = GradedQuotient(chl_relations(1, 2, -4, 2), p=1000033)
        assert (q1.hilbert_function(5, backend="modular").dims
                == q2.hilbert_function(5, backend="modular").dims)


class TestTowerRankRoute:
    def test_order_four_map_preserves_relations_by_rank(self):
        # independent of the six scalar-multiple identities: lift the
        # z-relations into the tower and compare row spaces directly
        psi = ChlPsi(1, 2, -4, 2)
        tower = psi.field
        space = chl_z_relations(1, 2, -4, 2, verify=False)
        lifted = [
            FreeElement({w: tower.coerce(v) for w, v in e.terms.items()})
            for e in space.elements
        ]
        base = SparseEchelon(tower)
        for e in lifted:
            base.insert(e.coefficient_vector(2))
        assert base.rank == 6
        image = SparseEchelon(tower)
        for e in lifted:
            image.insert(psi.map(e).coefficient_vector(2))
        assert image.rank == 6
        for e in lifted:
            assert image.contains(e.coefficient_vector(2))
            assert base.contains(psi.map(e).coefficient_vector(2))


class TestDistinctnessSweep:
    def test_twenty_points_distinct_for_random_roots(self):
        rng = random.Random(71)
        found = 0
        while found < 25:
            roots = [GaussianRational(rng.randint(-5, 5), rng.randint(-3, 3))
                     for _ in range(3)]
            if not all(roots):
                continue
            table = PointTable(*roots)
            assert table.all_distinct()
            found += 1

    def test_distinct_at_parameter_sum_zero(self):
        # (1, i, 1) has parameters (1, -1, 1), parameter sum zero
        assert PointTable(1, QI_I, 1).all_distinct()


class TestScalarRobustness:
    @pytest.mark.parametrize("junk", [
        "3/", "/5", "i*i", "1+", "+", "--2", "2**i", "1/0", "abc",
        "2 + 3i extra", "1+2*j", "i2", "3i4",
    ])
    def test_junk_is_rejected_not_crashed(self, junk):
        with pytest.raises(ScalarParseError):
            parse_scalar(junk)

    def test_negative_powers(self):
        from quadralab.scalars import QQi

        z = gaussian(Fraction(2, 3), Fraction(-1, 5))
        assert z ** -2 == (z * z).inverse()
        K = ExtensionField(QQi, "q", 4, 2)
        q = K.root()
        assert q ** -3 == (q ** 3).inverse()

    def test_fuzzed_round_trip(self):
        rng = random.Random(13)
        for _ in range(200):
            z = GaussianRational(
                Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
            )
            assert parse_scalar(str(z)) == z

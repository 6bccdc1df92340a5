import random
from fractions import Fraction

import pytest

from quadralab.errors import (
    DegenerateParameters,
    DegeneratePresentation,
    NoUniqueSolution,
    PreconditionViolated,
)
from quadralab.freealg import FreeElement, word_index
from quadralab.poly import FunctionField, PolyRing
from quadralab.presentations import (
    CHLParams,
    EXCLUDED_L1,
    EXCLUDED_L2,
    RelationSpace,
    angle_invariant,
    chl_relations,
    chl_to_sklyanin_params,
    chl_z_relations,
    classify_chl,
    commutative_quotient_deg2,
    invariant_table,
    sklyanin_relations,
    x_to_z_matrix,
)
from quadralab.scalars import QQi, gaussian


def symbolic_field():
    return FunctionField(PolyRing(("alpha", "beta", "gamma")))


class TestParameterRecords:
    def test_chl_record_flags(self):
        p = CHLParams(gaussian(1), gaussian(2), gaussian(-4), gaussian(2))
        assert p.on_quadric and not p.vanishing_factors()


class TestSklyaninRelations:
    def test_row_coefficients(self):
        space = sklyanin_relations(4, 9, 25)
        # first row is [x0,x1] - alpha {x2,x3}
        assert space.rows[0][word_index((2, 3))] == gaussian(-4)
        assert space.rows[0][word_index((0, 1))] == gaussian(1)

    def test_zero_parameters_keep_rank_six(self):
        space = sklyanin_relations(0, 0, 0)
        assert space.echelon.rank == 6
        # commutator row survives with no anticommutator part
        assert space.rows[0] == {
            word_index((0, 1)): gaussian(1),
            word_index((1, 0)): gaussian(-1),
        }

    def test_rank_six_random(self):
        rng = random.Random(13)
        for _ in range(20):
            params = [gaussian(rng.randint(-6, 6), rng.randint(-2, 2)) for _ in range(3)]
            assert sklyanin_relations(*params).echelon.rank == 6


class TestChlRelations:
    def test_commutative_point(self):
        space = chl_relations(1, -1, 0, 0)
        dim, pivots = commutative_quotient_deg2(space)
        assert dim == 0  # every relation is a commutator

    def test_rank_six(self):
        assert chl_relations(1, 2, -4, 2).echelon.rank == 6

    def test_degenerate_reports_rows(self):
        with pytest.raises(DegeneratePresentation) as err:
            chl_relations(0, 0, 1, 0)
        assert err.value.rank == 5
        assert err.value.collapsed_rows == ["R6"]

    def test_zero_tuple_rejected(self):
        with pytest.raises(DegenerateParameters):
            CHLParams(gaussian(0), gaussian(0), gaussian(0), gaussian(0))


class TestZBasis:
    def test_verified_against_substitution(self):
        # construction itself asserts row-space equality with the image
        space = chl_z_relations(1, 2, -4, 2)
        assert space.echelon.rank == 6

    def test_stated_coefficients(self):
        space = chl_z_relations(1, 2, -4, 2)
        # a1 row: (a+b+c+d){z0,z1} - (a-b+c-d)[z2,z3] with values (1, -7)
        row = space.rows[1]
        assert row[word_index((0, 1))] == gaussian(1)
        assert row[word_index((2, 3))] == gaussian(7)

    def test_commutative_point_z_form(self):
        space = chl_z_relations(1, -1, 0, 0)
        dim, _ = commutative_quotient_deg2(space)
        assert dim == 0

    def test_symbolic_construction(self):
        ring = PolyRing(("a", "b", "c", "d"))
        F = FunctionField(ring)
        a, b, c, d = F.gens()
        space = chl_z_relations(a, b, c, d, field=F)
        assert space.echelon.rank == 6


class TestCorrespondence:
    def test_worked_example(self):
        corr = chl_to_sklyanin_params(1, 2, -4, 2)
        assert corr.alpha == gaussian(Fraction(1, 7))
        assert corr.beta == gaussian(-9)
        assert corr.gamma == gaussian(-4)
        assert corr.sigma_pi == gaussian(Fraction(-54, 7))
        assert corr.mu == (gaussian(-1), gaussian(-9), gaussian(1))
        assert corr.nu == (gaussian(-7), gaussian(1), gaussian(Fraction(-1, 4)))

    def test_off_quadric_rejected(self):
        with pytest.raises(PreconditionViolated):
            chl_to_sklyanin_params(1, 1, 1, 1)

    def test_vanishing_factor_named(self):
        with pytest.raises(PreconditionViolated) as err:
            chl_to_sklyanin_params(1, 2, -2, 1)
        assert "p+s" in str(err.value)

    def test_line_point_lands_on_parameter_sum_zero(self):
        corr = chl_to_sklyanin_params(gaussian(0, -2), 1, gaussian(0, -1), 2)
        assert not corr.sigma_pi


class TestPresentedTriple:
    """The quoted beta formula and the actual presentation differ by sign.

    Three independent confirmations: the basis-free permutation invariant
    of the z-relations, the scaled-basis row-space rewrite, and the
    Hilbert function (the claimed target has a 16-dimensional degree-3
    part, while R itself has a 20-dimensional one).
    """

    def test_invariant_gives_the_presented_triple(self):
        corr = chl_to_sklyanin_params(1, 2, -4, 2)
        inv = angle_invariant(chl_z_relations(1, 2, -4, 2))[0, 1, 2, 3]
        assert inv == corr.presented_triple
        assert inv != (corr.alpha, corr.beta, corr.gamma)

    def test_scaled_basis_rewrites_onto_the_presented_relations(self):
        from quadralab.presentations import scaled_basis_matches_sklyanin_form
        assert scaled_basis_matches_sklyanin_form(1, 2, -4, 2)
        assert scaled_basis_matches_sklyanin_form(
            gaussian(0, -2), 1, gaussian(0, -1), 2)

    def test_hilbert_evidence(self):
        from quadralab.graded import GradedQuotient
        r_dims = GradedQuotient(chl_relations(1, 2, -4, 2)).hilbert_function(
            3, backend="exact").dims
        claimed = GradedQuotient(sklyanin_relations(
            Fraction(1, 7), -9, -4)).hilbert_function(3, backend="exact").dims
        presented = GradedQuotient(sklyanin_relations(
            Fraction(1, 7), 9, -4)).hilbert_function(3, backend="exact").dims
        assert r_dims == [1, 4, 10, 20]
        assert presented == [1, 4, 10, 20]
        assert claimed == [1, 4, 10, 16]

    def test_presented_parameter_sum_vanishes_on_the_quadric(self):
        # symbolically: the numerator of the presented-triple parameter sum
        # is divisible by the quadric polynomial
        ring = PolyRing(("a", "b", "c", "d"))
        a, b, c, d = ring.gens()
        p, q, r, s = a + b, a - b, c + d, c - d
        F = FunctionField(ring)
        fa = FunctionField(ring).coerce
        alpha = fa(r * r - p * p) / fa(q * q - s * s)
        beta_presented = fa(p * p - s * s) / fa(q * q - r * r)
        gamma = fa(c * d) / fa(a * b)
        sp = alpha + beta_presented + gamma + alpha * beta_presented * gamma
        assert sp.num.divide_exact(a * c + b * d) is not None


class TestClassification:
    def test_off_quadric(self):
        assert classify_chl(1, 1, 1, 1).locus == "off-quadric"

    def test_line_point(self):
        cls = classify_chl(gaussian(0, -2), 1, gaussian(0, -1), 2)
        assert cls.locus == "l1" and not cls.excluded
        assert cls.special_alpha == gaussian(Fraction(7, 25), Fraction(-24, 25))
        assert cls.correspondence and not cls.correspondence.sigma_pi

    @pytest.mark.parametrize("tup", EXCLUDED_L1)
    def test_excluded_l1(self, tup):
        cls = classify_chl(*[QQi.coerce(v) for v in tup])
        assert cls.locus == "l1" and cls.excluded

    @pytest.mark.parametrize("tup", EXCLUDED_L2)
    def test_excluded_l2(self, tup):
        cls = classify_chl(*[QQi.coerce(v) for v in tup])
        assert cls.locus == "l2" and cls.excluded

    def test_excluded_special_alpha_degenerate_value(self):
        cls = classify_chl(*[QQi.coerce(v) for v in EXCLUDED_L1[0]])
        assert cls.special_alpha == gaussian(-1)

    def test_generic_quadric_point(self):
        cls = classify_chl(1, 2, -4, 2)
        assert cls.locus == "generic"
        assert cls.correspondence.sigma_pi == gaussian(Fraction(-54, 7))

    def test_degenerate_quadric_point(self):
        cls = classify_chl(1, 2, -2, 1)
        assert cls.locus == "degenerate"
        assert "p+s" in cls.vanishing


class TestClassificationSweep:
    def test_sklyanin_locus_exactly_on_the_lines(self):
        # random points of the quadric ac+bd=0: solve c = -bd/a
        rng = random.Random(97)
        i = gaussian(0, 1)
        hits = {"l1": 0, "l2": 0, "generic": 0}
        for trial in range(120):
            a = gaussian(rng.randint(-4, 4), rng.randint(-2, 2))
            b = gaussian(rng.randint(-4, 4), rng.randint(-2, 2))
            d = gaussian(rng.randint(-4, 4), rng.randint(-2, 2))
            if trial % 3 == 0 and b:
                # steer onto the first line: a = -id, c = -ib
                a, c = -i * d, -i * b
            elif trial % 3 == 1 and b:
                a, c = i * d, i * b
            else:
                if not a:
                    continue
                c = -(b * d) / a
            if not (a or b or c or d):
                continue
            cls = classify_chl(a, b, c, d)
            assert cls.locus != "off-quadric"
            on_l1 = not (a + i * d) and not (c + i * b)
            on_l2 = not (a - i * d) and not (c - i * b)
            if on_l1 or on_l2:
                assert cls.locus in ("l1", "l2")
                hits[cls.locus] += 1
            else:
                assert cls.locus in ("generic", "degenerate")
                if cls.locus == "generic":
                    hits["generic"] += 1
        assert hits["l1"] > 5 and hits["l2"] > 5 and hits["generic"] > 5


class TestAngleInvariants:
    def test_full_table_numeric(self):
        for params in ((2, 3, 5), (0, 3, 5), (1, 1, 1), (2, -3, "-1/5")):
            table = angle_invariant(sklyanin_relations(*params))
            assert len(table) == 24
            assert table == invariant_table(*(QQi.coerce(v) for v in params))

    def test_symbolic_pair(self):
        F = symbolic_field()
        al, be, ga = F.gens()
        table = angle_invariant(sklyanin_relations(al, be, ga, field=F))
        assert table[0, 1, 2, 3] == (al, be, ga)
        assert table[0, 1, 3, 2] == (-al, -ga, -be)
        assert table == invariant_table(al, be, ga)

    def test_zero_parameter_gives_a_zero_invariant(self):
        # [x0,x1] is a relation at alpha = 0, so the unique mu1 is 0
        assert angle_invariant(sklyanin_relations(0, 3, 5))[0, 1, 2, 3] == (0, 3, 5)

    def test_rotation_rule(self):
        for space in (sklyanin_relations(2, 3, 5), chl_z_relations(1, 2, 3, 5)):
            table = angle_invariant(space)
            for (p, q, r, s), (l1, l2, l3) in table.items():
                assert table[p, r, s, q] == (l2, l3, l1)

    def test_span_holding_an_anticommutator_has_no_unique_scalar(self):
        # {x2,x3} lies in the span, so [x0,x1] - mu {x2,x3} does for every
        # mu or for none
        one = QQi.one()
        words = [((2, 3), (3, 2)), ((0, 0),), ((1, 1),), ((2, 2),), ((3, 3),), ((0, 1),)]
        space = RelationSpace(QQi, [FreeElement({w: one for w in ws}) for ws in words])
        with pytest.raises(NoUniqueSolution):
            angle_invariant(space)

    def test_one_call_reduces_each_bracket_once(self, monkeypatch, capsys):
        from quadralab.cli import main
        from quadralab.linalg import SparseEchelon
        counts = {"reduce": 0, "product": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SparseEchelon, "_reduce", counted("reduce", SparseEchelon._reduce))
        monkeypatch.setattr(FreeElement, "__mul__", counted("product", FreeElement.__mul__))
        assert main(["iso-invariants", "--alpha=2", "--beta=3", "--gamma=5"]) == 0
        capsys.readouterr()
        # 6 inserts building the space and 12 bracket residuals; the 24
        # products are the brackets of sklyanin_relations
        assert counts["reduce"] <= 18
        assert counts["product"] <= 24


class TestIsomorphismSubstitutions:
    def test_cyclic_rotation(self):
        F = symbolic_field()
        al, be, ga = F.gens()
        zero, one = F.zero(), F.one()
        space = sklyanin_relations(al, be, ga, field=F)
        rot = [[one, zero, zero, zero],
               [zero, zero, one, zero],
               [zero, zero, zero, one],
               [zero, one, zero, zero]]
        assert space.transformed(rot).spans_same(
            sklyanin_relations(be, ga, al, field=F))

    def test_sign_swap(self):
        F = symbolic_field()
        al, be, ga = F.gens()
        zero, one = F.zero(), F.one()
        space = sklyanin_relations(al, be, ga, field=F)
        target = sklyanin_relations(-al, -ga, -be, field=F)
        m = [[one, zero, zero, zero],
             [zero, -one, zero, zero],
             [zero, zero, zero, one],
             [zero, zero, one, zero]]
        assert space.transformed(m).spans_same(target)
        # sending the last generator to minus the third breaks the match
        m[2][3] = -one
        assert not space.transformed(m).spans_same(target)


class TestCommutativeQuotient:
    def test_generic_dimension_six(self):
        dim, pivots = commutative_quotient_deg2(sklyanin_relations(2, 3, 5))
        assert dim == 6
        assert pivots == [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def test_all_zero_parameters(self):
        dim, _ = commutative_quotient_deg2(sklyanin_relations(0, 0, 0))
        assert dim == 3


def test_x_to_z_matrix_inverts_the_half_sum_substitution():
    from dense_oracle import identity_matrix, mat_mul

    half = gaussian(Fraction(1, 2))
    zero = QQi.zero()
    # z0 = (x2+x4)/2, z1 = (x1+x3)/2, z2 = (x1-x3)/2, z3 = (x2-x4)/2
    z_to_x = [[zero, half, half, zero],
              [half, zero, zero, half],
              [zero, half, -half, zero],
              [half, zero, zero, -half]]
    assert mat_mul(z_to_x, x_to_z_matrix()) == identity_matrix(QQi)
    assert mat_mul(x_to_z_matrix(), z_to_x) == identity_matrix(QQi)

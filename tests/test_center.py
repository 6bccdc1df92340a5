from fractions import Fraction

import pytest

from quadralab import poly
from quadralab.center import (
    central_pair_identities,
    central_pair_identity_report,
    chl_identity_report,
    chl_z1,
    chl_z1_central,
    chl_z2,
    chl_z2_central,
    sklyanin_central_pair,
    squares_identity_report,
    uqsl2_generator_search,
)
from quadralab.errors import PreconditionViolated
from quadralab.freealg import FreeElement, anticommutator, commutator, generators
from quadralab.graded import GradedQuotient
from quadralab.poly import FunctionField, PolyRing
from quadralab.presentations import chl_z_relations, sklyanin_elements, sklyanin_relations
from quadralab.scalars import QI_I, QQi, gaussian


def lifted(field, element):
    """element with each polynomial coefficient coerced into field."""
    return FreeElement({w: field.coerce(v) for w, v in element.terms.items()})


def function_field_central_pair():
    """{name: (lhs, rhs)} of the central pair over Q(i)(a1,a2), a3 = -(a1+a2)/(1+a1*a2)."""
    field = FunctionField(PolyRing(("a1", "a2")))
    a1, a2 = field.gens()
    one = field.one()
    a3 = -(a1 + a2) / (one + a1 * a2)
    x = generators(field)
    c, a = sklyanin_elements((a1, a2, a3), field)
    sq = [g * g for g in x]
    x0_com = (
        anticommutator(x[1], c[1]).scale(one + a2 * a3)
        + commutator(x[1], a[1]).scale(a2 * a3)
        + anticommutator(x[2], c[2]).scale(one + a3)
        + commutator(x[2], a[2]).scale(a3)
        + anticommutator(x[3], c[3]).scale(one - a2)
        - commutator(x[3], a[3]).scale(a2)
    )
    x1_omega0 = (
        (anticommutator(x[0], c[1]) + commutator(x[0], a[1]).scale(a1)).scale(one + a2)
        + commutator(x[3], c[2]).scale(one - a1)
        + anticommutator(x[3], a[2]).scale(one + a1 + a1 * a2 * 2)
        - (commutator(x[2], c[3]) + anticommutator(x[2], a[3])).scale(one + a1 * a2)
    )
    return {
        "x0-com": (x0_com, commutator(x[0], sq[1] + sq[2] + sq[3])),
        "x1-omega0": (x1_omega0, commutator(x[1], -sq[0] + sq[1] + sq[2] + sq[3])
                      .scale((one + a1) * (one + a2))),
    }


def chl_central(check, *abcd):
    """check (chl_z1_central or chl_z2_central) on the quotient of R(a,b,c,d) over Q(i)."""
    quotient = GradedQuotient(chl_z_relations(*abcd, verify=False))
    return check(*abcd, field=QQi, quotient=quotient)[0]


class TestIdentitySuites:
    def test_squares_families(self):
        report = squares_identity_report()
        assert len(report) == 12
        failing = [k for k, v in report.items() if not v]
        assert not failing

    def test_variant_coefficients_fail(self):
        # the third family's middle coefficient must be -(ai*ak+1) and its
        # last bracket enters positively; the nearby variants do not expand
        # to zero, so the suite is pinning a tight identity
        F = FunctionField(PolyRing(("a1", "a2", "a3")))
        a1, a2, a3 = F.gens()
        one = F.one()
        x = generators(F)
        cyc = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
        c, a = {}, {}
        for i_, (j_, k_) in cyc.items():
            al = (a1, a2, a3)[i_ - 1]
            c[i_] = commutator(x[0], x[i_]) - anticommutator(x[j_], x[k_]).scale(al)
            a[i_] = anticommutator(x[0], x[i_]) - commutator(x[j_], x[k_])
        sigma_pi = a1 + a2 + a3 + a1 * a2 * a3
        i_, j_, k_ = 1, 2, 3
        rhs = commutator(x[k_], x[i_] * x[i_]).scale(-sigma_pi)
        good = (
            anticommutator(x[i_], a[j_]).scale(a1 + a3)
            - commutator(x[i_], c[j_]).scale(a1 * a3 + one)
            + (anticommutator(x[0], c[k_]) - commutator(x[0], a[k_])).scale(a1 + one)
            + (anticommutator(x[j_], a[i_]).scale(a1) - commutator(x[j_], c[i_])).scale(a3 - one)
        )
        assert (good - rhs).is_zero()
        wrong_coeff = good + commutator(x[i_], c[j_]).scale(
            (a1 * a3 + one) - a1 * (a2 * a3 + one))
        assert not (wrong_coeff - rhs).is_zero()
        wrong_sign = (
            good
            - (anticommutator(x[j_], a[i_]).scale(a1)
               - commutator(x[j_], c[i_])).scale((a3 - one) * 2)
        )
        assert not (wrong_sign - rhs).is_zero()

    def test_central_pair_identities(self):
        report = central_pair_identity_report()
        assert report == {"x0-com": True, "x1-omega0": True}

    def test_cleared_pair_is_the_function_field_pair_times_d(self):
        # the oracle states both identities over Q(i)(a1,a2) with a3 itself;
        # the cleared "x0-com" is D times it, "x1-omega0" equals it
        oracle = function_field_central_pair()
        assert {k: (lhs - rhs).is_zero() for k, (lhs, rhs) in oracle.items()} == {
            "x0-com": True, "x1-omega0": True}
        F = FunctionField(PolyRing(("a1", "a2")))
        a1, a2 = F.gens()
        d = F.one() + a1 * a2
        for name, (lhs, rhs) in central_pair_identities().items():
            factor = d if name == "x0-com" else F.one()
            assert lifted(F, lhs) == oracle[name][0].scale(factor)
            assert lifted(F, rhs) == oracle[name][1].scale(factor)

    def test_cleared_pair_negative_controls(self):
        identities = central_pair_identities()
        ring = PolyRing(("a1", "a2"))
        a1, a2 = ring.gens()
        d = ring.one() + a1 * a2
        x = generators(ring)
        sq = [g * g for g in x]
        lhs, _ = identities["x0-com"]
        assert not (lhs - commutator(x[0], sq[1] + sq[2] + sq[3])).is_zero()
        c, a = sklyanin_elements((a1, a2, ring.zero()), ring)
        dc3 = c[3].scale(d) + anticommutator(x[1], x[2]).scale(a1 + a2)
        last = commutator(x[2], dc3) + anticommutator(x[2], a[3]).scale(d)
        lhs, rhs = identities["x1-omega0"]
        assert (lhs - rhs).is_zero()
        assert not (lhs + last.scale(2) - rhs).is_zero()

    def test_suites_build_no_rational_function(self, monkeypatch):
        # both suites are polynomial; a rational function here means one
        # of them slid back to the function field
        built = []
        init = poly.RationalFunction.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(poly.RationalFunction, "__init__", counted)
        assert all(squares_identity_report().values())
        assert all(central_pair_identity_report().values())
        assert not built
        assert function_field_central_pair() and built

    def test_suites_make_no_full_product_of_two_constants(self, monkeypatch):
        # a full MultiPoly product settles each coefficient with
        # poly._reduced; a constant operand takes the scale path instead
        settled = []
        reduced = poly._reduced
        monkeypatch.setattr(poly, "_reduced", lambda *t: settled.append(1) or reduced(*t))
        mul = poly.MultiPoly.__mul__
        pairs, full = [], []

        def constant(f):
            return not isinstance(f, poly.MultiPoly) or f.degree() == 0

        def counted(self, other):
            before = len(settled)
            out = mul(self, other)
            if constant(self) and constant(other):
                pairs.append(1)
                if len(settled) > before:
                    full.append(1)
            return out

        monkeypatch.setattr(poly.MultiPoly, "__mul__", counted)
        monkeypatch.setattr(poly.MultiPoly, "__rmul__", counted)
        assert all(squares_identity_report().values())
        assert all(central_pair_identity_report().values())
        assert len(pairs) >= 600 and not full
        # a product of two non-constant polynomials still settles its terms
        a1, a2 = PolyRing(("a1", "a2")).gens()
        assert a1 * a2 and settled

    def test_parameter_sum_identities(self):
        report = chl_identity_report()
        assert report == {"square-combination": True,
                          "sum-product-combination": True}


class TestSklyaninPair:
    def test_formulas_and_centrality(self):
        om0, om1 = sklyanin_central_pair(2, -3, Fraction(-1, 5))
        x = generators()
        sq = [g * g for g in x]
        assert om1 == (sq[0] + sq[1].scale(gaussian(Fraction(3, 5)))
                       - sq[2].scale(gaussian(Fraction(-1, 5)))
                       + sq[3].scale(gaussian(-3)))
        quotient = GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5)))
        assert quotient.is_central(om0)[0]
        assert quotient.is_central(om1)[0]

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            sklyanin_central_pair(2, 3, 5)  # parameter sum nonzero
        with pytest.raises(PreconditionViolated):
            sklyanin_central_pair(1, -1, 1)  # degenerate values

    def test_image_under_first_generator_map(self):
        # the permute-and-scale map sends omega0 to a scalar multiple of omega1
        from quadralab.poly import FunctionField, PolyRing
        from quadralab.symmetry import LinearAutomorphism

        F = FunctionField(PolyRing(("a", "b", "c")))
        a, b, c = F.gens()
        # psi1: x0 -> b c x1, x1 -> -i x0, x2 -> -i b x3, x3 -> -c x2
        i = F.coerce(QI_I)
        psi1 = LinearAutomorphism(F, (1, 0, 3, 2), (b * c, -i, -i * b, -c))
        x = generators(F)
        sq = [g * g for g in x]
        omega0 = -sq[0] + sq[1] + sq[2] + sq[3]
        omega1 = (sq[0] + sq[1].scale(b * b * c * c)
                  - sq[2].scale(c * c) + sq[3].scale(b * b))
        image = psi1(omega0)
        ratios = {w: v / omega1.terms[w] for w, v in image.terms.items()}
        assert len(set(str(r) for r in ratios.values())) == 1


class TestZ1:
    def test_both_bases_agree(self):
        x_form, z_form = chl_z1(1, 2, -4, 2)
        z = generators()
        expected = ((z[0] * z[0]).scale(gaussian(-4))
                    + (z[1] * z[1]).scale(gaussian(6))
                    + (z[2] * z[2]).scale(gaussian(2))
                    + (z[3] * z[3]).scale(gaussian(-12)))
        assert z_form == expected

    def test_central_numeric(self):
        assert chl_central(chl_z1_central, 1, 2, -4, 2)

    def test_central_at_commutative_point(self):
        assert chl_central(chl_z1_central, 1, -1, 0, 0)

    def test_central_off_the_quadric(self):
        # no quadric or genericity hypotheses are needed, only rank six
        assert chl_central(chl_z1_central, 1, 2, 3, 4)


class TestZ2:
    def test_equals_half_psi_image_and_central(self):
        psi, z2 = chl_z2(1, 2, -4, 2)
        coeff = z2.terms[(0, 0)]
        expected = psi.field.coerce(gaussian(3)) * ((psi.q2 * psi.q3).inverse() ** 2)
        assert coeff == expected
        assert chl_central(chl_z2_central, 1, 2, -4, 2)

    def test_denominator_guard(self):
        with pytest.raises(PreconditionViolated):
            chl_z2(1, 0, 1, 0)


class TestGeneratorSearch:
    def test_search_finds_the_working_assignment(self):
        solutions, degenerate = uqsl2_generator_search(Fraction(-1, 4))
        assert not degenerate
        assert solutions, "expected at least one valid assignment"
        for sol in solutions:
            # Y+- are x2 -+ i x3 up to interchange; K, K' are x0 +- x1
            assert {sol["K"], sol["K'"]} == {
                (0, 1, gaussian(1)), (0, 1, gaussian(-1))}
            assert {sol["Y+"][0:2], sol["Y-"][0:2]} == {(2, 3)}

    def test_bad_alpha_rejected(self):
        with pytest.raises(PreconditionViolated):
            uqsl2_generator_search(1)

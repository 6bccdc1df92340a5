import random
from fractions import Fraction

import pytest

from quadralab import symmetry
from quadralab.cli import main
from quadralab.errors import DegenerateParameters, PreconditionViolated
from quadralab.geometry import PointTable, ProjectivePoint
from quadralab.poly import FunctionField, PolyRing
from quadralab.presentations import sklyanin_relations
from quadralab.scalars import QI_I, QQi, gaussian
from quadralab.symmetry import (
    ChlPsi,
    LinearAutomorphism,
    chl_rho_values,
    contragredient_table,
    gamma_maps,
    heisenberg_checks,
    orbits,
    point_action_is_faithful,
    preserves_relations,
    psi_maps,
    sklyanin_criterion,
)
from quadralab.presentations import CHLParams


@pytest.fixture(scope="module")
def psis():
    return psi_maps(2, 3, 5)


@pytest.fixture(scope="module")
def table():
    return PointTable(2, 3, 5)


class TestPreservation:
    def test_psi_maps_preserve(self, psis):
        space = sklyanin_relations(4, 9, 25)
        for psi in psis:
            assert preserves_relations(psi, space)

    def test_sign_maps_preserve_any_parameters(self):
        space = sklyanin_relations(2, 3, 5)
        for g in gamma_maps():
            assert preserves_relations(g, space)

    def test_plain_swap_fails(self):
        space = sklyanin_relations(2, 3, 5)
        swap = LinearAutomorphism(QQi, (1, 0, 2, 3), (1, 1, 1, 1))
        assert not preserves_relations(swap, space)

    def test_scaling_one_generator_fails(self):
        space = sklyanin_relations(4, 9, 25)
        scale = LinearAutomorphism(QQi, (0, 1, 2, 3), (1, 2, 1, 1))
        assert not preserves_relations(scale, space)

    def test_closed_under_composition_and_inverse(self, psis):
        space = sklyanin_relations(4, 9, 25)
        assert preserves_relations(psis[0].compose(psis[1]), space)
        assert preserves_relations(psis[2].inverse(), space)


class TestCriterion:
    def test_psi_columns_satisfy_it(self):
        a, b, c = gaussian(2), gaussian(3), gaussian(5)
        i = QI_I
        assert sklyanin_criterion((b * c, -i, -i * b, -c), (4, 9, 25), (1, 2, 3))

    def test_all_ones_fails(self):
        assert not sklyanin_criterion((1, 1, 1, 1), (4, 9, 25), (1, 2, 3))

    def test_matches_preservation_on_random_scalars(self):
        rng = random.Random(7)
        space = sklyanin_relations(4, 9, 25)
        checked = 0
        for _ in range(40):
            lams = [gaussian(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                             Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                    for _ in range(4)]
            if not all(lams):
                continue
            # x0 -> l0 x1, x1 -> l1 x0, x2 -> l2 x3, x3 -> l3 x2
            phi = LinearAutomorphism(QQi, (1, 0, 3, 2), lams)
            assert sklyanin_criterion(lams, (4, 9, 25), (1, 2, 3)) == \
                preserves_relations(phi, space)
            checked += 1
        assert checked > 25


class TestGroupStructure:
    def test_full_report(self):
        report = heisenberg_checks(2, 3, 5)
        failing = [k for k, v in report.items() if not v]
        assert not failing

    def test_swapped_involutions_fail_exactly_the_squares(self, monkeypatch, capsys):
        # negative control: with gamma2 and gamma3 swapped only the two
        # squares that name them can fail (the Klein relations still hold)
        g1, g2, g3 = gamma_maps()
        monkeypatch.setattr(symmetry, "gamma_maps", lambda: (g1, g3, g2))
        report = heisenberg_checks(2, 3, 5)
        failing = [k for k, v in report.items() if not v]
        assert failing == ["psi2^2 = scalar * gamma2", "psi3^2 = scalar * gamma3"]
        assert main(["autos", "--abc", "2,3,5"]) == 1
        assert "psi2^2 = scalar * gamma2: False" in capsys.readouterr().out

    def test_square_scalar(self, psis):
        # psi1^2 is -i * (second root) * (third root) times the involution
        g1 = gamma_maps()[0]
        scal = psis[0].compose(psis[0]).compose(g1.inverse()).is_scalar()
        assert scal == gaussian(0, -15)

    def test_group_commutator_is_i(self, psis):
        comm = (psis[0].compose(psis[1])
                .compose(psis[0].inverse()).compose(psis[1].inverse()))
        assert comm.is_scalar() == QI_I

    def test_composed_maps_invert_on_use(self, psis, table):
        prod = psis[0].compose(psis[1])
        assert prod.inverse().compose(prod).is_scalar() == QQi.one()
        assert prod.compose(prod.inverse()).is_scalar() == QQi.one()
        for p in table.points():
            step = psis[0].on_point(psis[1].on_point(p))
            assert prod.on_point(p) == step
            assert prod.inverse().on_point(step) == p
        inv = psis[0].inverse()
        assert inv.power(2).matrix == inv.compose(inv).matrix

    def test_singular_matrix_refused(self):
        # x2 and x3 both go to x2, or x1 goes to zero
        with pytest.raises(DegenerateParameters, match="flat is singular"):
            LinearAutomorphism(QQi, (0, 1, 2, 2), (1, 1, 1, 1), label="flat")
        with pytest.raises(DegenerateParameters, match="flat is singular"):
            LinearAutomorphism(QQi, (0, 1, 2, 3), (1, 0, 1, 1), label="flat")

    def test_matrices_are_the_stated_ones(self, psis):
        i = QI_I
        assert [psi.matrix for psi in psis] == [
            [[0, -i, 0, 0], [15, 0, 0, 0], [0, 0, 0, -5], [0, 0, -3 * i, 0]],
            [[0, 0, -i, 0], [0, 0, 0, -5 * i], [10, 0, 0, 0], [0, -2, 0, 0]],
            [[0, 0, 0, -i], [0, 0, -3, 0], [0, -2 * i, 0, 0], [6, 0, 0, 0]],
        ]
        assert [g.matrix for g in gamma_maps()] == [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
        ]

    def test_a10_sigma_matrix(self, monkeypatch):
        # the sigma that acceptance criterion A10 builds from SIGMA_IMAGES
        from quadralab import selftest
        built = []

        class Recorded(LinearAutomorphism):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(selftest, "LinearAutomorphism", Recorded)
        assert selftest.a10_elliptic_data()[0]
        assert [m.matrix for m in built] == [
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]

    def test_dual_tables_are_inverses(self, psis):
        stated = contragredient_table(2, 3, 5)
        for t in range(3):
            assert stated[t] == psis[t].inverse().matrix


class TestPointAction:
    def test_displayed_images(self, psis):
        top = ProjectivePoint((30, 2, 3, 5))
        assert psis[0].on_point(top) == ProjectivePoint((2, gaussian(0, -2), QI_I, 1))
        assert psis[1].on_point(top) == ProjectivePoint((3, 1, gaussian(0, -3), QI_I))
        assert psis[2].on_point(top) == ProjectivePoint((5, QI_I, 1, gaussian(0, -5)))

    def test_twenty_point_set_preserved(self, psis, table):
        pts = set(table.points())
        for psi in psis:
            assert {psi.on_point(p) for p in pts} == pts

    def test_orbit_partition(self, psis, table):
        non_coord = [p for label in ("0", "1", "2", "3") for p in table.strata[label]]
        parts = orbits(non_coord, list(psis))
        assert len(parts) == 1 and len(parts[0]) == 16
        fixed = orbits(table.strata["inf"], list(gamma_maps()))
        assert [len(o) for o in fixed] == [1, 1, 1, 1]
        one_stratum = orbits(table.strata["1"], list(gamma_maps()))
        assert len(one_stratum) == 1 and len(one_stratum[0]) == 4

    def test_faithful_and_sign_maps_fix_nothing(self, psis, table):
        non_coord = [p for label in ("0", "1", "2", "3") for p in table.strata[label]]
        assert point_action_is_faithful(non_coord, psis[0], psis[1])
        for g in gamma_maps():
            for p in non_coord:
                assert g.on_point(p) != p


class TestChlPsi:
    def test_rho_values(self):
        params = CHLParams(gaussian(1), gaussian(2), gaussian(-4), gaussian(2))
        rho2, rho3 = chl_rho_values(params)
        assert rho2 == gaussian(9)
        # rho3 = -da/(bc); the sign makes the map an automorphism
        assert rho3 == gaussian(Fraction(1, 4))

    def test_numeric_fixture(self):
        psi = ChlPsi(1, 2, -4, 2)
        results = psi.verify()
        failing = [k for k, v in results.items() if not v]
        assert not failing

    def test_symbolic(self):
        ring = PolyRing(("a", "b", "c", "d"))
        F = FunctionField(ring)
        a, b, c, d = F.gens()
        psi = ChlPsi(a, b, c, d, field=F)
        results = psi.verify()
        failing = [k for k, v in results.items() if not v]
        assert not failing

    def test_vanishing_denominator_reported(self):
        with pytest.raises(PreconditionViolated):
            ChlPsi(1, 0, 1, 0)  # bc = 0 kills the second ratio

    @pytest.mark.parametrize("abcd, rho", [
        ((1, 1, 3, 1), "rho2"),  # a + b - c + d = 0
        ((0, 1, 1, 0), "rho2"),  # -(p - s)(q + r) = 0 and ad = 0: rho2 first
        ((1, 2, 5, 0), "rho3"),  # ad = 0 with rho2 = 1/6
    ])
    def test_vanishing_radicand_reported(self, abcd, rho):
        with pytest.raises(PreconditionViolated, match=f"^precondition violated: {rho} vanishes$"):
            ChlPsi(*abcd)

    def test_order_four_on_the_nose(self):
        psi = ChlPsi(1, 2, -4, 2)
        assert psi.map.power(4).is_scalar() == psi.field.one()
        assert psi.map.compose(psi.map).matrix[0][0] == psi.field.coerce(-1)

    def test_rho3_sign_is_forced(self):
        # with q3^4 = +da/(bc) the image of the third commutator relation
        # escapes the relation row space, so the map fails to extend
        from quadralab.extension import ExtensionField
        from quadralab.freealg import FreeElement
        from quadralab.linalg import SparseEchelon
        from quadralab.presentations import chl_z_relations
        from quadralab.scalars import QQi

        a, b, c, d = (gaussian(v) for v in (1, 2, -4, 2))
        rho2 = ((a + b - c + d) * (-a + b - c - d)
                / ((-a + b + c + d) * (a + b + c - d)))
        rho3_unsignd = (d * a) / (b * c)
        tower = ExtensionField(ExtensionField(QQi, "q2", 4, rho2), "q3", 4, rho3_unsignd)
        q2 = tower.coerce(tower.base.root())
        q3 = tower.root()
        taus = (-(q2 * q3), (q2 * q3).inverse(), q2 / q3, q3 / q2)
        bad = LinearAutomorphism(tower, (1, 0, 3, 2), taus)
        space = chl_z_relations(1, 2, -4, 2, verify=False)
        lifted = [FreeElement({w: tower.coerce(v) for w, v in e.terms.items()})
                  for e in space.elements]
        ech = SparseEchelon(tower)
        for e in lifted:
            ech.insert(e.coefficient_vector(2))
        c3 = lifted[4]
        assert ech.reduce(bad(c3).coefficient_vector(2))

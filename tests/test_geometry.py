import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import transpose
from poly_oracle import substitute
from quadralab import geometry, poly
from quadralab.center import chl_identity_report
from quadralab.errors import DegenerateParameters, PreconditionViolated
from quadralab.geometry import (
    MINOR_PAIRS,
    PARAM_VARS,
    SIGMA_IMAGES,
    X_VARS,
    PointTable,
    ProjectivePoint,
    curve_quadrics,
    curve_relations_certificate,
    eight_points,
    matrix_m,
    matrix_m_prime,
    maximal_minors,
    minor_factorization_report,
    minors_vanish_on_common_quadric_locus,
    mirror_x0,
    quadric_determinant,
    quadrics,
    sigma_point,
    stated_minor_forms,
    symbolic_ring,
    verify_gamma,
    verify_matrix_consistency,
    x_ring,
)
from quadralab.poly import PolyRing, det4, ideal_slice_membership, verify_slice_certificate
from quadralab.scalars import QI_I, GaussianRational, gaussian

_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_gaussians = st.builds(GaussianRational, _fractions, _fractions)
_entries = st.one_of(st.integers(-40, 40), _fractions, _gaussians)
_vectors = st.lists(_entries, min_size=4, max_size=4).filter(any)


def cofactor_minors(rows):
    """The fifteen maximal minors of a 6x4 matrix, each by ``det4`` cofactor expansion."""
    return {(i, j): det4([rows[k] for k in range(6) if k + 1 not in (i, j)])
            for i, j in MINOR_PAIRS}


def minor_matrices(params):
    """(ring, M, M' transposed) over the symbolic ring (params None) or at params."""
    if params is None:
        ring = symbolic_ring()
        params = [ring.gen(v) for v in PARAM_VARS]
    else:
        ring = x_ring()
    return (ring, matrix_m(*params, ring),
            transpose(matrix_m_prime(*params, ring)))


MINOR_PARAMS = pytest.mark.parametrize(
    "params", [None, (4, 9, 25), (2, -3, Fraction(-1, 5))],
    ids=["symbolic", "A(4,9,25)", "sklyanin"])


class TestMatrices:
    def test_first_row_entries(self):
        ring = x_ring()
        m = matrix_m(4, 9, 25, ring)
        x0, x1, x2, x3 = ring.gens()
        assert m[0] == [-x1, x0, -x3.scale(gaussian(4)), -x2.scale(gaussian(4))]

    def test_first_column_of_transpose_matrix(self):
        ring = x_ring()
        mp = matrix_m_prime(4, 9, 25, ring)
        x0, x1, x2, x3 = ring.gens()
        col = [mp[r][0] for r in range(4)]
        assert col == [-x1, x0, x3.scale(gaussian(4)), x2.scale(gaussian(4))]

    def test_rows_are_signed_relations(self):
        report = verify_matrix_consistency(4, 9, 25)
        assert report["m_matches"] == [
            ("c1", 1), ("c2", 1), ("c3", 1), ("a3", -1), ("a1", -1), ("a2", -1),
        ]
        assert len(report["m_prime_matches"]) == 6


class TestQuadrics:
    def test_q2_at_worked_values(self):
        ring = x_ring()
        _, _, q2, _ = quadrics(4, 9, 25, ring)
        x0, x1, x2, x3 = ring.gens()
        expected = (x0 * x0 + (x1 * x1).scale(gaussian(25))
                    - (x2 * x2).scale(gaussian(100)) - (x3 * x3).scale(gaussian(4)))
        assert q2 == expected

    def test_determinant_values(self):
        assert quadric_determinant(4, 9, 25) == gaussian(-879844)
        assert not quadric_determinant(2, -3, Fraction(-1, 5))

    def test_determinant_identity_symbolic(self):
        ring = PolyRing(("alpha", "beta", "gamma"))
        al, be, ga = ring.gens()
        sp = al + be + ga + al * be * ga
        assert quadric_determinant(al, be, ga) == -(sp * sp)

    def test_determinant_with_one_symbolic_parameter(self):
        be = PolyRing(("beta",)).gen("beta")
        sp = be.ring.constant(gaussian(29)) + be.scale(gaussian(101))
        assert quadric_determinant(4, be, 25) == -(sp * sp)


class TestMinors:
    def test_symbolic_factorizations(self):
        report = minor_factorization_report()
        assert set(report) == set(MINOR_PAIRS)
        for entry in report.values():
            assert entry["scalar"].num
            assert entry["mirror_scalar"].num

    def test_square_type_minors_have_matching_forms(self):
        report = minor_factorization_report()
        for pair in ((3, 4), (2, 6), (1, 5)):
            assert report[pair]["q_form_matches"]

    def test_numeric_factorizations(self):
        report = minor_factorization_report(4, 9, 25)
        assert len(report) == 15
        assert report[(2, 3)]["scalar"].num.constant_term() == gaussian(2)

    def test_minors_vanish_on_quadric_locus_at_sklyanin_point(self):
        # raises for a minor outside (q, q1)
        assert minors_vanish_on_common_quadric_locus(2, -3, Fraction(-1, 5)) is None

    def test_minor_membership_in_single_quadric_ideal(self):
        # h23 = (x0x1 - alpha x2x3) * q up to scalar, so it lies in (q)
        ring = x_ring()
        q, _, _, _ = quadrics(4, 9, 25, ring)
        h = maximal_minors(matrix_m(4, 9, 25, ring))[(2, 3)]
        assert ideal_slice_membership(h, [q]) is not None

    def test_a_wrong_sign_in_a_product_form_fails(self, monkeypatch):
        def flipped(alpha, beta, gamma, ring):
            forms = stated_minor_forms(alpha, beta, gamma, ring)
            x0, x1, x2, x3 = (ring.gen(v) for v in X_VARS)
            q = quadrics(alpha, beta, gamma, ring)[0]
            # the stated form is (x0x1 - alpha x2x3) q
            forms[2, 3] = (x0 * x1 + ring.coerce(alpha) * x2 * x3) * q
            return forms

        monkeypatch.setattr(geometry, "stated_minor_forms", flipped)
        with pytest.raises(AssertionError, match="stated factorization fails"):
            minor_factorization_report()

    def test_a_wrong_q_combination_form_fails(self, monkeypatch):
        def changed(alpha, beta, gamma, ring):
            forms = stated_minor_forms(alpha, beta, gamma, ring)
            squares, q_form = forms[3, 4]
            forms[3, 4] = (squares, q_form + ring.gen("x0") ** 4)
            return forms

        monkeypatch.setattr(geometry, "stated_minor_forms", changed)
        with pytest.raises(AssertionError, match="two stated forms differ"):
            minor_factorization_report()


class TestMaximalMinors:
    @MINOR_PARAMS
    @pytest.mark.parametrize("which", [1, 2], ids=["M", "M'T"])
    def test_match_cofactor_expansion(self, params, which):
        rows = minor_matrices(params)[which]
        minors = maximal_minors(rows)
        assert list(minors) == list(MINOR_PAIRS)
        assert minors == cofactor_minors(rows)

    @MINOR_PARAMS
    def test_mirror_is_the_x0_substitution(self, params):
        ring, m, mpt = minor_matrices(params)
        minus_x0 = {"x0": -ring.gen("x0")}
        for rows in (m, mpt):
            for minor in maximal_minors(rows).values():
                assert mirror_x0(minor) == substitute(minor, minus_x0)

    def test_numeric_rows_give_the_values_of_the_minors(self):
        # evaluation is a ring map: the minors of M(p) are the minors' values at p
        ring, m, mpt = minor_matrices((4, 9, 25))
        for p in (ProjectivePoint((1, 2, 3, 4)), ProjectivePoint((2, 0, QI_I, -1)),
                  PointTable(2, 3, 5).strata["1"][2]):
            for rows in (m, mpt):
                symbolic = maximal_minors(rows)
                values = [[p.evaluate(entry) for entry in row] for row in rows]
                numeric = maximal_minors(values)
                assert numeric == cofactor_minors(values)
                assert numeric == {pair: p.evaluate(h) for pair, h in symbolic.items()}

    def test_rejects_a_matrix_of_the_wrong_shape(self):
        with pytest.raises(ValueError):
            maximal_minors(matrix_m(4, 9, 25, x_ring())[:5])


class TestProjectivePoint:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(_vectors, _gaussians.filter(bool))
    def test_scaled_vectors_are_one_point(self, v, c):
        p, q = ProjectivePoint(v), ProjectivePoint([c * e for e in v])
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        # adding the first nonzero coordinate to the next one leaves the line
        m = next(k for k, e in enumerate(v) if e)
        w = list(v)
        w[(m + 1) % 4] = w[(m + 1) % 4] + v[m]
        assert ProjectivePoint(w) != q


class TestPointTable:
    def test_twenty_distinct_points(self):
        table = PointTable(2, 3, 5)
        assert len(table.points()) == 20 and table.all_distinct()

    def test_top_points(self):
        table = PointTable(2, 3, 5)
        assert table.strata["0"][0] == ProjectivePoint((30, 2, 3, 5))
        assert table.strata["1"][0] == ProjectivePoint((2, gaussian(0, -2), -QI_I, -1))

    def test_theta_on_strata(self):
        table = PointTable(2, 3, 5)
        e0 = ProjectivePoint((1, 0, 0, 0))
        assert table.theta(e0) == e0
        top = ProjectivePoint((30, 2, 3, 5))
        assert table.theta(top) == ProjectivePoint((-30, 2, 3, 5))

    def test_strata_are_sign_orbits(self):
        table = PointTable(2, 3, 5)
        for label in ("0", "1", "2", "3"):
            top = table.strata[label][0]
            assert table.strata[label][1:] == [
                top.sign_flip((2, 3)), top.sign_flip((1, 3)), top.sign_flip((1, 2))
            ]

    def test_zero_root_rejected(self):
        with pytest.raises(DegenerateParameters):
            PointTable(0, 1, 1)

    def test_distinct_even_at_sklyanin_parameters(self):
        # roots (1, i, 1) give parameters (1, -1, 1) with zero parameter sum
        table = PointTable(1, QI_I, 1)
        assert table.all_distinct()

    def test_nonzero_strata_lie_on_the_curve_quadrics_at_a_sklyanin_point(self):
        # roots (1, i, 1) give parameters (1, -1, 1) with zero parameter
        # sum; the sixteen non-coordinate points must satisfy q and q1
        table = PointTable(1, QI_I, 1)
        q, q1, _, _ = quadrics(1, -1, 1, x_ring())
        for label in ("0", "1", "2", "3"):
            for p in table.strata[label]:
                assert not p.evaluate(q)
                assert not p.evaluate(q1)

    def test_nonzero_strata_miss_the_quadrics_off_the_sklyanin_locus(self):
        table = PointTable(2, 3, 5)
        q, _, _, _ = quadrics(4, 9, 25, x_ring())
        assert any(p.evaluate(q) for p in table.strata["0"])


def gamma_passes(report):
    """verify_gamma's dict passes exactly when its failures list is empty."""
    holds = (report["points_distinct"] and report["relation_forms_vanish_on_graph"]
             and report["evaluation_kernel_dimension"] == 6
             and report["kernel_equals_relation_space"]
             and report["minors_vanish_at_projections"])
    assert holds == (report["failures"] == [])
    return holds


def random_gamma_fixtures():
    """Four seeded (alpha, beta, gamma, a, b, c) with rational roots, off both
    degenerate loci."""
    rng = random.Random(19)
    fixtures = []
    while len(fixtures) < 4:
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        al, be, ga = a * a, b * b, c * c
        if not al * be * ga or not al + be + ga + al * be * ga:
            continue
        fixtures.append((al, be, ga, a, b, c))
    return fixtures


#: the worked fixture, the Gaussian-root fixture and the seeded random ones
GAMMA_FIXTURES = [(4, 9, 25, 2, 3, 5), (4, -9, 25, 2, gaussian(0, 3), 5),
                  *random_gamma_fixtures()]


def counted_nonzero_minors(monkeypatch):
    """The points at which verify_gamma falls back to ``_nonzero_minors``, as it runs."""
    calls = []
    real = geometry._nonzero_minors

    def counted(coefficients, p):
        calls.append(p)
        return real(coefficients, p)

    monkeypatch.setattr(geometry, "_nonzero_minors", counted)
    return calls


class TestVerifyGamma:
    def test_worked_fixture(self):
        report = verify_gamma(4, 9, 25, 2, 3, 5)
        assert list(report) == [
            "points_distinct", "relation_forms_vanish_on_graph",
            "evaluation_kernel_dimension", "kernel_equals_relation_space",
            "minors_vanish_at_projections", "failures"]
        assert gamma_passes(report)
        assert report["evaluation_kernel_dimension"] == 6

    def test_gaussian_root_fixture(self):
        # beta = (3i)^2 = -9 exercises the imaginary arithmetic throughout
        report = verify_gamma(4, -9, 25, 2, gaussian(0, 3), 5)
        assert gamma_passes(report)

    def test_random_fixtures(self):
        for fixture in random_gamma_fixtures():
            assert gamma_passes(verify_gamma(*fixture))

    @pytest.mark.parametrize("fixture", GAMMA_FIXTURES,
                             ids=["worked", "gaussian-root", *(f"random-{k}" for k in range(4))])
    def test_witness_agrees_with_the_rank(self, fixture, monkeypatch):
        # the kernel witness settles every point, and the rank route, run
        # directly, finds no nonzero minor at any of them either
        al, be, ga, a, b, c = fixture
        (m, _), (mpt, _) = geometry._matrix_rows(al, be, ga)
        for p, pp in PointTable(a, b, c).graph():
            assert geometry._nonzero_minors(m, p) == {}
            assert geometry._nonzero_minors(mpt, pp) == {}
        calls = counted_nonzero_minors(monkeypatch)
        assert gamma_passes(verify_gamma(*fixture))
        assert calls == []

    @pytest.mark.parametrize("fixture, other", [(GAMMA_FIXTURES[0], 8),
                                                (GAMMA_FIXTURES[0], 4),
                                                (GAMMA_FIXTURES[1], 19)],
                             ids=["worked", "worked-real", "gaussian-root"])
    def test_rank_decides_where_the_witness_fails(self, fixture, other, monkeypatch):
        # (p7, theta(p_other)) is no graph pair, so the forms and both witness
        # products are nonzero there (with other = 4 they are real, at the
        # Gaussian-root fixture purely imaginary); p7 and theta(p_other) still
        # lie on the two projections, where the rank route finds every minor
        # zero
        class CrossedTable(geometry.PointTable):
            def graph(self):
                pairs = super().graph()
                pairs[7] = (pairs[7][0], pairs[other][1])
                return pairs

        monkeypatch.setattr(geometry, "PointTable", CrossedTable)
        calls = counted_nonzero_minors(monkeypatch)
        report = verify_gamma(*fixture)
        p, pp = CrossedTable(*fixture[3:]).graph()[7]
        assert report["relation_forms_vanish_on_graph"] is False
        assert any(f.startswith("form ") and f.endswith(f"({p!r}, {pp!r})")
                   for f in report["failures"])
        assert report["minors_vanish_at_projections"] is True
        assert not any(f.startswith("minor ") for f in report["failures"])
        assert calls == [p, pp]

    def test_minor_failures_at_a_pair_off_the_point_scheme(self, monkeypatch):
        # one graph pair is replaced by two points off both projections;
        # x2 = x3 = 0 at the first kills the minors with the factor
        # x0x3 + c*x1x2, so only some of its fifteen h minors are listed
        off = (ProjectivePoint((1, 2, 0, 0)), ProjectivePoint((1, -1, 2, QI_I)))

        class OffTable(geometry.PointTable):
            def graph(self):
                pairs = super().graph()
                pairs[7] = off
                return pairs

        monkeypatch.setattr(geometry, "PointTable", OffTable)
        report = verify_gamma(4, 9, 25, 2, 3, 5)
        ring = x_ring()
        hs = cofactor_minors(matrix_m(4, 9, 25, ring))
        gs = cofactor_minors(transpose(matrix_m_prime(4, 9, 25, ring)))
        expected = []
        for pair in MINOR_PAIRS:
            for p, pp in OffTable(2, 3, 5).graph():
                if p.evaluate(hs[pair]):
                    expected.append(f"minor h{pair} nonzero at {p!r}")
                if pp.evaluate(gs[pair]):
                    expected.append(f"minor g{pair} nonzero at {pp!r}")
        h_count = sum(f.startswith("minor h") for f in expected)
        assert 0 < h_count < 15
        assert len(expected) - h_count == 15
        assert report["minors_vanish_at_projections"] is False
        assert not gamma_passes(report)
        assert [f for f in report["failures"] if f.startswith("minor ")] == expected

    def test_sklyanin_point_refused(self):
        with pytest.raises(PreconditionViolated):
            verify_gamma(2, -3, Fraction(-1, 5), 1, 1, 1)

    def test_wrong_roots_refused(self):
        with pytest.raises(PreconditionViolated):
            verify_gamma(4, 9, 25, 2, 3, 4)


class TestEightPoints:
    def test_unit_parameters(self):
        pts = eight_points(1, 1, 1)
        assert ProjectivePoint((1, 1, 1, 1)) in pts
        assert ProjectivePoint((1, -1, -1, 1)) in pts
        for j in range(4):
            coords = [0] * 4
            coords[j] = 1
            assert ProjectivePoint(coords) in pts

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParameters):
            eight_points(0, 1, 1)


class TestCurve:
    def test_membership_and_order_four(self):
        curve = curve_quadrics(Fraction(-1, 4), x_ring())
        p = ProjectivePoint((1, QI_I, 2, gaussian(0, 2)))
        assert not any(p.evaluate(f) for f in curve)
        q = sigma_point(p)
        assert q == ProjectivePoint((QI_I, 1, gaussian(0, 2), -2))
        assert not any(q.evaluate(f) for f in curve)
        assert sigma_point(sigma_point(sigma_point(sigma_point(p)))) == p

    def test_symbolic_certificates(self):
        certs = curve_relations_certificate()
        assert len(certs) == 6
        # four of the six entries vanish identically, two are curve quadrics
        sizes = sorted(len(c) for c in certs)
        assert sizes == [0, 0, 0, 0, 1, 1]

    @pytest.mark.parametrize("check", [
        curve_relations_certificate,
        lambda: minors_vanish_on_common_quadric_locus(2, -3, Fraction(-1, 5)),
        chl_identity_report,
    ], ids=["curve", "minors", "chl"])
    def test_tampered_certificate_is_refused(self, monkeypatch, check):
        certificate = poly.MacaulaySlice.certificate

        def tampered(self, target):
            combo = certificate(self, target)
            # one more m * g: the certificate now sums to the target + m * g
            key = next(iter(combo))
            return {**combo, key: combo[key] + self.echelon.field.one()}

        monkeypatch.setattr(poly.MacaulaySlice, "certificate", tampered)
        with pytest.raises(AssertionError, match="re-expand"):
            check()

    @pytest.mark.parametrize("alpha", [None, Fraction(-1, 4)],
                             ids=["symbolic", "numeric"])
    def test_certificates_reexpand_to_the_entries(self, alpha):
        # entry t of M . sigma(x)^T is sum_k M[t][k] * sigma(x)_k; at a
        # numeric alpha the symbolic certificates are evaluated there
        certs = curve_relations_certificate()
        if alpha is None:
            ring = PolyRing(("alpha",) + X_VARS)
            al = ring.gen("alpha")
        else:
            ring, al = x_ring(), alpha
            point = {"alpha": gaussian(alpha)}
            certs = [[(gi, mono, c.evaluate(point)) for gi, mono, c in cert] for cert in certs]
        curve = curve_quadrics(al, ring)
        x = [ring.gen(v) for v in X_VARS]
        sigma_x = [x[src] if sgn > 0 else -x[src] for src, sgn in SIGMA_IMAGES]
        rows = matrix_m(al, 1, -1, ring)
        assert len(certs) == len(rows) == 6
        for row, cert in zip(rows, certs):
            entry = ring.zero()
            for e, s in zip(row, sigma_x):
                entry = entry + e * s
            assert verify_slice_certificate(entry, curve, cert, main_names=X_VARS)

"""The acceptance suite: every headline computation, with frozen expectations.

Each criterion returns a CheckResult; run_acceptance() executes them in
order and is the single source of truth for both the CLI selftest
subcommand and the pytest acceptance module.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .center import (
    central_pair_identity_report,
    chl_identity_report,
    chl_symbolic_central,
    sklyanin_central_pair,
    squares_identity_report,
    uqsl2_generator_search,
)
from .errors import InvalidInput
from .freealg import generators
from .geometry import (
    SIGMA_IMAGES,
    PointTable,
    ProjectivePoint,
    curve_quadrics,
    curve_relations_certificate,
    eight_points,
    minor_factorization_report,
    minors_vanish_on_common_quadric_locus,
    quadric_determinant,
    sigma_point,
    verify_gamma,
    verify_matrix_consistency,
    x_ring,
)
from .graded import GradedQuotient
from .poly import FunctionField, PolyRing
from .presentations import (
    EXCLUDED_L1,
    EXCLUDED_L2,
    angle_invariant,
    chl_to_sklyanin_params,
    chl_z_relations,
    classify_chl,
    commutative_quotient_deg2,
    scaled_basis_matches_sklyanin_form,
    sklyanin_relations,
)
from .scalars import QI_I, QI_ONE, QQi, gaussian
from .symmetry import (
    ChlPsi,
    LinearAutomorphism,
    heisenberg_checks,
    orbits,
    point_action_is_faithful,
    preserves_relations,
    psi_maps,
)


class CheckResult:
    def __init__(self, name, description, passed, detail="", seconds=0.0):
        self.name = name
        self.description = description
        self.passed = bool(passed)
        self.detail = detail
        self.seconds = seconds

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: {self.description}{extra}"

    def as_dict(self):
        # every attribute, so a new field cannot go missing from the JSON
        return dict(vars(self))


def _check(name, description, fn):
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed criterion is a failed criterion
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, description, passed, detail, time.perf_counter() - start)


def a1_hilbert_sklyanin():
    quotient = GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5)))
    dims = quotient.hilbert_function(4, backend="exact").dims
    expected = [1, 4, 10, 20, 35]
    return dims == expected, f"dims {dims}"


def a2_hilbert_generic():
    quotient = GradedQuotient(sklyanin_relations(2, 3, 5))
    modular = quotient.hilbert_function(6, backend="modular").dims
    exact = quotient.hilbert_function(4, backend="exact").dims
    expected = [1, 4, 10, 16, 19, 20, 20]
    ok = modular == expected and exact == expected[:5]
    return ok, f"modular {modular}, exact prefix {exact}"


def a3_point_scheme():
    report = verify_gamma(4, 9, 25, 2, 3, 5)
    eight_points(2, 3, 5)  # raises unless the eight points are distinct common zeros
    gamma = "; ".join(report["failures"]) or "all four assertions hold"
    return not report["failures"], f"{gamma}, eight-point lemma holds"


def a4_minor_factorizations():
    report = minor_factorization_report()
    ring = PolyRing(("alpha", "beta", "gamma"))
    al, be, ga = ring.gens()
    sp = al + be + ga + al * be * ga
    det_ok = quadric_determinant(al, be, ga) == -(sp * sp)
    # both raise when a matrix row, a membership or a certificate fails
    verify_matrix_consistency(4, 9, 25)
    minors_vanish_on_common_quadric_locus(2, -3, Fraction(-1, 5))
    return len(report) == 15 and det_ok, (
        f"{len(report)} factorizations, qdet identity {det_ok}, M and M' rows are "
        "the relations, minors in (q, q1) at the Sklyanin point")


def a5_centrality():
    details = []
    x = generators()
    skl = GradedQuotient(sklyanin_relations(2, -3, Fraction(-1, 5)))
    om0, om1 = sklyanin_central_pair(2, -3, Fraction(-1, 5))
    ok = skl.is_central(om0)[0] and skl.is_central(om1)[0]
    details.append(f"central pair {ok}")
    generic = GradedQuotient(sklyanin_relations(2, 3, 5))
    squares_ok = all(generic.is_central(g * g)[0] for g in x)
    details.append(f"squares {squares_ok}")
    not_central, failing = skl.is_central(x[0] * x[0])
    x0_ok = not not_central and failing is not None
    details.append(f"x0^2 non-central {x0_ok}")

    z1_ok, z2_ok, control_ok = chl_symbolic_central()
    details.append(f"Z1 symbolic {z1_ok}")
    details.append(f"Z2 symbolic {z2_ok}")
    details.append(f"Z1 + a z0^2 fails at z1 {control_ok}")
    return ok and squares_ok and x0_ok and z1_ok and z2_ok and control_ok, ", ".join(details)


def a6_identity_suite():
    reports = {}
    reports.update({f"squares:{k}": v for k, v in squares_identity_report().items()})
    reports.update({f"pair:{k}": v for k, v in central_pair_identity_report().items()})
    reports.update({f"chl:{k}": v for k, v in chl_identity_report().items()})
    bad = [k for k, v in reports.items() if not v]
    return not bad, f"{len(reports)} identities" + (f"; failing: {bad}" if bad else "")


def a7_automorphisms():
    details = []
    space = sklyanin_relations(4, 9, 25)
    psis = psi_maps(2, 3, 5)
    pres = all(preserves_relations(p, space) for p in psis)
    details.append(f"preserve {pres}")

    # braiding, psi_i^2 as a scalar times gamma_i, epsilon_i^4 = id and more
    group = heisenberg_checks(2, 3, 5)
    group_ok = all(group.values())
    details.append(f"{len(group)} group relations {group_ok}")

    table = PointTable(2, 3, 5)
    non_coord = [p for label in ("0", "1", "2", "3") for p in table.strata[label]]
    parts = orbits(non_coord, list(psis))
    orbit_ok = len(parts) == 1 and len(parts[0]) == 16
    details.append(f"single 16-orbit {orbit_ok}")
    faithful = point_action_is_faithful(non_coord, psis[0], psis[1])
    details.append(f"faithful {faithful}")

    ring = PolyRing(("a", "b", "c", "d"))
    F = FunctionField(ring)
    a, b, c, d = F.gens()
    psi = ChlPsi(a, b, c, d, field=F)
    res = psi.verify()
    chl_ok = all(res.values())
    details.append(f"chl psi symbolic {chl_ok}")
    return pres and group_ok and orbit_ok and faithful and chl_ok, ", ".join(details)


def a8_iso_invariants():
    ring = PolyRing(("alpha", "beta", "gamma"))
    F = FunctionField(ring)
    al, be, ga = F.gens()
    space = sklyanin_relations(al, be, ga, field=F)
    table = angle_invariant(space)
    inv_ok = table[0, 1, 2, 3] == (al, be, ga) and table[0, 1, 3, 2] == (-al, -ga, -be)

    zero, one = F.zero(), F.one()
    # cyclic rotation x1->x3, x2->x1, x3->x2 lands on the (beta,gamma,alpha) rows
    rot = [[one, zero, zero, zero],
           [zero, zero, one, zero],
           [zero, zero, zero, one],
           [zero, one, zero, zero]]
    rot_ok = space.transformed(rot).spans_same(sklyanin_relations(be, ga, al, field=F))
    # sign swap x1 -> -x1, x2 -> x3, x3 -> x2 lands on (-alpha,-gamma,-beta);
    # the variant with x3 -> -x2 does not
    m = [[one, zero, zero, zero],
         [zero, -one, zero, zero],
         [zero, zero, zero, one],
         [zero, zero, one, zero]]
    target = sklyanin_relations(-al, -ga, -be, field=F)
    swap_ok = space.transformed(m).spans_same(target)
    m_bad = [row[:] for row in m]
    m_bad[2][3] = -one
    variant_fails = not space.transformed(m_bad).spans_same(target)
    ok = inv_ok and rot_ok and swap_ok and variant_fails
    return ok, (f"invariants {inv_ok}, rotation {rot_ok}, sign swap {swap_ok}, "
                f"minus variant rejected {variant_fails}")


def a9_chl_correspondence():
    corr = chl_to_sklyanin_params(1, 2, -4, 2)
    vals_ok = (
        corr.alpha == gaussian(Fraction(1, 7))
        and corr.beta == gaussian(-9)
        and corr.gamma == gaussian(-4)
        and corr.sigma_pi == gaussian(Fraction(-54, 7))
    )
    cls = classify_chl(gaussian(0, -2), 1, gaussian(0, -1), 2)
    l1_ok = (
        cls.locus == "l1"
        and not cls.excluded
        and cls.special_alpha == gaussian(Fraction(7, 25), Fraction(-24, 25))
        and cls.correspondence is not None
        and not cls.correspondence.sigma_pi
    )
    excluded_ok = True
    for locus, points in (("l1", EXCLUDED_L1), ("l2", EXCLUDED_L2)):
        for tup in points:
            c = classify_chl(*tup)
            excluded_ok = excluded_ok and c.locus == locus and c.excluded
    scaled_ok = (scaled_basis_matches_sklyanin_form(1, 2, -4, 2)
                 and scaled_basis_matches_sklyanin_form(gaussian(0, -2), 1, gaussian(0, -1), 2))
    # both raise unless the z-basis rows span the substituted (R1)-(R6) rows
    chl_z_relations(1, 2, -4, 2)
    F = FunctionField(PolyRing(("a", "b", "c", "d")))
    chl_z_relations(*F.gens(), field=F)
    ok = vals_ok and l1_ok and excluded_ok and scaled_ok
    return ok, (f"map {vals_ok}, line point {l1_ok}, 12 excluded flagged {excluded_ok}, "
                f"scaled basis presents A(alpha, beta_presented, gamma) {scaled_ok}, "
                "z-basis presents (R1)-(R6) at (1,2,-4,2) and over Q(i)(a,b,c,d)")


def a10_elliptic_data():
    certs = curve_relations_certificate()
    symbolic_ok = len(certs) == 6
    curve = curve_quadrics(Fraction(-1, 4), x_ring())
    p = ProjectivePoint((1, QI_I, 2, gaussian(0, 2)))
    numeric_ok = not any(pt.evaluate(f) for pt in (p, sigma_point(p)) for f in curve)
    p4 = sigma_point(sigma_point(sigma_point(sigma_point(p))))
    order_ok = p4 == p
    # x_src -> sgn x_dst, so perm[src] = dst and scales[src] = sgn
    _, perm, scales = zip(*sorted((src, dst, sgn)
                                  for dst, (src, sgn) in enumerate(SIGMA_IMAGES)))
    sigma = LinearAutomorphism(QQi, perm, scales)
    proj_ok = sigma.power(4).is_scalar() is not None
    ok = symbolic_ok and numeric_ok and order_ok and proj_ok
    return ok, (f"six entries certified {symbolic_ok}, curve points {numeric_ok}, "
                f"sigma^4 projective identity {proj_ok}")


def a11_commutative_quotient():
    dim, pivots = commutative_quotient_deg2(sklyanin_relations(2, 3, 5))
    squarefree = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    ok = dim == 6 and pivots == squarefree
    return ok, f"dim {dim}, pivot monomials {pivots}"


def a12_uqsl2_generators():
    alpha = Fraction(-1, 4)
    solutions, degenerate = uqsl2_generator_search(alpha)
    search_ok = bool(solutions) and not degenerate
    # negative control: K = Y+ = x0+x1 fails K Y+ = -i Y+ K, which reads (1+i)(x0+x1)^2
    x = generators()
    k = x[0] + x[1]
    quotient = GradedQuotient(sklyanin_relations(alpha, 1, -1))
    control_ok = not quotient.contains((k * k).scale(QI_ONE + QI_I))
    return search_ok and control_ok, (
        f"{len(solutions)} assignments, {len(degenerate)} degenerate, "
        f"K = Y+ = x0+x1 rejected {control_ok}")


ACCEPTANCE = (
    ("A1", "exact Hilbert prefix of the Sklyanin point matches the polynomial ring",
     a1_hilbert_sklyanin),
    ("A2", "generic Hilbert prefix 1,4,10,16,19,20,20 (modular evidence, exact to degree 4)",
     a2_hilbert_generic),
    ("A3", "twenty-point scheme verification at (4,9,25) with roots (2,3,5)",
     a3_point_scheme),
    ("A4", "all fifteen symbolic minor factorizations and the quadric determinant",
     a4_minor_factorizations),
    ("A5", "centrality: the degree-2 pair, the four squares, and Z1/Z2 symbolically",
     a5_centrality),
    ("A6", "free-algebra identity suite with zero residuals",
     a6_identity_suite),
    ("A7", "automorphism group facts on both families",
     a7_automorphisms),
    ("A8", "isomorphism invariants and the two explicit substitutions",
     a8_iso_invariants),
    ("A9", "parameter correspondence, line classification, excluded points",
     a9_chl_correspondence),
    ("A10", "elliptic curve membership and the order-4 map",
     a10_elliptic_data),
    ("A11", "commutative quotient of degree 2 is the square-free span",
     a11_commutative_quotient),
    ("A12", "U_q(gl2)-style generators Y+, Y-, K, K' of A(-1/4,1,-1)",
     a12_uqsl2_generators),
)


def run_acceptance(names=None):
    """Run all (or the named) acceptance criteria; returns CheckResults.

    A name that is not a criterion raises InvalidInput before anything runs.
    """
    unknown = sorted(set(names or ()) - {name for name, _, _ in ACCEPTANCE})
    if unknown:
        raise InvalidInput(f"no acceptance criterion named {', '.join(unknown)}")
    return [_check(name, description, fn) for name, description, fn in ACCEPTANCE
            if not names or name in names]

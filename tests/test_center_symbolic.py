"""Function-field centrality over Q(i)(a,b,c,d), certified over Q(i).

Z1 and Z2 are central for symbolic (a,b,c,d): each commutator [Z, z_g]
carries a polynomial certificate, solved in one Macaulay slice that the
four generators share.  The Hilbert function through degree 3 and the
negative answers come from the generic rank, certified at a fixed point.
"""

import pytest

from quadralab.center import chl_z1, chl_z1_central, chl_z2, chl_z2_central
from quadralab.errors import PreconditionViolated
from quadralab.extension import ExtensionElement
from quadralab.freealg import FreeElement, apply_linear, commutator, generators
from quadralab.graded import SPECIALIZATION_POINT, GradedQuotient, verify_certificate
from quadralab.poly import FunctionField, PolyRing
from quadralab.presentations import chl_z_relations, sklyanin_relations
from quadralab.scalars import gaussian

from test_graded import tampered


@pytest.fixture(scope="module")
def symbolic():
    ring = PolyRing(("a", "b", "c", "d"))
    F = FunctionField(ring)
    a, b, c, d = F.gens()
    space = chl_z_relations(a, b, c, d, field=F, verify=False)
    return F, (a, b, c, d), GradedQuotient(space)


@pytest.fixture(scope="module")
def at_point():
    return GradedQuotient(chl_z_relations(*SPECIALIZATION_POINT[:4]))


def test_z1_central_symbolically(symbolic):
    F, (a, b, c, d), quotient = symbolic
    ok, failing = chl_z1_central(a, b, c, d, field=F, quotient=quotient)
    assert ok, f"generator z{failing} fails"


def test_z2_central_symbolically(symbolic):
    F, (a, b, c, d), quotient = symbolic
    ok, failing = chl_z2_central(a, b, c, d, field=F, quotient=quotient)
    assert ok, f"generator z{failing} fails"


def test_hilbert_function_to_degree_three(symbolic):
    _, _, quotient = symbolic
    assert quotient.hilbert_function(3).dims == [1, 4, 10, 20]


def _scaled_z2(F, a, b, c, d):
    """(q2 q3)^2 Z2 times b*c*((a-d)^2 - (b+c)^2): quintic polynomial coefficients."""
    psi, z2 = chl_z2(a, b, c, d, field=F)
    terms = {}
    for w, v in z2.scale((psi.q2 * psi.q3) ** 2).terms.items():
        while isinstance(v, ExtensionElement):
            v = v.constant_part()
        terms[w] = v * b * c * ((a - d) ** 2 - (b + c) ** 2)
    assert all(v.den == F.ring.one() for v in terms.values())
    return FreeElement(terms)


def _specialised(f):
    point = {name: gaussian(v) for name, v in zip("abcd", SPECIALIZATION_POINT)}
    return FreeElement({w: v.evaluate(point) for w, v in f.terms.items()})


@pytest.mark.parametrize("case", ["Z1 + a*z0^2", "scaled Z2 + a^5*z1^2"])
def test_perturbed_centrals_fail_at_exactly_three_generators(symbolic, at_point, case):
    F, (a, b, c, d), quotient = symbolic
    z = generators(F)
    if case == "Z1 + a*z0^2":
        passing = 0
        f = chl_z1(a, b, c, d, field=F)[1] + (z[0] * z[0]).scale(a)
    else:
        passing = 1
        f = _scaled_z2(F, a, b, c, d) + (z[1] * z[1]).scale(a ** 5)
    for g in range(4):
        bracket = commutator(f, z[g])
        assert quotient.contains(bracket) == (g == passing)
        cert = quotient.membership_certificate(bracket)
        assert (cert is not None) == (g == passing)
        if cert is not None:
            assert verify_certificate(quotient.space, cert, bracket)
            assert all(v.den == F.ring.one() for *_, v in cert)
            # cross-check: the specialised member is a member at the point
            assert at_point.contains(_specialised(bracket))


def test_tampered_certificates_are_refused(symbolic):
    F, (a, b, c, d), quotient = symbolic
    bracket = commutator(chl_z1(a, b, c, d, field=F)[1], generators(F)[1])
    cert = quotient.membership_certificate(bracket)
    assert verify_certificate(quotient.space, cert, bracket)
    for wrong in tampered(cert):
        assert not verify_certificate(quotient.space, wrong, bracket)


def test_refusals(symbolic):
    F, (a, b, c, d), quotient = symbolic
    z = generators(F)
    with pytest.raises(PreconditionViolated):
        quotient.normal_form(z[0] * z[1] * z[2])
    # 3a - 2b vanishes at the point (2, 3, 5, 7), so only a certificate could decide
    undecided = commutator(z[0] * z[0], z[1]).scale(3 * a - 2 * b)
    with pytest.raises(PreconditionViolated):
        quotient.contains(undecided)
    # the Sklyanin relations mix parameter degrees 0 and 1
    S = FunctionField(PolyRing(("alpha", "beta", "gamma")))
    x = generators(S)
    sklyanin = GradedQuotient(sklyanin_relations(*S.gens(), field=S))
    with pytest.raises(PreconditionViolated):
        sklyanin.contains(commutator(x[0] * x[0], x[1]))


def test_relabelings_fix_z1_and_the_relations(symbolic):
    F, (a, b, c, d), quotient = symbolic
    space = quotient.space
    zero, one = F.zero(), F.one()

    _, z1 = chl_z1(a, b, c, d, field=F)
    swap_first = [[zero, one, zero, zero], [one, zero, zero, zero],
                  [zero, zero, zero, one], [zero, zero, one, zero]]
    image = apply_linear(swap_first, z1)
    _, z1_swapped = chl_z1(b, a, d, c, field=F)
    assert image == z1_swapped
    assert chl_z_relations(b, a, d, c, field=F, verify=False).spans_same(
        space.transformed(swap_first))

    swap_last = [[zero, zero, zero, one], [zero, zero, one, zero],
                 [zero, one, zero, zero], [one, zero, zero, zero]]
    image = apply_linear(swap_last, z1)
    _, z1_negated = chl_z1(-a, -b, c, d, field=F)
    assert image == z1_negated
    assert chl_z_relations(-a, -b, c, d, field=F, verify=False).spans_same(
        space.transformed(swap_last))

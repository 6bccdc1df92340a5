"""Function-field centrality: the slowest exact computations in the suite.

Z1 and Z2 are certified central for symbolic (a,b,c,d) by degree-3 ideal
membership over Q(i)(a,b,c,d); the ideal slice is built once and shared,
and the Hilbert function through degree 3 is read from the same slices.
"""

import pytest

from quadralab.center import chl_z1, chl_z1_central, chl_z2_central
from quadralab.freealg import apply_linear
from quadralab.graded import GradedQuotient
from quadralab.poly import FunctionField, PolyRing
from quadralab.presentations import chl_z_relations


@pytest.fixture(scope="module")
def symbolic():
    ring = PolyRing(("a", "b", "c", "d"))
    F = FunctionField(ring)
    a, b, c, d = F.gens()
    space = chl_z_relations(a, b, c, d, field=F, verify=False)
    return F, (a, b, c, d), GradedQuotient(space)


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

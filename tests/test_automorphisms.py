"""Seeded properties of ``LinearAutomorphism`` against the dense oracle.

Each map is held as a permutation and four scalars.  Random
permute-and-scale maps over Q(i) and over the fourth-root tower of
``ChlPsi(1, 2, -4, 2)`` (with monomial scales, the only tower elements
that invert) are checked operation by operation against the
dense 4x4 forms, each random map read from its matrix by
``from_matrix``: ``compose`` against ``mat_mul``, ``inverse`` and
``power`` against the tracked-echelon inverse, ``__call__`` against
``apply_linear`` and, over Q(i) where the points live, ``on_point``
against the inverse-transpose mat-vec and, for Hypothesis-drawn Gaussian
scales, against the divided coordinates p[j] / scales[j].  ``orbits`` without inverse
generators and ``point_action_is_faithful`` from two permutations are
checked against their brute-force forms, and no operation may reach the
echelon kernel.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dual_point, from_matrix, identity_matrix, mat_inverse, mat_mul
from quadralab.errors import DegenerateParameters, PreconditionViolated
from quadralab.freealg import FreeElement, apply_linear
from quadralab.geometry import PointTable, ProjectivePoint
from quadralab.linalg import SparseEchelon
from quadralab.scalars import GaussianRational, PrimeField, QQi, gaussian
from quadralab.symmetry import (
    ChlPsi,
    LinearAutomorphism,
    gamma_maps,
    orbits,
    point_action_is_faithful,
    psi_maps,
)

TOWER = ChlPsi(1, 2, -4, 2)


def _qi(rng):
    return gaussian(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _tower_scalar(rng):
    # a monomial c q2^i q3^j, as psi's own scales are
    return (TOWER.field.coerce(_qi(rng)) * TOWER.q2 ** rng.randrange(4)
            * TOWER.q3 ** rng.randrange(4))


SCALARS = {"qi": (QQi, _qi), "tower": (TOWER.field, _tower_scalar)}


def _nonzero(rng, draw):
    while True:
        v = draw(rng)
        if v:
            return v


def _random_map(rng, field, draw):
    perm = list(range(4))
    rng.shuffle(perm)
    m = [[field.zero()] * 4 for _ in range(4)]
    for j, r in enumerate(perm):
        m[r][j] = _nonzero(rng, draw)
    return from_matrix(field, m)


def _random_element(rng, draw):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
        terms[word] = _nonzero(rng, draw)
    return FreeElement(terms)


@pytest.fixture(params=sorted(SCALARS))
def scalars(request):
    field, draw = SCALARS[request.param]
    return random.Random(request.param), field, draw


def test_compose_matches_mat_mul(scalars):
    rng, field, draw = scalars
    for _ in range(8):
        f, g = _random_map(rng, field, draw), _random_map(rng, field, draw)
        assert f.compose(g).matrix == mat_mul(f.matrix, g.matrix)


def test_inverse_matches_the_echelon_inverse(scalars):
    rng, field, draw = scalars
    for _ in range(6):
        f = _random_map(rng, field, draw)
        assert f.inverse().matrix == mat_inverse(field, f.matrix)


def test_power_matches_repeated_products(scalars):
    rng, field, draw = scalars
    f = _random_map(rng, field, draw)
    forward, backward = f.matrix, mat_inverse(field, f.matrix)
    for n in range(-4, 5):
        expected = identity_matrix(field)
        for _ in range(abs(n)):
            expected = mat_mul(forward if n > 0 else backward, expected)
        # power takes n >= 0; a negative power is the inverse's
        assert (f.power(n) if n >= 0 else f.inverse().power(-n)).matrix == expected


def test_call_matches_apply_linear(scalars):
    rng, field, draw = scalars
    for _ in range(6):
        f = _random_map(rng, field, draw)
        e = _random_element(rng, draw)
        assert f(e) == apply_linear(f.matrix, e)


def test_on_point_matches_the_inverse_transpose():
    rng = random.Random(31)
    for _ in range(12):
        f = _random_map(rng, QQi, _qi)
        p = ProjectivePoint([_qi(rng) for _ in range(3)] + [_nonzero(rng, _qi)])
        assert f.on_point(p) == dual_point(QQi, f.matrix, p)


_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_gaussians = st.builds(GaussianRational, _fractions, _fractions)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(perm=st.permutations(range(4)),
       scales=st.lists(_gaussians.filter(bool), min_size=4, max_size=4),
       coords=st.lists(_gaussians, min_size=4, max_size=4).filter(any))
def test_on_point_matches_the_divided_coordinates(perm, scales, coords):
    # the dual action as first written: q[perm[j]] = p[j] / scales[j]
    f = LinearAutomorphism(QQi, perm, scales)
    p = ProjectivePoint(coords)
    q = [None] * 4
    for j, (r, s) in enumerate(zip(perm, scales)):
        q[r] = p[j] / s
    assert f.on_point(p) == ProjectivePoint(q)


def test_is_scalar():
    c = gaussian(2, -1)
    assert LinearAutomorphism(QQi, (0, 1, 2, 3), (c,) * 4).is_scalar() == c
    assert psi_maps(2, 3, 5)[0].power(4).is_scalar() is not None
    assert gamma_maps()[0].is_scalar() is None


def test_prime_field_refused():
    # F_p values are plain ints with no inverse(), so inverse() could not work
    with pytest.raises(PreconditionViolated, match="psi1 needs scalars with inverse"):
        LinearAutomorphism(PrimeField(13), (0, 1, 2, 3), (1,) * 4, label="psi1")


def test_two_columns_on_one_row_are_singular():
    # x0 and x1 both go to multiples of x0: the matrix has two columns on row 0
    with pytest.raises(DegenerateParameters, match="map is singular"):
        LinearAutomorphism(QQi, (0, 0, 2, 3), (1, 1, 1, 1))


# seeded root triples (a, b, c), non-real roots among them
ROOT_TRIPLES = [
    (2, 3, 5),
    (gaussian(1, 1), 2, gaussian(0, 3)),
    (gaussian(1, 1), gaussian(2, -1), Fraction(1, 2)),
] + [
    tuple(gaussian(rng.randint(1, 6), rng.randint(-3, 3)) for _ in range(3))
    for rng in [random.Random(seed) for seed in (501, 502)]
]


def _roots_id(roots):
    return ",".join(str(v) for v in roots)


def _non_coordinate(table):
    return [p for label in ("0", "1", "2", "3") for p in table.strata[label]]


@pytest.mark.parametrize("roots", ROOT_TRIPLES, ids=_roots_id)
def test_orbits_need_no_inverse_generators(roots):
    table = PointTable(*roots)
    psis = list(psi_maps(*roots))
    gammas = list(gamma_maps())
    for pts, maps in ((_non_coordinate(table), psis),
                      (_non_coordinate(table), psis[:1]),
                      (table.strata["inf"], gammas),
                      (table.strata["1"], gammas[1:])):
        assert orbits(pts, maps) == orbits(pts, maps + [m.inverse() for m in maps])


def _faithful_by_brute_force(points, psi1, psi2):
    """The sixteen composed maps, each applied to every point."""
    pts = list(points)
    index = {p: k for k, p in enumerate(pts)}
    perms = set()
    for m in range(4):
        for n in range(4):
            g = psi1.power(m).compose(psi2.power(n))
            perms.add(tuple(index[g.on_point(p)] for p in pts))
    return len(perms) == 16


@pytest.mark.parametrize("roots", ROOT_TRIPLES, ids=_roots_id)
def test_faithfulness_matches_the_brute_force(roots):
    pts = _non_coordinate(PointTable(*roots))
    maps = list(psi_maps(*roots)) + list(gamma_maps())
    verdicts = set()
    for f in maps:
        for g in maps:
            verdict = point_action_is_faithful(pts, f, g)
            assert verdict == _faithful_by_brute_force(pts, f, g)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_one_map_twice_is_not_faithful():
    psi1 = psi_maps(2, 3, 5)[0]
    assert not point_action_is_faithful(_non_coordinate(PointTable(2, 3, 5)), psi1, psi1)


def test_no_operation_reaches_the_echelon_kernel(monkeypatch):
    pts = _non_coordinate(PointTable(2, 3, 5))

    def refuse(*_args, **_kwargs):
        raise AssertionError("the echelon kernel was reached")

    monkeypatch.setattr(SparseEchelon, "insert", refuse)
    psis = psi_maps(2, 3, 5)
    chl = ChlPsi(1, 2, -4, 2)
    g = psis[0].compose(psis[1]).inverse()
    assert chl.map.compose(chl.map).power(3).inverse().perm == (0, 1, 2, 3)
    assert chl.map.inverse().power(3).perm == (1, 0, 3, 2)
    assert g.on_point(pts[0]) in pts
    assert point_action_is_faithful(pts, psis[0], psis[1])

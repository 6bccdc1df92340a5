"""Seeded properties of the one echelon kernel, ``SparseEchelon``.

Rows are random sparse vectors over Q(i) and F_65537, mixed with linear
combinations of earlier rows so that some inserts are dependent.  Over
F_65537 the kernel holds int residues, so the values drawn there are ints.
The properties pin ``back_substitute``: it keeps the row space, pivots and
residuals, leaves each pivot row with free columns only besides its pivot,
and leaves the echelon usable for further inserts.  Over F_p every value
the kernel stores or returns is an int in [0, p), whatever int
representatives it is given, and tracked combos re-expand to the input.
Over Q(i), whatever mix of non-real values, ints and Fractions it is
given, every value the kernel stores (rows, combos, ``pivot_residual``) is
a nonzero reduced (x, y, d) int triple, d > 0 and gcd(x, y, d) = 1, with
each pivot exactly (1, 0, 1), and every value ``reduce`` and
``reduce_with_combo`` return is a nonzero ``GaussianRational`` in normal
form.  The kernel's triple inverse is ``GaussianRational.inverse``.
The dense oracle ``mat_inverse`` (``tests/dense_oracle.py``), built on the
tracked kernel, returns int residues over F_p whatever int representatives
it is given; ``det4(a) % p`` is its singularity oracle.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import identity_matrix, mat_inverse, mat_mul
from quadralab.errors import NotInvertible
from quadralab.linalg import SparseEchelon, _inverse, settled
from quadralab.poly import det4
from quadralab.scalars import QI_I, GaussianRational, PrimeField, QQi

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)

NCOLS = 10
P = 65537
F65537 = PrimeField(P)
_small = st.integers(-3, 3)
# (field, scalars, canonical form of a value)
FIELDS = {
    "qi": (QQi, st.builds(lambda x, y, d: GaussianRational(Fraction(x, d), Fraction(y, d)),
                          _small, _small, st.integers(1, 3)), lambda v: v),
    "f65537": (F65537, st.integers(0, P - 1), lambda v: v % P),
}


def _reduced_triple(t):
    return (type(t) is tuple and len(t) == 3 and all(type(v) is int for v in t)
            and (t[0] or t[1]) and t[2] > 0 and gcd(*t) == 1)


# (a pivot's stored value, the stored form of a nonzero value, its negation)
STORED = {
    "qi": ((1, 0, 1), _reduced_triple, lambda t: (-t[0], -t[1], t[2])),
    "f65537": (1, lambda v: type(v) is int and 0 < v < P, lambda v: -v % P),
}


def _vectors(scalars):
    return st.dictionaries(st.integers(0, NCOLS - 1), scalars.filter(bool), max_size=5)


def _combination(rows, coeffs, canon):
    out = {}
    for row, c in zip(rows, coeffs):
        for k, v in row.items():
            out[k] = out[k] + c * v if k in out else c * v
    return {k: r for k, v in out.items() if (r := canon(v))}


def _draw_rows(data, scalars, canon):
    """Random rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(data.draw(st.integers(1, 9))):
        if rows and data.draw(st.booleans()):
            picked = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            coeffs = [data.draw(scalars) for _ in picked]
            rows.append(_combination(picked, coeffs, canon))
        else:
            rows.append(data.draw(_vectors(scalars)))
    return rows


def _echelon(field, rows):
    ech = SparseEchelon(field)
    for row in rows:
        ech.insert(row)
    return ech


@pytest.mark.parametrize("kind", FIELDS)
@SEEDED
@given(data=st.data())
def test_back_substitution_keeps_the_row_space(kind, data):
    field, scalars, canon = FIELDS[kind]
    rows = _draw_rows(data, scalars, canon)
    probes = [data.draw(_vectors(scalars)) for _ in range(4)]
    ech = _echelon(field, rows)
    rank, pivots = ech.rank, ech.pivots()
    before = [ech.reduce(v) for v in probes]
    ech.back_substitute()
    assert ech.rank == rank and ech.pivots() == pivots
    for row in rows:
        assert ech.contains(row)
    for v, residual in zip(probes, before):
        after = ech.reduce(v)
        assert after == residual
        assert all(after.values())
        assert not set(after) & set(pivots)


@pytest.mark.parametrize("kind", FIELDS)
@SEEDED
@given(data=st.data())
def test_back_substituted_rows_are_reduced(kind, data):
    field, scalars, canon = FIELDS[kind]
    one, stored, negated = STORED[kind]
    ech = _echelon(field, _draw_rows(data, scalars, canon))
    ech.back_substitute()
    for col, ridx in ech.pivot_of.items():
        row = ech.rows[ridx]
        assert min(row) == col and row[col] == one
        assert all(map(stored, row.values()))
        assert not (set(row) - {col}) & set(ech.pivot_of)
        # the residual of a pivot column is minus the rest of its row (mod p
        # over F_p), held as the rows are and returned settled by reduce
        minus_rest = {c: negated(v) for c, v in row.items() if c != col}
        assert ech.pivot_residual(col) == minus_rest
        assert ech.reduce({col: field.one()}) == settled(field, minus_rest)


@pytest.mark.parametrize("kind", FIELDS)
@SEEDED
@given(data=st.data())
def test_insert_after_back_substitution(kind, data):
    field, scalars, canon = FIELDS[kind]
    rows = _draw_rows(data, scalars, canon)
    later = _draw_rows(data, scalars, canon)
    probes = [data.draw(_vectors(scalars)) for _ in range(4)]
    ech = _echelon(field, rows)
    ech.back_substitute()
    for row in later:
        ech.insert(row)
    fresh = _echelon(field, rows + later)
    assert ech.rank == fresh.rank and ech.pivots() == fresh.pivots()
    for v in probes:
        assert ech.reduce(v) == fresh.reduce(v)
    ech.back_substitute()
    assert [ech.reduce(v) for v in probes] == [fresh.reduce(v) for v in probes]


def test_back_substitution_refuses_a_tracked_echelon():
    ech = SparseEchelon(QQi, track=True)
    ech.insert({0: QQi.one(), 1: QQi.one()}, tag=0)
    ech.insert({1: QQi.one()}, tag=1)
    with pytest.raises(ValueError):
        ech.back_substitute()
    assert ech.rows[0] == {0: (1, 0, 1), 1: (1, 0, 1)}


def _canonical_residues(vec):
    return all(type(v) is int and 0 < v < P for v in vec.values())


def _expand(combo, sources):
    """sum combo[k] * sources[k], reduced mod P."""
    out = {}
    for k, c in combo.items():
        for col, v in sources[k].items():
            out[col] = (out.get(col, 0) + c * v) % P
    return {col: v for col, v in out.items() if v}


@SEEDED
@given(data=st.data())
def test_prime_field_values_are_canonical_residues(data):
    # any int represents its residue: the inputs run over several multiples of p
    scalars = st.integers(-3 * P, 3 * P)
    sources = _draw_rows(data, scalars, lambda v: v)
    probes = [data.draw(_vectors(scalars)) for _ in range(4)]
    ech = SparseEchelon(F65537, track=True)
    for k, row in enumerate(sources):
        ech.insert(row, tag=k)
    for row, combo in zip(ech.rows, ech.combos):
        assert _canonical_residues(row) and _canonical_residues(combo)
        assert _expand(combo, sources) == row
    for v in probes:
        residual = ech.reduce(v)
        again, combo = ech.reduce_with_combo(v)
        assert again == residual
        assert _canonical_residues(residual) and _canonical_residues(combo)
        # v = residual + sum combo[k] * source_k, mod p
        expanded = _expand(combo, sources)
        for col, r in residual.items():
            expanded[col] = (expanded.get(col, 0) + r) % P
        assert {c: r for c, r in expanded.items() if r} == {c: r % P for c, r in v.items() if r % P}
    untracked = _echelon(F65537, sources)
    untracked.back_substitute()
    for col in untracked.pivot_of:
        assert _canonical_residues(untracked.rows[untracked.pivot_of[col]])
        assert _canonical_residues(untracked.pivot_residual(col))


def _normal_form(vec):
    return all(type(v) is GaussianRational and v and v.d > 0 and gcd(v.x, v.y, v.d) == 1
               for v in vec.values())


def _reduced_triples(vec):
    return all(map(_reduced_triple, vec.values()))


def _expand_qi(combo, sources):
    """sum combo[k] * sources[k] over Q(i), without its zeros."""
    out = {}
    for k, c in combo.items():
        for col, v in sources[k].items():
            out[col] = out.get(col, 0) + c * v
    return {col: v for col, v in out.items() if v}


#: non-real values with denominators up to 10^6, and some ints and Fractions
_QI_INPUTS = st.one_of(
    st.builds(lambda x, y, d: GaussianRational(Fraction(x, d), Fraction(y, d)),
              st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool),
              st.integers(1, 10**6)),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))


@SEEDED
@given(data=st.data())
def test_gaussian_values_are_in_normal_form(data):
    sources = _draw_rows(data, _QI_INPUTS, lambda v: v)
    probes = [data.draw(_vectors(_QI_INPUTS)) for _ in range(4)]
    ech = SparseEchelon(QQi, track=True)
    for k, row in enumerate(sources):
        ech.insert(row, tag=k)
    for row, combo in zip(ech.rows, ech.combos):
        assert _reduced_triples(row) and _reduced_triples(combo)
        assert min(row) in ech.pivot_of and row[min(row)] == (1, 0, 1)
        assert _expand_qi(settled(QQi, combo), sources) == settled(QQi, row)
    for v in probes:
        residual = ech.reduce(v)
        again, combo = ech.reduce_with_combo(v)
        assert again == residual
        assert _normal_form(residual) and _normal_form(combo)
        # v = residual + sum combo[k] * source_k, exactly
        expanded = _expand_qi(combo, sources)
        for col, r in residual.items():
            expanded[col] = expanded.get(col, 0) + r
        assert {c: r for c, r in expanded.items() if r} == {c: r for c, r in v.items() if r}
    untracked = _echelon(QQi, sources)
    untracked.back_substitute()
    for col in untracked.pivot_of:
        assert _reduced_triples(untracked.rows[untracked.pivot_of[col]])
        assert _reduced_triples(untracked.pivot_residual(col))
        assert untracked.reduce({col: 1}) == settled(QQi, untracked.pivot_residual(col))


@SEEDED
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_triple_inverse_is_the_gaussian_inverse(x, y, d):
    z = GaussianRational(Fraction(x, d), Fraction(y, d))
    if not z:
        with pytest.raises(NotInvertible):
            _inverse(z.x, z.y, z.d)
        return
    inverse = z.inverse()
    assert _inverse(z.x, z.y, z.d) == (inverse.x, inverse.y, inverse.d)


def test_triple_inverse_fixes_the_sign_and_refuses_zero():
    assert _inverse(-3, 0, 4) == (-4, 0, 3)
    assert _inverse(0, -2, 3) == (0, 3, 2)
    with pytest.raises(NotInvertible):
        _inverse(0, 0, 1)


def test_default_tag_and_column_tags_re_expand_over_qi():
    # a source left at tag=None, and tags equal to column indices, are combo
    # keys like any other: none of them is taken for the pivot column
    sources = {None: {0: 1, 1: 2}, 0: {0: 1, 1: 3, 2: QI_I}, 1: {1: 1, 2: 5}}
    ech = SparseEchelon(QQi, track=True)
    for tag, row in sources.items():
        ech.insert(row, tag=tag)
    v = {0: 2, 1: Fraction(1, 3), 2: 1}
    residual, combo = ech.reduce_with_combo(v)
    assert not residual
    assert _expand_qi(combo, sources) == v


def _f65537_matrix(rng):
    """A random 4x4 matrix of ints, about a third of its entries zero mod P.

    The nonzero entries are arbitrary representatives of their residues.
    """
    return [[rng.randrange(-3 * P, 3 * P) if rng.random() < 0.7 else rng.randrange(-2, 3) * P
             for _ in range(4)] for _ in range(4)]


def _mod_p(m):
    return [[v % P for v in row] for row in m]


def test_mat_inverse_over_f65537():
    rng = random.Random(65537)
    identity = identity_matrix(F65537)
    inverted = 0
    for _ in range(40):
        a = _f65537_matrix(rng)
        if not det4(a) % P:
            with pytest.raises(ValueError):
                mat_inverse(F65537, a)
            continue
        inv = mat_inverse(F65537, a)
        assert all(type(v) is int and 0 <= v < P for row in inv for v in row)
        assert _mod_p(mat_mul(a, inv)) == identity
        assert _mod_p(mat_mul(inv, a)) == identity
        inverted += 1
    assert inverted >= 30


def test_mat_inverse_refuses_a_singular_matrix_over_f65537():
    a = _f65537_matrix(random.Random(4))
    a[3] = [x + y * 2 + 5 * P for x, y in zip(a[0], a[1])]
    assert not det4(a) % P
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(F65537, a)

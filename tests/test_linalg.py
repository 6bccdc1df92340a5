"""Seeded properties of the one echelon kernel, ``SparseEchelon``.

Rows are random sparse vectors over Q(i), F_65537 and the function field
Q(i)(t), mixed with linear combinations of earlier rows so that some
inserts are dependent.  Over F_65537 the kernel holds int residues, so the
values drawn there are ints; over Q(i)(t) it holds the field's own
``RationalFunction``s, drawn as a + b*t, and the draws stay small (6
columns, 4 rows) because their entries grow with no gcd.  A stored row
holds only the entries right of its pivot, whose 1 is implied, after
``insert`` and after ``back_substitute``, and a tracked row's combo
re-expands to the pivot's 1 plus the row.  The properties pin
``back_substitute``: it keeps the row space, pivots and residuals, leaves
each row with free columns only, and leaves the echelon usable for further
inserts.  Over F_p every value the kernel stores or returns is an int in
[0, p), whatever int representatives it is given, and tracked combos
re-expand to the input.  Over Q(i), whatever mix of non-real values, ints
and Fractions it is given, every value the kernel stores (rows, combos,
``pivot_residual``) is a nonzero reduced (x, y, d) int triple, d > 0 and
gcd(x, y, d) = 1, and every value ``reduce`` and ``reduce_with_combo``
return is a nonzero ``GaussianRational`` in normal form.  Rows whose
values are unreduced triples (x*g, y*g, d*g), with cancelled sums
(0, 0, d) beside them, as the quotient tower hands its image rows to the
kernel, give the pivots, rows, combos and residuals that the same rows
of ``GaussianRational``s give.  The triple inverse ``scalars._inverse``,
which the kernel and ``GaussianRational.inverse`` share, is reduced and
times z is 1 by ``GaussianRational`` multiplication.
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
from quadralab.linalg import SparseEchelon, settled
from quadralab.poly import FunctionField, PolyRing, RationalFunction, det4
from quadralab.scalars import QI_I, QI_ONE, GaussianRational, PrimeField, QQi, _inverse

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)

NCOLS = 10
P = 65537
F65537 = PrimeField(P)
QT = FunctionField(PolyRing(("t",)))
T = QT.gen("t")
_small = st.integers(-3, 3)
# (field, scalars, canonical form of a value, (columns, most rows drawn))
FIELDS = {
    "qi": (QQi, st.builds(lambda x, y, d: GaussianRational(Fraction(x, d), Fraction(y, d)),
                          _small, _small, st.integers(1, 3)), lambda v: v, (NCOLS, 9)),
    "f65537": (F65537, st.integers(0, P - 1), lambda v: v % P, (NCOLS, 9)),
    "t": (QT, st.builds(lambda a, b: a + b * T, _small, _small), lambda v: v, (6, 4)),
}


def _reduced_triple(t):
    return (type(t) is tuple and len(t) == 3 and all(type(v) is int for v in t)
            and (t[0] or t[1]) and t[2] > 0 and gcd(*t) == 1)


# (the stored form of a nonzero value, its negation)
STORED = {
    "qi": (_reduced_triple, lambda t: (-t[0], -t[1], t[2])),
    "f65537": (lambda v: type(v) is int and 0 < v < P, lambda v: -v % P),
    "t": (lambda v: type(v) is RationalFunction and bool(v), lambda v: -v),
}


def _settled(field, vec):
    """``settled`` over Q(i) and F_p; over Q(i)(t) the kernel holds values as they are."""
    return vec if field is QT else settled(field, vec)


def _right_of_pivots(ech):
    """Every stored row holds only columns right of its pivot."""
    return all(c > col for col, r in ech.pivot_of.items() for c in ech.rows[r])


def _vectors(scalars, ncols=NCOLS):
    return st.dictionaries(st.integers(0, ncols - 1), scalars.filter(bool), max_size=5)


def _combination(rows, coeffs, canon):
    out = {}
    for row, c in zip(rows, coeffs):
        for k, v in row.items():
            out[k] = out[k] + c * v if k in out else c * v
    return {k: r for k, v in out.items() if (r := canon(v))}


def _draw_rows(data, scalars, canon, size=(NCOLS, 9)):
    """Random rows over size[0] columns, at most size[1], some of them
    combinations of earlier ones."""
    ncols, most = size
    rows = []
    for _ in range(data.draw(st.integers(1, most))):
        if rows and data.draw(st.booleans()):
            picked = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            coeffs = [data.draw(scalars) for _ in picked]
            rows.append(_combination(picked, coeffs, canon))
        else:
            rows.append(data.draw(_vectors(scalars, ncols)))
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
    field, scalars, canon, size = FIELDS[kind]
    rows = _draw_rows(data, scalars, canon, size)
    probes = [data.draw(_vectors(scalars, size[0])) for _ in range(4)]
    ech = _echelon(field, rows)
    rank, pivots = ech.rank, ech.pivots()
    assert _right_of_pivots(ech)
    before = [ech.reduce(v) for v in probes]
    ech.back_substitute()
    assert ech.rank == rank and ech.pivots() == pivots
    assert _right_of_pivots(ech)
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
    field, scalars, canon, size = FIELDS[kind]
    stored, negated = STORED[kind]
    ech = _echelon(field, _draw_rows(data, scalars, canon, size))
    ech.back_substitute()
    for col, ridx in ech.pivot_of.items():
        row = ech.rows[ridx]
        assert all(c > col for c in row)
        assert all(map(stored, row.values()))
        assert not set(row) & set(ech.pivot_of)
        # the implied pivot is 1: the pivot plus the row lies in the row space
        assert ech.contains({col: field.one(), **row})
        # the residual of a pivot column is minus its row (mod p over F_p),
        # held as the rows are and returned settled by reduce
        minus_row = {c: negated(v) for c, v in row.items()}
        assert ech.pivot_residual(col) == minus_row
        assert ech.reduce({col: field.one()}) == _settled(field, minus_row)


@pytest.mark.parametrize("kind", FIELDS)
@SEEDED
@given(data=st.data())
def test_insert_after_back_substitution(kind, data):
    field, scalars, canon, size = FIELDS[kind]
    rows = _draw_rows(data, scalars, canon, size)
    later = _draw_rows(data, scalars, canon, size)
    probes = [data.draw(_vectors(scalars, size[0])) for _ in range(4)]
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
    # row 0 keeps its entry on row 1's pivot: it was not back-substituted
    assert ech.pivot_of == {0: 0, 1: 1}
    assert ech.rows == [{1: (1, 0, 1)}, {}]


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
    for col, ridx in ech.pivot_of.items():
        row, combo = ech.rows[ridx], ech.combos[ridx]
        assert all(c > col for c in row)
        assert _canonical_residues(row) and _canonical_residues(combo)
        assert _expand(combo, sources) == {col: 1, **row}
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


def _expand_exact(combo, sources):
    """sum combo[k] * sources[k] over Q(i) or Q(i)(t), without its zeros."""
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
    for col, ridx in ech.pivot_of.items():
        row, combo = ech.rows[ridx], ech.combos[ridx]
        assert all(c > col for c in row)
        assert _reduced_triples(row) and _reduced_triples(combo)
        assert _expand_exact(settled(QQi, combo), sources) == {col: QQi.one(),
                                                               **settled(QQi, row)}
    for v in probes:
        residual = ech.reduce(v)
        again, combo = ech.reduce_with_combo(v)
        assert again == residual
        assert _normal_form(residual) and _normal_form(combo)
        # v = residual + sum combo[k] * source_k, exactly
        expanded = _expand_exact(combo, sources)
        for col, r in residual.items():
            expanded[col] = expanded.get(col, 0) + r
        assert {c: r for c, r in expanded.items() if r} == {c: r for c, r in v.items() if r}
    untracked = _echelon(QQi, sources)
    untracked.back_substitute()
    for col in untracked.pivot_of:
        assert _reduced_triples(untracked.rows[untracked.pivot_of[col]])
        assert _reduced_triples(untracked.pivot_residual(col))
        assert untracked.reduce({col: 1}) == settled(QQi, untracked.pivot_residual(col))


def _as_triples(data, vec):
    """vec as the quotient tower hands rows to the kernel: each value a
    ``GaussianRational`` or, at random, its triple times some g >= 1, and
    some free columns holding a cancelled sum (0, 0, d)."""
    out = {}
    for col in range(NCOLS):
        z = vec.get(col)
        if z is not None:
            if data.draw(st.booleans()):
                g = data.draw(st.integers(1, 12))
                z = (z.x * g, z.y * g, z.d * g)
            out[col] = z
        elif data.draw(st.integers(0, 3)) == 0:
            out[col] = (0, 0, data.draw(st.integers(1, 12)))
    return out


@SEEDED
@given(data=st.data())
def test_unreduced_and_zero_triples_reduce_as_their_values(data):
    coerce = QQi.coerce
    sources = [{c: coerce(v) for c, v in row.items()}
               for row in _draw_rows(data, _QI_INPUTS, lambda v: v)]
    probes = [{c: coerce(v) for c, v in data.draw(_vectors(_QI_INPUTS)).items()}
              for _ in range(4)]
    plain, triples = SparseEchelon(QQi, track=True), SparseEchelon(QQi, track=True)
    for k, row in enumerate(sources):
        assert plain.insert(row, tag=k) == triples.insert(_as_triples(data, row), tag=k)
    assert plain.pivot_of == triples.pivot_of
    assert plain.rows == triples.rows and plain.combos == triples.combos
    for v in probes:
        t = _as_triples(data, v)
        assert plain.reduce(v) == triples.reduce(t)
        assert plain.reduce_with_combo(v) == triples.reduce_with_combo(t)
        assert plain.held_combo(v) == triples.held_combo(t)


@SEEDED
@given(data=st.data())
def test_function_field_combos_re_expand(data):
    field, scalars, canon, size = FIELDS["t"]
    sources = _draw_rows(data, scalars, canon, size)
    probes = [data.draw(_vectors(scalars, size[0])) for _ in range(2)]
    ech = SparseEchelon(field, track=True)
    for k, row in enumerate(sources):
        ech.insert(row, tag=k)
    for col, ridx in ech.pivot_of.items():
        row = ech.rows[ridx]
        assert all(c > col for c in row)
        assert _expand_exact(ech.combos[ridx], sources) == {col: field.one(), **row}
    for v in probes:
        residual, combo = ech.reduce_with_combo(v)
        assert residual == ech.reduce(v)
        assert not set(residual) & set(ech.pivot_of)
        # v = residual + sum combo[k] * source_k, exactly
        expanded = _expand_exact(combo, sources)
        for col, r in residual.items():
            expanded[col] = expanded.get(col, 0) + r
        assert {c: r for c, r in expanded.items() if r} == v


def test_function_field_values_are_coerced():
    # a bare int is a constant of Q(i)(t): reduce hands it back as the
    # field's own value, and insert can invert it as a pivot
    ech = SparseEchelon(QT)
    residual = ech.reduce({0: 3})
    assert residual == {0: QT.coerce(3)} and type(residual[0]) is RationalFunction
    assert ech.insert({0: 2, 1: T}) == 0
    assert ech.rows == [{1: T * QT.coerce(2).inverse()}]
    assert ech.reduce({0: 4, 1: T + T}) == {}


@SEEDED
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_triple_inverse_is_the_gaussian_inverse(x, y, d):
    z = GaussianRational(Fraction(x, d), Fraction(y, d))
    if not z:
        with pytest.raises(NotInvertible):
            _inverse(z.x, z.y, z.d)
        return
    inverse = _inverse(z.x, z.y, z.d)
    assert _reduced_triple(inverse)
    # z * z^-1 == 1, multiplied by GaussianRational.__mul__
    u, v, e = inverse
    assert z * GaussianRational(Fraction(u, e), Fraction(v, e)) == QI_ONE


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
    assert _expand_exact(combo, sources) == v


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

"""Seeded properties of the one echelon kernel, ``SparseEchelon``.

Rows are random sparse vectors over Q(i) and F_65537, mixed with linear
combinations of earlier rows so that some inserts are dependent.  The
properties pin ``back_substitute``: it keeps the row space, pivots and
residuals, leaves each pivot row with free columns only besides its pivot,
and leaves the echelon usable for further inserts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadralab.linalg import SparseEchelon
from quadralab.scalars import GaussianRational, PrimeField, QQi

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)

NCOLS = 10
F65537 = PrimeField(65537)
_small = st.integers(-3, 3)
FIELDS = {
    "qi": (QQi, st.builds(lambda x, y, d: GaussianRational(Fraction(x, d), Fraction(y, d)),
                          _small, _small, st.integers(1, 3))),
    "f65537": (F65537, st.integers(0, 65536).map(F65537.element)),
}


def _vectors(scalars):
    return st.dictionaries(st.integers(0, NCOLS - 1), scalars.filter(bool), max_size=5)


def _combination(rows, coeffs):
    out = {}
    for row, c in zip(rows, coeffs):
        for k, v in row.items():
            out[k] = out[k] + c * v if k in out else c * v
    return {k: v for k, v in out.items() if v}


def _draw_rows(data, scalars):
    """Random rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(data.draw(st.integers(1, 9))):
        if rows and data.draw(st.booleans()):
            picked = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            coeffs = [data.draw(scalars) for _ in picked]
            rows.append(_combination(picked, coeffs))
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
    field, scalars = FIELDS[kind]
    rows = _draw_rows(data, scalars)
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
    field, scalars = FIELDS[kind]
    ech = _echelon(field, _draw_rows(data, scalars))
    ech.back_substitute()
    for col, ridx in ech.pivot_of.items():
        row = ech.rows[ridx]
        assert min(row) == col and row[col] == field.one()
        assert all(row.values())
        assert not (set(row) - {col}) & set(ech.pivot_of)
        # the residual of a pivot column is minus the rest of its row
        assert ech.reduce({col: field.one()}) == {c: -v for c, v in row.items() if c != col}


@pytest.mark.parametrize("kind", FIELDS)
@SEEDED
@given(data=st.data())
def test_insert_after_back_substitution(kind, data):
    field, scalars = FIELDS[kind]
    rows = _draw_rows(data, scalars)
    later = _draw_rows(data, scalars)
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
    assert ech.rows[0] == {0: QQi.one(), 1: QQi.one()}

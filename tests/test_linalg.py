"""Exact linear algebra: fraction-free elimination, rank, nullspace."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_vectors import dense, sparse
from gielab import linalg

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def matrix(rows, cols):
    return st.lists(st.lists(fractions, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def test_rank_of_identity():
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert linalg.rank(eye) == 4


def test_rank_of_dependent_rows():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.rank(rows) == 1


@settings(max_examples=60, deadline=None)
@given(matrix(3, 5))
def test_nullspace_annihilates(rows):
    basis = [dense(v, 5) for v in linalg.nullspace([sparse(r) for r in rows], 5)]
    assert linalg.rank(rows) + len(basis) == 5
    for v in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0


@settings(max_examples=60, deadline=None)
@given(matrix(4, 4))
def test_sparse_echelon_matches_dense_rank(rows):
    ech = linalg.SparseEchelon()
    for row in rows:
        ech.insert({j: v for j, v in enumerate(row) if v})
    assert ech.rank == linalg.rank(rows)


def test_sparse_echelon_insert_reports_novelty():
    ech = linalg.SparseEchelon()
    assert ech.insert({0: Fraction(2)}) is True
    assert ech.insert({0: Fraction(5)}) is False
    assert ech.insert({1: Fraction(1)}) is True
    assert ech.rank == 2


# -- sparse RREF nullspace against Bareiss back-substitution ---------------


def bareiss_nullspace(rows, n_cols):
    """Reference: Bareiss echelon form, then dense back-substitution."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(n_cols)]
                for i in range(n_cols)]
    ech, pivots = linalg.bareiss_echelon(rows)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        x = [Fraction(0)] * n_cols
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((Fraction(ech[r][j]) * x[j] for j in range(pc + 1, n_cols)),
                    Fraction(0))
            x[pc] = -s / ech[r][pc]
        basis.append(x)
    return basis


sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions)


@st.composite
def sparse_systems(draw):
    n_cols = draw(st.integers(1, 8))
    row = st.lists(sparse_entries, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=7))
    # append combinations of earlier rows, so dependent rows always occur
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(fractions)
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
    return rows, n_cols


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_nullspace_equals_bareiss_back_substitution(system):
    rows, n_cols = system
    basis = linalg.nullspace([sparse(r) for r in rows], n_cols)
    assert [dense(v, n_cols) for v in basis] == bareiss_nullspace(rows, n_cols)


@pytest.mark.parametrize("column", [0, 4])
def test_nullspace_rejects_a_column_outside_the_system(column):
    with pytest.raises(ValueError, match="outside 1..3"):
        linalg.nullspace([{1: Fraction(1)}, {column: Fraction(1)}], 3)


def test_sparse_echelon_reduced_is_rref():
    ech = linalg.SparseEchelon()
    for row in ({1: Fraction(1), 2: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)},
                {2: Fraction(1), 3: Fraction(1)}):
        ech.insert(row)
    # pivots 0, 1, 2; every pivot column is cleared from the other rows
    assert ech.reduced() == {2: {2: 1, 3: 1}, 1: {1: 1, 3: -2},
                             0: {0: 1, 3: 2}}


@settings(max_examples=150, deadline=None)
@given(sparse_systems(), st.data())
def test_sparse_echelon_ignores_row_scaling_and_keeps_rows_intact(system, data):
    # the same rows inserted as given, as ints after clearing denominators,
    # and each scaled by a non-zero rational give one and the same echelon
    rows, _ = system
    given_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    int_rows = [{j: int(v * lcm(*(x.denominator for x in row.values())))
                 for j, v in row.items()} for row in given_rows]
    scales = data.draw(st.lists(fractions.filter(bool), min_size=len(rows),
                                max_size=len(rows)))
    scaled_rows = [{j: c * v for j, v in row.items()} for row, c in zip(given_rows, scales)]
    outcomes = []
    for variant in (given_rows, int_rows, scaled_rows):
        copies = [dict(row) for row in variant]
        ech = linalg.SparseEchelon()
        kept = [ech.insert(row) for row in variant]
        rref = ech.reduced()
        assert variant == copies  # no inserted row was changed
        outcomes.append((kept, sorted(ech.pivots), ech.rank, rref))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    for lead, row in outcomes[0][3].items():
        assert row[lead] == 1 and not set(row) & set(outcomes[0][3]) - {lead}

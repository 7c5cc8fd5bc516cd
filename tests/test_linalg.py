"""Exact linear algebra: fraction-free elimination, rank, nullspace."""

from fractions import Fraction
from math import gcd, lcm

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
    basis = [dense(v, 5) for v in linalg.nullspace(
        [linalg.integer_row(sparse(r)) for r in rows], 5)]
    assert linalg.rank(rows) + len(basis) == 5
    for v in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0


@settings(max_examples=60, deadline=None)
@given(matrix(4, 4))
def test_sparse_echelon_matches_dense_rank(rows):
    ech = linalg.SparseEchelon()
    for row in rows:
        ech.insert(linalg.integer_row({j: v for j, v in enumerate(row)}))
    assert ech.rank == linalg.rank(rows)


def test_sparse_echelon_insert_reports_novelty():
    ech = linalg.SparseEchelon()
    assert ech.insert({0: 2}) is True
    assert ech.insert({0: 5}) is False
    assert ech.insert({1: 1}) is True
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
    basis = linalg.nullspace([linalg.integer_row(sparse(r)) for r in rows], n_cols)
    assert [dense(v, n_cols) for v in basis] == bareiss_nullspace(rows, n_cols)


@pytest.mark.parametrize("column", [0, 4])
def test_nullspace_rejects_a_column_outside_the_system(column):
    with pytest.raises(ValueError, match="outside 1..3"):
        linalg.nullspace([{1: 1}, {column: 1}], 3)


def test_sparse_echelon_reduced_is_rref():
    ech = linalg.SparseEchelon()
    for row in ({1: 1, 2: 2}, {0: 1, 1: 1}, {2: 1, 3: 1}):
        ech.insert(row)
    # pivots 0, 1, 2; every pivot column is cleared from the other rows
    assert ech.reduced() == {2: {2: 1, 3: 1}, 1: {1: 1, 3: -2},
                             0: {0: 1, 3: 2}}


@settings(max_examples=150, deadline=None)
@given(sparse_systems(), st.data())
def test_sparse_echelon_ignores_row_scaling_and_keeps_rows_intact(system, data):
    # the same rows in their primitive int form, as ints after clearing
    # denominators only, each scaled by a non-zero rational and each scaled
    # by a non-zero int give one and the same echelon
    rows, _ = system
    given_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    int_rows = [{j: int(v * lcm(*(x.denominator for x in row.values())))
                 for j, v in row.items()} for row in given_rows]
    scales = data.draw(st.lists(fractions.filter(bool), min_size=len(rows),
                                max_size=len(rows)))
    scaled_rows = [linalg.integer_row({j: c * v for j, v in row.items()})
                   for row, c in zip(given_rows, scales)]
    multiples = [{j: c.numerator * v for j, v in row.items()}
                 for row, c in zip(int_rows, scales)]
    outcomes = []
    for variant in ([linalg.integer_row(row) for row in given_rows], int_rows,
                    scaled_rows, multiples):
        copies = [dict(row) for row in variant]
        ech = linalg.SparseEchelon()
        kept = [ech.insert(row) for row in variant]
        rref = ech.reduced()
        assert variant == copies  # no inserted row was changed
        outcomes.append((kept, sorted(ech.pivots), ech.rank, rref))
    assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
    for lead, row in outcomes[0][3].items():
        assert row[lead] == 1 and not set(row) & set(outcomes[0][3]) - {lead}


# -- the int-row contract ----------------------------------------------------


@pytest.mark.parametrize("row", [{2: Fraction(1, 2)}, {1: 1, 3: Fraction(2)},
                                 {1: Fraction(1, 2)}, {1: 1, 2: Fraction(3)},
                                 {2: 0.5}])
def test_a_row_that_is_not_all_ints_is_refused(row):
    # a Fraction (even one equal to an int) or a float is refused before any
    # elimination, whether the row would be kept as it is ({2: 1/2}),
    # cancelled ({1: 1, 3: 2} against the pivot) or reduced
    ech = linalg.SparseEchelon()
    ech.insert({1: 1, 3: 2})
    with pytest.raises(TypeError):
        ech.insert(row)
    with pytest.raises(TypeError):
        linalg.nullspace([{1: 1, 3: 2}, row], 3)
    assert ech.pivots == {1: {1: 1, 3: 2}}


def test_a_row_with_a_zero_entry_is_refused():
    ech = linalg.SparseEchelon()
    with pytest.raises(ValueError, match="zero entry"):
        ech.insert({1: 0, 2: 3})
    with pytest.raises(ValueError, match="zero entry"):
        linalg.nullspace([{2: 0}], 3)
    assert ech.rank == 0


def test_insert_never_changes_the_callers_row():
    # {1: 2, 2: 3} against the pivot {1: 1, 2: 1}: a / b = 2 / 1, so b = 1
    # and `_eliminate` reduces the row it is given in place; the caller's
    # dict is unchanged, primitive or not, kept or dropped
    for row, kept in (({1: 2, 2: 3}, True), ({1: 4, 2: 6}, True), ({1: 3, 2: 3}, False)):
        ech = linalg.SparseEchelon()
        ech.insert({1: 1, 2: 1})
        copy = dict(row)
        assert ech.insert(row) is kept
        assert row == copy
        assert all(pivot is not row for pivot in ech.pivots.values())


def test_integer_row_drops_zeros_and_keeps_signs():
    row = {1: Fraction(-1, 2), 2: 0, 4: Fraction(3, 4), 5: Fraction(0), 7: -2}
    assert linalg.integer_row(row) == {1: -2, 4: 3, 7: -8}
    assert linalg.integer_row({3: 6, 5: -4}) == {3: 3, 5: -2}
    assert linalg.integer_row({2: 0}) == {}


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_integer_row_is_a_positive_multiple_with_the_same_rank(system):
    rows, _ = system
    ech = linalg.SparseEchelon()
    for row in rows:
        given_row = {j: v for j, v in enumerate(row)}
        out = linalg.integer_row(given_row)
        assert set(out) == {j for j, v in given_row.items() if v}
        assert all(type(v) is int for v in out.values())
        if out:
            assert gcd(*out.values()) == 1
            c = next(Fraction(v) / given_row[j] for j, v in out.items())
            assert c > 0 and out == {j: c * v for j, v in given_row.items() if v}
        ech.insert(out)
    assert ech.rank == linalg.rank(rows)

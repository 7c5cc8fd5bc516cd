"""Exterior algebra kernel: signs, wedge, contraction, evaluation."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flag_reference
from dense_vectors import sparse
from gielab import InputError
from gielab.bundle import exterior_derivative, poly_form
from gielab.exterior import (ExteriorForm, contract, evaluate, sort_with_sign,
                             substitute, wedge)
from gielab.gie import CurvatureElement, PsiData, gie_ideal
from gielab.poly import Polynomial

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def random_form(dim, degree):
    from itertools import combinations
    keys = list(combinations(range(1, dim + 1), degree))
    return st.lists(fractions, min_size=len(keys), max_size=len(keys)).map(
        lambda cs: ExteriorForm(dim, degree, dict(zip(keys, cs))))


# -- sort_with_sign -----------------------------------------------------


def test_sort_sign_known_cases():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1)) == (None, 0)


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(1, 6))))
def test_sort_sign_is_permutation_parity(perm):
    sorted_tuple, sign = sort_with_sign(perm)
    assert sorted_tuple == tuple(range(1, 6))
    # parity by counting inversions independently
    inversions = sum(1 for a in range(5) for b in range(a + 1, 5)
                     if perm[a] > perm[b])
    assert sign == (-1) ** inversions


# -- wedge --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_form(4, 1), random_form(4, 1))
def test_wedge_anticommutes_on_one_forms(a, b):
    assert wedge(a, b) == -wedge(b, a)


@settings(max_examples=40, deadline=None)
@given(random_form(4, 1), random_form(4, 2))
def test_wedge_graded_commutation(a, b):
    # deg 1 * deg 2: a ^ b = (-1)^(1*2) b ^ a = b ^ a
    assert wedge(a, b) == wedge(b, a)


@settings(max_examples=30, deadline=None)
@given(random_form(5, 1), random_form(5, 1), random_form(5, 1))
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=30, deadline=None)
@given(random_form(4, 1), random_form(4, 1), random_form(4, 2))
def test_wedge_bilinear(a, b, c):
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


def test_wedge_above_dimension_is_zero():
    a = ExteriorForm.monomial(3, (1, 2))
    b = ExteriorForm.monomial(3, (2, 3))
    assert wedge(a, b).is_zero()


def test_self_wedge_of_covector_is_zero():
    a = ExteriorForm.covector(3, 2, Fraction(7))
    assert wedge(a, a).is_zero()


# -- interior product ---------------------------------------------------


def test_interior_product_signs():
    # xi_2 -| eta^12 = -eta^1 ; xi_1 -| eta^12 = eta^2
    vol = ExteriorForm.monomial(2, (1, 2))
    assert contract({1: 1}, vol) == ExteriorForm.covector(2, 2)
    assert contract({2: 1}, vol) == -ExteriorForm.covector(2, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions, min_size=4, max_size=4), random_form(4, 2),
       random_form(4, 1))
def test_interior_product_antiderivation(v, a, b):
    # v -| (a ^ b) = (v -| a) ^ b + (-1)^deg(a) a ^ (v -| b)
    v = sparse(v)
    lhs = contract(v, wedge(a, b))
    rhs = wedge(contract(v, a), b) + wedge(a, contract(v, b))
    assert lhs == rhs


def test_interior_product_rejects_zero_form():
    f = ExteriorForm(2, 0, {(): Fraction(1)})
    with pytest.raises(InputError):
        contract({1: 1}, f)


# -- evaluation ---------------------------------------------------------


def test_evaluate_is_determinant():
    form = ExteriorForm.monomial(3, (1, 2, 3))
    vectors = [{1: Fraction(2)}, {2: Fraction(3)}, {3: Fraction(4)}]
    assert evaluate(form, vectors) == 24


@settings(max_examples=30, deadline=None)
@given(random_form(3, 2), st.lists(st.lists(fractions, min_size=3, max_size=3),
                                   min_size=2, max_size=2))
def test_evaluate_alternating(form, vectors):
    vectors = [sparse(v) for v in vectors]
    assert evaluate(form, vectors) == -evaluate(form, vectors[::-1])


@st.composite
def form_and_vectors(draw):
    """A form of any degree on up to five coordinates, sparse or full,
    and as many dense vectors as its degree."""
    dim = draw(st.integers(1, 5))
    degree = draw(st.integers(0, dim))
    form = draw(random_form(dim, degree))
    sparse_entries = st.one_of(st.just(Fraction(0)), fractions)
    vectors = draw(st.lists(st.lists(sparse_entries, min_size=dim, max_size=dim),
                            min_size=degree, max_size=degree))
    return form, vectors


@settings(max_examples=200, deadline=None)
@given(form_and_vectors())
def test_evaluate_by_contraction_equals_cofactor_expansion(case):
    form, vectors = case
    assert evaluate(form, [sparse(v) for v in vectors]) == \
        flag_reference.evaluate(form, vectors)


def test_evaluate_rejects_a_vector_count_other_than_the_degree():
    form = ExteriorForm.monomial(3, (1, 2))
    for vectors in ([], [{1: 1}], [{1: 1}, {2: 1}, {3: 1}]):
        with pytest.raises(InputError, match="degree-2 form on"):
            evaluate(form, vectors)


@pytest.mark.parametrize("k", [0, -1, 4])
def test_evaluate_rejects_an_index_outside_the_coframe(k):
    form = ExteriorForm.monomial(3, (1, 2))
    with pytest.raises(InputError, match="outside 1..3"):
        evaluate(form, [{1: 1}, {k: 1}])


# -- substitution -------------------------------------------------------


def test_substitute_identity_is_noop():
    form = ExteriorForm.monomial(3, (1, 3), Fraction(5, 2))
    assert substitute(form, {}) == form


def test_substitute_linear_change():
    # eta^1 -> eta^1 + 2 eta^2 in eta^1 ^ eta^2 leaves eta^12 unchanged
    form = ExteriorForm.monomial(2, (1, 2))
    image = ExteriorForm.covector(2, 1) + ExteriorForm.covector(2, 2, Fraction(2))
    assert substitute(form, {1: image}) == form


# Small coefficients, so that expanded terms often cancel.
small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))


def sparse_form(dim, degree):
    from itertools import combinations
    keys = list(combinations(range(1, dim + 1), degree))
    return st.dictionaries(st.sampled_from(keys), small, max_size=6).map(
        lambda cs: ExteriorForm(dim, degree, cs))


@st.composite
def substitutions(draw):
    """A form, 1-form images of some of its covectors (which may share
    indices, or be zero) and the image dimension, or None for the
    default."""
    dim = draw(st.integers(1, 5))
    new_dim = draw(st.integers(dim, dim + 2))
    form = draw(sparse_form(dim, draw(st.integers(0, min(dim, 4)))))
    ks = draw(st.lists(st.integers(1, dim), unique=True, max_size=dim))
    images = {k: draw(sparse_form(new_dim, 1)) for k in ks}
    explicit = new_dim if (draw(st.booleans()) or not images) else None
    return form, images, explicit


@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_substitute_matches_repeated_wedges(case):
    form, images, new_dim = case
    got = substitute(form, images, new_dim=new_dim)
    want = flag_reference.substitute(form, images, new_dim=new_dim)
    assert (got.dim, got.degree) == (want.dim, want.degree)
    # equal as dicts and in order: the order fixes which term a report names
    assert list(got.coefficients.items()) == list(want.coefficients.items())


def test_substitute_degree_zero_and_repeated_indices():
    scalar = ExteriorForm(2, 0, {(): Fraction(3)})
    assert substitute(scalar, {}).coefficients == {(): Fraction(3)}
    # eta^1 -> eta^2 and eta^2 -> eta^2 + eta^3 in eta^12: the repeated
    # eta^2 ^ eta^2 drops, eta^2 ^ eta^3 stays
    images = {1: ExteriorForm.covector(3, 2),
              2: ExteriorForm.covector(3, 2) + ExteriorForm.covector(3, 3)}
    got = substitute(ExteriorForm.monomial(2, (1, 2)), images)
    assert got == ExteriorForm.monomial(3, (2, 3))


def test_substitute_rejects_mismatched_images():
    form = ExteriorForm.monomial(3, (1, 3))
    with pytest.raises(InputError):  # an image on another space
        substitute(form, {1: ExteriorForm.covector(4, 2)}, new_dim=3)
    with pytest.raises(InputError):  # an image that is not a 1-form
        substitute(form, {1: ExteriorForm.monomial(3, (1, 2))})
    with pytest.raises(InputError):  # eta^3 kept, but the target has 2 coordinates
        substitute(form, {1: ExteriorForm.covector(2, 2)})


def test_monomial_sorts_and_signs():
    assert ExteriorForm.monomial(3, (2, 1)) == -ExteriorForm.monomial(3, (1, 2))
    assert ExteriorForm.monomial(3, (1, 1)).is_zero()


# -- every computed form is canonical -------------------------------------


def canonical(form):
    """True iff the checking constructor gives the form back from its own
    coefficients and none of them is zero: the invariant that
    ExteriorForm._of trusts."""
    try:
        rebuilt = ExteriorForm(form.dim, form.degree, form.coefficients)
    except InputError:
        return False
    return rebuilt == form and all(form.coefficients.values())


@st.composite
def operands(draw):
    """Two forms of one shape, a form of any degree, a scalar and a vector
    whose entries may be zero, on one small space."""
    dim = draw(st.integers(1, 5))
    degree = draw(st.integers(0, dim))
    a, b = draw(sparse_form(dim, degree)), draw(sparse_form(dim, degree))
    c = draw(sparse_form(dim, draw(st.integers(0, dim))))
    v = draw(st.dictionaries(st.integers(1, dim), small, max_size=dim))
    return a, b, c, draw(small), v


@settings(max_examples=150, deadline=None)
@given(operands(), substitutions())
def test_computed_forms_are_canonical(ops, case):
    a, b, c, s, v = ops
    form, images, new_dim = case
    results = [a + b, a - b, a - a, -a, a.scale(s), wedge(a, b), wedge(a, c),
               substitute(form, images, new_dim=new_dim)]
    if a.degree:
        results.append(contract(v, a))
    assert all(canonical(r) for r in results)


@st.composite
def poly_forms(draw):
    dim = draw(st.integers(1, 4))
    degree = draw(st.integers(0, dim))
    keys = st.tuples(*[st.integers(1, dim)] * degree).filter(
        lambda k: all(i < j for i, j in zip(k, k[1:])))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), small, max_size=3).map(
        lambda t: Polynomial(dim, t))
    return poly_form(dim, degree, draw(st.dictionaries(keys, polys | small, max_size=4)))


# d(x2 eta^1 + x1 eta^2) = -eta^12 + eta^12: the sum vanishes and is dropped
@settings(max_examples=200, deadline=None)
@given(poly_forms())
@example(poly_form(2, 1, {(1,): Polynomial.variable(1, 2), (2,): Polynomial.variable(0, 2)}))
def test_exterior_derivatives_are_canonical(form):
    assert canonical(exterior_derivative(form))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 4), st.data())
def test_ideal_generators_are_canonical(n, m, kappa, data):
    values = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                                min_size=n, max_size=n))
    values[0][m - 1] = values[0][m - 1] or 1
    pairs = [(i, j, lam, mu) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             for lam in range(1, m + 1) for mu in range(lam + 1, m + 1)]
    R = data.draw(st.dictionaries(st.sampled_from(pairs), st.integers(-2, 2)))
    ideal = gie_ideal(PsiData(n, m, values), CurvatureElement(n, m, R), kappa)
    assert all(canonical(g) for g in ideal.generators)


@pytest.mark.parametrize("dim,degree,coefficients", [
    (3, 1, {(1,): Fraction(0)}),      # a zero value
    (3, 2, {(2, 1): Fraction(1)}),    # a key out of order
    (3, 2, {(1, 1): Fraction(1)}),    # a repeated index
    (3, 1, {(4,): Fraction(1)}),      # an index past dim
    (3, 2, {(1,): Fraction(1)}),      # a key of the wrong length
])
def test_a_non_canonical_dict_fails_the_check(dim, degree, coefficients):
    assert not canonical(ExteriorForm._of(dim, degree, coefficients))
    assert canonical(ExteriorForm._of(dim, degree, {}))

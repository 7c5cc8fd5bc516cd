"""Chart calculus: exterior derivative, connections, curvature, torsion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gielab import InputError
from gielab.bundle import (ConnectionForm, bianchi_residual,
                           curvature_from_connection, exterior_derivative,
                           generalized_torsion, poly_form)
from gielab.exterior import ExteriorForm, VectorValuedForm, wedge
from gielab.poly import Polynomial

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def small_polys(nvars):
    exps = st.tuples(*([st.integers(0, 2)] * nvars))
    return st.dictionaries(exps, fractions, max_size=3).map(
        lambda t: Polynomial(nvars, t))


def poly_one_forms(dim):
    return st.lists(small_polys(dim), min_size=dim, max_size=dim).map(
        lambda cs: poly_form(dim, 1, {(k + 1,): c for k, c in enumerate(cs)}))


def reference_d(form):
    """d as a sum of forms: each (df/dx_l) eta^l ^ eta^K added as a scaled
    monomial form."""
    dim = form.dim
    out = ExteriorForm.zero(dim, form.degree + 1)
    for key, coeff in form.coefficients.items():
        if not isinstance(coeff, Polynomial):
            continue
        for l in range(dim):
            dc = coeff.partial(l)
            if not dc:
                continue
            mono = ExteriorForm.monomial(dim, (l + 1,) + key, Fraction(1))
            out = out + mono.scale(dc)
    return out


def _written(form):
    """The form's coefficients and each one's terms, in their dict order."""
    return [(key, list(c.terms.items()) if isinstance(c, Polynomial) else c)
            for key, c in form.coefficients.items()]


@st.composite
def poly_forms(draw, dim):
    degree = draw(st.integers(0, dim))
    keys = st.lists(st.integers(1, dim), min_size=degree, max_size=degree, unique=True).map(
        lambda k: tuple(sorted(k)))
    coeffs = draw(st.dictionaries(keys, small_polys(dim) | fractions, max_size=4))
    return poly_form(dim, degree, coeffs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(poly_forms))
def test_d_equals_the_sum_of_scaled_monomials(form):
    assert _written(exterior_derivative(form)) == _written(reference_d(form))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.integers(1, 3), st.lists(poly_one_forms(dim), min_size=3, max_size=3))))
def test_curvature_equals_the_reference_d(case):
    n, forms = case
    upper = {(i, j): forms[k] for k, (i, j) in enumerate(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))}
    eta = ConnectionForm.from_upper(n, forms[0].dim, upper)
    omega = curvature_from_connection(eta)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected = reference_d(eta[i, j])
            for k in range(1, n + 1):
                expected = expected + wedge(eta[i, k], eta[k, j])
            assert _written(omega[i, j]) == _written(expected)


@settings(max_examples=40, deadline=None)
@given(poly_one_forms(3))
def test_d_squared_is_zero(form):
    assert exterior_derivative(exterior_derivative(form)).is_zero()


def test_d_of_function_times_form():
    # d(x1 * eta^2) = eta^1 ^ eta^2
    x1 = Polynomial.variable(0, 2)
    form = poly_form(2, 1, {(2,): x1})
    expected = poly_form(2, 2, {(1, 2): Polynomial.constant(1, 2)})
    assert exterior_derivative(form) == expected


def test_d_kills_constant_coefficients():
    form = poly_form(3, 2, {(1, 3): Fraction(5)})
    assert exterior_derivative(form).is_zero()


def test_connection_must_be_antisymmetric():
    x1 = Polynomial.variable(0, 2)
    bad = poly_form(2, 1, {(1,): x1})
    with pytest.raises(InputError):
        ConnectionForm([[bad, bad], [bad, bad]])


def test_flat_connection_has_zero_curvature():
    eta = ConnectionForm.zero(3, 2)
    omega = curvature_from_connection(eta)
    assert omega.is_zero()
    assert omega.is_antisymmetric()


def test_curvature_oracle_2d():
    # eta^1_2 = x2 eta^1: Omega^1_2 = d(x2 eta^1) = eta^2 ^ eta^1 = -eta^12
    x2 = Polynomial.variable(1, 2)
    eta = ConnectionForm.from_upper(2, 2, {(1, 2): poly_form(2, 1, {(1,): x2})})
    omega = curvature_from_connection(eta)
    expected = poly_form(2, 2, {(1, 2): Polynomial.constant(-1, 2)})
    assert omega[1, 2] == expected
    assert omega.is_antisymmetric()


def test_curvature_quadratic_term():
    # in 3 chart dims the eta ^ eta term contributes even for constant eta
    c = Polynomial.constant(1, 3)
    e12 = poly_form(3, 1, {(1,): c})
    e13 = poly_form(3, 1, {(2,): c})
    e23 = poly_form(3, 1, {(3,): c})
    eta = ConnectionForm.from_upper(3, 3, {(1, 2): e12, (1, 3): e13, (2, 3): e23})
    omega = curvature_from_connection(eta)
    # Omega^1_2 = eta^1_3 ^ eta^3_2 = eta^2 ^ (-eta^3) = -eta^23
    assert omega[1, 2] == poly_form(3, 2, {(2, 3): Polynomial.constant(-1, 3)})


def test_torsion_of_constant_form_flat_connection():
    phi = VectorValuedForm([poly_form(2, 1, {(1,): Fraction(1)}),
                            poly_form(2, 1, {(2,): Fraction(1)})])
    theta = generalized_torsion(phi, ConnectionForm.zero(2, 2))
    assert theta.is_zero()


def _sample_setup():
    """A nontrivial connection and 1-form vector on a 3-dim chart."""
    x1 = Polynomial.variable(0, 3)
    x2 = Polynomial.variable(1, 3)
    eta = ConnectionForm.from_upper(3, 3, {
        (1, 2): poly_form(3, 1, {(1,): x2, (3,): Polynomial.constant(2, 3)}),
        (1, 3): poly_form(3, 1, {(2,): x1}),
        (2, 3): poly_form(3, 1, {(1,): x1 * x2}),
    })
    phi = VectorValuedForm([
        poly_form(3, 1, {(1,): x1, (2,): x2}),
        poly_form(3, 1, {(3,): x1 * x1}),
        poly_form(3, 1, {(2,): Polynomial.constant(3, 3)}),
    ])
    return eta, phi


def test_second_covariant_derivative_is_curvature_action():
    # d_grad(d_grad phi)^i = Omega^i_j ^ phi^j, the closure identity
    eta, phi = _sample_setup()
    omega = curvature_from_connection(eta)
    theta = generalized_torsion(phi, eta)
    second = generalized_torsion(theta, eta)  # same expansion, one degree up
    closure = bianchi_residual(omega, phi)
    for i in range(3):
        assert second[i] == closure[i]


def test_bianchi_residual_trivial_above_dimension():
    # phi of degree m-1 on an m-dim chart: the residual is an (m+1)-form
    phi = VectorValuedForm([poly_form(2, 1, {(1,): Polynomial.variable(0, 2)}),
                            poly_form(2, 1, {(2,): Polynomial.variable(1, 2)})])
    eta = ConnectionForm.zero(2, 2)
    omega = curvature_from_connection(eta)
    for residual in bianchi_residual(omega, phi):
        assert residual.is_zero()


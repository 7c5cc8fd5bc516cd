"""Chart calculus: the exterior derivative and the covariant exterior
derivative, checked against curvature built here from the reference d."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gielab.bundle import _covariant_d, exterior_derivative, poly_form
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
def poly_forms(draw, dim, degree=None):
    if degree is None:
        degree = draw(st.integers(0, dim))
    keys = st.lists(st.integers(1, dim), min_size=degree, max_size=degree, unique=True).map(
        lambda k: tuple(sorted(k)))
    coeffs = draw(st.dictionaries(keys, small_polys(dim) | fractions, max_size=4))
    return poly_form(dim, degree, coeffs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(poly_forms))
def test_d_equals_the_sum_of_scaled_monomials(form):
    assert _written(exterior_derivative(form)) == _written(reference_d(form))


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


def constant_section(n, dim, j):
    """The constant section e_j (1-based) of the rank-n bundle, as 0-forms."""
    return VectorValuedForm([poly_form(dim, 0, {(): Fraction(1)} if k == j else {})
                             for k in range(1, n + 1)])


def zero_connection(n, dim):
    return [[poly_form(dim, 1) for _ in range(n)] for _ in range(n)]


def curvature(omega, quadratic=True):
    """Omega^i_j = d omega^i_j + omega^i_k ^ omega^k_j, the second structure
    equation, from `reference_d` and `wedge`; without its omega ^ omega term
    when `quadratic` is False."""
    out = []
    for row in omega:
        out_row = []
        for w in row:
            out_row.append(reference_d(w))
        if quadratic:
            for j in range(len(omega)):
                for k, w in enumerate(row):
                    out_row[j] = out_row[j] + wedge(w, omega[k][j])
        out.append(out_row)
    return out


def bianchi_residual(Omega, phi):
    """The generalized Bianchi residuals sum_j Omega^i_j ^ phi^j, one
    (p+2)-form per i: what d_grad(d_grad phi)^i reduces to."""
    dim, degree = phi[0].dim, phi[0].degree
    out = []
    for row in Omega:
        acc = ExteriorForm.zero(dim, degree + 2)
        for w, phi_j in zip(row, phi):
            acc = acc + wedge(w, phi_j)
        out.append(acc)
    return out


@st.composite
def connections_and_forms(draw):
    """A random gl(n) connection, any n x n matrix of 1-forms, and a
    vector of n forms of one degree, n and the chart dimension in 1..3."""
    n, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    degree = draw(st.integers(0, dim))
    omega = [[draw(poly_one_forms(dim)) for _ in range(n)] for _ in range(n)]
    phi = VectorValuedForm([draw(poly_forms(dim, degree)) for _ in range(n)])
    return omega, phi


@settings(max_examples=60, deadline=None)
@given(connections_and_forms())
def test_second_covariant_derivative_is_the_curvature_action_for_any_gl_n(case):
    # d_grad(d_grad phi)^i = Omega^i_j ^ phi^j with Omega = d omega + omega ^ omega,
    # for every matrix of 1-forms, not only the antisymmetric ones
    omega, phi = case
    second = _covariant_d(_covariant_d(phi, omega), omega)
    assert list(second) == bianchi_residual(curvature(omega), phi)


def test_torsion_of_constant_form_flat_connection():
    # d_grad phi = d phi^i when omega = 0, and constant forms are closed
    phi = VectorValuedForm([poly_form(2, 1, {(1,): Fraction(1)}),
                            poly_form(2, 1, {(2,): Fraction(1)})])
    assert all(c.is_zero() for c in _covariant_d(phi, zero_connection(2, 2)))


def test_flat_connection_has_zero_curvature():
    # with omega = 0, d_grad is d componentwise, so d_grad twice is d^2 = 0
    _, phi = _sample_setup()
    flat = zero_connection(3, 3)
    first = _covariant_d(phi, flat)
    assert list(first) == [exterior_derivative(c) for c in phi]
    assert not any(c for c in _covariant_d(first, flat))


def test_curvature_oracle_2d():
    # omega^1_2 = x2 eta^1 = -omega^2_1: d_grad twice on the constant section
    # e_2 reads off the column Omega^i_2, with
    # Omega^1_2 = d(x2 eta^1) = eta^2 ^ eta^1 = -eta^12 and Omega^2_2 = 0
    x2 = Polynomial.variable(1, 2)
    w = poly_form(2, 1, {(1,): x2})
    omega = [[poly_form(2, 1), w], [-w, poly_form(2, 1)]]
    second = _covariant_d(_covariant_d(constant_section(2, 2, 2), omega), omega)
    assert second[0] == poly_form(2, 2, {(1, 2): Polynomial.constant(-1, 2)})
    assert second[1].is_zero()


def test_curvature_quadratic_term():
    # in 3 chart dims the omega ^ omega term contributes even for constant
    # omega, whose d vanishes: Omega^1_2 = omega^1_3 ^ omega^3_2
    # = eta^2 ^ (-eta^3) = -eta^23, read off by d_grad twice on e_2
    c = Polynomial.constant(1, 3)
    e12, e13, e23 = (poly_form(3, 1, {(k,): c}) for k in (1, 2, 3))
    z = poly_form(3, 1)
    omega = [[z, e12, e13], [-e12, z, e23], [-e13, -e23, z]]
    second = _covariant_d(_covariant_d(constant_section(3, 3, 2), omega), omega)
    assert second[0] == poly_form(3, 2, {(2, 3): Polynomial.constant(-1, 3)})


def _sample_setup():
    """A non-trivial o(3) connection and 1-form vector on a 3-dim chart."""
    x1 = Polynomial.variable(0, 3)
    x2 = Polynomial.variable(1, 3)
    omega = zero_connection(3, 3)
    for (i, j), form in {
        (0, 1): poly_form(3, 1, {(1,): x2, (3,): Polynomial.constant(2, 3)}),
        (0, 2): poly_form(3, 1, {(2,): x1}),
        (1, 2): poly_form(3, 1, {(1,): x1 * x2}),
    }.items():
        omega[i][j], omega[j][i] = form, -form
    phi = VectorValuedForm([
        poly_form(3, 1, {(1,): x1, (2,): x2}),
        poly_form(3, 1, {(3,): x1 * x1}),
        poly_form(3, 1, {(2,): Polynomial.constant(3, 3)}),
    ])
    return omega, phi


def test_second_covariant_derivative_is_curvature_action():
    # d_grad(d_grad phi)^i = Omega^i_j ^ phi^j, the closure identity
    omega, phi = _sample_setup()
    second = _covariant_d(_covariant_d(phi, omega), omega)
    assert list(second) == bianchi_residual(curvature(omega), phi)


def test_curvature_without_its_quadratic_term_fails_the_closure_identity():
    omega, phi = _sample_setup()
    second = _covariant_d(_covariant_d(phi, omega), omega)
    assert list(second) != bianchi_residual(curvature(omega, quadratic=False), phi)


def test_bianchi_residual_trivial_above_dimension():
    # phi of degree m-1 on an m-dim chart: the residual and d_grad twice are
    # (m+1)-forms, and there are none
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    phi = VectorValuedForm([poly_form(2, 1, {(1,): x1}), poly_form(2, 1, {(2,): x2})])
    w = poly_form(2, 1, {(1,): x2, (2,): x1})
    omega = [[w, w], [-w, poly_form(2, 1)]]
    second = _covariant_d(_covariant_d(phi, omega), omega)
    for form in list(second) + bianchi_residual(curvature(omega), phi):
        assert form.degree == 3 and form.is_zero()

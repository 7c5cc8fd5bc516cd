"""Chart-level bundle calculus.

Forms here carry polynomial coefficient functions (see poly.py), so the
exterior derivative is exact.  The one covariant exterior derivative,
d_grad phi^i = d phi^i + omega^i_j ^ phi^j, takes any n x n matrix of
1-forms as its connection; the energy-momentum audit (emt.py) runs it
with the gl(m)-valued Levi-Civita connection.
"""

from __future__ import annotations

from .exterior import (ExteriorForm, VectorValuedForm, _accumulate, sort_with_sign,
                       wedge)
from .poly import Polynomial


def poly_form(dim, degree, coefficients=None):
    """ExteriorForm whose coefficients are Polynomials in `dim` chart
    variables; plain rationals in `coefficients` are promoted."""
    coeffs = {}
    for key, val in (coefficients or {}).items():
        if not isinstance(val, Polynomial):
            val = Polynomial.constant(val, dim)
        if val:
            coeffs[tuple(key)] = val
    return ExteriorForm(dim, degree, coeffs)


def exterior_derivative(form: ExteriorForm) -> ExteriorForm:
    """d on forms with polynomial coefficients.  d(f eta^K) expands as
    sum_l (df/dx_l) eta^l ^ eta^K; each eta^l ^ eta^K is sorted by
    `sort_with_sign`, df/dx_l is taken only where that product is not zero
    and negated where its sign is -1, and all are summed into one
    coefficient dict."""
    coeffs = {}
    for key, coeff in form.coefficients.items():
        if not isinstance(coeff, Polynomial):
            continue  # constant rational coefficient: derivative is zero
        for l in range(form.dim):
            target, sign = sort_with_sign((l + 1,) + key)
            if not sign:
                continue  # l is in K: eta^l ^ eta^K = 0
            dc = coeff.partial(l)
            if dc:
                _accumulate(coeffs, target, dc if sign > 0 else -dc)
    return ExteriorForm._of(form.dim, form.degree + 1, coeffs)


def _covariant_d(phi: VectorValuedForm, omega) -> VectorValuedForm:
    """d phi^i + sum_j omega^i_j ^ phi^j for an n x n matrix `omega`
    (lists, 0-based) of 1-forms: the one covariant exterior derivative,
    whatever Lie algebra the connection takes values in."""
    out = []
    for row, form in zip(omega, phi):
        acc = exterior_derivative(form)
        for w, phi_j in zip(row, phi):
            if w:
                acc = acc + wedge(w, phi_j)
        out.append(acc)
    return VectorValuedForm(out)

"""Chart-level bundle calculus.

Forms here carry polynomial coefficient functions (see poly.py), so the
exterior derivative is exact.  Connections are o(n)-valued 1-form
matrices; curvature comes from the second structure equation, and the
generalized torsion / Bianchi residuals follow the covariant-derivative
expansions d_grad phi = d phi^i + eta^i_j ^ phi^j.
"""

from __future__ import annotations

from .errors import InputError
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
    out = ExteriorForm.zero(form.dim, form.degree + 1)
    out.coefficients = coeffs
    return out


class ConnectionForm:
    """n x n matrix of degree-1 polynomial forms, o(n)-valued."""

    __slots__ = ("n", "dim", "entries")

    def __init__(self, entries):
        self.n = len(entries)
        if any(len(row) != self.n for row in entries):
            raise InputError("connection matrix is not square")
        self.dim = entries[0][0].dim
        for i in range(self.n):
            for j in range(self.n):
                e = entries[i][j]
                if e.degree != 1 or e.dim != self.dim:
                    raise InputError("connection entries must be 1-forms on a shared chart")
                if (e + entries[j][i]).coefficients:
                    raise InputError("connection form is not o(n)-valued (antisymmetry fails)")
        self.entries = [list(row) for row in entries]

    @classmethod
    def zero(cls, n, dim):
        z = poly_form(dim, 1)
        return cls([[z for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_upper(cls, n, dim, upper):
        """Build from entries {(i, j): 1-form} with i < j (1-based)."""
        z = poly_form(dim, 1)
        entries = [[z for _ in range(n)] for _ in range(n)]
        for (i, j), form in upper.items():
            if not 1 <= i < j <= n:
                raise InputError(f"upper-triangular key {(i, j)} out of range")
            entries[i - 1][j - 1] = form
            entries[j - 1][i - 1] = -form
        return cls(entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i - 1][j - 1]


class Curvature2Form:
    """n x n matrix of degree-2 forms, antisymmetric in (i, j)."""

    __slots__ = ("n", "dim", "entries")

    def __init__(self, entries):
        self.n = len(entries)
        self.dim = entries[0][0].dim
        self.entries = [list(row) for row in entries]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i - 1][j - 1]

    def is_antisymmetric(self):
        return all(
            not (self.entries[i][j] + self.entries[j][i]).coefficients
            for i in range(self.n) for j in range(self.n))

    def is_zero(self):
        return all(not e.coefficients for row in self.entries for e in row)


def curvature_from_connection(eta: ConnectionForm) -> Curvature2Form:
    """Second structure equation: Omega^i_j = d eta^i_j + eta^i_k ^ eta^k_j."""
    n, dim = eta.n, eta.dim
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            omega = exterior_derivative(eta[i, j])
            for k in range(1, n + 1):
                omega = omega + wedge(eta[i, k], eta[k, j])
            row.append(omega)
        rows.append(row)
    return Curvature2Form(rows)


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


def generalized_torsion(phi: VectorValuedForm, eta: ConnectionForm) -> VectorValuedForm:
    """Theta^i = d phi^i + eta^i_j ^ phi^j; zero iff phi is covariantly closed."""
    if eta.n != phi.rank or eta.dim != phi.dim:
        raise InputError("connection and form shapes disagree")
    return _covariant_d(phi, eta.entries)


def bianchi_residual(omega: Curvature2Form, phi: VectorValuedForm):
    """Generalized Bianchi residuals Omega^i_j ^ phi^j, one (p+2)-form per
    component: the form d_grad^2 phi^i reduces to.  Contracting the row
    index instead only negates them, since Omega is antisymmetric."""
    if omega.n != phi.rank or omega.dim != phi.dim:
        raise InputError("curvature and form shapes disagree")
    n = phi.rank
    out = []
    for i in range(1, n + 1):
        # degree p+2 above the chart dimension holds no terms (forms of
        # degree > dim are structurally zero), so p = m-1 residuals vanish
        acc = ExteriorForm.zero(phi.dim, phi.degree + 2)
        for j in range(1, n + 1):
            acc = acc + wedge(omega[i, j], phi[j - 1])
        out.append(acc)
    return out

"""References for the EMT backends.

Numeric: the library evaluates the metric and the tensor once over the
whole grid of sample points and their stencil neighbours, as arrays.
This module keeps the pointwise formulation, which evaluates each chart
function and factorises the metric afresh for every value it needs, one
point at a time: a polynomial through `poly_reference`'s
`Polynomial.eval`, and a callable, which the library calls on the whole
grid, on a grid of the one point.
It performs the same floating-point operations in the same order, so the
tests require its sides to equal the library's float for float.  It
refuses a value that is not finite as the library does, with the same
InputError: g over the stencil of every point and T there first, then
point by point g where it cannot be inverted, and the sides.

Exact: the library expands each minor of g once, over int numerators
and one denominator per polynomial, forms each Christoffel bracket once
and divides by the one denominator 2 det g.  This module keeps the plain
Fraction formulas on the reference polynomials of `poly_reference`, not
on the library's kernel: every cofactor of g as the determinant of its
own minor matrix, over det g, and Gamma^lam_{mu nu} summed over rho for
every index triple, with every partial derivative taken afresh.  The
tests require equal polynomials.  The Riemann tensor, which the library
does not compute, is built from these symbols one component at a time.
"""

import math
from fractions import Fraction

import numpy as np

from flag_reference import determinant
from gielab import InputError
from gielab.emt import EPS, FD_STEP, TOLERANCE, _fold
from gielab.poly import Polynomial as Library
from poly_reference import Polynomial, reference


def metric(g):
    """The chart's g as reference polynomials."""
    return [[reference(e) for e in row] for row in g.g]


def inverse_metric(g):
    """g^{-1} as reference polynomials: each cofactor from its own minor
    matrix, over det g, which must be a nonzero constant."""
    m, nv = g.m, g.g[0][0].nvars
    G = metric(g)
    det = determinant(G)
    det = det.constant_value() if isinstance(det, Polynomial) else Fraction(det)
    inv = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [[G[r][c] for c in range(m) if c != j]
                     for r in range(m) if r != i]
            cof = determinant(minor) if m > 1 else Polynomial.constant(1, nv)
            if not isinstance(cof, Polynomial):
                cof = Polynomial.constant(cof, nv)
            sign = 1 if (i + j) % 2 == 0 else -1
            inv[j][i] = cof * Fraction(sign, 1) * (Fraction(1) / det)
    return inv


def christoffel(g, ginv):
    """Gamma^lam_{mu nu} = 1/2 g^{lam rho} (d_mu g_{rho nu} + d_nu g_{rho mu}
    - d_rho g_{mu nu}) for every index triple."""
    m, G = g.m, metric(g)
    half = Fraction(1, 2)
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]
    for lam in range(m):
        for mu in range(m):
            for nu in range(m):
                total = Polynomial.constant(0, g.g[0][0].nvars)
                for rho in range(m):
                    total = total + ginv[lam][rho] * (
                        G[rho][nu].partial(mu)
                        + G[rho][mu].partial(nu)
                        - G[mu][nu].partial(rho))
                gamma[lam][mu][nu] = half * total
    return gamma


def riemann(gamma, rho, sigma, mu, nu):
    """R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    + Gamma^rho_{mu lam} Gamma^lam_{nu sigma}
    - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}, one component from the
    reference Christoffel symbols `gamma`."""
    total = gamma[rho][nu][sigma].partial(mu) - gamma[rho][mu][sigma].partial(nu)
    for lam in range(len(gamma)):
        total = (total + gamma[rho][mu][lam] * gamma[lam][nu][sigma]
                 - gamma[rho][nu][lam] * gamma[lam][mu][sigma])
    return total


def _value(f, point, what):
    """float(f at point), refused as the library refuses a value that is
    not finite; where Python's float pow overflows, the library's
    np.float_power gives an infinity.  A polynomial is evaluated as a
    reference polynomial, and a callable is called on the grid of the one
    point."""
    if isinstance(f, Library):
        try:
            value = float(reference(f).eval(point))
        except OverflowError:
            value = math.inf
    else:
        out = np.empty(1)
        out[:] = f(np.array([point], dtype=float))
        value = float(out[0])
    if not math.isfinite(value):
        raise InputError(f"{what} is not finite at sample point {list(point)}")
    return value


def _stencil(point, h=FD_STEP):
    """point, then point + h e_mu and point - h e_mu for mu = 1..m."""
    out = [list(point)]
    for mu in range(len(point)):
        for step in (h, -h):
            shifted = list(point)
            shifted[mu] += step
            out.append(shifted)
    return out


def matrix_at(g, point):
    return np.array([[_value(f, point, f"metric entry ({i + 1}, {j + 1})")
                      for j, f in enumerate(row)] for i, row in enumerate(g.g)])


def volume_coefficient_at(g, point):
    return float(np.prod(np.diag(np.linalg.cholesky(matrix_at(g, point)))))


def christoffel_at(g, point, h=FD_STEP):
    m = g.m
    try:
        ginv = np.linalg.inv(matrix_at(g, point))
    except np.linalg.LinAlgError:
        raise InputError(f"metric singular at sample point {list(point)}") from None
    stencil = [matrix_at(g, pt) for pt in _stencil(point, h)]
    dg = [(stencil[2 * mu + 1] - stencil[2 * mu + 2]) / (2 * h) for mu in range(m)]
    gamma = np.empty((m, m, m))
    for lam in range(m):
        for mu in range(m):
            for nu in range(m):
                s = 0.0
                for rho in range(m):
                    s += ginv[lam][rho] * (dg[mu][rho][nu] + dg[nu][rho][mu]
                                           - dg[rho][mu][nu])
                gamma[lam][mu][nu] = 0.5 * s
    return gamma


def tensor_tables(T, g, point, h=FD_STEP):
    """g over the stencil of `point`, then (Tval, Thi, Tlo): T^{lam mu} at
    the point, at point + h e_mu and at point - h e_mu, read in that order."""
    stencil = _stencil(point, h)
    for pt in stencil:
        volume_coefficient_at(g, pt)
    return [[[_value(f, stencil[2 * mu + shift if shift else 0],
                     f"tensor entry ({lam + 1}, {mu + 1})")
              for mu, f in enumerate(row)] for lam, row in enumerate(T.T)]
            for shift in (0, 1, 2)]


def numeric_sides_at(g, point, tables, h=FD_STEP, tolerance=TOLERANCE):
    """(lhs, rhs, size) at one point, as `emt._numeric_sides` defines them,
    from the `tensor_tables` there."""
    m = g.m
    Tval, Thi, Tlo = tables
    stencil = _stencil(point, h)
    gamma = christoffel_at(g, point, h)
    sqrtg = volume_coefficient_at(g, point)
    lhs, rhs, size = [], [], []
    for lam in range(m):
        a_terms = []
        for mu in range(m):
            a_terms.append((Thi[lam][mu] * volume_coefficient_at(g, stencil[2 * mu + 1])
                            - Tlo[lam][mu] * volume_coefficient_at(g, stencil[2 * mu + 2]))
                           / (2 * h))
        for rho in range(m):
            for mu in range(m):
                a_terms.append(gamma[lam][rho][mu] * Tval[rho][mu] * sqrtg)
        b_terms = []
        for mu in range(m):
            b_terms.append((Thi[lam][mu] - Tlo[lam][mu]) / (2 * h))
            for nu in range(m):
                b_terms.append(Tval[lam][mu] * gamma[nu][nu][mu])
                b_terms.append(Tval[mu][nu] * gamma[lam][nu][mu])
        a, a_size = _fold(a_terms)
        b, b_size = _fold(b_terms)
        lhs.append(a)
        rhs.append(b * sqrtg)
        rounding = EPS / h * sqrtg * sum(abs(t) for t in Tval[lam])
        size.append(max(a_size, b_size * sqrtg, 64 * rounding / tolerance))
        if not all(map(math.isfinite, (lhs[lam], rhs[lam], size[lam]))):
            raise InputError(f"a side of the identity in component {lam + 1} is not "
                             f"finite at sample point {list(point)}")
    return lhs, rhs, size


def numeric_sides(T, g, points):
    """(lhs, rhs, size, sqrtg), one entry per point, as `emt._numeric_sides`
    returns them: g and T at every point first, then the sides."""
    tables = [tensor_tables(T, g, point) for point in points]
    sides = [numeric_sides_at(g, point, t) for point, t in zip(points, tables)]
    return ([s[0] for s in sides], [s[1] for s in sides], [s[2] for s in sides],
            [volume_coefficient_at(g, point) for point in points])

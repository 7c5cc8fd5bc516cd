"""References for the EMT backends.

Numeric: the library evaluates the metric and the tensor once over the
whole grid of sample points and their stencil neighbours, as arrays.
This module keeps the pointwise formulation, which evaluates each chart
function and factorises the metric afresh for every value it needs, one
point at a time, through `Polynomial.eval`.  It performs the same
floating-point operations in the same order, so the tests require its
sides to equal the library's float for float.

Exact: the library works on the integer G = D g (D the lcm of g's
coefficient denominators), expands each minor of G once, forms each
Christoffel bracket once and divides by the one denominator 2 det G.
This module keeps the plain Fraction formulas: every cofactor of g as the
determinant of its own minor matrix, over det g, and Gamma^lam_{mu nu}
summed over rho for every index triple, with every partial derivative
taken afresh.  The tests require equal polynomials.
"""

from fractions import Fraction

import numpy as np

from gielab.emt import EPS, FD_STEP, TOLERANCE, _fold
from gielab.exterior import _minor_det
from gielab.poly import Polynomial


def inverse_metric(g):
    """g^{-1} as polynomials: each cofactor from its own minor matrix,
    over det g, which must be a nonzero constant."""
    m, nv = g.m, g.g[0][0].nvars
    det = _minor_det(g.g)
    det = det.constant_value() if isinstance(det, Polynomial) else Fraction(det)
    inv = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [[g.g[r][c] for c in range(m) if c != j]
                     for r in range(m) if r != i]
            cof = _minor_det(minor) if m > 1 else Polynomial.constant(1, nv)
            if not isinstance(cof, Polynomial):
                cof = Polynomial.constant(cof, nv)
            sign = 1 if (i + j) % 2 == 0 else -1
            inv[j][i] = cof * Fraction(sign, 1) * (Fraction(1) / det)
    return inv


def christoffel(g, ginv):
    """Gamma^lam_{mu nu} = 1/2 g^{lam rho} (d_mu g_{rho nu} + d_nu g_{rho mu}
    - d_rho g_{mu nu}) for every index triple."""
    m = g.m
    half = Fraction(1, 2)
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]
    for lam in range(m):
        for mu in range(m):
            for nu in range(m):
                total = Polynomial.constant(0, g.g[0][0].nvars)
                for rho in range(m):
                    total = total + ginv[lam][rho] * (
                        g.g[rho][nu].partial(mu)
                        + g.g[rho][mu].partial(nu)
                        - g.g[mu][nu].partial(rho))
                gamma[lam][mu][nu] = half * total
    return gamma


def _eval(f, point):
    if isinstance(f, Polynomial):
        return f.eval(point)
    return f(point)


def _fd_partial(f, point, mu, h=FD_STEP):
    """Central finite difference d f / d x_mu (mu 1-based)."""
    hi = list(point)
    lo = list(point)
    hi[mu - 1] += h
    lo[mu - 1] -= h
    return (_eval(f, hi) - _eval(f, lo)) / (2 * h)


def matrix_at(g, point):
    return np.array([[float(_eval(f, point)) for f in row] for row in g.g])


def volume_coefficient_at(g, point):
    return float(np.prod(np.diag(np.linalg.cholesky(matrix_at(g, point)))))


def christoffel_at(g, point, h=FD_STEP):
    m = g.m
    ginv = np.linalg.inv(matrix_at(g, point))
    dg = [[[_fd_partial(g.g[rho][nu], point, mu + 1, h)
            for nu in range(m)] for rho in range(m)] for mu in range(m)]
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


def numeric_sides_at(T, g, point, h=FD_STEP, tolerance=TOLERANCE):
    """(lhs, rhs, size) at one point, as `emt._numeric_sides` defines them."""
    m = g.m
    gamma = christoffel_at(g, point, h)
    sqrtg = volume_coefficient_at(g, point)
    Tval = [[float(_eval(f, point)) for f in row] for row in T.T]
    lhs, rhs, size = [], [], []
    for lam in range(m):
        a_terms = []
        for mu in range(m):
            def flux(pt, lam=lam, mu=mu):
                return float(_eval(T.T[lam][mu], pt)) * volume_coefficient_at(g, pt)
            a_terms.append(_fd_partial(flux, point, mu + 1, h))
        for rho in range(m):
            for mu in range(m):
                a_terms.append(gamma[lam][rho][mu] * Tval[rho][mu] * sqrtg)
        b_terms = []
        for mu in range(m):
            b_terms.append(_fd_partial(T.T[lam][mu], point, mu + 1, h))
            for nu in range(m):
                b_terms.append(Tval[lam][mu] * gamma[nu][nu][mu])
                b_terms.append(Tval[mu][nu] * gamma[lam][nu][mu])
        a, a_size = _fold(a_terms)
        b, b_size = _fold(b_terms)
        lhs.append(a)
        rhs.append(b * sqrtg)
        rounding = EPS / h * sqrtg * sum(abs(t) for t in Tval[lam])
        size.append(max(a_size, b_size * sqrtg, 64 * rounding / tolerance))
    return lhs, rhs, size


def numeric_sides(T, g, points):
    """(lhs, rhs, size, sqrtg), one entry per point, as `emt._numeric_sides`
    returns them."""
    sides = [numeric_sides_at(T, g, point) for point in points]
    return ([s[0] for s in sides], [s[1] for s in sides], [s[2] for s in sides],
            [volume_coefficient_at(g, point) for point in points])

"""Dense reference for the Gauss-map differential dG.

The library computes dG only inside the rank certificate, from the
integer-scaled sparse columns.  The tests compare it, the certificate's
witness and the paper's worked example against this entry-by-entry
formula.
"""

from fractions import Fraction

from gielab.gie import curvature_rows


def dg_columns(n, m, kappa):
    """Column order (a, k, nu) of dG, one column per coordinate H^a_{k nu}."""
    return [(a, k, nu) for a in range(1, kappa + 1)
            for k in range(1, n + 1) for nu in range(1, m + 1)]


def dg_entry(H, row, col):
    """d G^i_{j; lam mu} / d H^a_{k nu} at H, where
    G^i_{j; lam mu} = H_{i lam}.H_{j mu} - H_{i mu}.H_{j lam}."""
    i, j, lam, mu = row
    a, k, nu = col
    v = Fraction(0)
    if (k, nu) == (i, lam):
        v += H[a, j, mu]
    if (k, nu) == (j, mu):
        v += H[a, i, lam]
    if (k, nu) == (i, mu):
        v -= H[a, j, lam]
    if (k, nu) == (j, lam):
        v -= H[a, i, mu]
    return v


def dg_matrix(H, columns):
    """Dense dG at H over the given columns, rows in curvature_rows order."""
    return [[dg_entry(H, row, col) for col in columns]
            for row in curvature_rows(H.n, H.m)]

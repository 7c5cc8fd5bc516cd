"""Generic gradient of a Grassmann pullback function, for the tests.

`gielab.gie.GrassmannPullback.jacobian_rows` writes each Jacobian row
from the point's non-zeros and the known shape of each function.  This
module is the generic walk over a function's terms that it replaced:
every non-zero partial derivative at a point, from any sparse
{monomial: coefficient} terms, so the tests can hold the writer to it.
"""

from __future__ import annotations

from gielab.errors import InputError


def gradient_at(f, point):
    """{v: d f / d x_{v+1} at `point`} over the non-zero entries, v 0-based,
    in one pass over f.terms (sparse monomials as in `PullbackFunction` and
    `poly_reference.Polynomial`).  At a rational point each value is the
    partial derivative's exact value there.

    Each factor's value is read once.  A term whose zero factors have
    total multiplicity 2 or more has a zero derivative in every variable
    and is skipped; with one simple zero factor, only the derivative in
    that variable is formed."""
    if len(point) != f.nvars:
        raise InputError("evaluation point has wrong length")
    grad = {}
    for k, c in f.terms.items():
        values = []
        zero = None  # the position of the one simple zero factor
        for q, (w, e) in enumerate(k):
            x = point[w]
            if not x:
                if zero is not None or e > 1:
                    break
                zero = q
            values.append(x)
        else:
            positions = enumerate(k) if zero is None else [(zero, k[zero])]
            for pos, (var, e) in positions:
                d = c if e == 1 else c * e
                for q, (w, ew) in enumerate(k):
                    if q == pos:
                        ew -= 1
                    if ew == 1:
                        d = d * values[q]
                    elif ew:
                        d = d * values[q] ** ew
                grad[var] = grad.get(var, 0) + d
    return {v: d for v, d in grad.items() if d}

"""Energy-momentum audit on a metric chart.

From a metric chart g and a contravariant 2-tensor T this module builds
the vector-valued (m-1)-form tau^lam = T^{lam mu} (xi_mu -| vol), takes
its covariant exterior derivative, and verifies the identity

    d_grad tau^lam = (grad_mu T^{lam mu}) * vol

componentwise.  Two backends: an exact one over polynomial charts whose
metric determinant is a positive constant c, and a numeric one using
central finite differences and Cholesky factors of g.  With det g = c,
vol = sqrt(c) eta^Lambda and tau = sqrt(c) tau~ with
tau~^lam = T^{lam mu} (xi_mu -| eta^Lambda); sqrt(c) is a common constant
factor of both sides, so the exact backend proves
d_grad tau~ = (grad_mu T^{lam mu}) eta^Lambda in the polynomial ring and
never takes a square root.  numpy is imported inside the functions that
use it, so importing gielab does not load it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import InputError, VerificationError, json_int, json_matrix
from .exterior import VectorValuedForm
from .bundle import _covariant_d, poly_form
from .poly import (ExponentLimitError, Polynomial, from_json_terms, monomial,
                   sum_of_products)

EPS = sys.float_info.epsilon
FD_STEP = 1e-5
TOLERANCE = 1e-6
DEFAULT_MARGIN = 0.05


def target_dimension(m):
    """Dimension of the receiving space of the conservation-law map."""
    return m + (m - 1) ** 2


def _grid_function(f):
    """f as a function of a grid of points: (X, out, powers) writes f's
    values at the N points of the (N, m) float array X into the float array
    `out` of N entries; `powers` is a dict {(v, e): X[:, v] ** e} that the
    caller shares between every function it evaluates on this X, and drops
    with X.

    A callable is a chart function of the whole grid: f(X) returns the N
    values (one number stands for N equal ones), a value that is not finite
    where f has none; what it raises propagates.  A Polynomial is summed
    term by term over the whole array, in its term order, from its
    coefficients converted to floats once, which gives Polynomial.eval's
    finite floats bit for bit: numerator / den is float(Fraction), both
    correctly rounded, Fraction * float computes float(fraction) * float,
    the factors go in ascending variable order, both sums start from 0, and
    np.float_power is the C pow that Python's float ** int calls (np.power
    is not).  Each power is computed once per grid, into `powers`; x ** 1
    is x in C's pow, so a first power is the column of X itself.  Where
    Python's pow raises OverflowError, or a coefficient is beyond the
    floats, the value is not finite, which the caller refuses."""
    if not isinstance(f, Polynomial):
        def called(X, out, powers):
            out[:] = f(X)
        return called
    try:
        terms = [(c / f.den, monomial(k)) for k, c in f.nums.items()]
    except OverflowError:  # a coefficient beyond the floats: no value is finite
        terms = [(math.inf, ())]

    def summed(X, out, powers):
        import numpy as np
        out[:] = 0.0
        with np.errstate(all="ignore"):  # Python floats overflow silently too
            for c, k in terms:
                for ve in k:
                    p = powers.get(ve)
                    if p is None:
                        var, e = ve
                        p = powers[ve] = X[:, var] if e == 1 else np.float_power(X[:, var], e)
                    c = c * p
                out += c
    return summed


def _grid_functions(fs, m, what):
    """The m x m chart functions fs as grid functions; InputError naming the
    entry of `what` for a polynomial in another number of variables than m."""
    for i, row in enumerate(fs):
        for j, f in enumerate(row):
            if isinstance(f, Polynomial) and f.nvars != m:
                raise InputError(f"{what} entry ({i + 1}, {j + 1}) is a polynomial of "
                                 f"variable count {f.nvars}, not m = {m}")
    return [[_grid_function(f) for f in row] for row in fs]


def _first_not_finite(stack):
    """(point, entry) of the first value that is not finite in the
    point-major stack (N, ...), entry indexing one point's values
    flattened; None when every value is finite."""
    import numpy as np
    finite = np.isfinite(stack).ravel()
    if finite.all():
        return None
    return divmod(int(finite.argmin()), finite.size // len(stack))


def _batched(op, mats):
    """(values, bad): the numpy.linalg function op of each matrix of the
    (N, m, m) stack `mats`, in one batched call, and the first matrix `bad`
    where op raises LinAlgError (N when it raises for none); the values
    from bad on are NaN.  Only when the batched call fails are the matrices
    tried one by one, to find the first that fails."""
    import numpy as np
    try:
        return op(mats), len(mats)
    except np.linalg.LinAlgError:
        pass
    for bad, mat in enumerate(mats):
        try:
            op(mat)
        except np.linalg.LinAlgError:
            break
    values = np.full(mats.shape, np.nan)
    values[:bad] = op(mats[:bad])
    return values, bad


def _number(v):
    """float(v) for a finite int or float, not a bool; ValueError otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError
    return float(v)


def _symmetric(mats):
    """np.allclose(mat, mat.T, atol=1e-12) for each matrix of an (N, m, m)
    stack of finite floats: each pair of mirrored entries is compared in
    both orientations."""
    import numpy as np
    b = np.swapaxes(mats, -1, -2)
    with np.errstate(over="ignore"):  # a difference beyond the floats is not close
        return (np.abs(mats - b) <= 1e-12 + 1e-5 * np.abs(b)).all(axis=(1, 2))


def _positive_definite(lower):
    """True when the symmetric rational matrix whose lower triangle is
    `lower` (row i holding the entries 0..i) is positive definite: every
    pivot of its LDL^T factorization over Q, eliminated in order without
    exchanges, is positive.  The k-th pivot is the ratio of the k-th and
    (k-1)-th leading principal minors, so this is Sylvester's criterion;
    elimination stops at the first pivot that is not positive."""
    a = [list(row) for row in lower]
    for k, row_k in enumerate(a):
        d = row_k[k]
        if d <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / d
            if f:
                row_i = a[i]
                for j in range(k + 1, i + 1):
                    row_i[j] -= f * a[j][k]
    return True


class MetricChart:
    """Metric components on a single chart.

    g is an m x m array of chart functions: Polynomials in m variables for
    the exact backend, and for the numeric one also callables of the whole
    grid, which take the (N, m) float array of N points and return the N
    values, NaN where there is none.  The box bounds the chart domain for
    sampling; the margin keeps sample points away from its boundary (and
    hence from declared coordinate singularities).  g is checked positive
    definite at one point, the base point or else the first sample point:
    exactly over Q when every entry is a Polynomial, in floats otherwise."""

    def __init__(self, m, g, base_point=None, box=None, margin=DEFAULT_MARGIN):
        if len(g) != m or any(len(row) != m for row in g):
            raise InputError(f"metric must be an {m} x {m} array")
        self.m = m
        self.g = [list(row) for row in g]
        self._grid_g = _grid_functions(self.g, m, "metric")
        self.base_point = list(base_point) if base_point is not None else None
        try:
            self.box = ([[_number(lo), _number(hi)] for lo, hi in box] if box is not None
                        else [[0.0, 1.0]] * m)
            if len(self.box) != m or any(not 0 < hi - lo < math.inf for lo, hi in self.box):
                raise ValueError  # an infinite width puts sample points at infinity
        except (TypeError, ValueError, OverflowError):
            raise InputError("chart box must give m finite ordered [lo, hi] pairs") from None
        try:
            self.margin = _number(margin)
            if self.margin < 0:
                raise ValueError  # a negative margin samples outside the box
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"chart margin must be a finite number >= 0, "
                             f"got {margin!r}") from None
        if self.is_polynomial():
            for lam in range(m):
                for mu in range(m):
                    if self.g[lam][mu] != self.g[mu][lam]:
                        raise InputError("metric components are not symmetric")
        if m < 1:  # no matrix to check
            raise InputError(f"chart dimension m must be at least 1, got {m}")
        pt = self.base_point if self.base_point is not None else self.sample_points(1)[0]
        if self.is_polynomial():
            # at the point read as a rational: a metric beyond the floats
            # there is no reason to refuse an exact audit
            q = [Fraction(x) for x in pt]
            if not _positive_definite([[e.eval(q) for e in row[:i + 1]]
                                       for i, row in enumerate(self.g)]):
                raise InputError(f"metric singular or indefinite at sample point "
                                 f"{[float(x) for x in pt]}")
        else:
            self.matrix_at(pt)

    def is_polynomial(self):
        return all(isinstance(e, Polynomial) for row in self.g for e in row)

    def _factor_grid(self, X):
        """(mats, L, bad, exc) at the N points of the (N, m) float array X:
        the metric matrices, their Cholesky factors (g = L L^T) at the
        points before `bad`, and the first point `bad` where g fails, with
        the error `exc` to raise for it (bad = N, exc None when g passes
        everywhere).

        The failure is the one a walk over the points in order meets first:
        at each point the entries are read in row-major order, each refused
        where it is not finite, then g is checked symmetric, then positive
        definite."""
        import numpy as np
        m, n = self.m, len(X)
        mats = np.empty((n, m, m))
        powers = {}
        for i, row in enumerate(self._grid_g):
            for j, f in enumerate(row):
                f(X, mats[:, i, j], powers)
        bad, exc = n, None
        found = _first_not_finite(mats)
        if found is not None:
            bad, (i, j) = found[0], divmod(found[1], m)
            exc = InputError(f"metric entry ({i + 1}, {j + 1}) is not finite "
                             f"at sample point {X[bad].tolist()}")
        symmetric = _symmetric(mats[:bad])
        if not symmetric.all():
            bad = int(symmetric.argmin())
            exc = InputError(f"metric not symmetric at {X[bad].tolist()}")
        L, r = _batched(np.linalg.cholesky, mats[:bad])
        if r < bad:
            bad, exc = r, InputError(f"metric singular or indefinite at sample point "
                                     f"{X[r].tolist()}")
        return mats, L, bad, exc

    def _factor_at(self, point):
        """(g, L) at one point; raises the error `_factor_grid` gives."""
        import numpy as np
        mats, L, _, exc = self._factor_grid(np.array([point], dtype=float))
        if exc is not None:
            raise exc
        return mats[0], L[0]

    def matrix_at(self, point):
        """Metric matrix at a point; raises InputError when it is not
        finite, symmetric and positive definite there."""
        return self._factor_at(point)[0]

    def cholesky_at(self, point):
        """Lower-triangular L with g = L L^T; the rows of L^T are the
        coefficients of a pointwise orthonormal coframe."""
        return self._factor_at(point)[1]

    def sample_points(self, count=100):
        """Deterministic low-discrepancy grid in the margined box
        (additive Kronecker sequence: dimension d steps by the square root
        of the d-th prime, so no two dimensions share a step)."""
        if count < 1:
            return []
        primes = []
        k = 2
        while len(primes) < self.m:
            if all(k % p for p in primes):
                primes.append(k)
            k += 1
        axes = []  # (alpha, lo, hi - lo) per dimension, in the margined box
        for p, (lo, hi) in zip(primes, self.box):
            lo, hi = lo + self.margin, hi - self.margin
            if not lo < hi:
                raise InputError("margin swallows the chart box")
            axes.append((math.sqrt(p), lo, hi - lo))
        return [[lo + (k * alpha) % 1.0 * width for alpha, lo, width in axes]
                for k in range(1, count + 1)]


class EnergyMomentum:
    """Contravariant 2-tensor components T^{lam mu}, chart functions as
    MetricChart takes them (symmetry is not assumed; the identity below
    holds without it)."""

    def __init__(self, m, components):
        if len(components) != m or any(len(row) != m for row in components):
            raise InputError(f"tensor must be an {m} x {m} array")
        self.m = m
        self.T = [list(row) for row in components]
        self._grid_T = _grid_functions(self.T, m, "tensor")

    def is_polynomial(self):
        return all(isinstance(e, Polynomial) for row in self.T for e in row)


# ---------------------------------------------------------------------------
# exact polynomial backend


def _require_exact(g: MetricChart, T: EnergyMomentum | None = None):
    if not g.is_polynomial():
        raise InputError("exact backend needs polynomial metric components")
    if T is not None and not T.is_polynomial():
        raise InputError("exact backend needs polynomial tensor components")


def _minor_det(rows, row_ids, col_ids, minors):
    """Determinant of the minor of the polynomial matrix `rows` on the row
    indices `row_ids` and the column indices `col_ids`, by expansion along
    its first row, summed by `sum_of_products`.

    Every sub-minor is kept in `minors` under (row indices, column
    indices), so that the calls sharing one dict compute each sub-minor
    once: the cofactors of a matrix and its determinant then expand the
    same smaller minors only once between them."""
    if len(row_ids) == 1:
        return rows[row_ids[0]][col_ids[0]]
    key = (row_ids, col_ids)
    det = minors.get(key)
    if det is None:
        top, rest = rows[row_ids[0]], row_ids[1:]
        det = minors[key] = sum_of_products(top[0].nvars, [
            (-1 if j % 2 else 1, top[c], _minor_det(rows, rest, col_ids[:j] + col_ids[j + 1:],
                                                     minors))
            for j, c in enumerate(col_ids) if top[c]])
    return det


def christoffel(g: MetricChart):
    """Levi-Civita symbols Gamma^lam_{mu nu} as polynomials (exact
    backend), symmetric in the lower indices by construction.

    Restricted to a polynomial g whose det g is a positive constant;
    otherwise the inverse leaves the polynomial ring and the numeric
    backend must be used.

    Every product and sum below adds and multiplies ints: each entry of g
    is held as int numerators over its own denominator (see poly.py).
    det g is expanded along row 0 first, and its sub-minors are the
    cofactors of that row; every cofactor of the symmetric adjugate shares
    them and the smaller sub-minors through one dict, so each minor is
    expanded once, and the cofactors on and above the diagonal are computed
    and mirrored.  Each partial derivative d_mu g_{rho nu} is taken once,
    and so is each doubled bracket
    2[rho, mu nu] = d_mu g_{rho nu} + d_nu g_{rho mu} - d_rho g_{mu nu};
    Gamma^lam_{mu nu} = adj(g)^{lam rho} 2[rho, mu nu] / (2 det g) is one
    sum of products over the non-zero brackets, for mu <= nu, and
    mirrored."""
    _require_exact(g)
    m, nv = g.m, g.g[0][0].nvars
    ids = tuple(range(m))
    minors = {}
    det = _minor_det(g.g, ids, ids, minors)
    if not det.is_constant():
        raise InputError(
            "exact backend requires constant metric determinant; use the "
            "numeric backend for this chart")
    det = det.constant_value()
    if det <= 0:
        raise InputError("metric determinant must be positive")
    one = Polynomial.constant(1, nv)
    adj = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            # the empty minor at m = 1 is 1
            cof = _minor_det(g.g, ids[:i] + ids[i + 1:], ids[:j] + ids[j + 1:],
                             minors) if m > 1 else one
            adj[i][j] = adj[j][i] = -cof if (i + j) % 2 else cof
    dg = [[[g.g[rho][nu].partial(mu) for nu in range(m)] for rho in range(m)]
          for mu in range(m)]
    half = 1 / (2 * det)
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]
    for mu in range(m):
        for nu in range(mu, m):
            brackets = [sum_of_products(nv, [(1, dg[mu][rho][nu], one), (1, dg[nu][rho][mu], one),
                                             (-1, dg[rho][mu][nu], one)])
                        for rho in range(m)]
            for lam in range(m):
                gamma[lam][mu][nu] = gamma[lam][nu][mu] = sum_of_products(
                    nv, [(half, adj[lam][rho], b) for rho, b in enumerate(brackets)])
    return gamma


def christoffel_at(g: MetricChart, point):
    """Numeric Levi-Civita symbols at a point (central differences), the
    one-point case of the numeric backend's grid."""
    import numpy as np
    X = _stencil(np.array([point], dtype=float))
    mats, _, _, exc = g._factor_grid(X)
    if exc is not None:
        raise exc
    with np.errstate(all="ignore"):
        gamma, inverted = _christoffel(mats.reshape(1, 2 * g.m + 1, g.m, g.m))
    if not inverted:
        raise InputError(f"metric singular at sample point {X[0].tolist()}")
    return gamma[..., 0]


def tensor_to_mform(T: EnergyMomentum, g: MetricChart) -> VectorValuedForm:
    """tau~^lam = T^{lam mu} (xi_mu -| eta^Lambda) (exact backend), where
    xi_mu -| eta^Lambda = (-1)^(mu+1) eta^{Lambda minus mu}.  det g must be
    a positive constant c; then tau = sqrt(c) tau~, and tau~ = tau on a
    det-1 chart."""
    _require_exact(g, T)
    christoffel(g)  # refuses a chart whose det g is not a positive constant
    return _tau(T, g)


def _tau(T: EnergyMomentum, g: MetricChart):
    """`tensor_to_mform` without the chart's checks."""
    m = g.m
    comps = []
    for lam in range(1, m + 1):
        coeffs = {}
        for mu in range(1, m + 1):
            c = T.T[lam - 1][mu - 1]
            coeffs[tuple(k for k in range(1, m + 1) if k != mu)] = c if mu % 2 else -c
        comps.append(poly_form(m, m - 1, coeffs))
    return VectorValuedForm(comps)


def covariant_divergence(T: EnergyMomentum, gamma):
    """grad_mu T^{lam mu} = xi_mu(T^{lam mu}) + T^{lam mu} Gamma^nu_{nu mu}
    + T^{mu nu} Gamma^lam_{nu mu}, one polynomial per lam, each one sum of
    products (exact backend)."""
    m, nv = T.m, T.T[0][0].nvars
    one = Polynomial.constant(1, nv)
    # trace[mu] = Gamma^nu_{nu mu}, summed over nu once for every lam
    trace = [sum_of_products(nv, [(1, gamma[nu][nu][mu], one) for nu in range(m)])
             for mu in range(m)]
    out = []
    for lam in range(m):
        items = []
        for mu in range(m):
            items += [(1, T.T[lam][mu].partial(mu), one), (1, T.T[lam][mu], trace[mu])]
            items += [(1, T.T[mu][nu], gamma[lam][nu][mu]) for nu in range(m)]
        out.append(sum_of_products(nv, items))
    return out


def covariant_exterior_derivative(tau: VectorValuedForm, gamma):
    """d_grad tau^lam = d tau^lam + omega^lam_rho ^ tau^rho with the
    gl(m)-valued coordinate connection
    omega^lam_rho = Gamma^lam_{rho mu} eta^mu."""
    m = tau.dim
    omega = [[poly_form(m, 1, {(mu + 1,): gamma[lam][rho][mu] for mu in range(m)})
              for rho in range(m)] for lam in range(m)]
    return _covariant_d(tau, omega)


# ---------------------------------------------------------------------------
# numeric backend (one array pass over the sample grid)


def _stencil(base):
    """The stencils of the P points of `base` (a (P, m) array), as one
    (P * (2m + 1), m) array: each point x, then x + h e_mu and x - h e_mu
    for mu = 1..m with h = FD_STEP."""
    import numpy as np
    P, m = base.shape
    X = np.repeat(base[:, None, :], 2 * m + 1, axis=1)
    for mu in range(m):
        X[:, 2 * mu + 1, mu] += FD_STEP
        X[:, 2 * mu + 2, mu] -= FD_STEP
    return X.reshape(P * (2 * m + 1), m)


def _christoffel(G):
    """(gamma, bad): Gamma^lam_{mu nu} at the centre of each stencil, as an
    (m, m, m, P) array, from the metric matrices G (P, 2m + 1, m, m) over
    the stencils, and the first centre `bad` where g cannot be inverted (P
    when there is none), from which on gamma is NaN.  Every value is the
    float the per-point formula gives: the central differences and the sum
    over rho are taken in its order, elementwise along the point axis."""
    import numpy as np
    m = G.shape[-1]
    ginv, bad = _batched(np.linalg.inv, G[:, 0])
    ginv = ginv.transpose(1, 2, 0)
    dg = np.stack([(G[:, 2 * mu + 1] - G[:, 2 * mu + 2]) / (2 * FD_STEP)
                   for mu in range(m)]).transpose(0, 2, 3, 1)
    # [rho, mu, nu]: dg[mu][rho][nu] + dg[nu][rho][mu] - dg[rho][mu][nu]
    bracket = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg
    total = np.zeros((m, m, m, G.shape[0]))
    for rho in range(m):
        total = total + ginv[:, rho, None, None] * bracket[rho]
    return 0.5 * total, bad


def _fold(terms):
    """(sum, sum of magnitudes) of the terms, added left to right; the
    terms are floats or arrays of them."""
    total = size = 0.0
    for t in terms:
        total += t
        size += abs(t)
    return total, size


def _numeric_sides(T: EnergyMomentum, g: MetricChart, points):
    """(lhs, rhs, size, sqrtg), one entry per sample point: the
    coefficients of eta^Lambda there, for each lam the magnitude of the
    terms summed into the two sides, and sqrt(det g).

    lhs^lam: coefficient of the volume monomial in d_grad tau^lam,
        sum_mu d_mu(T^{lam mu} sqrt(g)) + Gamma^lam_{rho mu} T^{rho mu} sqrt(g);
    rhs^lam: (grad_mu T^{lam mu}) sqrt(g).
    Both use only pointwise data and finite differences over the stencil
    of each point, with step h = FD_STEP.  The terms of a conserved T
    nearly cancel, so |lhs| and |rhs| can be far below the rounding error
    of their terms; `size` is what that error scales with.  The terms can
    themselves be rounding noise (on a det-1 chart d_mu sqrt(g) is), so
    size is floored where TOLERANCE * size reaches 64 times the rounding
    error eps/h * sqrt(g) * sum_mu |T^{lam mu}| of the difference
    quotients; like size, the floor is linear in T.

    g is evaluated once over all the P (2m + 1) stencil points, checked
    and factorised in one batch, and T^{lam mu} once over the sample
    points and x +- h e_mu; every value is the float a walk over the
    points would give, and a failure raises the error that walk meets
    first: at each sample point, g over its stencil, then T, each value
    refused where it is not finite; then, point by point, g refused where
    it cannot be inverted, and the sides where they are not finite."""
    import numpy as np
    m, h, P = g.m, FD_STEP, len(points)
    S = 2 * m + 1
    X = _stencil(np.array(points, dtype=float).reshape(P, m))
    mats, L, bad, exc = g._factor_grid(X)
    grid = X.reshape(P, S, m)
    # [shift, lam, mu]: T^{lam mu} at x, then at x + h e_mu, then at x - h e_mu
    tables = np.empty((3, m, m, P))
    powers = [{} for _ in range(S)]  # per stencil column k
    for shift in (0, 1, 2):
        for lam in range(m):
            for mu in range(m):
                k = 2 * mu + shift if shift else 0
                T._grid_T[lam][mu](grid[:, k], tables[shift, lam, mu], powers[k])
    found = _first_not_finite(tables.transpose(3, 0, 1, 2))
    if exc is not None and (found is None or bad // S <= found[0]):
        raise exc  # g is read before T at the same sample point
    if found is not None:
        p, (shift, lam, mu) = found[0], np.unravel_index(found[1], (3, m, m))
        raise InputError(f"tensor entry ({lam + 1}, {mu + 1}) is not finite at sample "
                         f"point {grid[p, 2 * mu + shift if shift else 0].tolist()}")
    Tval, Thi, Tlo = tables
    with np.errstate(all="ignore"):
        gamma, singular = _christoffel(mats.reshape(P, S, m, m))
        # sqrt(det g): L's diagonal multiplied left to right, as np.prod does
        diag = L.reshape(P, S, m, m)
        sqrtg_at = diag[:, :, 0, 0]
        for i in range(1, m):
            sqrtg_at = sqrtg_at * diag[:, :, i, i]
        sqrtg_at = sqrtg_at.T  # [k]: sqrt(det g) at stencil point k
        sqrtg = sqrtg_at[0]
        # each term below is an (m, P) array over lam
        a_terms = [(Thi[:, mu] * sqrtg_at[2 * mu + 1]
                    - Tlo[:, mu] * sqrtg_at[2 * mu + 2]) / (2 * h) for mu in range(m)]
        for rho in range(m):
            for mu in range(m):
                a_terms.append(gamma[:, rho, mu] * Tval[rho, mu] * sqrtg)
        b_terms = []
        for mu in range(m):
            b_terms.append((Thi[:, mu] - Tlo[:, mu]) / (2 * h))
            for nu in range(m):
                b_terms.append(Tval[:, mu] * gamma[nu, nu, mu])
                b_terms.append(Tval[mu, nu] * gamma[:, nu, mu])
        a, a_size = _fold(a_terms)
        b, b_size = _fold(b_terms)
        rounding = EPS / h * sqrtg * sum(abs(Tval[:, mu]) for mu in range(m))
        size = np.maximum(np.maximum(a_size, b_size * sqrtg), 64 * rounding / TOLERANCE)
        rhs = b * sqrtg
    finite = (np.isfinite(a) & np.isfinite(rhs) & np.isfinite(size)).T.ravel()
    if not finite.all():  # the first point, and its first component
        p, lam = divmod(int(finite.argmin()), m)
        if p == singular:  # the sides are NaN from the first singular g on
            raise InputError(f"metric singular at sample point {grid[p, 0].tolist()}")
        raise InputError(f"a side of the identity in component {lam + 1} is not "
                         f"finite at sample point {grid[p, 0].tolist()}")
    return a.T.tolist(), rhs.T.tolist(), size.T.tolist(), sqrtg.tolist()


# ---------------------------------------------------------------------------
# verification report


class EquivalenceReport:
    """Outcome of `verify_equivalence`."""

    def __init__(self, backend: str, identity_holds: bool,
                 max_identity_residual: float, worst_point: list | None,
                 max_divergence: float | None, conserved: bool, target_dimension: int):
        self.backend = backend                # "exact" | "numeric"
        self.identity_holds = identity_holds  # d_grad tau == divergence * vol
        self.max_identity_residual = max_identity_residual
        self.worst_point = worst_point
        self.max_divergence = max_divergence  # numeric conservation-law residual
        self.conserved = conserved
        self.target_dimension = target_dimension

    @property
    def exact(self):
        """True when the residuals are exact rationals."""
        return self.backend == "exact"

    def as_dict(self):
        """The fields in order, then "value_kind"."""
        return dict(vars(self), value_kind="exact" if self.exact else "numeric")


def verify_equivalence(T: EnergyMomentum, g: MetricChart, backend="exact",
                       count=100) -> EquivalenceReport:
    """Verify d_grad tau = (grad_mu T^{lam mu}) * vol componentwise.

    The exact backend proves the identity in the polynomial ring, samples
    nothing, and decides `conserved` by the divergence polynomials being
    zero (its max_divergence is None); the numeric backend checks it at `count`
    deterministic sample points, raising VerificationError with the worst
    point when a residual exceeds TOLERANCE * size, where size is the
    magnitude of the terms that make up the two sides there, floored at
    the rounding error of their finite differences; T is conserved where
    |grad_mu T^{lam mu}| sqrt(g) is within TOLERANCE * size at every point.
    The first value that is not finite raises InputError naming its point.
    """
    m = g.m
    tdim = target_dimension(m)
    if backend == "exact":
        _require_exact(g, T)
        # d_grad tau~ = div eta^Lambda; both sides of the identity for tau
        # are these times the constant sqrt(det g)
        gamma = christoffel(g)
        lhs = covariant_exterior_derivative(_tau(T, g), gamma)
        div = covariant_divergence(T, gamma)
        vol_key = tuple(range(1, m + 1))
        for lam in range(m):
            if lhs[lam].coefficients.get(vol_key, Polynomial(div[lam].nvars)) != div[lam]:
                # a nonzero polynomial difference is an identity violation
                raise VerificationError(
                    f"covariant derivative and divergence disagree as "
                    f"polynomials in component {lam + 1}")
        return EquivalenceReport(backend="exact", identity_holds=True,
                                 max_identity_residual=0.0, worst_point=None,
                                 max_divergence=None, conserved=all(not d for d in div),
                                 target_dimension=tdim)
    if backend != "numeric":
        raise InputError(f"unknown backend {backend!r}")
    worst_val, worst_point, max_div = 0.0, None, 0.0
    worst_rel, breach, conserved = TOLERANCE, None, True
    points = g.sample_points(count)
    sides = zip(points, *_numeric_sides(T, g, points))
    for point, lhs, rhs, size, sqrtg in sides:
        sqrtg = max(sqrtg, 1e-300)
        for lam in range(m):
            res = abs(lhs[lam] - rhs[lam])
            if res > worst_val:
                worst_val, worst_point = res, point
            # both verdicts are relative to the terms, so rescaling T flips neither
            rel = res / size[lam] if res else 0.0  # size 0: every term is 0
            if rel > worst_rel:
                worst_rel, breach = rel, (res, point)
            conserved &= abs(rhs[lam]) <= TOLERANCE * size[lam]
            max_div = max(max_div, abs(rhs[lam]) / sqrtg)
    holds = breach is None
    report = EquivalenceReport(backend="numeric", identity_holds=holds,
                               max_identity_residual=worst_val,
                               worst_point=worst_point,
                               max_divergence=max_div,
                               conserved=conserved,
                               target_dimension=tdim)
    if not holds:
        res, point = breach
        raise VerificationError(
            f"backends disagree beyond tolerance: residual {res:.3e} "
            f"(relative {worst_rel:.3e}) at point {point}")
    return report


# ---------------------------------------------------------------------------
# charts


def flat_chart(m, box=None, margin=DEFAULT_MARGIN) -> MetricChart:
    g = [[Polynomial.constant(1 if i == j else 0, m) for j in range(m)]
         for i in range(m)]
    return MetricChart(m, g, base_point=[0.0] * m, box=box, margin=margin)


def sphere_chart() -> MetricChart:
    """Round 2-sphere in polar coordinates (theta, phi):
    g = diag(1, sin^2 theta), boxed away from the poles.  sin is math.sin
    at each point; np.sin differs from it in the last bit of a few values."""
    g = [[lambda X: 1.0, lambda X: 0.0],
         [lambda X: 0.0, lambda X: [math.sin(t) ** 2 for t in X[:, 0].tolist()]]]
    return MetricChart(2, g, base_point=[math.pi / 2, 1.0],
                       box=[[0.3, math.pi - 0.3], [0.0, 2 * math.pi]],
                       margin=0.05)


def inverse_metric_tensor(g: MetricChart) -> EnergyMomentum:
    """T = g^{-1}; covariantly constant, hence conserved.

    Each entry is a chart function of the whole grid, NaN from the first
    point where g fails its own check or cannot be inverted.  The m^2
    entries share one batched inversion of each grid: an audit reads T
    over the sample points and over each of their 2m stencil offsets, so
    this tensor keeps the inverses of the 2m + 1 grids it saw last."""
    import numpy as np
    m = g.m
    inverses = {}

    def inverse(X):
        key = (X.shape, X.tobytes())
        inv = inverses.get(key)
        if inv is None:
            mats, _, bad, _ = g._factor_grid(X)
            inv = np.full(mats.shape, np.nan)
            inv[:bad] = _batched(np.linalg.inv, mats[:bad])[0]
            if len(inverses) > 2 * m:
                inverses.clear()
            inverses[key] = inv
        return inv

    return EnergyMomentum(m, [[lambda X, i=i, j=j: inverse(X)[:, i, j] for j in range(m)]
                              for i in range(m)])


def _json_entries(doc, field, m, what):
    """The m x m polynomials of doc[field], read in row-major order; an
    exponent past the limit is refused naming its entry."""
    out = []
    for i, row in enumerate(json_matrix(doc, field, m, m)):
        out.append([])
        for j, e in enumerate(row):
            try:
                out[i].append(from_json_terms(e, m))
            except ExponentLimitError as exc:
                raise InputError(f"{what} entry ({i + 1}, {j + 1}): {exc}") from None
    return out


def load_chart(doc):
    """(MetricChart, EnergyMomentum) from the JSON schema
    {"m", "g", "T", "box", "margin"} with polynomial entries given as
    lists of {"exponents", "coefficient"}."""
    try:
        m = json_int(doc, "m")
        g = _json_entries(doc, "g", m, "metric")
        T = _json_entries(doc, "T", m, "tensor")
        box = doc.get("box")
        margin = doc.get("margin", DEFAULT_MARGIN)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        raise InputError(f"malformed chart input: {exc}") from exc
    return MetricChart(m, g, box=box, margin=margin), EnergyMomentum(m, T)

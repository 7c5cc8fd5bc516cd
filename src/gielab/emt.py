"""Energy-momentum audit on a metric chart.

From a metric chart g and a contravariant 2-tensor T this module builds
the vector-valued (m-1)-form tau^lam = T^{lam mu} (xi_mu -| vol), takes
its covariant exterior derivative, and verifies the identity

    d_grad tau^lam = (grad_mu T^{lam mu}) * vol

componentwise.  Two backends: an exact one over polynomial charts
(restricted to charts whose metric determinant is a nonzero constant
perfect rational square, so the inverse metric and the volume
coefficient stay in the polynomial ring) and a numeric one using central
finite differences and pointwise Cholesky factors of g.  numpy is
imported inside the numeric functions only, so importing gielab does
not load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, VerificationError, json_int
from .exterior import VectorValuedForm, _minor_det
from .bundle import _covariant_d, poly_form
from .linalg import frac_sqrt
from .poly import Polynomial, from_json_terms

EPS = sys.float_info.epsilon
FD_STEP = 1e-5
TOLERANCE = 1e-6
DEFAULT_MARGIN = 0.05


def target_dimension(m):
    """Dimension of the receiving space of the conservation-law map."""
    return m + (m - 1) ** 2


def _float_function(f):
    """f as a function of a point of floats.

    A Polynomial is summed from its terms with the coefficients converted
    to floats once, which gives Polynomial.eval's floats bit for bit:
    Fraction * float computes float(fraction) * float, and both sums start
    from the integer 0.  A callable is returned as it is."""
    if not isinstance(f, Polynomial):
        return f
    try:
        terms = [(float(c), k) for k, c in f.terms.items()]
    except OverflowError:
        return f.eval  # raises the OverflowError where Polynomial.eval does
    nvars = f.nvars

    def at(point):
        if len(point) != nvars:
            return f.eval(point)  # raises the length error
        total = 0
        for c, k in terms:
            for var, e in k:
                c = c * point[var] ** e
            total = total + c
        return total
    return at


def _is_symmetric(rows):
    """np.allclose(mat, mat.T, atol=1e-12) on a square list of floats:
    each pair of mirrored entries is compared in both orientations, NaN
    is close to nothing (also on the diagonal) and an infinity only to
    itself."""
    def close(a, b):
        return a == b or (math.isfinite(b) and abs(a - b) <= 1e-12 + 1e-5 * abs(b))

    return all(close(rows[i][j], rows[j][i]) and close(rows[j][i], rows[i][j])
               for i in range(len(rows)) for j in range(i, len(rows)))


class MetricChart:
    """Metric components on a single chart.

    g is an m x m array of chart functions (Polynomials for the exact
    backend, floats-in/floats-out callables for the numeric one).  The
    box bounds the chart domain for sampling; the margin keeps sample
    points away from its boundary (and hence from declared coordinate
    singularities)."""

    def __init__(self, m, g, base_point=None, box=None, margin=DEFAULT_MARGIN):
        if len(g) != m or any(len(row) != m for row in g):
            raise InputError(f"metric must be an {m} x {m} array")
        self.m = m
        self.g = [list(row) for row in g]
        self._float_g = [[_float_function(f) for f in row] for row in self.g]
        self.base_point = list(base_point) if base_point is not None else None
        try:
            self.box = [[float(lo), float(hi)] for lo, hi in box] if box else [[0.0, 1.0]] * m
            if len(self.box) != m or any(not lo < hi for lo, hi in self.box):
                raise ValueError  # NaN bounds fail `lo < hi` too
        except (TypeError, ValueError, OverflowError):
            raise InputError("chart box must give m ordered [lo, hi] pairs") from None
        try:
            self.margin = float(margin)
            if not (math.isfinite(self.margin) and self.margin >= 0):
                raise ValueError  # a negative margin samples outside the box
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"chart margin must be a finite number >= 0, "
                             f"got {margin!r}") from None
        if self.is_polynomial():
            for lam in range(m):
                for mu in range(m):
                    if self.g[lam][mu] != self.g[mu][lam]:
                        raise InputError("metric components are not symmetric")
        pt = self.base_point if self.base_point is not None else self.sample_points(1)[0]
        self.matrix_at(pt)  # positive-definiteness check

    def is_polynomial(self):
        return all(isinstance(e, Polynomial) for row in self.g for e in row)

    def _factor_at(self, point):
        """(g, L) at a point with g = L L^T: one evaluation and one
        factorisation.  Raises InputError when g is not symmetric positive
        definite there."""
        import numpy as np
        rows = [[float(f(point)) for f in row] for row in self._float_g]
        if not _is_symmetric(rows):
            raise InputError(f"metric not symmetric at {point}")
        mat = np.array(rows)
        try:
            L = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise InputError(f"metric singular or indefinite at sample point {point}")
        return mat, L

    def matrix_at(self, point):
        """Metric matrix at a point; raises InputError when it is not
        symmetric positive definite there."""
        return self._factor_at(point)[0]

    def cholesky_at(self, point):
        """Lower-triangular L with g = L L^T; the rows of L^T are the
        coefficients of a pointwise orthonormal coframe."""
        return self._factor_at(point)[1]

    def sample_points(self, count=100):
        """Deterministic low-discrepancy grid in the margined box
        (additive Kronecker sequence with square-root-of-prime steps)."""
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        alphas = [math.sqrt(primes[d % len(primes)]) for d in range(self.m)]
        pts = []
        for k in range(1, count + 1):
            pt = []
            for d in range(self.m):
                lo, hi = self.box[d]
                lo, hi = lo + self.margin, hi - self.margin
                if not lo < hi:
                    raise InputError("margin swallows the chart box")
                frac = (k * alphas[d]) % 1.0
                pt.append(lo + frac * (hi - lo))
            pts.append(pt)
        return pts


class EnergyMomentum:
    """Contravariant 2-tensor components T^{lam mu} (symmetry is not
    assumed; the identity below holds without it)."""

    def __init__(self, m, components):
        if len(components) != m or any(len(row) != m for row in components):
            raise InputError(f"tensor must be an {m} x {m} array")
        self.m = m
        self.T = [list(row) for row in components]
        self._float_T = [[_float_function(f) for f in row] for row in self.T]

    def is_polynomial(self):
        return all(isinstance(e, Polynomial) for row in self.T for e in row)


# ---------------------------------------------------------------------------
# exact polynomial backend


def _require_exact(g: MetricChart, T: EnergyMomentum | None = None):
    if not g.is_polynomial():
        raise InputError("exact backend needs polynomial metric components")
    if T is not None and not T.is_polynomial():
        raise InputError("exact backend needs polynomial tensor components")


def _exact_volume(g: MetricChart):
    """(det g, sqrt(det g)) as Fractions.

    Restricted to det g a nonzero constant perfect rational square;
    otherwise the inverse and the volume coefficient leave the
    polynomial ring and the numeric backend must be used."""
    det = _minor_det(g.g)
    if not (isinstance(det, Polynomial) and det.is_constant()) and not isinstance(det, Fraction):
        raise InputError(
            "exact backend requires constant metric determinant; use the "
            "numeric backend for this chart")
    det_val = det.constant_value() if isinstance(det, Polynomial) else det
    if det_val <= 0:
        raise InputError("metric determinant must be positive")
    vol = frac_sqrt(det_val)
    if vol is None:
        raise InputError(
            "exact backend requires det g to be a perfect rational square; "
            "use the numeric backend for this chart")
    return det_val, vol


def _exact_volume_and_inverse(g: MetricChart):
    """(sqrt(det g) as a Fraction, polynomial inverse metric), under the
    restrictions of `_exact_volume`."""
    m = g.m
    det_val, vol = _exact_volume(g)
    # adjugate / det stays polynomial because det is constant
    nv = g.g[0][0].nvars
    inv = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [[g.g[r][c] for c in range(m) if c != j]
                     for r in range(m) if r != i]
            cof = _minor_det(minor) if m > 1 else Polynomial.constant(1, nv)
            if not isinstance(cof, Polynomial):
                cof = Polynomial.constant(cof, nv)
            sign = 1 if (i + j) % 2 == 0 else -1
            inv[j][i] = cof * Fraction(sign, 1) * (Fraction(1) / det_val)
    return vol, inv


def christoffel(g: MetricChart):
    """Levi-Civita symbols Gamma^lam_{mu nu} as polynomials (exact
    backend).  Symmetric in the lower indices by construction."""
    _require_exact(g)
    _, ginv = _exact_volume_and_inverse(g)
    return _christoffel_from_inverse(g, ginv)


def _christoffel_from_inverse(g: MetricChart, ginv):
    """`christoffel` given the polynomial inverse metric."""
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


def christoffel_at(g: MetricChart, point):
    """Numeric Levi-Civita symbols at a point (central differences)."""
    import numpy as np
    return np.array(_stencil_christoffel(_metric_stencil(g, point)))


def tensor_to_mform(T: EnergyMomentum, g: MetricChart) -> VectorValuedForm:
    """tau^lam = T^{lam mu} (xi_mu -| vol) with vol = sqrt(det g) eta^Lambda
    (exact backend).  xi_mu -| eta^Lambda = (-1)^(mu+1) eta^{Lambda minus mu}."""
    _require_exact(g, T)
    _, vol = _exact_volume(g)
    return _tau(T, g, vol)


def _tau(T: EnergyMomentum, g: MetricChart, vol):
    """`tensor_to_mform` given the volume coefficient."""
    m = g.m
    comps = []
    for lam in range(1, m + 1):
        coeffs = {}
        for mu in range(1, m + 1):
            key = tuple(k for k in range(1, m + 1) if k != mu)
            sign = vol if mu % 2 else -vol
            c = T.T[lam - 1][mu - 1] * sign
            if c:
                coeffs[key] = coeffs.get(key, Polynomial.constant(0, c.nvars)) + c
        comps.append(poly_form(m, m - 1, coeffs))
    return VectorValuedForm(comps)


def covariant_divergence(T: EnergyMomentum, gamma):
    """grad_mu T^{lam mu} = xi_mu(T^{lam mu}) + T^{lam mu} Gamma^nu_{nu mu}
    + T^{mu nu} Gamma^lam_{nu mu}, one polynomial per lam (exact backend)."""
    m = T.m
    out = []
    for lam in range(m):
        total = Polynomial.constant(0, T.T[0][0].nvars)
        for mu in range(m):
            total = total + T.T[lam][mu].partial(mu)
            for nu in range(m):
                total = total + T.T[lam][mu] * gamma[nu][nu][mu]
                total = total + T.T[mu][nu] * gamma[lam][nu][mu]
        out.append(total)
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
# numeric backend (pointwise)


class _Stencil(NamedTuple):
    """The point x, then x + h e_mu and x - h e_mu for mu = 1..m with
    h = FD_STEP, with the metric matrix and sqrt(det g) at each."""
    points: list
    mats: list
    sqrtg: list


def _metric_stencil(g: MetricChart, point) -> _Stencil:
    """The stencil of `point`.  The metric is evaluated, checked symmetric
    positive definite and factorised once per stencil point, in the order
    of `points`; every finite difference at x reads these values."""
    import numpy as np
    points = [point]
    for mu in range(g.m):
        hi = list(point)
        lo = list(point)
        hi[mu] += FD_STEP
        lo[mu] -= FD_STEP
        points += [hi, lo]
    mats, sqrtg = [], []
    for pt in points:
        mat, L = g._factor_at(pt)
        mats.append(mat)
        sqrtg.append(float(np.prod(np.diag(L))))
    return _Stencil(points, mats, sqrtg)


def _stencil_christoffel(stencil: _Stencil):
    """Gamma^lam_{mu nu} at the stencil's point as nested lists, from the
    central differences of the stencil's metric matrices."""
    import numpy as np
    mats = stencil.mats
    m = len(mats[0])
    ginv = np.linalg.inv(mats[0]).tolist()
    dg = [((mats[2 * mu + 1] - mats[2 * mu + 2]) / (2 * FD_STEP)).tolist()
          for mu in range(m)]
    gamma = [[[0.0] * m for _ in range(m)] for _ in range(m)]
    for lam in range(m):
        for mu in range(m):
            for nu in range(m):
                s = 0.0
                for rho in range(m):
                    s += ginv[lam][rho] * (dg[mu][rho][nu] + dg[nu][rho][mu]
                                           - dg[rho][mu][nu])
                gamma[lam][mu][nu] = 0.5 * s
    return gamma


def _fold(terms):
    """(sum, sum of magnitudes) of the terms, added left to right."""
    total = size = 0.0
    for t in terms:
        total += t
        size += abs(t)
    return total, size


def _numeric_sides_at(T: EnergyMomentum, g: MetricChart, stencil: _Stencil):
    """(lhs, rhs, size): coefficients of eta^Lambda at the stencil's point,
    and for each lam the magnitude of the terms summed into the two sides.

    lhs^lam: coefficient of the volume monomial in d_grad tau^lam,
        sum_mu d_mu(T^{lam mu} sqrt(g)) + Gamma^lam_{rho mu} T^{rho mu} sqrt(g);
    rhs^lam: (grad_mu T^{lam mu}) sqrt(g).
    Both use only pointwise data and finite differences over the
    stencil, with step h = FD_STEP.  The
    terms of a conserved T nearly cancel, so |lhs| and |rhs| can be far
    below the rounding error of their terms; `size` is what that error
    scales with.  The terms can themselves be rounding noise (on a det-1
    chart d_mu sqrt(g) is), so size is floored where TOLERANCE * size
    reaches 64 times the rounding error eps/h * sqrt(g) * sum_mu |T^{lam mu}|
    of the difference quotients; like size, the floor is linear in T."""
    m, h = g.m, FD_STEP
    points, sqrtg_at = stencil.points, stencil.sqrtg
    gamma = _stencil_christoffel(stencil)
    sqrtg = sqrtg_at[0]
    fns = T._float_T
    Tval = [[float(f(points[0])) for f in row] for row in fns]
    # T^{lam mu} at x + h e_mu and x - h e_mu, read by both difference quotients
    Thi = [[fns[lam][mu](points[2 * mu + 1]) for mu in range(m)] for lam in range(m)]
    Tlo = [[fns[lam][mu](points[2 * mu + 2]) for mu in range(m)] for lam in range(m)]
    lhs, rhs, size = [], [], []
    for lam in range(m):
        a_terms = []
        for mu in range(m):
            a_terms.append((float(Thi[lam][mu]) * sqrtg_at[2 * mu + 1]
                            - float(Tlo[lam][mu]) * sqrtg_at[2 * mu + 2]) / (2 * h))
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
        size.append(max(a_size, b_size * sqrtg, 64 * rounding / TOLERANCE))
    return lhs, rhs, size


# ---------------------------------------------------------------------------
# verification report


@dataclass
class EquivalenceReport:
    backend: str                     # "exact" | "numeric"
    identity_holds: bool             # d_grad tau == divergence * vol
    max_identity_residual: float
    worst_point: list | None
    max_divergence: float            # conservation-law residual
    conserved: bool
    target_dimension: int
    exact: bool                      # residuals are exact rationals

    def __post_init__(self):
        # numpy comparisons give numpy bools, which the JSON report would
        # otherwise write as the strings "True"/"False"
        self.identity_holds = bool(self.identity_holds)
        self.conserved = bool(self.conserved)

    def as_dict(self):
        return {
            "backend": self.backend,
            "identity_holds": self.identity_holds,
            "max_identity_residual": self.max_identity_residual,
            "worst_point": self.worst_point,
            "max_divergence": self.max_divergence,
            "conserved": self.conserved,
            "target_dimension": self.target_dimension,
            "value_kind": "exact" if self.exact else "numeric",
        }


def verify_equivalence(T: EnergyMomentum, g: MetricChart, backend="exact",
                       count=100) -> EquivalenceReport:
    """Verify d_grad tau = (grad_mu T^{lam mu}) * vol componentwise.

    The exact backend proves the identity in the polynomial ring and
    reports exact residuals; the numeric backend checks it at `count`
    deterministic sample points, raising VerificationError with the worst
    point when a residual exceeds TOLERANCE * size, where size is the
    magnitude of the terms that make up the two sides there, floored at
    the rounding error of their finite differences.
    """
    m = g.m
    tdim = target_dimension(m)
    if backend == "exact":
        _require_exact(g, T)
        vol, ginv = _exact_volume_and_inverse(g)
        gamma = _christoffel_from_inverse(g, ginv)
        lhs = covariant_exterior_derivative(_tau(T, g, vol), gamma)
        div = covariant_divergence(T, gamma)
        vol_key = tuple(range(1, m + 1))
        for lam in range(m):
            coeff = lhs[lam].coefficients.get(vol_key, Polynomial.constant(0, div[lam].nvars))
            if coeff - div[lam] * vol:
                # a nonzero polynomial difference is an identity violation
                raise VerificationError(
                    f"covariant derivative and divergence disagree as "
                    f"polynomials in component {lam + 1}")
        max_div = 0.0
        conserved = all(not d for d in div)
        for point in g.sample_points(count):
            for d in div:
                max_div = max(max_div, abs(float(d.eval(point))))
        return EquivalenceReport(backend="exact", identity_holds=True,
                                 max_identity_residual=0.0,
                                 worst_point=None, max_divergence=max_div,
                                 conserved=conserved, target_dimension=tdim,
                                 exact=True)
    if backend != "numeric":
        raise InputError(f"unknown backend {backend!r}")
    worst_val, worst_point, max_div = 0.0, None, 0.0
    worst_rel, breach = TOLERANCE, None
    for point in g.sample_points(count):
        stencil = _metric_stencil(g, point)
        lhs, rhs, size = _numeric_sides_at(T, g, stencil)
        sqrtg = max(stencil.sqrtg[0], 1e-300)
        for lam in range(m):
            res = abs(lhs[lam] - rhs[lam])
            if res > worst_val:
                worst_val, worst_point = res, point
            # judged relative to the terms, so rescaling T cannot flip it
            rel = res / size[lam] if res else 0.0  # size 0: every term is 0
            if rel > worst_rel:
                worst_rel, breach = rel, (res, point)
            max_div = max(max_div, abs(rhs[lam]) / sqrtg)
    holds = breach is None
    report = EquivalenceReport(backend="numeric", identity_holds=holds,
                               max_identity_residual=worst_val,
                               worst_point=worst_point,
                               max_divergence=max_div,
                               conserved=max_div <= TOLERANCE,
                               target_dimension=tdim, exact=False)
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
    g = diag(1, sin^2 theta), boxed away from the poles."""
    g = [[lambda pt: 1.0, lambda pt: 0.0],
         [lambda pt: 0.0, lambda pt: math.sin(pt[0]) ** 2]]
    return MetricChart(2, g, base_point=[math.pi / 2, 1.0],
                       box=[[0.3, math.pi - 0.3], [0.0, 2 * math.pi]],
                       margin=0.05)


def inverse_metric_tensor(g: MetricChart) -> EnergyMomentum:
    """T = g^{-1} as callables; covariantly constant, hence conserved."""
    import numpy as np
    m = g.m

    def entry(i, j):
        return lambda pt: float(np.linalg.inv(g.matrix_at(pt))[i][j])

    return EnergyMomentum(m, [[entry(i, j) for j in range(m)] for i in range(m)])


def load_chart(doc):
    """(MetricChart, EnergyMomentum) from the JSON schema
    {"m", "g", "T", "box", "margin"} with polynomial entries given as
    lists of {"exponents", "coefficient"}."""
    try:
        m = json_int(doc, "m")
        g = [[from_json_terms(doc["g"][i][j], m) for j in range(m)]
             for i in range(m)]
        T = [[from_json_terms(doc["T"][i][j], m) for j in range(m)]
             for i in range(m)]
        box = doc.get("box")
        margin = doc.get("margin", DEFAULT_MARGIN)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        raise InputError(f"malformed chart input: {exc}") from exc
    return MetricChart(m, g, box=box, margin=margin), EnergyMomentum(m, T)

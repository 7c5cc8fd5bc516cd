"""Metric charts, Christoffel symbols, and the divergence identity."""

import json
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emt_reference
import flag_reference
from emt_reference import numeric_sides as reference_sides
from gielab import InputError, VerificationError, cli, emt
from gielab.emt import (EnergyMomentum, MetricChart, christoffel,
                        christoffel_at, covariant_divergence,
                        covariant_exterior_derivative, flat_chart,
                        inverse_metric_tensor, load_chart, sphere_chart,
                        target_dimension, tensor_to_mform, verify_equivalence)
from gielab.poly import MAX_EXPONENT, Polynomial
from poly_reference import reference, to_library


def const(c, m=2):
    return Polynomial.constant(c, m)


def tensor_const(m, diag=1):
    return EnergyMomentum(m, [[const(diag if i == j else 0, m)
                               for j in range(m)] for i in range(m)])


def _at(X, point):
    """The rows of the grid X that are `point`, as a boolean mask."""
    return (X == point).all(axis=1)


def _sin(column):
    """math.sin of each value, which np.sin does not always give."""
    return np.array([math.sin(t) for t in column.tolist()])


# -- charts and sampling -------------------------------------------------


def test_sample_points_deterministic_and_inside_box():
    chart = flat_chart(2, box=[[0, 1], [2, 5]], margin=0.1)
    pts = chart.sample_points(100)
    assert len(pts) == 100
    assert pts == chart.sample_points(100)
    for x, y in pts:
        assert 0.1 <= x <= 0.9 and 2.1 <= y <= 4.9
    # a margin of half the first side leaves no box: no point can be drawn,
    # but asking for none is not an error
    swallowed = flat_chart(2, box=[[0, 1], [2, 5]], margin=0.5)
    assert swallowed.sample_points(0) == []
    with pytest.raises(InputError, match="margin swallows the chart box"):
        swallowed.sample_points(1)


def test_sample_points_give_each_dimension_its_own_step():
    # the steps used to cycle through ten primes, so at m = 11 every sample
    # point had x_1 = x_11; the first ten dimensions keep their steps
    columns = list(zip(*flat_chart(11).sample_points(100)))
    assert len(set(columns)) == 11
    lo, hi = 0.0 + 0.05, 1.0 - 0.05
    for column, p in zip(columns, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]):
        assert list(column) == [lo + (k * math.sqrt(p)) % 1.0 * (hi - lo)
                                for k in range(1, 101)]


def test_indefinite_metric_rejected():
    g = [[const(-1), const(0)], [const(0), const(1)]]
    with pytest.raises(InputError):
        MetricChart(2, g)


def test_chart_without_dimensions_rejected():
    # an empty grid has no matrix to find indefinite
    with pytest.raises(InputError, match="at least 1"):
        MetricChart(0, [])


def test_asymmetric_metric_rejected():
    x1 = Polynomial.variable(0, 2)
    g = [[const(1), x1], [const(0), const(1)]]
    with pytest.raises(InputError):
        MetricChart(2, g)


NAN = float("nan")


@pytest.mark.parametrize("rows,symmetric", [
    ([[1.0, 1e308], [-1e308, 1.0]], False),   # the difference is beyond the floats
    ([[1.0, 2.0], [-2.0, 1.0]], False),
    ([[1.0, 1e308], [1e308, 1.0]], True),
    ([[1e308, 0.0], [0.0, -1e308]], True),
    ([[1.0, 1e-3], [-1e-3, 1.0]], False),
    ([[1.0, 1.7e308], [1e308, 1.0]], False),
    ([[1.0, 1.0], [1.0 + 1e-6, 1.0]], True),  # within rtol = 1e-5
    ([[1.0, 1.0], [1.0 + 1e-4, 1.0]], False),
    ([[1.0, 0.0], [5e-13, 1.0]], True),       # within atol = 1e-12
    ([[1.0, 0.0], [5e-12, 1.0]], False),
])
def test_symmetry_check_matches_allclose(rows, symmetric):
    mat = np.array(rows)
    assert emt._symmetric(mat[None]).tolist() == [symmetric]
    with np.errstate(over="ignore"):
        assert bool(np.allclose(mat, mat.T, atol=1e-12)) is symmetric


# the stacks `_symmetric` sees: `_factor_grid` refuses a value that is not finite
_entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([0.0, 1.0, 1.0 + 1e-5, 1.0 - 1e-5, 1e-12, -1e-12]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(st.lists(_entries, min_size=m, max_size=m),
                                min_size=m, max_size=m), min_size=1, max_size=4)))
def test_symmetry_check_is_allclose(stack):
    # a stack of matrices, each judged on its own
    mats = np.array(stack)
    with np.errstate(over="ignore"):
        assert emt._symmetric(mats).tolist() == [
            bool(np.allclose(mat, mat.T, atol=1e-12)) for mat in mats]


def test_nan_metric_rejected():
    # g_11 = 1 is finite at the point; g_12 = x_1 is the first entry that is not
    x1 = Polynomial.variable(0, 2)
    chart = MetricChart(2, [[const(1), x1], [x1, const(1)]], box=[[0, 1], [0, 1]])
    with pytest.raises(InputError) as raised:
        chart.matrix_at([NAN, 0.5])
    assert str(raised.value) == "metric entry (1, 2) is not finite at sample point [nan, 0.5]"


# -- Christoffel symbols --------------------------------------------------


def test_flat_christoffel_vanishes():
    gamma = christoffel(flat_chart(3))
    for lam in range(3):
        for mu in range(3):
            for nu in range(3):
                assert gamma[lam][mu][nu].is_zero()


def test_christoffel_symmetric_lower_indices():
    # constant-determinant polynomial metric with off-diagonal variation
    x1 = Polynomial.variable(0, 2)
    g = [[const(1), x1], [x1, const(1) + x1 * x1]]  # det = 1 identically
    chart = MetricChart(2, g, box=[[0, 1], [0, 1]])
    gamma = christoffel(chart)
    for lam in range(2):
        for mu in range(2):
            for nu in range(2):
                assert gamma[lam][mu][nu] == gamma[lam][nu][mu]


def test_christoffel_metric_compatibility():
    # nabla g = 0: d_rho g_lm = Gamma^s_{rho l} g_sm + Gamma^s_{rho m} g_ls
    x1 = Polynomial.variable(0, 2)
    g = [[const(1), x1], [x1, const(1) + x1 * x1]]
    chart = MetricChart(2, g, box=[[0, 1], [0, 1]])
    gamma = christoffel(chart)
    for rho in range(2):
        for l in range(2):
            for m_ in range(2):
                lhs = g[l][m_].partial(rho)
                rhs = Polynomial.constant(0, 2)
                for s in range(2):
                    rhs = rhs + gamma[s][rho][l] * g[s][m_]
                    rhs = rhs + gamma[s][rho][m_] * g[l][s]
                assert lhs == rhs


def test_sphere_christoffel_oracle():
    # g = diag(1, sin^2 theta): Gamma^theta_{phi phi} = -sin(t)cos(t),
    # Gamma^phi_{theta phi} = cot(t); finite differences at sample points
    chart = sphere_chart()
    for point in chart.sample_points(10):
        t = point[0]
        gamma = christoffel_at(chart, point)
        assert abs(gamma[0][1][1] + math.sin(t) * math.cos(t)) < 1e-7
        assert abs(gamma[1][0][1] - math.cos(t) / math.sin(t)) < 1e-6


def test_conformal_christoffel_oracle():
    # g = e^{2 x1} * identity in 2 dims: Gamma^1_{11} = 1
    e2x = lambda X: np.exp(2 * X[:, 0])
    zero = lambda X: 0.0
    chart = MetricChart(2, [[e2x, zero], [zero, e2x]], box=[[0, 1], [0, 1]])
    for point in chart.sample_points(5):
        gamma = christoffel_at(chart, point)
        assert abs(gamma[0][0][0] - 1.0) < 1e-6


def _rejected_by_every_exact_entry_point(chart, message):
    T = tensor_const(chart.m)
    for call in (lambda: christoffel(chart),
                 lambda: tensor_to_mform(T, chart),
                 lambda: verify_equivalence(T, chart, backend="exact")):
        with pytest.raises(InputError, match=message):
            call()


def test_exact_backend_rejects_nonconstant_determinant():
    x1 = Polynomial.variable(0, 2)
    g = [[const(1) + x1 * x1, const(0)], [const(0), const(1)]]
    _rejected_by_every_exact_entry_point(MetricChart(2, g, box=[[0, 1], [0, 1]]),
                                         "requires constant metric determinant")


def test_exact_backend_refuses_a_determinant_that_is_not_positive(tmp_path):
    # det g = (1/2)(2 x1^2) - x1^2 = 0 everywhere, yet g passes the float
    # check at the first sample point.  A polynomial chart is checked over Q:
    # its second LDL^T pivot there is exactly 0, so it is refused where it
    # is built, naming that point, and neither backend runs
    x1 = Polynomial.variable(0, 2)
    half = const(Fraction(1, 2))
    g = [[half, x1], [x1, const(2) * x1 * x1]]
    box = [[-1, 1], [-1, 1]]
    point = flat_chart(2, box=box).sample_points(1)[0]
    np.linalg.cholesky(np.array([[float(e.eval(point)) for e in row] for row in g]))
    message = f"metric singular or indefinite at sample point {point}"
    with pytest.raises(InputError) as raised:
        MetricChart(2, g, box=box)
    assert str(raised.value) == message
    path = tmp_path / "chart.json"
    chart = SimpleNamespace(m=2, g=g, box=box)  # what _chart_json reads
    path.write_text(json.dumps(_chart_json(chart, tensor_const(2))))
    for backend in ("exact", "numeric"):
        out = tmp_path / f"{backend}.report.json"
        code = cli.main(["--output", str(out), "emt-audit", "--input", str(path),
                         "--backend", backend])
        report = json.loads(out.read_text())
        assert (code, report["verdict"]) == (2, "invalid-input")
        assert report["results"]["error"] == message


def _det_one_chart_beyond_the_floats():
    """The det-1 chart g = [[1, 10^200 x_1], [10^200 x_1, 1 + 10^400 x_1^2]]
    on [0, 1]^2: g_22 is beyond the floats at every sample point."""
    x1 = Polynomial.variable(0, 2)
    big = const(10 ** 200) * x1
    return MetricChart(2, [[const(1), big], [big, const(1) + big * big]],
                       box=[[0, 1], [0, 1]])


def test_exact_audit_of_a_metric_beyond_the_floats(tmp_path):
    # the float check at the first sample point refused this chart for
    # either backend; only the numeric one needs its floats
    chart = _det_one_chart_beyond_the_floats()
    T = EnergyMomentum(2, [[const(1), const(0)], [const(0), const(1)]])
    report = verify_equivalence(T, chart, backend="exact")
    assert report.identity_holds and report.max_identity_residual == 0.0
    assert report.conserved is False  # T = I is not g^-1
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(_chart_json(chart, T)))
    codes = {}
    for backend in ("exact", "numeric"):
        out = tmp_path / f"{backend}.report.json"
        code = cli.main(["--output", str(out), "emt-audit", "--input", str(path),
                         "--backend", backend])
        codes[backend] = code, json.loads(out.read_text())
    assert codes["exact"][0] == 0 and codes["exact"][1]["verdict"] == "pass"
    assert codes["exact"][1]["results"]["identity_holds"] is True
    code, report = codes["numeric"]
    assert (code, report["verdict"]) == (2, "invalid-input")
    assert report["results"]["error"] == (
        f"metric entry (2, 2) is not finite at sample point {chart.sample_points(1)[0]}")


@pytest.mark.parametrize("entries", [[[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[1, 2], [2, 1]],
                                     [[0, 0], [0, 1]], [[1, 1], [1, 1]]],
                         ids=["diag(-1,1)", "diag(1,-1)", "indefinite", "zero pivot", "singular"])
def test_a_polynomial_metric_that_is_not_positive_definite_is_refused(entries):
    g = [[const(v) for v in row] for row in entries]
    message = f"metric singular or indefinite at sample point {flat_chart(2).sample_points(1)[0]}"
    with pytest.raises(InputError) as raised:
        MetricChart(2, g)
    assert str(raised.value) == message
    with pytest.raises(InputError, match="singular or indefinite at sample point"):
        MetricChart(2, [[lambda X, v=v: float(v) for v in row] for row in entries])


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(_rationals, min_size=m, max_size=m), min_size=m, max_size=m)))
def test_positive_definite_is_sylvesters_criterion(rows):
    # A A^T + shift is often positive definite, A + A^T often not; both
    # against every leading principal minor, by the reference expansion
    m = len(rows)
    for shift in (0, 1):
        gram = [[sum(a * b for a, b in zip(rows[i], rows[j])) + shift * (i == j)
                 for j in range(m)] for i in range(m)]
        symmetric = [[rows[i][j] + rows[j][i] for j in range(m)] for i in range(m)]
        for mat in (gram, symmetric):
            minors = [flag_reference.determinant([row[:k] for row in mat[:k]])
                      for k in range(1, m + 1)]
            lower = [row[:i + 1] for i, row in enumerate(mat)]
            assert emt._positive_definite(lower) == all(d > 0 for d in minors), mat


def _sampled_divergence(chart, T):
    """max |div^lam(x)| over the numeric audit's 100 sample points x, each
    exact divergence polynomial evaluated at each point in rationals and
    rounded once."""
    div = [reference(d) for d in covariant_divergence(T, christoffel(chart))]
    return max(abs(float(d.eval([Fraction(x) for x in point])))
               for point in chart.sample_points(100) for d in div)


def _audited_by_both_backends(chart, T, tmp_path):
    """emt-audit of (chart, T) through the CLI with each backend: both pass,
    the exact one with residual 0.0 and no sampled divergence, and the
    numeric max_divergence agrees to 1e-8 relative with the exact
    divergence at the same sample points."""
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(_chart_json(chart, T)))
    results = {}
    for backend in ("exact", "numeric"):
        out = tmp_path / f"{backend}.report.json"
        code = cli.main(["--output", str(out), "emt-audit", "--input", str(path),
                         "--backend", backend])
        report = json.loads(out.read_text())
        assert (code, report["verdict"]) == (0, "pass"), report["results"]
        results[backend] = report["results"]
    assert results["exact"]["max_identity_residual"] == 0.0
    assert results["exact"]["max_divergence"] is None
    assert math.isclose(_sampled_divergence(chart, T),
                        results["numeric"]["max_divergence"], rel_tol=1e-8)
    return results


def test_exact_backend_proves_a_non_square_determinant(tmp_path):
    # det g = 2: sqrt(2) is a common factor of both sides and is never formed
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    g = [[const(2), const(0)], [const(0), const(1)]]
    T = EnergyMomentum(2, [[x1, x1 * x2], [const(3), x2 * x2]])
    results = _audited_by_both_backends(MetricChart(2, g, box=[[0, 1], [0, 1]]), T, tmp_path)
    assert results["exact"]["conserved"] is False
    assert results["numeric"]["max_divergence"] > 0


# -- the exact backend against its reference --------------------------------


def _seeded_chart(seed, m, det=1, curved=False):
    """The benchmark's det-1 chart shape, seeded, with det g = `det`:
    g = A^T D A with A unit upper triangular, A_ij = a + b x_j (flat), or
    a + b x_i x_j when `curved`, and D = diag(det, 1, ..., 1);
    T^{lam mu} = c0 + c1 x_lam + c2 x_lam x_mu."""
    rng = random.Random(seed)

    def nonzero():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    x = [Polynomial.variable(i, m) for i in range(m)]
    A = [[const(1 if i == j else 0, m) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            A[i][j] = nonzero() + nonzero() * (x[i] * x[j] if curved else x[j])
    D = [det] + [1] * (m - 1)
    g = [[sum((A[r][i] * A[r][j] * D[r] for r in range(m)), const(0, m))
          for j in range(m)] for i in range(m)]
    T = [[nonzero() + nonzero() * x[lam] + nonzero() * x[lam] * x[mu] for mu in range(m)]
         for lam in range(m)]
    return MetricChart(m, g, box=[[-1, 1]] * m), EnergyMomentum(m, T)


@pytest.mark.parametrize("m,det", [(m, det) for det in (1, 4, 2) for m in range(1, 6)]
                         + [(m, det) for det in ("9/4", "8/9") for m in range(1, 4)])
def test_exact_inverse_and_christoffel_equal_the_reference(m, det):
    # the integer kernel's Gamma against the Fraction formulas; at det g =
    # 9/4 and 8/9 the denominators of det g = det G / D^m sit in D^m, and at
    # det g = 2 and 8/9 it is not a rational square
    for seed, curved in [(seed, curved) for seed in range(2)
                         for curved in ((False, True) if m <= 4 else (False,))]:
        chart, _ = _seeded_chart(seed, m, Fraction(det), curved)
        gamma = christoffel(chart)
        g, ginv = emt_reference.metric(chart), emt_reference.inverse_metric(chart)
        for i in range(m):
            for j in range(m):
                entry = sum((g[i][k] * ginv[k][j] for k in range(m)), 0)
                assert entry == (1 if i == j else 0)
        assert ([[[reference(e) for e in row] for row in plane] for plane in gamma]
                == emt_reference.christoffel(chart, ginv))


def _curvature(chart):
    """The components R^rho_{sigma mu nu} of the chart's Riemann tensor,
    built by `emt_reference.riemann` one at a time as they are asked for."""
    gamma = emt_reference.christoffel(chart, emt_reference.inverse_metric(chart))
    m = chart.m
    return (emt_reference.riemann(gamma, rho, sigma, mu, nu) for rho in range(m)
            for sigma in range(m) for mu in range(m) for nu in range(m))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_curved_seeded_charts_are_curved_and_the_others_flat(m):
    # with A_ij = a + b x_j each row of A is a closed 1-form, so g = A^T D A
    # is a constant metric in other coordinates, and R = 0 although Gamma is
    # not; A_ij = a + b x_i x_j is not closed, and R has a non-zero component
    for seed in range(2):
        assert any(_curvature(_seeded_chart(seed, m, curved=True)[0])), seed
        flat = _seeded_chart(seed, m)[0]
        assert any(christoffel(flat)[lam][mu][nu] for lam in range(m)
                   for mu in range(m) for nu in range(m)), seed
        assert not any(_curvature(flat)), seed


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_backend_proves_a_non_square_rational_determinant(m, tmp_path):
    # det g = 8/9: det G / D^m is positive and constant but not a square
    _audited_by_both_backends(*_seeded_chart(0, m, Fraction(8, 9)), tmp_path)


def test_exact_audit_of_a_non_square_determinant_catches_a_perturbed_christoffel_symbol(
        tmp_path, monkeypatch):
    chart, T = _seeded_chart(1, 3, Fraction(8, 9))[0], _asymmetric_tensor(3)
    path, out = tmp_path / "chart.json", tmp_path / "report.json"
    path.write_text(json.dumps(_chart_json(chart, T)))
    argv = ["--output", str(out), "emt-audit", "--input", str(path), "--backend", "exact"]
    assert cli.main(argv) == 0
    unperturbed = emt.christoffel

    def perturbed(*args):
        gamma = unperturbed(*args)
        gamma[1][0][2] = gamma[1][0][2] + const(1, 3)
        return gamma

    monkeypatch.setattr(emt, "christoffel", perturbed)
    assert cli.main(argv) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "violation"
    assert report["results"]["error"].endswith("disagree as polynomials in component 2")


@pytest.mark.parametrize("m,det", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (2, 4)])
def test_exact_audit_decides_conserved_by_the_divergence_polynomials(m, det):
    # the exact report samples nothing: conserved is whether every
    # divergence polynomial is zero, false for the seeded T and true for
    # T = 3 adj g = 3 det g g^-1, which is covariantly constant
    chart, T = _seeded_chart(3, m, det)
    adj = EnergyMomentum(m, [[to_library(3 * det * e) for e in row]
                             for row in emt_reference.inverse_metric(chart)])
    for tensor, conserved in ((T, False), (adj, True)):
        report = verify_equivalence(tensor, chart, backend="exact")
        div = covariant_divergence(tensor, christoffel(chart))
        assert report.max_divergence is None
        assert report.conserved == all(not d for d in div) == conserved
        assert report.identity_holds


def test_exact_audit_of_a_divergence_beyond_the_floats_samples_nothing():
    # div^2 = x_2^3 overflows in Python's float pow at the fourth sample
    # point (x_2 is 0.93 of the box there, at most 0.73 before); the exact
    # audit, which once sampled it and refused the chart, proves the
    # identity and that T is not conserved
    chart = flat_chart(2, box=[[0, 1], [0, 7e102]])
    x2 = Polynomial.variable(1, 2)
    T = EnergyMomentum(2, [[const(0), const(0)],
                           [const(0), const(Fraction(1, 4)) * x2 * x2 * x2 * x2]])
    points = chart.sample_points(100)
    div = covariant_divergence(T, christoffel(chart))
    assert div[1] == x2 * x2 * x2
    with pytest.raises(OverflowError):
        div[1].eval(points[3])
    report = verify_equivalence(T, chart, backend="exact")
    assert report.identity_holds and not report.conserved
    assert (report.max_identity_residual, report.max_divergence) == (0.0, None)


def test_exact_backend_refuses_a_scaled_nonconstant_determinant():
    # det g = 2 (1 + x1^2): a constant factor does not make it constant
    x1 = Polynomial.variable(0, 2)
    g = [[const(2) + const(2) * x1 * x1, const(0)], [const(0), const(1)]]
    _rejected_by_every_exact_entry_point(MetricChart(2, g, box=[[0, 1], [0, 1]]),
                                         "requires constant metric determinant")


def _asymmetric_tensor(m):
    """Constant T^{lam mu} = m lam + mu + 1, so T^{mu nu} != T^{nu mu} off
    the diagonal."""
    return EnergyMomentum(m, [[const(m * lam + mu + 1, m) for mu in range(m)]
                              for lam in range(m)])


@pytest.mark.parametrize("lam,mu,nu", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
def test_exact_audit_catches_a_perturbed_christoffel_symbol(lam, mu, nu, monkeypatch):
    # Gamma^lam_{mu nu} enters d_grad tau^lam as Gamma^lam_{mu nu} T^{mu nu}
    # and the divergence as T^{nu mu} Gamma^lam_{mu nu}; with mu != lam it
    # is not a trace Gamma^nu_{nu mu}, so only component lam changes
    chart, T = _seeded_chart(1, 3)[0], _asymmetric_tensor(3)
    assert verify_equivalence(T, chart, backend="exact").identity_holds
    unperturbed = emt.christoffel

    def perturbed(*args):
        gamma = unperturbed(*args)
        gamma[lam][mu][nu] = gamma[lam][mu][nu] + const(1, 3)
        return gamma

    monkeypatch.setattr(emt, "christoffel", perturbed)
    with pytest.raises(VerificationError,
                       match=f"disagree as polynomials in component {lam + 1}$"):
        verify_equivalence(T, chart, backend="exact")


# -- tau and divergence ----------------------------------------------------


def test_tau_interior_product_signs():
    # m=2, T = identity, flat: tau^1 = eta^2, tau^2 = -eta^1
    tau = tensor_to_mform(tensor_const(2), flat_chart(2))
    assert tau[0].coefficients == {(2,): const(1)}
    assert tau[1].coefficients == {(1,): const(-1)}


def test_tau_of_zero_tensor():
    tau = tensor_to_mform(tensor_const(2, diag=0), flat_chart(2))
    assert all(c.is_zero() for c in tau)


def test_tau_component_count_m4():
    tau = tensor_to_mform(tensor_const(4), flat_chart(4))
    assert len(tau.components) == 4
    assert all(c.degree == 3 for c in tau)
    assert target_dimension(4) == 13


def test_divergence_flat_constant_vanishes():
    chart = flat_chart(2)
    div = covariant_divergence(tensor_const(2), christoffel(chart))
    assert all(d.is_zero() for d in div)


def test_divergence_single_partial():
    # T^{11} = x1, flat: div^1 = 1
    chart = flat_chart(2)
    T = EnergyMomentum(2, [[Polynomial.variable(0, 2), const(0)],
                           [const(0), const(0)]])
    div = covariant_divergence(T, christoffel(chart))
    assert div[0] == const(1) and div[1].is_zero()


def test_inverse_metric_is_divergence_free_on_sphere():
    chart = sphere_chart()
    T = inverse_metric_tensor(chart)
    report = verify_equivalence(T, chart, backend="numeric")
    assert report.conserved
    assert report.max_divergence < 1e-6


# -- the equivalence identity ----------------------------------------------


def test_flat_constant_exact_audit():
    report = verify_equivalence(tensor_const(2), flat_chart(2), backend="exact")
    assert report.identity_holds and report.conserved
    assert report.max_identity_residual == 0.0
    assert report.exact


def test_flat_linear_tensor_exact_audit():
    chart = flat_chart(2)
    T = EnergyMomentum(2, [[Polynomial.variable(0, 2), const(0)],
                           [const(0), const(0)]])
    gamma = christoffel(chart)
    tau = tensor_to_mform(T, chart)
    lhs = covariant_exterior_derivative(tau, gamma)
    # d_grad tau^1 = 1 * eta^12 exactly, matching the divergence
    assert lhs[0].coefficients == {(1, 2): const(1)}
    report = verify_equivalence(T, chart, backend="exact")
    assert report.identity_holds and not report.conserved


def test_sphere_inverse_metric_numeric_audit():
    chart = sphere_chart()
    report = verify_equivalence(inverse_metric_tensor(chart), chart,
                                backend="numeric")
    assert report.identity_holds
    assert report.max_identity_residual < 1e-6
    assert not report.exact


def test_identity_holds_for_non_conserved_tensor():
    report = verify_equivalence(_random_tensor(20), sphere_chart(), backend="numeric")
    assert report.identity_holds
    assert not report.conserved


def _scaled(T, factor):
    return EnergyMomentum(T.m, [[(lambda X, f=f: factor * f(X)) for f in row]
                                for row in T.T])


def _random_tensor(seed):
    rng = random.Random(seed)
    coeffs = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(4)]

    def entry(k):  # a chart function of the whole grid X
        return lambda X: coeffs[k][0] + coeffs[k][1] * X[:, 0] + coeffs[k][2] * _sin(X[:, 1])

    return EnergyMomentum(2, [[entry(0), entry(1)], [entry(2), entry(3)]])


@pytest.mark.parametrize("factor", [1e-6, 1e4, 1e6])
def test_numeric_audit_holds_for_scaled_tensors(factor):
    # the identity is linear in T: scaling a tensor that satisfies it must
    # not turn rounding error into a violation, conserved or not
    chart = sphere_chart()
    for T in (inverse_metric_tensor(chart), _random_tensor(20)):
        report = verify_equivalence(_scaled(T, factor), chart, backend="numeric")
        assert report.identity_holds


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e6])
def test_numeric_audit_catches_a_perturbed_side(factor, monkeypatch):
    chart = sphere_chart()
    T = _scaled(_random_tensor(20), factor)
    assert verify_equivalence(T, chart, backend="numeric").identity_holds
    sides = emt._numeric_sides

    def perturbed(*args):
        lhs, rhs, size, sqrtg = sides(*args)
        return lhs, [[r * (1 + 1e-5) for r in point] for point in rhs], size, sqrtg

    monkeypatch.setattr(emt, "_numeric_sides", perturbed)
    with pytest.raises(VerificationError, match="residual"):
        verify_equivalence(T, chart, backend="numeric")


def test_backends_agree_on_polynomial_input():
    chart = flat_chart(2)
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    T = EnergyMomentum(2, [[x1 * x2, x2], [const(3), x1 + x2]])
    exact = verify_equivalence(T, chart, backend="exact")
    numeric = verify_equivalence(T, chart, backend="numeric")
    assert exact.identity_holds and numeric.identity_holds
    assert abs(_sampled_divergence(chart, T) - numeric.max_divergence) < 1e-6


def test_unknown_backend_rejected():
    with pytest.raises(InputError):
        verify_equivalence(tensor_const(2), flat_chart(2), backend="sloppy")


def test_load_chart_roundtrip():
    doc = {
        "m": 2,
        "g": [[[{"exponents": [0, 0], "coefficient": "1"}], []],
              [[], [{"exponents": [0, 0], "coefficient": "1"}]]],
        "T": [[[{"exponents": [1, 0], "coefficient": "1"}], []],
              [[], []]],
        "box": [[0, 1], [0, 1]],
        "margin": 0.1,
    }
    chart, tensor = load_chart(doc)
    assert chart.m == 2 and chart.margin == 0.1
    report = verify_equivalence(tensor, chart, backend="exact")
    assert report.identity_holds and not report.conserved


# -- the numeric backend against its per-call reference ---------------------


def _grid_values(f, points):
    values = np.zeros(len(points))
    emt._grid_function(f)(np.array(points, dtype=float), values, {})
    return values


def test_float_chart_functions_match_polynomial_eval():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    points = [[0.3, -1.7], [0.0, 2.5], [-4.0, 1e-3]]
    for p in (const(0), const(Fraction(1, 3)),
              Fraction(2, 7) * x1 * x2 * x2 + Fraction(-5, 3) * x2 + Fraction(1, 3)):
        # a constant evaluates to its Fraction exactly, to its float here
        values = _grid_values(p, points)
        assert values.tolist() == [float(p.eval(point)) for point in points]
        assert emt._first_not_finite(values) is None
    # a coefficient beyond the floats: no value is finite, and the first is refused
    values = _grid_values(Fraction(10) ** 400 * x1, points)
    assert not np.isfinite(values).any() and emt._first_not_finite(values) == (0, 0)
    chart = flat_chart(2)
    T = EnergyMomentum(2, [[Fraction(10) ** 400 * x1, const(0)], [const(0), const(1)]])
    with pytest.raises(InputError) as raised:
        verify_equivalence(T, chart, backend="numeric", count=3)
    assert str(raised.value) == (f"tensor entry (1, 1) is not finite at sample point "
                                 f"{chart.sample_points(1)[0]}")


@pytest.mark.parametrize("build,what", [
    (lambda g: MetricChart(2, g), "metric"),
    (lambda g: EnergyMomentum(2, g), "tensor")])
def test_a_polynomial_of_another_variable_count_is_refused_by_the_chart(build, what):
    # such an entry used to reach Polynomial.eval at each point of the
    # audit, and to fail there with "wrong length"
    for x, k in ((Polynomial.variable(0, 3), 2), (Polynomial.variable(0, 1), 1)):
        g = [[const(1), const(0)], [const(0), const(1)]]
        g[k - 1][k - 1] = x
        with pytest.raises(InputError) as raised:
            build(g)
        assert str(raised.value) == (f"{what} entry ({k}, {k}) is a polynomial of variable "
                                     f"count {x.nvars}, not m = 2")


def _eval_walk(f, points):
    """f at each point in turn: Polynomial.eval for a polynomial, a
    callable on the grid of the one point; Python's float pow raising
    OverflowError is read as the infinity np.float_power gives there, which
    the callers refuse."""
    values = []
    for point in points:
        try:
            values.append(float(f.eval(point)) if isinstance(f, Polynomial)
                          else float(f(np.array([point]))[0]))
        except OverflowError:
            values.append(math.inf)
    return values


def _bits(v):
    """A finite float to the bit; every other value as one."""
    return v.hex() if math.isfinite(v) else "not finite"


def _shared_grid_values(fs, points):
    """Each f of fs over one grid, sharing one powers dict as the callers
    do; the values per f, the dict, and the np.float_power calls."""
    X, powers, results = np.array(points, dtype=float), {}, []
    with mock.patch.object(np, "float_power", wraps=np.float_power) as pow_calls:
        for f in fs:
            values = np.zeros(len(points))
            emt._grid_function(f)(X, values, powers)
            results.append(values.tolist())
    return results, powers, X, pow_calls.call_count


def _same_as_eval_walk(fs, points, results):
    for f, values in zip(fs, results):
        assert [_bits(v) for v in values] == [_bits(v) for v in _eval_walk(f, points)]


def test_grid_functions_share_each_power_once_per_grid():
    # x_v, x_v^2 and x_v^3 spread over different functions and a callable:
    # every value is Polynomial.eval's or the callable's at the one point,
    # and each power x_v^e with e > 1 is computed once, x_v itself not at all
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    fs = [x1 * x2 + 3, x1 * x1 + Fraction(2, 7) * x2 * x2 * x2,
          Fraction(1, 3) * x2 * x1 * x1 * x1 - x1, x2 * x2 * x1,
          lambda X: X[:, 0] - X[:, 1], 1 + x1 * x1 * x1]
    points = [[0.3, -1.7], [-4.0, 1e-3], [1e100, 2.5], [-0.0, 1e-200]]
    results, powers, X, calls = _shared_grid_values(fs, points)
    _same_as_eval_walk(fs, points, results)
    assert sorted(powers) == [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]
    assert calls == 4
    assert all(np.shares_memory(powers[v, 1], X) for v in (0, 1))


def test_grid_functions_share_powers_on_the_late_overflow_chart():
    # g_11 = 1 + x_1^2 on [0, 2.4e154], margin 0: x_1^2 is finite at the
    # first sample point and overflows later; a function that reads x_1^2
    # after the overflow, and one read before it, are not finite where eval
    # raises, and the first such point is the one refused
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    chart = MetricChart(2, [[const(1) + x1 * x1, const(0)], [const(0), const(1)]],
                        box=[[0, 2.4e154], [0, 1]], margin=0)
    points = chart.sample_points(20)
    fs = [x2 * x1, chart.g[0][0], x1 * x1 * x2 + x2, const(1), Fraction(1, 10 ** 200) * x1 * x1]
    results, powers, _, calls = _shared_grid_values(fs, points)
    _same_as_eval_walk(fs, points, results)
    values = np.array(results[1])
    first = next(r for r, point in enumerate(points) if math.isinf(point[0] * point[0]))
    assert 0 < first and emt._first_not_finite(values) == (first, 0)
    assert calls == 1 and sorted(powers) == [(0, 1), (0, 2), (1, 1)]


_MAGNITUDES = [1e-200, 1e-40, 1e-3, 1.0, 1e3, 1e40, 1e60, 1e160]


@pytest.mark.parametrize("seed", range(4))
def test_grid_polynomial_is_polynomial_eval_bit_for_bit(seed):
    # exponents 0..8 at points of every scale and sign: each finite value is
    # Polynomial.eval's float to the bit (np.power is not), and a value is
    # not finite exactly where eval's is not or eval raises OverflowError
    rng = random.Random(seed)
    for _ in range(25):
        m = rng.randint(1, 3)
        p = Polynomial(m, {tuple(rng.randint(0, 8) for _ in range(m)):
                           Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                           for _ in range(rng.randint(1, 5))})
        points = [[rng.uniform(-1, 1) * rng.choice(_MAGNITUDES) for _ in range(m)]
                  for _ in range(40)]
        values = _grid_values(p, points)
        assert [_bits(v) for v in values.tolist()] == [_bits(v) for v in _eval_walk(p, points)]


_nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def _det1_charts(draw):
    """(g, T) as the benchmark's emt-audit charts: g = A^T A with A unit
    upper triangular, A_ij = a + b x_j (flat) or a + b x_i x_j (curved), and
    T^{lam mu} = 10^k (c0 + c1 x_lam + c2 x_lam x_mu)."""
    m, k, curved = draw(st.integers(2, 4)), draw(st.integers(-9, 6)), draw(st.booleans())
    x = [Polynomial.variable(i, m) for i in range(m)]
    A = [[const(1 if i == j else 0, m) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            A[i][j] = draw(_nonzero) + draw(_nonzero) * (x[i] * x[j] if curved else x[j])
    g = [[sum((A[r][i] * A[r][j] for r in range(m)), const(0, m)) for j in range(m)]
         for i in range(m)]
    scale = Fraction(10) ** k
    T = [[scale * (draw(_nonzero) + draw(_nonzero) * x[lam]
                   + draw(_nonzero) * x[lam] * x[mu]) for mu in range(m)]
         for lam in range(m)]
    return MetricChart(m, g, box=[[-1, 1]] * m), EnergyMomentum(m, T)


@st.composite
def _sphere_audits(draw):
    chart, k = sphere_chart(), draw(st.integers(-9, 6))
    T = draw(st.sampled_from([inverse_metric_tensor(chart), _random_tensor(20),
                              _random_tensor(21)]))
    # T = g^-1 is read through its batched inverses, scaled or not
    return chart, draw(st.sampled_from([T, _scaled(T, 10.0 ** k)]))


def _outcome(T, chart):
    try:
        return verify_equivalence(T, chart, backend="numeric", count=5).as_dict()
    except VerificationError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(st.one_of(_det1_charts(), _sphere_audits()))
def test_numeric_backend_equals_per_call_reference(audit):
    # the batched sides at every sample point of the audit, float for float
    chart, T = audit
    points = chart.sample_points(5)
    assert emt._numeric_sides(T, chart, points) == reference_sides(T, chart, points)
    with mock.patch.object(emt, "_numeric_sides", reference_sides):
        expected = _outcome(T, chart)
    assert _outcome(T, chart) == expected


@pytest.mark.parametrize("chart", [sphere_chart(), _seeded_chart(4, 3)[0]],
                         ids=["sphere", "polynomial"])
def test_inverse_metric_tensor_inverts_once_per_stencil_offset(chart):
    # g over the P (2m + 1) stencil points, then T = g^-1 once over the sample
    # points and once over each offset x +- h e_mu, shared by the m^2 entries;
    # the sides are the pointwise callables' float for float
    T, m = inverse_metric_tensor(chart), chart.m
    points = chart.sample_points(5)
    factor, calls = chart._factor_grid, []

    def counted(X):
        calls.append(len(X))
        return factor(X)

    with mock.patch.object(chart, "_factor_grid", counted):
        sides = emt._numeric_sides(T, chart, points)
    assert calls == [5 * (2 * m + 1)] + [5] * (2 * m + 1)
    assert sides == reference_sides(T, chart, points)


# positive definite, but LU meets an exact zero pivot: np.linalg.inv raises
# where np.linalg.cholesky does not
_SINGULAR = [[1.5140605674521708, 0.28183784439970383],
             [0.28183784439970383, 0.05246327144596278]]


@pytest.mark.parametrize("entries", [[[-1.0, 0.0], [0.0, 1.0]], [[NAN, 0.0], [0.0, 1.0]],
                                     _SINGULAR], ids=["indefinite", "nan", "singular"])
@pytest.mark.parametrize("mu,sign", [(0, 1), (1, -1)])
def test_batched_inverse_metric_fails_as_the_pointwise_walk(mu, sign, entries):
    # T = g^-1 of a chart that fails only at a stencil neighbour of the third
    # of five sample points, audited on the flat chart: T has no value there,
    # and the batched inverses must refuse what the pointwise walk refuses,
    # the first entry read at that neighbour
    points = flat_chart(2).sample_points(5)
    bad = list(points[2])
    bad[mu] += sign * emt.FD_STEP
    np.linalg.cholesky(np.array(_SINGULAR))  # g passes its own check there
    chart = MetricChart(2, [[lambda X, e=e, i=i, j=j: np.where(_at(X, bad), e, float(i == j))
                             for j, e in enumerate(row)] for i, row in enumerate(entries)])
    T = inverse_metric_tensor(chart)
    with pytest.raises(InputError) as pointwise:
        reference_sides(T, flat_chart(2), points)
    with pytest.raises(InputError) as batched:
        verify_equivalence(T, flat_chart(2), backend="numeric", count=5)
    assert str(batched.value) == str(pointwise.value) == (
        f"tensor entry (1, {mu + 1}) is not finite at sample point {bad}")


def _singular_chart():
    """The constant g = _SINGULAR, in exact fractions."""
    return MetricChart(2, [[const(Fraction(v)) for v in row] for row in _SINGULAR])


def test_metric_that_lu_cannot_invert_is_refused_at_its_sample_point():
    # the inverse used to be unguarded and ended the audit in a bare
    # LinAlgError "Singular matrix"; every point is singular, so the first
    # sample point is named
    chart, T = _singular_chart(), tensor_const(2)
    points = chart.sample_points(100)
    message = f"metric singular at sample point {points[0]}"
    for call in (lambda: verify_equivalence(T, chart, backend="numeric"),
                 lambda: reference_sides(T, chart, points),
                 lambda: christoffel_at(chart, points[0])):
        with pytest.raises(InputError) as raised:
            call()
        assert str(raised.value) == message
    assert verify_equivalence(T, chart, backend="exact").identity_holds


def test_cli_refuses_a_metric_that_lu_cannot_invert_only_on_the_numeric_backend(tmp_path):
    chart = _singular_chart()
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(_chart_json(chart, tensor_const(2))))
    codes = {}
    for backend in ("exact", "numeric"):
        out = tmp_path / f"{backend}.report.json"
        codes[backend] = cli.main(["--output", str(out), "emt-audit", "--input", str(path),
                                   "--backend", backend])
        codes[backend, "report"] = json.loads(out.read_text())
    assert codes["exact"] == 0 and codes["exact", "report"]["verdict"] == "pass"
    assert codes["numeric"] == 2 and codes["numeric", "report"]["verdict"] == "invalid-input"
    assert codes["numeric", "report"]["results"]["error"] == (
        f"metric singular at sample point {chart.sample_points(1)[0]}")


def test_singular_metric_after_a_side_that_is_not_finite_is_not_reached():
    # the walk computes the sides at each sample point after inverting g
    # there: a side that is not finite at an earlier point is refused first
    points = flat_chart(2).sample_points(5)
    entries = [[lambda X, e=e, i=i, j=j: np.where(_at(X, points[3]), e, float(i == j))
                for j, e in enumerate(row)] for i, row in enumerate(_SINGULAR)]
    chart = MetricChart(2, entries)
    # sum_mu |T^{1 mu}| in the rounding floor is beyond the floats there
    huge = lambda X: np.where(_at(X, points[1]), 1e308, 0.0)
    T = EnergyMomentum(2, [[huge, huge], [const(0), const(0)]])
    for sides in (emt._numeric_sides, reference_sides):
        with pytest.raises(InputError) as raised:
            sides(T, chart, points)
        assert str(raised.value) == (f"a side of the identity in component 1 is not "
                                     f"finite at sample point {points[1]}")
    with pytest.raises(InputError) as raised:
        emt._numeric_sides(tensor_const(2), chart, points)
    assert str(raised.value) == f"metric singular at sample point {points[3]}"


@pytest.mark.parametrize("mu,sign", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_numeric_audit_checks_the_metric_at_every_stencil_point(mu, sign):
    # positive definite at the sample point, indefinite at one neighbour
    point = flat_chart(2).sample_points(1)[0]
    bad = list(point)
    bad[mu] += sign * emt.FD_STEP
    chart = MetricChart(2, [[lambda X: np.where(_at(X, bad), -1.0, 1.0), lambda X: 0.0],
                            [lambda X: 0.0, lambda X: 1.0]])
    with pytest.raises(InputError, match=re.escape(f"indefinite at sample point {bad}")):
        verify_equivalence(tensor_const(2), chart, backend="numeric", count=1)


@pytest.mark.parametrize("value,message", [(-1.0, "singular or indefinite at sample point"),
                                           (NAN, "entry (1, 1) is not finite at sample point")],
                         ids=["indefinite", "nan"])
@pytest.mark.parametrize("mu,sign", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_numeric_audit_names_the_failing_neighbour_of_a_later_sample(mu, sign, value,
                                                                     message):
    # one batched factorisation fails for the whole grid; the error must name
    # the neighbour of the third of five sample points, not the grid
    point = flat_chart(2).sample_points(3)[2]
    bad = list(point)
    bad[mu] += sign * emt.FD_STEP
    chart = MetricChart(2, [[lambda X: np.where(_at(X, bad), value, 1.0), lambda X: 0.0],
                            [lambda X: 0.0, lambda X: 1.0]])
    with pytest.raises(InputError, match=re.escape(f"{message} {bad}")):
        verify_equivalence(tensor_const(2), chart, backend="numeric", count=5)


@pytest.mark.parametrize("t_sample,g_sample,first", [(1, 3, "T"), (3, 1, "g"), (2, 2, "g")])
def test_numeric_audit_raises_the_first_failure_of_the_per_point_walk(
        t_sample, g_sample, first):
    # the walk reads g over a sample point's stencil and then T there, point
    # by point; the batch evaluates all of g first, and must still raise what
    # that walk meets first, g where both fail at the same sample point
    points = flat_chart(2).sample_points(5)
    g_bad = list(points[g_sample])
    g_bad[1] -= emt.FD_STEP
    chart = MetricChart(2, [[lambda X: 1.0, lambda X: 0.0],
                            [lambda X: 0.0, lambda X: np.where(_at(X, g_bad), -1.0, 1.0)]])
    T = EnergyMomentum(2, [[const(1), const(0)],
                           [lambda X: np.where(_at(X, points[t_sample]), NAN, 0.0), const(1)]])
    with pytest.raises(InputError) as raised:
        verify_equivalence(T, chart, backend="numeric", count=5)
    assert str(raised.value) == {
        "T": f"tensor entry (2, 1) is not finite at sample point {points[t_sample]}",
        "g": f"metric singular or indefinite at sample point {g_bad}"}[first]


def test_power_overflow_at_a_late_sample_point_is_raised():
    # x_1^2 overflows at the later sample points only: numpy gives inf there
    # where Python's float pow raises, and an inf let through would make the
    # audit pass with residual 0.0; the first is refused, naming its point
    x1 = Polynomial.variable(0, 2)
    g = [[const(1) + x1 * x1, const(0)], [const(0), const(1)]]
    chart = MetricChart(2, g, box=[[0, 2.4e154], [0, 1]], margin=0)
    points = chart.sample_points(100)
    first = next(point for point in points if math.isinf(point[0] * point[0]))
    assert first != points[0]
    message = "metric entry (1, 1) is not finite at sample point {}"
    with pytest.raises(InputError) as raised:
        verify_equivalence(tensor_const(2), chart, backend="numeric")
    assert str(raised.value) == message.format(first)
    # the first point of a grid failing leaves no point to check further
    with pytest.raises(InputError) as raised:
        chart.matrix_at([2.3e154, 0.5])
    assert str(raised.value) == message.format([2.3e154, 0.5])


def _not_finite_audits():
    """(chart, T, message) for charts on which the numeric audit meets a
    value beyond the floats first in g, in T or in the sides; {} is the
    point named."""
    x1 = Polynomial.variable(0, 2)
    late = MetricChart(2, [[const(1) + x1 * x1, const(0)], [const(0), const(1)]],
                       box=[[0, 2.4e154], [0, 1]], margin=0)
    huge = flat_chart(2, box=[[0, 1e10], [0, 1]])
    later = flat_chart(2).sample_points(3)[2]
    return [
        pytest.param(late, tensor_const(2),
                     "metric entry (1, 1) is not finite at sample point {}", id="g"),
        # T^11 = 10^300 x_1^2 is beyond the floats through `*`, not pow
        pytest.param(huge, EnergyMomentum(2, [[const(10 ** 300) * x1 * x1, const(0)],
                                              [const(0), const(1)]]),
                     "tensor entry (1, 1) is not finite at sample point {}", id="T"),
        pytest.param(flat_chart(2),
                     EnergyMomentum(2, [[const(1), const(0)],
                                        [const(0),
                                         lambda X: np.where(_at(X, later), NAN, 1.0)]]),
                     "tensor entry (2, 2) is not finite at sample point {}", id="T callable"),
        # g and T are finite, but sum_mu |T^{1 mu}| in the rounding floor is not
        pytest.param(flat_chart(2), EnergyMomentum(2, [[const(10 ** 308)] * 2, [const(0)] * 2]),
                     "a side of the identity in component 1 is not finite at sample point {}",
                     id="sides"),
    ]


@pytest.mark.parametrize("chart,T,message", _not_finite_audits())
def test_numeric_audit_refuses_the_first_value_that_is_not_finite(chart, T, message):
    # the batch and the pointwise walk refuse the same value at the same point
    points = chart.sample_points(100)
    with pytest.raises(InputError) as pointwise:
        reference_sides(T, chart, points)
    with pytest.raises(InputError) as batched:
        verify_equivalence(T, chart, backend="numeric")
    assert str(batched.value) == str(pointwise.value)
    named = re.fullmatch(re.escape(message).replace(r"\{\}", "(.*)"), str(batched.value))
    assert named and json.loads(named.group(1)) in emt._stencil(np.array(points)).tolist()


def _curved_chart():
    """g = A^T A with A = [[1, x_1 x_2], [0, 1]] on [-1, 1]^2: det g = 1, and
    A_12 depends on x_1 as well as on its own column's x_2, so g is curved."""
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    u = x1 * x2
    return MetricChart(2, [[const(1), u], [u, const(1) + u * u]], box=[[-1, 1], [-1, 1]])


@pytest.mark.parametrize("backend", ["exact", "numeric"])
@pytest.mark.parametrize("k", [-8, 0, 8])
def test_conserved_does_not_flip_under_rescaling(k, backend):
    # T = 10^k adj g = 10^k g^-1 is covariantly constant, hence conserved, and
    # T = 10^k diag(x_1, x_2) is not; the numeric verdict was once an absolute
    # bound on the divergence, false for the first at k = 8 (max_divergence
    # 2.4e-3) and true for the second at k = -8 (1.9e-8)
    chart = _curved_chart()
    (g11, g12), (_, g22) = chart.g
    scale = const(Fraction(10) ** k)
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    conserved = EnergyMomentum(2, [[scale * g22, -scale * g12], [-scale * g12, scale * g11]])
    diverging = EnergyMomentum(2, [[scale * x1, const(0)], [const(0), scale * x2]])
    assert verify_equivalence(conserved, chart, backend=backend).conserved
    report = verify_equivalence(diverging, chart, backend=backend)
    assert report.identity_holds and not report.conserved


def test_exact_audit_refuses_a_product_past_the_exponent_limit():
    # T^11 = x_1^MAX_EXPONENT is accepted, but T^11 Gamma^lam_{11} on the
    # curved chart has x_1 to a higher power: the exact backend refuses it
    # rather than let x_1's field wrap, and the numeric backend never
    # multiplies polynomials
    chart = _curved_chart()
    T = EnergyMomentum(2, [[Polynomial(2, {(MAX_EXPONENT, 0): 1}), const(0)],
                           [const(0), const(1)]])
    with pytest.raises(InputError, match=f"a product has an exponent past the limit "
                                         f"{MAX_EXPONENT}"):
        verify_equivalence(T, chart, backend="exact")
    assert verify_equivalence(T, chart, backend="numeric").identity_holds


@pytest.mark.parametrize("m,seed", [(m, seed) for m in (2, 3, 4) for seed in range(3)])
def test_conserved_agrees_on_both_backends_on_curved_charts(m, seed):
    # on a curved det-1 chart c adj g = c g^-1 is a polynomial T that is
    # covariantly constant, hence conserved, and diag(x_1, ..., x_m) is not
    chart = _seeded_chart(seed, m, curved=True)[0]
    c = Fraction(7, 3) * (seed + 1)
    conserved = EnergyMomentum(m, [[to_library(c * e) for e in row]
                                   for row in emt_reference.inverse_metric(chart)])
    diverging = EnergyMomentum(m, [[Polynomial.variable(i, m) if i == j else const(0, m)
                                    for j in range(m)] for i in range(m)])
    for backend in ("exact", "numeric"):
        assert verify_equivalence(conserved, chart, backend=backend).conserved, backend
        report = verify_equivalence(diverging, chart, backend=backend)
        assert report.identity_holds and not report.conserved, backend


def test_numeric_audit_of_no_sample_points_holds_vacuously():
    report = verify_equivalence(tensor_const(2), sphere_chart(), backend="numeric",
                                count=0)
    assert report.identity_holds and report.conserved
    assert (report.worst_point, report.max_divergence) == (None, 0.0)


def _chart_json(chart, T):
    def terms(f):
        return [{"exponents": [dict(k).get(v, 0) for v in range(f.nvars)],
                 "coefficient": str(c)} for k, c in f.terms.items()]
    return {"m": chart.m, "g": [[terms(e) for e in row] for row in chart.g],
            "T": [[terms(e) for e in row] for row in T.T],
            "box": chart.box}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_exact_report_does_not_depend_on_the_term_order(m):
    # the same chart with every term list of g and of T reversed; the float
    # max_divergence used to follow the input's order in its last digits
    for seed in range(8):
        doc = _chart_json(*_seeded_chart(100 + seed, m))
        reversed_doc = dict(doc, **{key: [[list(reversed(e)) for e in row] for row in doc[key]]
                                    for key in ("g", "T")})
        reports = [json.dumps(verify_equivalence(T, chart, backend="exact").as_dict())
                   for chart, T in (load_chart(doc), load_chart(reversed_doc))]
        assert reports[0] == reports[1], (m, seed)

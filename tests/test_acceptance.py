"""End-to-end acceptance suite.

Eight criteria, each a single test: the full (n, m) grid for the
pre-image/rank pipeline and the Cartan-test equality, the three-sheet
worked example, the dimension ledger, the flag and Grassmannian suite,
the n = m = 2 polar-space oracle, the Gauss-map scaling law, and the
energy-momentum audit.  Everything exact unless explicitly numeric.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import flag_reference
from dg_reference import dg_columns, dg_entry
from gielab import VerificationError, linalg
from gielab.eds import IntegralElement, is_integral_element, polar_space
from gielab.emt import (EnergyMomentum, flat_chart, inverse_metric_tensor,
                        sphere_chart, target_dimension, verify_equivalence)
from gielab.exterior import ExteriorForm, evaluate
from gielab.gie import (PsiData, SecondFundamental, build_integral_flag,
                        cartan_identity_residual, closed_form_characters,
                        construct_preimage, curvature_rows,
                        dimension_ledger, gauss_map,
                        gie_cartan_report, gie_ideal, grassmann_pullback,
                        jacobian_rank_certificate, random_normalized_psi)
from gielab.poly import Polynomial

GRID = [(n, m) for n in range(2, 6) for m in range(2, 6)]
ROUTE_GRID = [(n, m) for n in range(2, 7) for m in range(2, 7)]
SEEDS_PER_CELL = 5


def grid_psis(n, m, salt=0):
    rng = random.Random(10_000 * n + 100 * m + salt)
    return [random_normalized_psi(n, m, rng) for _ in range(SEEDS_PER_CELL)]


def test_criterion_1_preimage_residuals_and_rank_exact():
    # exact zero residuals, exact zero Gauss image, exact maximal rank,
    # across the whole grid, within the stated time budget
    started = time.monotonic()
    for n, m in GRID:
        kappa = (n - 1) * (m - 1)
        expected_rank = n * (n - 1) * m * (m - 1) // 4
        for psi in grid_psis(n, m):
            H = construct_preimage(psi, kappa)
            residuals = cartan_identity_residual(H, psi)
            assert all(r == 0 for r in residuals), (n, m)
            assert gauss_map(H).is_zero(), (n, m)
            cert = jacobian_rank_certificate(H, psi)
            assert cert.rank == expected_rank, (n, m, cert.rank)
    assert time.monotonic() - started < 60.0


def test_criterion_2_cartan_test_equality_and_closed_forms():
    for n, m in GRID:
        kappa = (n - 1) * (m - 1)
        codim = m * n * (n - 1) // 2 + n * (n - 1) * m * (m - 1) // 4 + kappa
        psi = grid_psis(n, m, salt=1)[0]
        H = construct_preimage(psi, kappa)
        report = gie_cartan_report(psi, H)
        assert report.character_sum == codim, (n, m)
        assert report.verdict == "ordinary", (n, m)
        expected = [n * (n - 1) * (lam + 1) // 2 for lam in range(m - 1)]
        expected.append(n * (n - 1) * m // 2 + kappa)
        assert report.characters == expected, (n, m)


def test_criterion_3_worked_example_matrix_and_rank():
    # three-sheet case n=3, m=2, kappa=2: entry-for-entry reproduction of
    # the reduced differential, rank 3 when H_11, H_21 are independent,
    # detected deficit when they coincide
    psi = PsiData(3, 2, [[Fraction(1, 2), 1], [Fraction(2), 0],
                         [Fraction(-1, 3), 0]])
    H = construct_preimage(psi, 2)
    # the reduced differential drops the dependent coordinates H^a_{1m},
    # whose values the Cartan identities fix; every other column group is
    # checked below
    groups = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]
    assert sorted(groups) == [(k, nu) for (a, k, nu) in dg_columns(3, 2, 1)
                              if (k, nu) != (1, 2)]
    minus_h12 = [-sum(psi[i, 1] * H[a, i, 1] for i in (1, 2, 3))
                 for a in (1, 2)]
    zero = [Fraction(0), Fraction(0)]
    expected = {
        (1, 2, 1, 2): [H.vector(2, 2), minus_h12, zero, H.vector(1, 1), zero],
        (1, 3, 1, 2): [H.vector(3, 2), zero, minus_h12, zero, H.vector(1, 1)],
        (2, 3, 1, 2): [zero, H.vector(3, 2),
                       [-x for x in H.vector(2, 2)], zero, H.vector(2, 1)],
    }
    assert list(expected) == curvature_rows(3, 2)
    for row, entries in expected.items():
        for (k, nu), vector in zip(groups, entries):
            got = [dg_entry(H, row, (a, k, nu)) for a in (1, 2)]
            assert got == list(vector), (row, (k, nu))

    cert = jacobian_rank_certificate(H, psi)
    assert cert.full and cert.rank == 3
    assert linalg.rank([H.vector(1, 1), H.vector(2, 1)]) == 2

    broken = construct_preimage(psi, 2)
    for a in (1, 2):
        broken.set(a, 2, 1, broken[a, 1, 1])
    cert2 = jacobian_rank_certificate(broken, psi)
    assert cert2.rank < 3
    assert cert2.failed_level == (3, 2)


def test_criterion_4_dimension_ledger_exact():
    assert dimension_ledger(3, 4, 6).dim_k == 18
    for n, m in GRID:
        kappa = (n - 1) * (m - 1)
        led = dimension_ledger(n, m, kappa)
        assert led.dim_sigma == m + n * (n - 1) // 2 + n * kappa
        assert led.dim_hset == (n * m - 1) * kappa - n * (n - 1) * m * (m - 1) // 4
        assert led.dim_z == led.dim_sigma + led.dim_hset


def test_criterion_5_flag_and_grassmannian_agree():
    for n, m in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)]:
        kappa = (n - 1) * (m - 1)
        psi = grid_psis(n, m, salt=2)[0]
        H = construct_preimage(psi, kappa)
        R = gauss_map(H)
        sigma_size = n * (n - 1) // 2
        flag = build_integral_flag(psi, H, R)
        # every generator vanishes on the flag, checked generically, and
        # eta^Lambda = 1 on it
        ideal = gie_ideal(psi, R, kappa)
        assert is_integral_element(flag, ideal), (n, m)
        volume = ExteriorForm.monomial(ideal.dim, tuple(range(1, m + 1)))
        assert evaluate(volume, flag.basis) == 1, (n, m)
        # Y_{sigma(i,j)} coefficients vanish on every flag vector
        for v in flag.basis:
            assert not any(m < k <= m + sigma_size for k in v), (n, m)
        # second proof: pullback differential count equals codim_V
        pullback = grassmann_pullback(psi, R, kappa)
        count = pullback.independent_differential_count(pullback.point_from(H))
        assert count == dimension_ledger(n, m, kappa).codim_v, (n, m)


def test_criterion_6_expansion_equals_polar_codimensions():
    for salt in range(5):
        psi = grid_psis(2, 2, salt=salt)[0]
        H = construct_preimage(psi, 1)
        R = gauss_map(H)
        raw = gie_ideal(psi, R, 1)
        adapted = flag_reference.adapted_ideal(psi, R, 1, H)
        characters = flag_reference.expansion_characters(adapted).characters
        flag = build_integral_flag(psi, H, R)
        for p in range(2):
            element = IntegralElement(flag.basis[:p])
            codim = raw.dim - len(polar_space(element, raw))
            assert characters[p] == codim, (salt, p)


def check_character_routes(n, m):
    """Closed form = expansion = polar-space codimension at every p, and
    the Grassmannian count = their sum = codim_V, at one cell."""
    kappa = (n - 1) * (m - 1)
    psi = grid_psis(n, m, salt=3)[0]
    H = construct_preimage(psi, kappa)
    R = gauss_map(H)
    closed = closed_form_characters(n, m, kappa)
    adapted = flag_reference.adapted_ideal(psi, R, kappa, H)
    assert flag_reference.expansion_characters(adapted).characters == closed, (n, m)
    assert gie_cartan_report(psi, H, R).characters == closed, (n, m)
    raw = gie_ideal(psi, R, kappa)
    flag = build_integral_flag(psi, H, R)
    codims = [raw.dim - len(polar_space(IntegralElement(flag.basis[:p]), raw))
              for p in range(m)]
    assert codims == closed, (n, m)
    pullback = grassmann_pullback(psi, R, kappa)
    count = pullback.independent_differential_count(pullback.point_from(H))
    assert count == sum(closed) == dimension_ledger(n, m, kappa).codim_v, (n, m)
    # negative case: an H moved off the pre-image yields no integral flag
    H.set(1, 1, m, H[1, 1, m] + 1)
    with pytest.raises(VerificationError):
        build_integral_flag(psi, H)


def test_character_routes_agree_on_the_whole_grid():
    # every cell of 2..6
    started = time.monotonic()
    for n, m in ROUTE_GRID:
        check_character_routes(n, m)
    assert time.monotonic() - started < 10.0


@pytest.mark.parametrize("n,m", [(7, 7), (8, 8)])
def test_character_routes_agree_at_the_spot_cells(n, m):
    # codim V = m n(n-1)/2 + n(n-1)m(m-1)/4 + kappa, which all four routes reach
    assert dimension_ledger(n, m, (n - 1) * (m - 1)).codim_v == {(7, 7): 624, (8, 8): 1057}[n, m]
    check_character_routes(n, m)


def test_criterion_7_gauss_map_scaling():
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        kappa = rng.randint(1, 4)
        H = SecondFundamental(n, m, kappa, [
            [[Fraction(rng.randint(-8, 8), rng.randint(1, 5))
              for _ in range(m)] for _ in range(n)] for _ in range(kappa)])
        rho = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        scaled = gauss_map(H.scaled(rho))
        base = gauss_map(H)
        for key in set(base.values) | set(scaled.values):
            assert scaled[key] == rho * rho * base[key]


def test_criterion_8_emt_audit():
    # flat metric + constant T: exact zero residual
    const = lambda c: Polynomial.constant(c, 2)
    T = EnergyMomentum(2, [[const(2), const(1)], [const(-1), const(3)]])
    exact = verify_equivalence(T, flat_chart(2), backend="exact")
    assert exact.identity_holds and exact.max_identity_residual == 0.0
    assert exact.conserved

    # sphere chart + inverse-metric tensor: numeric residual under 1e-6
    chart = sphere_chart()
    sphere = verify_equivalence(inverse_metric_tensor(chart), chart,
                                backend="numeric")
    assert sphere.identity_holds
    assert sphere.max_identity_residual < 1e-6

    # 20 random non-conserved tensors: the identity still holds pointwise
    rng = random.Random(2024)
    for _ in range(20):
        coeffs = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(4)]

        def entry(k, c=coeffs):
            return lambda pt: (c[k][0] + c[k][1] * pt[0]
                               + c[k][2] * math.sin(pt[1]))

        T_rand = EnergyMomentum(2, [[entry(0), entry(1)],
                                    [entry(2), entry(3)]])
        report = verify_equivalence(T_rand, chart, backend="numeric")
        assert report.identity_holds
        assert report.max_identity_residual < 1e-6

    # m = 4 conservation-law target dimension
    assert target_dimension(4) == 13

"""Gauss map, identities, pre-image, rank certificates, flags, ledger."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flag_reference
from dg_reference import dg_columns, dg_matrix
from gielab import InputError, VerificationError, linalg
from gielab.eds import (IntegralElement, expansion_rows, first_nonvanishing,
                        is_integral_element, polar_space)
from gielab.gie import (CurvatureElement, PsiData, SecondFundamental,
                        SigmaIndexMap, _flag_levels, adapted_expansion_rows,
                        build_integral_flag, cartan_identity_residual,
                        closed_form_characters, construct_preimage,
                        curvature_rows, dependent_coefficient,
                        dimension_ledger, flag_size_bound, gauss_map,
                        gie_cartan_report, gie_ideal, grassmann_pullback,
                        jacobian_rank_certificate, load_psi,
                        random_normalized_psi)
from grassmann_reference import gradient_at
from poly_reference import Polynomial as ReferencePolynomial

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def random_H(n, m, kappa, rng):
    return SecondFundamental(n, m, kappa, [
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
         for _ in range(n)] for _ in range(kappa)])


# -- psi data -----------------------------------------------------------


def test_psi_indexing():
    psi = PsiData(2, 2, [[1, 2], [3, 4]])
    assert psi[1, 1] == 1 and psi[2, 2] == 4


def test_psi_rejects_zero_form():
    with pytest.raises(InputError):
        PsiData(2, 2, [[0, 0], [0, 0]])


def test_load_psi_roundtrip():
    doc = {"n": 2, "m": 2, "psi": [["1/2", "1"], ["3", "0"]]}
    psi = load_psi(doc)
    assert psi.values == [[Fraction(1, 2), 1], [3, 0]]


def test_load_psi_malformed():
    with pytest.raises(InputError):
        load_psi({"n": 2, "m": 2})
    with pytest.raises(InputError):
        load_psi({"n": 2, "m": 2, "psi": [["1/0", "1"], ["3", "0"]]})


# -- Cartan identities and Gauss map ------------------------------------


def test_identity_residual_two_base_dims():
    # n=3, m=2: residual per a is H_{i1} psi^i_{/1} - H_{i2} psi^i_{/2}
    rng = random.Random(0)
    psi = random_normalized_psi(3, 2, rng)
    H = random_H(3, 2, 2, rng)
    res = cartan_identity_residual(H, psi)
    for a in (1, 2):
        manual = sum(H[a, i, 1] * psi[i, 1] - H[a, i, 2] * psi[i, 2]
                     for i in (1, 2, 3))
        assert res[a - 1] == manual


def test_dependent_coefficient_closes_identity():
    rng = random.Random(1)
    psi = random_normalized_psi(3, 3, rng)
    H = random_H(3, 3, 4, rng)
    for a in range(1, 5):
        H.set(a, 1, 3, dependent_coefficient(H, psi, a))
    assert all(not r for r in cartan_identity_residual(H, psi))


def test_dependent_coefficient_for_psi_as_given():
    # the pivot is p = 1 with u_1 = psi^1_{Lambda minus 3} = 2, and
    # psi^2_{Lambda minus 3} = 1 != 0: neither is the normalized case
    psi = PsiData(3, 3, [[1, 2, 2], [3, -1, 1], [1, 1, 5]])
    for H in (construct_preimage(psi, 4), random_H(3, 3, 4, random.Random(3))):
        for a in range(1, 5):
            H.set(a, 1, 3, dependent_coefficient(H, psi, a))
        assert all(not r for r in cartan_identity_residual(H, psi))
    # psi^1_{Lambda minus 3} = 0 moves the pivot to p = 2
    psi = PsiData(3, 3, [[1, 2, 0], [3, -1, 2], [1, 1, 5]])
    H = random_H(3, 3, 4, random.Random(4))
    for a in range(1, 5):
        H.set(a, 2, 3, dependent_coefficient(H, psi, a))
    assert all(not r for r in cartan_identity_residual(H, psi))
    with pytest.raises(InputError, match="no pivot"):
        dependent_coefficient(H, PsiData(3, 3, [[1, 1, 0], [2, 0, 0], [0, 1, 5]]), 1)


def test_gauss_map_antisymmetry_storage():
    rng = random.Random(2)
    H = random_H(3, 3, 2, rng)
    G = gauss_map(H)
    assert G[2, 1, 1, 2] == -G[1, 2, 1, 2]
    assert G[1, 2, 2, 1] == -G[1, 2, 1, 2]
    assert G[1, 1, 1, 2] == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), fractions)
def test_gauss_map_scaling(seed, rho):
    rng = random.Random(seed)
    H = random_H(3, 2, 2, rng)
    G = gauss_map(H)
    G_scaled = gauss_map(H.scaled(rho))
    for key in set(G.values) | set(G_scaled.values):
        assert G_scaled[key] == rho * rho * G[key]


def test_gauss_differential_is_directional_derivative():
    # G(H + t D) - G(H) - t dG(H)[D] = t^2 G-bilinear remainder; check at t=1
    rng = random.Random(3)
    n, m, kappa = 3, 3, 2
    H = random_H(n, m, kappa, rng)
    D = random_H(n, m, kappa, rng)
    columns = dg_columns(n, m, kappa)
    lin = [sum((x * D[col] for x, col in zip(row, columns)), Fraction(0))
           for row in dg_matrix(H, columns)]
    summed = SecondFundamental(n, m, kappa, [
        [[H[a, i, lam] + D[a, i, lam] for lam in range(1, m + 1)]
         for i in range(1, n + 1)] for a in range(1, kappa + 1)])
    for key, dg in zip(curvature_rows(n, m), lin):
        assert gauss_map(summed)[key] == gauss_map(H)[key] + dg + gauss_map(D)[key]


# -- pre-image construction ---------------------------------------------


def test_preimage_smallest_case():
    # n=m=2, kappa=1, psi^1_{/1} = s: H_11 = 1, H_12 = s, second row zero
    s = Fraction(5, 3)
    psi = PsiData(2, 2, [[s, 1], [Fraction(7), 0]])
    H = construct_preimage(psi, 1)
    assert H[1, 1, 1] == 1 and H[1, 1, 2] == s
    assert H[1, 2, 1] == 0 and H[1, 2, 2] == 0


def test_preimage_orthonormal_block():
    rng = random.Random(4)
    psi = random_normalized_psi(4, 3, rng)
    H = construct_preimage(psi, 6)
    vecs = [H.vector(i, lam) for i in (1, 2, 3) for lam in (1, 2)]
    for p, u in enumerate(vecs):
        for q, v in enumerate(vecs):
            dot = sum((x * y for x, y in zip(u, v)), Fraction(0))
            assert dot == (1 if p == q else 0)
    # last fiber row vanishes except the dependent column
    for lam in (1, 2, 3):
        assert all(H[a, 4, lam] == 0 for a in range(1, 7))


def test_preimage_contracts_hold_exactly():
    rng = random.Random(5)
    for (n, m) in [(2, 2), (3, 2), (2, 3), (4, 4)]:
        kappa = (n - 1) * (m - 1)
        psi = random_normalized_psi(n, m, rng)
        H = construct_preimage(psi, kappa)
        assert all(not r for r in cartan_identity_residual(H, psi))
        assert gauss_map(H).is_zero()
        assert jacobian_rank_certificate(H, psi).full


def test_open_set_rejects_dependent_columns():
    # H_21 := H_11 on a pre-image makes {H_{i lam} : i < n, lam < m}
    # dependent, which the rank certificate detects
    psi = random_normalized_psi(3, 2, random.Random(10))
    H = construct_preimage(psi, 2)
    assert jacobian_rank_certificate(H, psi).full
    for a in (1, 2):
        H.set(a, 2, 1, H[a, 1, 1])
    assert not jacobian_rank_certificate(H, psi).full


def test_H_rejects_indices_and_shapes_out_of_range():
    # index 0 or -1 must not wrap to the last normal direction, fiber or
    # base index, and a read or write past the end must not read 0 or
    # create an entry
    psi = random_normalized_psi(3, 3, random.Random(2))
    H = construct_preimage(psi, 4)

    def stored():
        return H.den, {key: dict(column) for key, column in H.columns.items()}
    before = stored()
    for a, i, lam in [(0, 1, 1), (-1, 1, 1), (5, 1, 1), (1, 0, 3), (1, 4, 1),
                      (1, -1, 1), (1, 1, 0), (1, 1, 4)]:
        with pytest.raises(InputError, match="outside"):
            H[a, i, lam]
        with pytest.raises(InputError, match="outside"):
            H.set(a, i, lam, Fraction(7, 11))
    assert stored() == before
    zero_row = [Fraction(0)] * 2
    for entries in ([[zero_row] * 2] * 2,          # an extra block
                    [[zero_row + [1]] + [zero_row]],  # an extra row entry
                    [[zero_row]],                   # a short block
                    []):                            # no block
        with pytest.raises(InputError, match="1 x 2 x 2"):
            SecondFundamental(2, 2, 1, entries)


def H_of(n, m, kappa, model):
    """The SecondFundamental of the plain-Fraction model {(a, i, lam): value}."""
    return SecondFundamental(n, m, kappa, [
        [[model[a, i, lam] for lam in range(1, m + 1)] for i in range(1, n + 1)]
        for a in range(1, kappa + 1)])


def assert_H_is(H, model):
    n, m, kappa = H.n, H.m, H.kappa
    assert H.den > 0
    assert all(type(v) is int and v for column in H.columns.values() for v in column.values())
    for (a, i, lam), value in model.items():
        assert H[a, i, lam] == value and type(H[a, i, lam]) is Fraction
    for i in range(1, n + 1):
        for lam in range(1, m + 1):
            assert H.vector(i, lam) == [model[a, i, lam] for a in range(1, kappa + 1)]


wide_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 30))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 4), st.data())
def test_H_accessors_across_denominators(n, m, kappa, data):
    # against a plain-Fraction model: the constructor from Fractions and
    # from ints, `set` to values whose denominator does not divide den and
    # to 0, `scaled` by a rational and by 0, and `vector`; a rescale of the
    # numerators leaves the Gauss map and the residuals as they were
    model = {(a, i, lam): data.draw(fractions) for a in range(1, kappa + 1)
             for i in range(1, n + 1) for lam in range(1, m + 1)}
    values = [[data.draw(fractions) for _ in range(m)] for _ in range(n)]
    values[0][0] = values[0][0] or Fraction(1)
    psi = PsiData(n, m, values)
    H = H_of(n, m, kappa, model)
    assert_H_is(H, model)
    numerators = {key: int(v * H.den) for key, v in model.items()}
    from_ints = H_of(n, m, kappa, numerators)
    assert from_ints.den == 1
    assert_H_is(from_ints, {key: Fraction(v) for key, v in numerators.items()})
    assert_H_is(from_ints.scaled(Fraction(1, H.den)), model)
    for _ in range(data.draw(st.integers(1, 6))):
        key = data.draw(st.sampled_from(sorted(model)))
        value = data.draw(st.one_of(wide_fractions, st.just(0), st.integers(-3, 3)))
        den = H.den
        H.set(*key, value)
        model[key] = Fraction(value)
        assert H.den == (den if den % model[key].denominator == 0
                         else math.lcm(den, model[key].denominator))
        assert_H_is(H, model)
        oracle = H_of(n, m, kappa, model)
        assert gauss_map(H) == gauss_map(oracle)
        assert cartan_identity_residual(H, psi) == cartan_identity_residual(oracle, psi)
    # a rescale alone: a new denominator written and the old value put back
    gauss, residuals = gauss_map(H), cartan_identity_residual(H, psi)
    key = (1, 1, 1)
    old = H[key]
    H.set(*key, Fraction(1, 7919))
    H.set(*key, old)
    assert H.den % 7919 == 0
    assert_H_is(H, model)
    assert gauss_map(H) == gauss and cartan_identity_residual(H, psi) == residuals
    for rho in (data.draw(fractions), Fraction(0)):
        assert_H_is(H.scaled(rho), {key: rho * v for key, v in model.items()})
    assert_H_is(H, model)


def test_preimage_rejects_small_kappa():
    psi = PsiData(3, 3, [[1, 1, 1], [1, 1, 0], [1, 1, 0]])
    with pytest.raises(InputError):
        construct_preimage(psi, 3)


def test_preimage_requires_normalized_psi():
    # the construction needs a pivot psi^i_{Lambda minus m} != 0 with i < n,
    # and nothing more: psi^n_{Lambda minus m} alone is not one
    for psi in (PsiData(3, 3, [[1, 1, 0], [2, 0, 0], [0, 1, 5]]),
                PsiData(2, 2, [[1, 0], [0, 1]])):
        with pytest.raises(InputError, match="no pivot"):
            construct_preimage(psi, (psi.n - 1) * (psi.m - 1))
    psi = PsiData(2, 2, [[1, 2], [0, 3]])  # once refused as not normalized
    assert all(not r for r in cartan_identity_residual(construct_preimage(psi, 1), psi))


def test_preimage_rejects_singular_2x2():
    with pytest.raises(InputError, match="det psi"):
        construct_preimage(PsiData(2, 2, [[1, 1], [1, 1]]), 1)


def normalized_preimage(psi, kappa):
    """The pre-image for normalized psi, written out: H_{i lam} = e_{(i, lam)}
    for i < n, lam < m, the last fiber row zero, H_{1 m} = sum over
    (i, lam) of (-1)^(m+lam+1) psi^i_{Lambda minus lam} e_{(i, lam)} and
    H_{j m} = sum over lam of (-1)^(m+lam+1) psi^j_{Lambda minus lam}
    e_{(1, lam)} for 2 <= j < n."""
    n, m = psi.n, psi.m
    H = SecondFundamental(n, m, kappa)
    for i in range(1, n):
        for lam in range(1, m):
            H.set((i - 1) * (m - 1) + lam, i, lam, 1)
    for lam in range(1, m):
        s = 1 if (m + lam + 1) % 2 == 0 else -1
        for i in range(1, n):
            if psi[i, lam]:
                H.set((i - 1) * (m - 1) + lam, 1, m, s * psi[i, lam])
        for j in range(2, n):
            if psi[j, lam]:
                H.set(lam, j, m, s * psi[j, lam])
    return H


def entries_in_order(H):
    """{(i, lam): [(a, H^a_{i lam})]} over the non-zeros, in insertion order."""
    return {key: [(a, H[(a,) + key]) for a in column] for key, column in H.columns.items()}


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 8) for m in range(2, 8)])
def test_preimage_of_normalized_psi_is_the_written_out_formula(n, m):
    # entry for entry and in insertion order, at the least kappa and above it
    rng = random.Random(100 * n + m)
    for kappa in ((n - 1) * (m - 1), (n - 1) * (m - 1) + 2):
        for _ in range(3):
            psi = random_normalized_psi(n, m, rng)
            got = construct_preimage(psi, kappa)
            assert entries_in_order(got) == entries_in_order(normalized_preimage(psi, kappa))


@st.composite
def psi_with_pivot(draw):
    """Rational psi over (2..5)^2, normalized or not, with a pivot
    psi^p_{Lambda minus m} != 0 at some p < n, and det psi != 0 at (2, 2)."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    values = [[draw(fractions) for _ in range(m)] for _ in range(n)]
    values[draw(st.integers(0, n - 2))][m - 1] = draw(fractions.filter(bool))
    psi = PsiData(n, m, values)
    assume(n * m > 4 or psi.det2())
    return psi


@settings(max_examples=100, deadline=None)
@given(psi_with_pivot(), st.integers(0, 2))
def test_preimage_of_psi_as_given(psi, extra):
    n, m = psi.n, psi.m
    kappa = (n - 1) * (m - 1) + extra
    H = construct_preimage(psi, kappa)
    assert all(not r for r in cartan_identity_residual(H, psi))
    assert gauss_map(H).is_zero()
    assert jacobian_rank_certificate(H, psi).full
    if n * m <= 12:
        assert build_integral_flag(psi, H).dimension == m
        report = gie_cartan_report(psi, H)
        assert report.verdict == "ordinary"
        assert report.characters == closed_form_characters(n, m, kappa)


@st.composite
def psi_with_late_pivot(draw):
    """Rational psi over n in 4..6, m in 2..5 whose pivot is p >= 2 (every
    psi^i_{Lambda minus m} with i < p is 0), with u_k != 0 at some k > p
    too, so that S_pp has its correction."""
    n, m = draw(st.integers(4, 6)), draw(st.integers(2, 5))
    values = [[draw(fractions) for _ in range(m)] for _ in range(n)]
    p = draw(st.integers(2, n - 2))
    for i in range(p - 1):
        values[i][m - 1] = Fraction(0)
    values[p - 1][m - 1] = draw(fractions.filter(bool))
    values[draw(st.integers(p, n - 2))][m - 1] = draw(fractions.filter(bool))
    return PsiData(n, m, values)


def preimage_from_the_formula(psi, kappa):
    """{(a, i, lam): H^a_{i lam}} over every index, from the dense Fraction
    matrix S = (e_p w^T + w e_p^T) / u_p - (w.u) / u_p^2 e_p e_p^T of
    `construct_preimage`'s docstring, one S per lam <= m - 1: H_{i lam} =
    e_{(i, lam)} for i < n, lam < m, H^{(k, lam)}_{i m} = S_{ik}, and the
    last fiber row zero."""
    n, m = psi.n, psi.m
    signed = [[(-1) ** (lam + 1) * psi[i, lam] for lam in range(1, m + 1)]
              for i in range(1, n + 1)]  # Psi'_{i lam}
    u = [signed[i][m - 1] for i in range(n - 1)]
    p = next(i for i in range(n - 1) if u[i])  # 0-based
    H = {(a, i, lam): Fraction(0) for a in range(1, kappa + 1)
         for i in range(1, n + 1) for lam in range(1, m + 1)}
    for i in range(1, n):
        for lam in range(1, m):
            H[(i - 1) * (m - 1) + lam, i, lam] = Fraction(1)
    for lam in range(1, m):
        w = [-signed[k][lam - 1] for k in range(n - 1)]
        wu = sum(x * y for x, y in zip(w, u))
        S = [[((i == p) * w[k] + (k == p) * w[i]) / u[p]
              - (i == p) * (k == p) * wu / u[p] ** 2 for k in range(n - 1)]
             for i in range(n - 1)]
        for i in range(n - 1):
            for k in range(n - 1):
                H[k * (m - 1) + lam, i + 1, m] = S[i][k]
    return H


@settings(max_examples=100, deadline=None)
@given(st.one_of(psi_with_pivot(), psi_with_late_pivot()), st.integers(0, 2))
def test_preimage_of_psi_as_given_is_the_formula(psi, extra):
    # entry for entry, through H[a, i, lam], for the pivot p = 1 and for
    # p >= 2 with other u_k != 0, at the least kappa and above it
    kappa = (psi.n - 1) * (psi.m - 1) + extra
    H = construct_preimage(psi, kappa)
    assert {key: H[key] for key in preimage_from_the_formula(psi, kappa)} == \
        preimage_from_the_formula(psi, kappa)


def test_preimage_of_psi_as_given_is_the_formula_past_the_first_pivot():
    # psi^1_{Lambda minus m} = 0 puts the pivot at p = 2, and u_3, u_4 != 0
    # bring in the S_pp correction
    psi = PsiData(5, 3, [[1, Fraction(2, 3), 0], [3, -1, Fraction(2, 5)],
                         [Fraction(-1, 7), 1, 5], [2, 0, Fraction(-3, 4)], [1, 1, 1]])
    H = construct_preimage(psi, 8)
    assert H.den > 1
    assert {key: H[key] for key in preimage_from_the_formula(psi, 8)} == \
        preimage_from_the_formula(psi, 8)
    assert all(not r for r in cartan_identity_residual(H, psi))
    assert gauss_map(H).is_zero()


def test_preimage_off_by_one_at_the_pivot_is_caught():
    # psi^1_{Lambda minus 3} = 0, so the pivot is p = 2: H^1_{p m} + 1
    # breaks the Cartan identity of a = 1, and the flag check refuses it
    psi = PsiData(3, 3, [[1, 2, 0], [3, -1, 2], [1, 1, 5]])
    H = construct_preimage(psi, 4)
    assert all(not r for r in cartan_identity_residual(H, psi))
    H.set(1, 2, 3, H[1, 2, 3] + 1)
    assert cartan_identity_residual(H, psi)[0] == 2
    with pytest.raises(VerificationError):
        build_integral_flag(psi, H)


# -- rank certificate ----------------------------------------------------


def test_rank_certificate_on_preimage():
    rng = random.Random(6)
    psi = random_normalized_psi(3, 3, rng)
    H = construct_preimage(psi, 4)
    cert = jacobian_rank_certificate(H, psi)
    assert cert.full and cert.rank == 9
    assert cert.failed_level is None
    assert len(cert.witness_columns) == 9


def test_rank_certificate_witness_is_invertible():
    # the witnessed square submatrix of dG must itself have full rank
    rng = random.Random(7)
    psi = random_normalized_psi(3, 2, rng)
    H = construct_preimage(psi, 2)
    cert = jacobian_rank_certificate(H, psi)
    sub = dg_matrix(H, cert.witness_columns)
    assert linalg.rank(sub) == cert.expected == 3


def test_rank_deficit_reported_at_first_bad_level():
    # H_21 = H_11 collapses the (k=3, nu=2) diagonal block (n=3, m=2)
    rng = random.Random(8)
    psi = random_normalized_psi(3, 2, rng)
    H = construct_preimage(psi, 2)
    for a in (1, 2):
        H.set(a, 2, 1, H[a, 1, 1])
    cert = jacobian_rank_certificate(H, psi)
    assert not cert.full
    assert cert.failed_level == (3, 2)
    assert cert.rank < cert.expected == 3


@st.composite
def sparse_rational_H(draw):
    """Random H off the pre-image: sparse rational entries, sometimes
    kappa below the minimum, sometimes the dependent row H_21 := c H_11.
    The larger shapes give normal directions with non-zeros at many
    (i, lam), each paired with many others by the Gauss map."""
    n, m = draw(st.one_of(st.tuples(st.integers(2, 4), st.integers(2, 4)),
                          st.sampled_from([(2, 6), (6, 2), (3, 6), (6, 3)])))
    kappa = draw(st.integers(1, (n - 1) * (m - 1) + 1))
    entry = st.one_of(st.just(Fraction(0)), fractions)
    H = SecondFundamental(n, m, kappa, draw(st.lists(
        st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n),
        min_size=kappa, max_size=kappa)))
    if draw(st.booleans()):
        c = draw(fractions)
        for a in range(1, kappa + 1):
            H.set(a, 2, 1, c * H[a, 1, 1])
    return H


@settings(max_examples=60, deadline=None)
@given(sparse_rational_H())
def test_sparse_kernels_match_dense_reference(H):
    n, m, kappa = H.n, H.m, H.kappa
    reference = {}
    for (i, j, lam, mu) in curvature_rows(n, m):
        v = sum(H[a, i, lam] * H[a, j, mu] - H[a, i, mu] * H[a, j, lam]
                for a in range(1, kappa + 1))
        if v:
            reference[(i, j, lam, mu)] = v
    assert gauss_map(H).values == reference

    psi = random_normalized_psi(n, m, random.Random(0))
    cert = jacobian_rank_certificate(H, psi)
    restricted = [c for c in dg_columns(n, m, kappa) if c[1] >= 2 and c[2] >= 2]
    assert cert.rank == linalg.rank(dg_matrix(H, restricted))
    first_bad = next(
        ((k, nu) for (k, nu) in _flag_levels(n, m)
         if linalg.rank([[H[a, i, lam] for a in range(1, kappa + 1)]
                         for i in range(1, k) for lam in range(1, nu)])
         < (k - 1) * (nu - 1)), None)
    assert cert.failed_level == first_bad
    if first_bad is None:
        sub = dg_matrix(H, cert.witness_columns)
        assert linalg.rank(sub) == len(sub)
        # each level's witness is its block's column rank profile, whichever
        # way (per nu or, when m > n, per k) the blocks were grown
        profiles = [(a + 1, k, nu) for (k, nu) in _flag_levels(n, m)
                    for a in linalg.bareiss_echelon(
                        [H.vector(i, lam) for i in range(1, k) for lam in range(1, nu)])[1]]
        assert cert.witness_columns == profiles


# -- sigma map, ledger ----------------------------------------------------


def test_sigma_map_small_case_values():
    # n=3, kappa=2: sigma(1,2)=1, sigma(1,3)=2, sigma(2,3)=3,
    # sigma(4,i)=3+i, sigma(5,i)=6+i
    sigma = SigmaIndexMap(3, 2)
    assert sigma.pair(1, 2) == 1
    assert sigma.pair(1, 3) == 2
    assert sigma.pair(2, 3) == 3
    for i in (1, 2, 3):
        assert sigma.normal(4, i) == 3 + i
        assert sigma.normal(5, i) == 6 + i
        assert list(sigma.normals(i)) == [sigma.normal(3 + a, i) for a in (1, 2)]
    assert sigma.is_bijection()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8))
def test_sigma_map_is_bijection(n, kappa):
    assert SigmaIndexMap(n, kappa).is_bijection()


def test_dimension_ledger_small():
    led = dimension_ledger(2, 2, 1)
    assert (led.dim_sigma, led.dim_hset, led.dim_z) == (5, 2, 7)
    assert led.dim_k == 1 and led.codim_v == 4
    assert led.characters == [1, 3]


def test_dimension_ledger_cubic_case():
    # dim K for n=3, m=4 is 18
    assert dimension_ledger(3, 4, 6).dim_k == 18


def test_ledger_rejects_small_kappa():
    with pytest.raises(InputError):
        dimension_ledger(4, 5, 11)   # minimum is 12


def test_closed_form_characters():
    assert closed_form_characters(3, 2, 2) == [3, 8]
    assert closed_form_characters(2, 3, 2) == [1, 2, 5]


def test_closed_form_characters_sum_to_codim_v_identically():
    # sum_{lam <= m-2} n(n-1)(lam+1)/2 = n(n-1)m(m-1)/4 = dim K, so the
    # characters sum to codim V at every shape and kappa; the ledger
    # needs no check of it
    for n in range(2, 31):
        for m in range(2, 31):
            min_kappa = (n - 1) * (m - 1)
            for kappa in (min_kappa, min_kappa + 1, 2 * min_kappa + 7, 10 ** 12):
                chars = closed_form_characters(n, m, kappa)
                led = dimension_ledger(n, m, kappa)
                assert sum(chars[:-1]) == led.dim_k, (n, m, kappa)
                assert sum(chars) == led.codim_v == led.character_sum, (n, m, kappa)
                assert led.characters == chars and led.min_kappa == min_kappa


# -- ideal, integral flag, characters ------------------------------------


def test_flat_flag_is_integral():
    # H = 0, R = 0: the flag is the base plane span{X_1..X_m}
    psi = PsiData(2, 2, [[Fraction(2), 1], [Fraction(3), 0]])
    H = SecondFundamental(2, 2, 1)
    element = build_integral_flag(psi, H)
    assert element.dimension == 2
    for v in element.basis:
        assert all(k <= 2 for k in v)


def test_flag_on_preimage_verifies_all_generators():
    rng = random.Random(10)
    psi = random_normalized_psi(3, 3, rng)
    H = construct_preimage(psi, 4)
    element = build_integral_flag(psi, H)
    assert element.dimension == 3


def test_flag_rejects_bad_H():
    # violating the Cartan identity must surface as a generator violation
    rng = random.Random(11)
    psi = random_normalized_psi(2, 2, rng)
    H = construct_preimage(psi, 1)
    H.set(1, 1, 2, H[1, 1, 2] + 1)
    with pytest.raises(VerificationError):
        build_integral_flag(psi, H)


def flag_vectors(H):
    """e_lam = X_lam + sum H^a_{i lam} Y_{sigma(a,i)}, written from H."""
    n, m, kappa = H.n, H.m, H.kappa
    sigma = SigmaIndexMap(n, kappa)
    return [{lam: Fraction(1), **{m + sigma.normal(n + a, i): H[a, i, lam]
                                  for i in range(1, n + 1) for a in range(1, kappa + 1)
                                  if H[a, i, lam]}}
            for lam in range(1, m + 1)]


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6) for m in range(2, 6)])
def test_flag_check_agrees_with_the_generic_walk(n, m):
    # build_integral_flag reads the generators' values off G(H) - R and the
    # Cartan residuals; the generic walk over every generator and subset must
    # give the same verdict and name the same first witness.  Off-pre-image
    # H, R != G(H) and R = None.
    rng = random.Random(100 * n + m)
    kappa = (n - 1) * (m - 1)
    for case in range(8):
        # kinds 0, 1, 3: H off the pre-image with R = None, R = 0, and R =
        # G(H) moved by -1, 0 or 1 in one component; kind 2: H at the
        # pre-image and R = 0 moved so in up to three components
        kind = case % 4
        psi = random_normalized_psi(n, m, rng)
        H = construct_preimage(psi, kappa)
        if kind != 2:
            for _ in range(rng.randint(1, 2)):
                H.set(rng.randint(1, kappa), rng.randint(1, n), rng.randint(1, m),
                      Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        R = None
        if kind:
            values = dict(gauss_map(H).values) if kind == 3 else {}
            for _ in range({1: 0, 2: 3, 3: 1}[kind]):
                i, j = sorted(rng.sample(range(1, n + 1), 2))
                lam, mu = sorted(rng.sample(range(1, m + 1), 2))
                values[i, j, lam, mu] = values.get((i, j, lam, mu), 0) + rng.randint(-1, 1)
            R = CurvatureElement(n, m, values)
        element = IntegralElement(flag_vectors(H))
        ideal = gie_ideal(psi, gauss_map(H) if R is None else R, kappa)
        witness = next(((gi, found[1]) for gi, g in enumerate(ideal.generators)
                        for found in [first_nonvanishing(g, element.basis)] if found), None)
        assert is_integral_element(element, ideal) == (witness is None)
        if witness is None:
            assert build_integral_flag(psi, H, R).basis == element.basis
        else:
            want = (f"generator {witness[0]} evaluates to {witness[1]} on the flag; "
                    "H violates the Gauss/Cartan preconditions")
            with pytest.raises(VerificationError) as err:
                build_integral_flag(psi, H, R)
            assert str(err.value) == want


def test_cartan_report_matches_closed_forms():
    rng = random.Random(12)
    for (n, m) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        kappa = (n - 1) * (m - 1)
        psi = random_normalized_psi(n, m, rng)
        H = construct_preimage(psi, kappa)
        report = gie_cartan_report(psi, H)
        assert report.verdict == "ordinary"
        assert report.characters == closed_form_characters(n, m, kappa)
        assert report.character_sum == dimension_ledger(n, m, kappa).codim_v


def test_expansion_fails_when_gauss_equation_violated():
    # R != G(H) leaves a pure-base remainder in the adapted generators
    rng = random.Random(13)
    psi = random_normalized_psi(2, 2, rng)
    H = construct_preimage(psi, 1)
    R = CurvatureElement(2, 2, {(1, 2, 1, 2): Fraction(1)})
    ideal = flag_reference.adapted_ideal(psi, R, 1, H)
    with pytest.raises(VerificationError) as oracle:
        expansion_rows(ideal)
    with pytest.raises(VerificationError) as written:
        gie_cartan_report(psi, H, R)
    assert str(written.value) == str(oracle.value)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (4, 3)])
def test_expansion_fails_on_the_cartan_residual(n, m):
    # H^1_{1m} + 1 breaks the Cartan identity of a = 1 only; with R = G(H)
    # the Gauss-type forms keep no pure-base term, so the first one is
    # eta^Lambda in the phi-type form of a = 1, with the residual of a = 1
    rng = random.Random(17 * n + m)
    kappa = (n - 1) * (m - 1)
    psi = random_normalized_psi(n, m, rng)
    H = construct_preimage(psi, kappa)
    H.set(1, 1, m, H[1, 1, m] + 1)
    residual = cartan_identity_residual(H, psi)
    assert residual[0] and not any(residual[1:])
    ideal = flag_reference.adapted_ideal(psi, gauss_map(H), kappa, H)
    phi_type = n * (n - 1)  # the first phi-type generator
    volume = tuple(range(1, m + 1))
    assert ideal.generators[phi_type].coefficients[volume] == residual[0]
    pure_base = [gi for gi, g in enumerate(ideal.generators)
                 if any(k[-1] <= m for k in g.coefficients)]
    assert pure_base == [phi_type]
    want = (f"generator {phi_type} has pure-base term {volume} with coefficient "
            f"{residual[0]};")
    with pytest.raises(VerificationError) as err:
        expansion_rows(ideal)
    assert str(err.value).startswith(want)
    # the rows written from H fail with the same message, byte for byte,
    # with R = G(H) given and with R = None
    for R in (gauss_map(H), None):
        with pytest.raises(VerificationError) as written:
            gie_cartan_report(psi, H, R)
        assert str(written.value) == str(err.value)


def test_characters_equal_polar_codimensions_n2m2():
    # oracle equivalence: expansion characters against raw polar spaces
    rng = random.Random(14)
    for _ in range(5):
        psi = random_normalized_psi(2, 2, rng)
        H = construct_preimage(psi, 1)
        R = gauss_map(H)
        raw = gie_ideal(psi, R, 1)
        adapted = flag_reference.adapted_ideal(psi, R, 1, H)
        chars = flag_reference.expansion_characters(adapted).characters
        flag = build_integral_flag(psi, H)
        for p in range(2):
            element = IntegralElement(flag.basis[:p])
            codim = raw.dim - len(polar_space(element, raw))
            assert chars[p] == codim


def integer_psi(n, m, rng):
    """A random integer psi as given (entries -9..9) with a pivot, and
    det psi != 0 at n = m = 2, so that the pre-image exists."""
    while True:
        psi = PsiData(n, m, [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
        if any(psi[i, m] for i in range(1, n)) and (n * m > 4 or psi.det2()):
            return psi


# psi^i_{Lambda minus lam} = (i lam + 2) mod 7 - 3, the non-normalizable
# (8, 8) psi the CI runs: no rational orthogonal fiber change normalizes it
PSI_8 = PsiData(8, 8, [[(i * lam + 2) % 7 - 3 for lam in range(1, 9)] for i in range(1, 9)])


def row_multiset(rows):
    """The (level, row) pairs with each row in its primitive int form, so
    that rows equal up to a positive factor compare equal."""
    return sorted((level, sorted(linalg.integer_row(row).items())) for level, row in rows)


def test_adapted_expansion_rows_equal_the_ideals_rows():
    # the rows written from psi and H are the adapted ideal's rows at the
    # levels sup J <= m - 1, with R = G(H) given and with R = None
    rng = random.Random(31)
    cases = [(integer_psi(n, m, rng), rng.randint(0, 1))
             for n in range(2, 6) for m in range(2, 6) for _ in range(2)]
    for psi, extra in cases + [(PSI_8, 0)]:
        n, m = psi.n, psi.m
        kappa = (n - 1) * (m - 1) + extra
        H = construct_preimage(psi, kappa)
        R = gauss_map(H)
        oracle = [(level, row) for level, row
                  in expansion_rows(flag_reference.adapted_ideal(psi, R, kappa, H))
                  if level <= m - 1]
        for given in (R, None):
            rows = adapted_expansion_rows(psi, H, given)
            assert row_multiset(rows) == row_multiset(oracle), (n, m)
            assert [level for level, _ in rows] == sorted(level for level, _ in rows)
        report = gie_cartan_report(psi, H)
        assert report.characters == closed_form_characters(n, m, kappa)
    # an H or an R of another shape is refused
    H = construct_preimage(PSI_8, 49)
    with pytest.raises(InputError):
        adapted_expansion_rows(integer_psi(8, 7, rng), H)
    with pytest.raises(InputError):
        adapted_expansion_rows(PSI_8, H, CurvatureElement(8, 7))


def curved_point(psi, kappa, rng):
    """A random rational H with every Cartan identity closed through
    H^a_{pm} (p the pivot), and R := G(H), non-zero in general."""
    n, m = psi.n, psi.m
    H = random_H(n, m, kappa, rng)
    p = next(k for k in range(1, n) if psi[k, m])
    for a in range(1, kappa + 1):
        H.set(a, p, m, dependent_coefficient(H, psi, a))
    return H, gauss_map(H)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 5) for m in range(2, 5)])
def test_flag_routes_agree_at_curved_points(n, m):
    # the rows written from H are the adapted ideal's; the raw ideal, whose
    # -R terms are non-zero here and cancel G(H), vanishes on the flag, and
    # the characters by expansion are its polar codimensions.  The closed
    # form is not asserted: a curved flag is ordinary only off a
    # hypersurface of H
    rng = random.Random(43 * n + m)
    kappa = (n - 1) * (m - 1)
    for _ in range(3):
        psi = integer_psi(n, m, rng)
        H, R = curved_point(psi, kappa, rng)
        assert not R.is_zero()
        oracle = [(level, row) for level, row
                  in expansion_rows(flag_reference.adapted_ideal(psi, R, kappa, H))
                  if level <= m - 1]
        for given in (R, None):
            assert row_multiset(adapted_expansion_rows(psi, H, given)) == row_multiset(oracle)
        raw = gie_ideal(psi, R, kappa)
        flag = build_integral_flag(psi, H, R)
        assert is_integral_element(flag, raw)
        polar = [raw.dim - len(polar_space(IntegralElement(flag.basis[:p]), raw))
                 for p in range(m)]
        assert gie_cartan_report(psi, H, R).characters == polar


def failing_generator(call):
    with pytest.raises(VerificationError) as err:
        call()
    return int(re.match(r"generator (\d+) has pure-base term", str(err.value)).group(1)), \
        str(err.value)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
def test_cartan_report_fails_on_the_ideal_routes_generator(n, m):
    rng = random.Random(37 * n + m)
    for _ in range(3):
        psi = integer_psi(n, m, rng)
        kappa = (n - 1) * (m - 1)
        H = construct_preimage(psi, kappa)
        # R != G(H): one unit added to one curvature component
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        lam, mu = sorted(rng.sample(range(1, m + 1), 2))
        R = CurvatureElement(n, m, {(i, j, lam, mu): 1})
        ideal = flag_reference.adapted_ideal(psi, R, kappa, H)
        assert (failing_generator(lambda: gie_cartan_report(psi, H, R))[0]
                == failing_generator(lambda: expansion_rows(ideal))[0])
        # H^1_{pm} + 1 (p the pivot) breaks the Cartan identity of a = 1: the
        # phi-type message is the oracle's byte for byte; against R = 0, the
        # curvature of the pre-image, G(H) - R may fail first as well
        p = next(k for k in range(1, n) if psi[k, m])
        H.set(1, p, m, H[1, p, m] + 1)
        zero = CurvatureElement(n, m)
        for given, oracle_R in ((None, gauss_map(H)), (zero, zero)):
            ideal = flag_reference.adapted_ideal(psi, oracle_R, kappa, H)
            written = failing_generator(lambda: gie_cartan_report(psi, H, given))
            oracle = failing_generator(lambda: expansion_rows(ideal))
            assert written[0] == oracle[0]
            if given is None:
                assert written == oracle
                assert written[0] == n * (n - 1)  # the phi-type form of a = 1


def test_flag_size_bound_covers_the_preimage_and_its_rows():
    # the bound holds for every psi and is reached when psi is dense
    rng = random.Random(41)
    for n in range(2, 7):
        for m in range(2, 7):
            dense = PsiData(n, m, [[i * m + lam for lam in range(1, m + 1)]
                                   for i in range(n)])
            for psi in (integer_psi(n, m, rng), dense):
                kappa = (n - 1) * (m - 1) + rng.randint(0, 2)
                H = construct_preimage(psi, kappa)
                stored = (n * m + sum(len(column) for column in H.columns.values())
                          + sum(len(row) for _, row in adapted_expansion_rows(psi, H)))
                assert stored <= flag_size_bound(n, m, kappa), (n, m)
            assert stored == flag_size_bound(n, m, kappa), (n, m)


# -- Grassmannian pullback ------------------------------------------------


def test_grassmann_count_matches_ledger():
    rng = random.Random(15)
    for (n, m) in [(2, 2), (3, 2), (3, 3)]:
        kappa = (n - 1) * (m - 1)
        psi = random_normalized_psi(n, m, rng)
        H = construct_preimage(psi, kappa)
        pullback = grassmann_pullback(psi, gauss_map(H), kappa)
        count = pullback.independent_differential_count(pullback.point_from(H))
        assert count == dimension_ledger(n, m, kappa).codim_v


def _reference(f):
    """A pulled-back function as a reference polynomial."""
    return ReferencePolynomial.from_sparse(f.nvars, f.terms)


def test_grassmann_functions_vanish_at_flag_point():
    rng = random.Random(16)
    psi = random_normalized_psi(3, 2, rng)
    H = construct_preimage(psi, 2)
    pullback = grassmann_pullback(psi, gauss_map(H), 2)
    point = pullback.point_from(H)
    for f in pullback.functions:
        assert _reference(f).eval(point) == 0


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6) for m in range(2, 6)])
def test_ideal_matches_monomial_sums(n, m):
    # at the pre-image (R = 0) and with the curvature of an H off it (R !=
    # 0, so the -R terms are written too); compared in dict order, which
    # fixes the first term an error report names
    psi = random_normalized_psi(n, m, random.Random(n * m))
    kappa = (n - 1) * (m - 1)
    preimage = construct_preimage(psi, kappa)
    for H in (preimage, random_H(n, m, kappa, random.Random(n + m))):
        R = gauss_map(H)
        got = gie_ideal(psi, R, kappa).generators
        want = flag_reference.gie_ideal_generators(psi, R, kappa)
        assert [(g.dim, g.degree, list(g.coefficients.items())) for g in got] == \
            [(g.dim, g.degree, list(g.coefficients.items())) for g in want]


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 5) for m in range(2, 5)])
def test_adapted_ideal_off_the_gauss_equation_keeps_the_substitution_order(n, m):
    # with R != G(H) the adapted Gauss-type forms keep pure-base terms, and
    # the expansion method names the first generator that has one, in the
    # order substituting the adapted coframe puts them; the rows written
    # from H must be refused at that generator
    psi = random_normalized_psi(n, m, random.Random(3 * n + m))
    kappa = (n - 1) * (m - 1)
    rng = random.Random(n * m + 1)
    sparse = construct_preimage(psi, kappa)
    for _ in range(3):
        sparse.set(rng.randint(1, kappa), rng.randint(1, n), rng.randint(1, m),
                   Fraction(rng.randint(-2, 2)))
    for H in (sparse, random_H(n, m, kappa, rng)):
        G = gauss_map(H)
        moved = CurvatureElement(n, m, {key: v + rng.randint(-1, 1)
                                        for key, v in G.values.items()})
        for R in (CurvatureElement(n, m), moved):
            ideal = flag_reference.adapted_ideal(psi, R, kappa, H)
            assert (failing_generator(lambda: adapted_expansion_rows(psi, H, R))[0]
                    == failing_generator(lambda: expansion_rows(ideal))[0])


def test_an_R_of_another_shape_is_refused():
    # a (2, 2) problem has no lam = 3: the components of R at it must
    # neither be dropped nor read as a violation of the flag
    psi = random_normalized_psi(2, 2, random.Random(8))
    H = construct_preimage(psi, 1)
    wide = CurvatureElement(2, 3, {(1, 2, 1, 3): 7})
    for R in (CurvatureElement(3, 3, {(1, 2, 1, 2): 1, (2, 3, 1, 3): 1}), wide):
        with pytest.raises(InputError, match="does not fit"):
            gie_ideal(psi, R, 1)
        with pytest.raises(InputError, match="does not fit"):
            grassmann_pullback(psi, R, 1)
        for call in (build_integral_flag, adapted_expansion_rows, gie_cartan_report):
            with pytest.raises(InputError, match="does not fit"):
                call(psi, H, R)


def test_grassmann_count_uses_the_symbolic_gradient():
    # every pulled-back function's gradient at the flag's chart point is
    # the list of its partial derivatives evaluated there, and the row the
    # count writes for it
    psi = random_normalized_psi(3, 3, random.Random(7))
    H = construct_preimage(psi, 4)
    pullback = grassmann_pullback(psi, gauss_map(H), 4)
    point = pullback.point_from(H)
    rows = pullback.jacobian_rows(point)
    assert len(rows) == len(pullback.functions)
    for f, row in zip(pullback.functions, rows):
        ref = _reference(f)
        expected = {v: ref.partial(v).eval(point) for v in range(pullback.nvars)}
        expected = {v: d for v, d in expected.items() if d}
        assert gradient_at(f, point) == expected
        assert row == expected


def _reference_rows(pullback, point):
    """Each function's partial derivatives at `point`, from the reference
    ring, in the variables its terms contain (every other partial is 0)."""
    rows = []
    for f in pullback.functions:
        ref = _reference(f)
        variables = sorted({v for k in f.terms for v, _ in k})
        row = {v: ref.partial(v).eval(point) for v in variables}
        rows.append({v: d for v, d in row.items() if d})
    return rows


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 7) for m in range(2, 7)])
def test_jacobian_rows_are_the_reference_partials_at_the_preimage(n, m):
    # at the flag's int chart point, with R = G(H) and with an R off it
    # (the rows do not read R), and at the origin, where only the linear
    # and phi-type rows are left
    rng = random.Random(10 * n + m)
    kappa = (n - 1) * (m - 1)
    psi = random_normalized_psi(n, m, rng)
    H = construct_preimage(psi, kappa)
    for R in (gauss_map(H), gauss_map(random_H(n, m, kappa, rng))):
        pullback = grassmann_pullback(psi, R, kappa)
        for point in (pullback.point_from(H), [0] * pullback.nvars):
            assert pullback.jacobian_rows(point) == _reference_rows(pullback, point), (n, m)


def test_jacobian_rows_equal_the_generic_gradient():
    # the writer against the generic walk over the terms, over seeds, at
    # the flag's point and at a random sparse rational point (rows at D*P)
    for n, m in [(2, 2), (2, 5), (3, 3), (3, 4), (4, 3), (5, 2), (5, 5)]:
        for seed in range(3):
            rng = random.Random(1000 * seed + 10 * n + m)
            kappa = (n - 1) * (m - 1) + seed
            psi = random_normalized_psi(n, m, rng)
            H = construct_preimage(psi, kappa)
            for R in (gauss_map(H), gauss_map(random_H(n, m, kappa, rng))):
                pullback = grassmann_pullback(psi, R, kappa)
                sparse = [Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                          if rng.random() < 0.3 else 0 for _ in range(pullback.nvars)]
                for point in (pullback.point_from(H), sparse):
                    D = math.lcm(*(x.denominator for x in point))
                    scaled = [x * D for x in point]
                    assert pullback.jacobian_rows(point) == [
                        gradient_at(f, scaled) for f in pullback.functions], (n, m, seed)


@pytest.mark.parametrize("bad,at", [(0.5, 17), (0.0, 17), (True, 17), ("1", 17), (None, 17),
                                    (0.5, None)])
def test_grassmann_count_refuses_a_coordinate_that_is_not_rational(bad, at):
    # at = None puts `bad` at every coordinate; the first is named.  A float
    # used to end in AttributeError
    psi = random_normalized_psi(3, 3, random.Random(7))
    H = construct_preimage(psi, 4)
    pullback = grassmann_pullback(psi, gauss_map(H), 4)
    point = pullback.point_from(H)
    if at is None:
        point, at = [bad] * pullback.nvars, 0
    point[at] = bad
    with pytest.raises(InputError, match=f"chart coordinate {at} is {re.escape(repr(bad))}, "
                                         "not an int or a Fraction"):
        pullback.independent_differential_count(point)


@pytest.mark.parametrize("delta", [-1, 1])
def test_grassmann_count_refuses_a_point_of_another_length(delta):
    psi = random_normalized_psi(3, 3, random.Random(7))
    H = construct_preimage(psi, 4)
    pullback = grassmann_pullback(psi, gauss_map(H), 4)
    point = pullback.point_from(H)
    point = point[:-1] if delta < 0 else point + [0]
    with pytest.raises(InputError, match=f"the chart point has {pullback.nvars + delta} "
                                         f"coordinates, not the {pullback.nvars}"):
        pullback.independent_differential_count(point)


def test_grassmann_point_from_refuses_an_H_of_another_shape():
    psi = random_normalized_psi(3, 3, random.Random(7))
    pullback = grassmann_pullback(psi, CurvatureElement(3, 3), 4)
    H = construct_preimage(psi, 4)
    # a larger kappa used to be cut to the pullback's 4 normal directions,
    # and the count then read 22 = codim V for an H it never saw whole
    with pytest.raises(InputError, match="does not fit"):
        pullback.point_from(construct_preimage(psi, 5))
    # a smaller kappa, or another (n, m), is refused as well
    with pytest.raises(InputError, match="does not fit"):
        grassmann_pullback(psi, CurvatureElement(3, 3), 5).point_from(H)
    with pytest.raises(InputError, match="does not fit"):
        pullback.point_from(SecondFundamental(3, 4, 4))
    point = pullback.point_from(H)
    assert {v: x for v, x in enumerate(point) if x} == {
        (SigmaIndexMap(3, 4).normal(3 + a, i) - 1) * 3 + lam - 1: H.den * H[a, i, lam]
        for a in range(1, 5) for i in range(1, 4) for lam in range(1, 4) if H[a, i, lam]}


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 4), (3, 5), (5, 2)])
def test_grassmann_count_falls_short_at_the_chart_origin(n, m):
    # negative case: at P = 0 (all denominators 1, so D = 1) every quadratic
    # gradient vanishes, and only the n(n-1)m/2 linear and kappa phi-type
    # rows are left, short of codim V.  A corrupted H (H_21 := H_11) is no
    # negative case for this count: the Jacobian has full row rank there too,
    # so the count still reads codim V
    kappa = (n - 1) * (m - 1)
    psi = random_normalized_psi(n, m, random.Random(n * m))
    H = construct_preimage(psi, kappa)
    codim_v = dimension_ledger(n, m, kappa).codim_v
    for R in (gauss_map(H), gauss_map(random_H(n, m, kappa, random.Random(m)))):
        pullback = grassmann_pullback(psi, R, kappa)
        origin = [0] * pullback.nvars
        assert all(not gradient_at(f, origin) for f in pullback.quadratic)
        count = pullback.independent_differential_count(origin)
        assert count == n * (n - 1) * m // 2 + kappa < codim_v
    for a in range(1, kappa + 1):
        H.set(a, 2, 1, H[a, 1, 1])
    pullback = grassmann_pullback(psi, gauss_map(H), kappa)
    assert pullback.independent_differential_count(pullback.point_from(H)) == codim_v


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6) for m in range(2, 6)])
def test_grassmann_gradient_scales_at_the_integer_point(n, m):
    # at a rational point P off the flag, with R != 0, each function's
    # gradient at D*P is D^(deg - 1) times its gradient at P, so the count
    # at D*P (by decreasing leading column) is the rank of the Jacobian at P
    # (in function order)
    rng = random.Random(100 * n + m)
    kappa = (n - 1) * (m - 1)
    psi = integer_psi(n, m, rng)
    R = gauss_map(random_H(n, m, kappa, rng))
    assert not R.is_zero()
    pullback = grassmann_pullback(psi, R, kappa)
    point = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.3 else 0
             for _ in range(pullback.nvars)]
    D = math.lcm(*(x.denominator for x in point))
    assert D > 1
    scaled = [x * D for x in point]
    ech = linalg.SparseEchelon()
    for f in pullback.functions:
        gradient = gradient_at(f, point)
        factor = D ** (_reference(f).degree() - 1)
        assert gradient_at(f, scaled) == {v: factor * d for v, d in gradient.items()}
        ech.insert(linalg.integer_row(gradient))
    # the rows the count writes are the reference partials at D*P
    assert pullback.jacobian_rows(point) == _reference_rows(pullback, scaled)
    assert pullback.independent_differential_count(point) == ech.rank

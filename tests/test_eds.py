"""Integral elements, polar spaces, expansion characters, Cartan test."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flag_reference
from dense_vectors import dense, sparse
from gielab import InputError, VerificationError, linalg
from gielab.eds import (AlgebraicIdeal, CartanReport, IntegralElement,
                        SigmaCoframe, cartan_characters_by_expansion,
                        cartan_test, expansion_rows, first_nonvanishing,
                        is_integral_element, polar_space)
from gielab.exterior import ExteriorForm


def unit(dim, k):
    v = [Fraction(0)] * dim
    v[k - 1] = Fraction(1)
    return v


def sparse_unit(k):
    return {k: Fraction(1)}


def simple_coframe():
    # base eta1, eta2; fiber pi1, pi2 (coordinates 3 and 4)
    return SigmaCoframe(2, 2)


def contact_like_ideal():
    """Generators pi1 and pi2 ^ eta1 on the 4-dim split coframe."""
    cof = simple_coframe()
    g1 = ExteriorForm.covector(4, 3)
    g2 = ExteriorForm.monomial(4, (4, 1))
    return AlgebraicIdeal(cof, [g1, g2])


def test_zero_form_generators_rejected():
    cof = simple_coframe()
    with pytest.raises(InputError):
        AlgebraicIdeal(cof, [ExteriorForm(4, 0, {(): Fraction(1)})])


def test_integral_element_base_plane():
    ideal = contact_like_ideal()
    base = IntegralElement([sparse_unit(1), sparse_unit(2)])
    assert is_integral_element(base, ideal)


def test_non_integral_element_detected():
    ideal = contact_like_ideal()
    tilted = IntegralElement([sparse_unit(3)])  # pi1 does not vanish on it
    assert not is_integral_element(tilted, ideal)


def test_vectors_outside_the_space_are_rejected():
    # indices 0 and 5 lie outside the 4-dimensional split coframe; contraction
    # alone ignores them, so pi1 would seem to vanish on the element
    ideal = AlgebraicIdeal(simple_coframe(), [ExteriorForm.covector(4, 3)])
    for basis in ([{0: 1}, {5: 1}], [{0: 1}], [{1: 1, 5: 2}], [{-1: 1}]):
        element = IntegralElement(basis)
        for check in (is_integral_element, polar_space):
            with pytest.raises(InputError, match="outside 1..4"):
                check(element, ideal)


def test_dependent_basis_rejected():
    with pytest.raises(InputError):
        IntegralElement([sparse_unit(1), sparse_unit(1)])


def test_polar_space_of_origin():
    # H(E_0) = annihilator of the degree-1 generators = {v : v_3 = 0}
    ideal = contact_like_ideal()
    h0 = polar_space(IntegralElement([]), ideal)
    assert len(h0) == 3
    for v in h0:
        assert 3 not in v


def test_polar_space_shrinks_along_flag():
    ideal = contact_like_ideal()
    h0 = polar_space(IntegralElement([]), ideal)
    h1 = polar_space(IntegralElement([sparse_unit(1)]), ideal)
    # pi2 ^ eta1 now contributes: v_4 = 0 joins v_3 = 0
    assert len(h1) == 2
    # monotonicity: H(E_1) is contained in H(E_0)
    h0, h1 = [dense(v, 4) for v in h0], [dense(v, 4) for v in h1]
    assert linalg.rank(h0 + h1) == linalg.rank(h0)


def test_extension_rank():
    ideal = contact_like_ideal()
    e1 = IntegralElement([sparse_unit(1)])
    # the extension rank r(E_1) = dim H(E_1) - (p + 1) is 0: dim H(E_1) = 2
    # and p + 1 = 2, so E_1 has exactly one extension, a rank-0 family
    assert len(polar_space(e1, ideal)) == 2


def test_expansion_characters_on_contact_ideal():
    ideal = contact_like_ideal()
    report = flag_reference.expansion_characters(ideal)
    # C_0 counts pi1; C_1 adds the pi2 row from pi2 ^ eta1
    assert report.characters == [1, 2]


def test_expansion_characters_from_rows():
    # a dependent row adds nothing, and a row above level m - 1 is not read
    rows = [(0, {3: 1}), (1, {4: 3}), (1, {3: 2, 4: 1}), (2, {5: 1})]
    assert cartan_characters_by_expansion(rows, 2).characters == [1, 2]
    assert cartan_characters_by_expansion(rows, 3).characters == [1, 2, 3]


def test_expansion_rejects_pure_base_terms():
    cof = simple_coframe()
    stray = ExteriorForm.monomial(4, (1, 2))  # eta^12: no fiber factor
    ideal = AlgebraicIdeal(cof, [stray])
    with pytest.raises(VerificationError):
        expansion_rows(ideal)


def test_quadratic_fiber_terms_are_remainder():
    cof = simple_coframe()
    ideal = AlgebraicIdeal(cof, [ExteriorForm.monomial(4, (3, 4)),
                                 ExteriorForm.covector(4, 3)])
    report = flag_reference.expansion_characters(ideal)
    assert report.characters == [1, 1]


def test_cartan_test_verdicts():
    report = cartan_test(CartanReport(characters=[1, 2]), 3)
    assert report.verdict == "ordinary"
    assert report.observed_codimension == 3
    report2 = cartan_test(CartanReport(characters=[1, 2]), 5)
    assert report2.verdict == "inconclusive"


def test_character_sum():
    assert CartanReport(characters=[3, 8]).character_sum == 11


def evaluate_polar_rows(element, ideal):
    """Reference polar rows: g(e_k, S) by cofactor expansion on unit
    vectors, as {k: g(e_k, S)}, times (-1)^(deg g - 1) (the sign
    `polar_space` leaves out) in primitive int form."""
    from itertools import combinations
    dim, p = ideal.dim, element.dimension
    unit_vectors = [unit(dim, k) for k in range(1, dim + 1)]
    basis = [dense(v, dim) for v in element.basis]
    rows = []
    for g in ideal.generators:
        if g.degree > p + 1:
            continue
        sign = -1 if (g.degree - 1) % 2 else 1
        for subset in combinations(basis, g.degree - 1):
            row = [flag_reference.evaluate(g, (e,) + subset) for e in unit_vectors]
            if any(row):
                rows.append(linalg.integer_row({k: sign * v for k, v in sparse(row).items()}))
    return rows


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_polar_rows_by_contraction_match_evaluate(n, m, monkeypatch):
    import random
    from gielab import gie
    psi = gie.random_normalized_psi(n, m, random.Random(10 * n + m))
    kappa = (n - 1) * (m - 1)
    H = gie.construct_preimage(psi, kappa)
    ideal = gie.gie_ideal(psi, gie.gauss_map(H), kappa)
    flag = gie.build_integral_flag(psi, H)
    seen = []
    solve = linalg.nullspace

    def spy(rows, n_cols):
        seen.append(rows)
        return solve(rows, n_cols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    for p in range(m + 1):
        element = IntegralElement(flag.basis[:p])
        polar_space(element, ideal)
        assert [linalg.integer_row(row) for row in seen[-1]] == \
            evaluate_polar_rows(element, ideal), p


@st.composite
def forms_and_vectors(draw):
    """A sparse form with small coefficients and up to five vectors with
    entries in -1..1, so that many subsets, and prefixes, vanish."""
    from itertools import combinations
    dim = draw(st.integers(1, 5))
    degree = draw(st.integers(1, dim))
    keys = list(combinations(range(1, dim + 1), degree))
    coeffs = draw(st.dictionaries(st.sampled_from(keys),
                                  st.integers(-2, 2).map(Fraction), max_size=5))
    vectors = draw(st.lists(st.lists(st.integers(-1, 1).map(Fraction),
                                     min_size=dim, max_size=dim), max_size=5))
    return ExteriorForm(dim, degree, coeffs), vectors


@settings(max_examples=300, deadline=None)
@given(forms_and_vectors())
def test_contraction_walk_finds_the_first_witness(case):
    g, vectors = case
    got = first_nonvanishing(g, [sparse(v) for v in vectors])
    assert got == flag_reference.first_nonvanishing(g, vectors)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 3), (3, 4)])
def test_contraction_walk_on_flags_off_the_preimage(n, m):
    # e_lam = X_lam + H^a_{i lam} Y_{sigma(a,i)} for an H moved off the
    # Cartan identity: some generator is non-zero on it
    import random
    from gielab import gie
    psi = gie.random_normalized_psi(n, m, random.Random(10 * n + m))
    kappa = (n - 1) * (m - 1)
    H = gie.construct_preimage(psi, kappa)
    ideal = gie.gie_ideal(psi, gie.gauss_map(H), kappa)
    H.set(1, 1, m, H[1, 1, m] + 1)
    sigma = gie.SigmaIndexMap(n, kappa)
    basis = []
    for lam in range(1, m + 1):
        v = unit(ideal.dim, lam)
        for a in range(n + 1, n + kappa + 1):
            for i in range(1, n + 1):
                v[m + sigma.normal(a, i) - 1] = H[a - n, i, lam]
        basis.append(v)
    vectors = [sparse(v) for v in basis]
    witnesses = [first_nonvanishing(g, vectors) for g in ideal.generators]
    assert witnesses == [flag_reference.first_nonvanishing(g, basis)
                         for g in ideal.generators]
    assert any(witnesses)


def test_contraction_walk_prunes_vanishing_prefixes(monkeypatch):
    # eta^123 on (e4, e1, e2, e3): the prefix e4 contracts to zero and is
    # dropped with all its extensions, then e1, e2, e3 reach the value 1
    from gielab import eds
    calls = []
    contract = eds.contract

    def spy(v, form):
        calls.append(form.degree)
        return contract(v, form)

    monkeypatch.setattr(eds, "contract", spy)
    g = ExteriorForm.monomial(4, (1, 2, 3))
    vectors = [sparse_unit(k) for k in (4, 1, 2, 3)]
    assert first_nonvanishing(g, vectors) == ((1, 2, 3), 1)
    assert calls == [3, 3, 2, 1]

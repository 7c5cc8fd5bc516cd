"""Polynomial ring: exact arithmetic, differentiation, evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poly_reference
from gielab import InputError
from gielab.gie import PullbackFunction
from gielab.poly import MAX_EXPONENT, Polynomial, from_json_terms

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def polys(nvars=2, max_terms=4, ring=Polynomial):
    exps = st.tuples(*([st.integers(0, 3)] * nvars))
    return st.dictionaries(exps, fractions, max_size=max_terms).map(
        lambda t: ring(nvars, t))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p + q) + r == p + (q + r)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(p, q):
    for i in range(2):
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_mixed_partials_commute(p):
    assert p.partial(0).partial(1) == p.partial(1).partial(0)


@settings(max_examples=40, deadline=None)
@given(polys(), polys(),
       st.lists(fractions, min_size=2, max_size=2))
def test_evaluation_is_ring_homomorphism(p, q, point):
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)


def test_variable_and_partial():
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    p = x1 * x1 * x2  # x1^2 x2
    assert p.partial(0) == 2 * x1 * x2
    assert p.partial(1) == x1 * x1
    assert p.eval([Fraction(3), Fraction(2)]) == 18


def test_constant_value():
    assert Polynomial.constant(Fraction(5, 3), 2).constant_value() == Fraction(5, 3)
    with pytest.raises(InputError):
        Polynomial.variable(0, 2).constant_value()


def test_negative_exponent_rejected():
    with pytest.raises(InputError):
        Polynomial(2, {(-1, 0): Fraction(1)})
    # a fractional power of a negative coordinate would evaluate to a complex
    with pytest.raises(InputError):
        Polynomial(2, {(1.5, 0): Fraction(1)})


def test_from_json_terms():
    p = from_json_terms([{"exponents": [1, 0], "coefficient": "2/3"},
                         {"exponents": [0, 0], "coefficient": "-1"}], 2)
    assert p == Fraction(2, 3) * Polynomial.variable(0, 2) - 1


def _outcome(build):
    """The polynomial's terms with their types, or the exception's type and
    text."""
    try:
        p = build()
    except Exception as exc:
        return type(exc), str(exc)
    return p.nvars, list(p.terms.items()), [type(c) for c in p.terms.values()]


# spellings read by int(), then every other one Fraction(str(...)) reads or
# refuses
_FAST_SPELLINGS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(lambda sign, zeros, p, q: f"{sign}{'0' * zeros}{p}" + ("" if q is None else f"/{q}"),
              st.sampled_from(["", "-"]), st.integers(0, 2), st.integers(0, 10 ** 20),
              st.none() | st.integers(1, 10 ** 6).map(str) | st.integers(1, 99).map(lambda q: f"00{q}")))
_FALLBACK_SPELLINGS = st.one_of(
    st.sampled_from(["1.5", "1e3", " 2/3", "1_000", "3/0", "-3/00", None, "0.5", "1e-1",
                     "+3", "3/-4", "1/", "-", "", "1/2/3", "\u0663", "2/3 ", True, [1]]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
_GOOD_EXPONENTS = st.lists(st.integers(0, 2), min_size=2, max_size=2)
# one item in four with bad exponents, refused at the first such item
_EXPONENTS = st.one_of(_GOOD_EXPONENTS, _GOOD_EXPONENTS, _GOOD_EXPONENTS,
                       st.sampled_from([[-1, 0], [0], [1, 0, 0], ["x", 1], [1.5, 0]]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_EXPONENTS, _FAST_SPELLINGS | _FALLBACK_SPELLINGS), max_size=6))
@example([([1, 0], "2/3"), ([1, 0], "-2/3"), ([0, 1], "3")])  # a sum of zero is dropped
@example([([1, 0], "3/0"), ([-1, 0], "1")])  # an earlier item's coefficient fails first
@example([([-1, 0], "3/0")])  # an item's exponents fail before its coefficient
def test_from_json_terms_is_the_constructor(items):
    # a valid list gives the constructor's terms; the first item whose
    # exponents are not two non-negative ints, each item checked before its
    # coefficient is read, gives "bad exponent tuple"
    doc = [{"exponents": exps, "coefficient": c} for exps, c in items]

    def reference():
        terms = {}
        for exps, c in items:
            if len(exps) != 2 or any(type(e) is not int or e < 0 for e in exps):
                raise InputError(f"bad exponent tuple {tuple(exps)} for 2 variables")
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(str(c))
        return Polynomial(2, terms)
    assert _outcome(lambda: from_json_terms(doc, 2)) == _outcome(reference)


@pytest.mark.parametrize("exponents", [[[True, 0]], [[0, False]], [[1, 0], [True, 0]],
                                       [[1, 0], [1.0, 0]], [[1, 0], [-1, 0]], [[0]],
                                       [[1, 0, 0]], [[1, 0], 10], [[1, 0], "10"]])
def test_boolean_and_float_exponents_are_refused(exponents):
    # JSON's true equals 1 and hashes like it, so [true, 0] after [1, 0] would
    # be summed into x_1 unseen; the last item is refused by both readers
    # with one message, whether it holds a negative, has the wrong length or
    # is not a list at all
    doc = [{"exponents": exps, "coefficient": "1"} for exps in exponents]
    with pytest.raises(InputError, match="bad exponent tuple") as parsed:
        from_json_terms(doc, 2)
    bad = exponents[-1]
    with pytest.raises(InputError, match="bad exponent tuple") as built:
        Polynomial(2, {tuple(bad) if type(bad) is list else bad: 1})
    assert str(parsed.value) == str(built.value)


# -- sparse monomials against a dense-tuple reference ----------------------

NVARS = 4
dense_terms = st.dictionaries(st.tuples(*([st.integers(0, 2)] * NVARS)),
                              fractions, max_size=5)


def dense(p):
    """A Polynomial's terms as {dense exponent tuple: coefficient}."""
    out = {}
    for mono, c in p.terms.items():
        exps = dict(mono)
        out[tuple(exps.get(v, 0) for v in range(p.nvars))] = c
    return out


def ref_clean(terms):
    return {k: v for k, v in terms.items() if v}


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return ref_clean(out)


def ref_partial(a, i):
    out = {}
    for k, v in a.items():
        if k[i]:
            nk = k[:i] + (k[i] - 1,) + k[i + 1:]
            out[nk] = out.get(nk, Fraction(0)) + v * k[i]
    return ref_clean(out)


def ref_eval(a, point):
    total = 0
    for k, v in a.items():
        term = v
        for x, e in zip(point, k):
            if e:
                term = term * x ** e
        total = total + term
    return total


@settings(max_examples=80, deadline=None)
@given(dense_terms, dense_terms,
       st.lists(fractions, min_size=NVARS, max_size=NVARS),
       st.lists(st.floats(-2, 2), min_size=NVARS, max_size=NVARS))
def test_sparse_monomials_match_dense_reference(ta, tb, qpoint, fpoint):
    a, b = ref_clean(ta), ref_clean(tb)
    p, q = Polynomial(NVARS, ta), Polynomial(NVARS, tb)
    assert dense(p) == a
    assert dense(p + q) == ref_add(a, b)
    assert dense(p * q) == ref_mul(a, b)
    for i in range(NVARS):
        assert dense(p.partial(i)) == ref_partial(a, i)
    assert p.eval(qpoint) == ref_eval(a, qpoint)
    assert p.eval(fpoint) == ref_eval(a, fpoint)  # same float operations
    assert p.degree() == max((sum(k) for k in a), default=0)
    assert p.is_constant() == all(not any(k) for k in a)


@pytest.mark.parametrize("i", [-1, 2, 7])
def test_variable_index_out_of_range(i):
    with pytest.raises(InputError):
        Polynomial.variable(i, 2)
    with pytest.raises(InputError):
        Polynomial.variable(0, 2).partial(i)


# -- the Grassmann pullback's sparse functions, against the reference ------


@settings(max_examples=150, deadline=None)
@given(polys(nvars=3, max_terms=6, ring=poly_reference.Polynomial),
       st.lists(st.one_of(st.just(Fraction(0)), fractions), min_size=3, max_size=3))
# terms with two simple zero factors, one squared zero and one simple zero
@example(poly_reference.Polynomial(3, {(1, 1, 0): 2, (2, 0, 1): 3, (1, 0, 3): 5, (0, 0, 2): -1}),
         [Fraction(0), Fraction(0), Fraction(7, 2)])
def test_gradient_is_each_partial_evaluated(p, point):
    # points with many zero coordinates reach the skipped terms
    expected = {v: p.partial(v).eval(point) for v in range(3)}
    gradient = PullbackFunction(3, p.terms).gradient_at(point)
    assert gradient == {v: d for v, d in expected.items() if d}


def test_gradient_at_known_polynomial():
    # f = 3 x1^2 x3 + x2: grad = (6 x1 x3, 1, 3 x1^2); x1 = 0 drops two entries
    f = PullbackFunction(3, {((0, 2), (2, 1)): 3, ((1, 1),): 1})
    assert f.gradient_at([Fraction(2), Fraction(5), Fraction(1, 2)]) == {
        0: Fraction(6), 1: Fraction(1), 2: Fraction(12)}
    assert f.gradient_at([Fraction(0), Fraction(5), Fraction(1, 2)]) == {1: Fraction(1)}


@pytest.mark.parametrize("point", [[], [Fraction(1)], [Fraction(1)] * 3])
def test_gradient_at_rejects_wrong_point_length(point):
    with pytest.raises(InputError, match="evaluation point has wrong length"):
        PullbackFunction(2, {((0, 1),): 1}).gradient_at(point)


# -- the packed kernel against the sparse reference ------------------------

KV = 3
# exponents at the limit, and one below it, in one field in four
_KERNEL_EXPONENTS = st.lists(st.one_of(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                                       st.sampled_from([MAX_EXPONENT - 1, MAX_EXPONENT])),
                             min_size=KV, max_size=KV)
# few distinct exponent lists, so that items repeat exponents and sums cancel
_KERNEL_ITEMS = st.lists(st.tuples(_KERNEL_EXPONENTS, st.integers(-3, 3) | fractions),
                         max_size=6)

# mostly integers: a power at the limit of a proper fraction costs a gcd of
# 50,000-bit ints at every Fraction addition
_KERNEL_POINTS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2]))


def _json(items):
    return [{"exponents": list(exps), "coefficient": str(c)} for exps, c in items]


def _evaluated(call):
    """call()'s value, a float to the bit, or the type of what it raised."""
    try:
        value = call()
    except (InputError, OverflowError) as exc:
        return type(exc)
    return value.hex() if isinstance(value, float) else (type(value), value)


def _same(p, ref):
    """p has the reference's variable count and terms, in its order."""
    return p.nvars == ref.nvars and list(p.terms.items()) == list(ref.terms.items())


@settings(max_examples=50, deadline=None)
@given(_KERNEL_ITEMS, _KERNEL_ITEMS, st.lists(_KERNEL_POINTS, min_size=KV, max_size=KV),
       st.lists(st.floats(-2, 2), min_size=KV, max_size=KV))
# repeated exponents whose coefficients cancel, and a product past the limit
@example([([1, 0, 0], 2), ([0, 1, 0], 1), ([1, 0, 0], -2), ([1, 0, 0], "1/3")],
         [([MAX_EXPONENT, 0, 0], 1), ([0, 0, 0], "-1/3")],
         [Fraction(1, 2)] * KV, [0.5] * KV)
def test_packed_kernel_equals_the_reference(a, b, qpoint, fpoint):
    p, q = (from_json_terms(_json(items), KV) for items in (a, b))
    rp, rq = (poly_reference.from_json_terms(_json(items), KV) for items in (a, b))
    assert _same(p, rp) and _same(q, rq)
    dense = {tuple(exps): c for exps, c in a}
    assert _same(Polynomial(KV, dense), poly_reference.Polynomial(KV, dense))
    assert _same(p + q, rp + rq) and _same(p - q, rp - rq) and _same(-p, -rp)
    assert _same(p - p, rp - rp) and not p - p
    assert _same(p + q - q, rp + rq - rq)
    product = rp * rq
    if any(e > MAX_EXPONENT for k in product.terms for _, e in k):
        with pytest.raises(InputError, match=f"past the limit {MAX_EXPONENT}"):
            p * q
    else:
        assert _same(p * q, product)
    assert _same(p * 3, rp * 3) and _same(Fraction(2, 3) * q, Fraction(2, 3) * rq)
    for i in range(KV):
        assert _same(p.partial(i), rp.partial(i))
    assert p.eval(qpoint) == rp.eval(qpoint)
    assert _evaluated(lambda: p.eval(fpoint)) == _evaluated(lambda: rp.eval(fpoint))
    # equality and hash: the same polynomial from its items in reverse order
    again = from_json_terms(_json(reversed(a)), KV)
    assert again == p and hash(again) == hash(p)
    assert (p == q) == (rp == rq)
    assert (p == 3) == (rp == 3) and (p == Fraction(1, 3)) == (rp == Fraction(1, 3))


@pytest.mark.parametrize("e", [MAX_EXPONENT + 1, 70000])
def test_an_exponent_past_the_limit_is_refused_when_parsed(e):
    message = f"exponent {e} of x2 is past the limit {MAX_EXPONENT}"
    with pytest.raises(InputError, match=message) as parsed:
        from_json_terms([{"exponents": [1, 0], "coefficient": "1"},
                         {"exponents": [0, e], "coefficient": "1"}], 2)
    with pytest.raises(InputError, match=message) as built:
        Polynomial(2, {(0, e): 1})
    assert str(parsed.value) == str(built.value) == message
    at_limit = from_json_terms([{"exponents": [0, MAX_EXPONENT], "coefficient": "1"}], 2)
    assert at_limit.terms == {((1, MAX_EXPONENT),): 1}


def test_a_product_past_the_limit_is_refused():
    # the sum of two keys would set the top bit of x1's field, which is kept
    # clear; no field wraps into x2's
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    top = Polynomial(2, {(MAX_EXPONENT, 0): 1})
    assert (top * x2).terms == {((0, MAX_EXPONENT), (1, 1)): 1}
    assert ((top - 1) * (x2 + 1)).terms == (top * x2 + top - x2 - 1).terms
    for factor in (x1, top, x1 + x2, top * x2):
        with pytest.raises(InputError, match=f"a product has an exponent past the limit "
                                             f"{MAX_EXPONENT}"):
            top * factor


def test_coefficients_share_one_denominator_in_lowest_terms():
    x1 = Polynomial.variable(0, 2)
    p = Fraction(1, 6) * x1 + Fraction(1, 4)
    assert (p.den, sorted(p.nums.values())) == (12, [2, 3])
    half = (Fraction(1, 2) * x1) * 2
    assert (half.den, half.nums) == (1, x1.nums)
    assert (p - p).den == 1 and math.gcd(p.den, *(p * p).nums.values()) == 1

"""Multivariate polynomials with exact rational coefficients.

These serve as chart functions: exterior derivatives of polynomial
coefficient functions stay in the ring, so all chart-level calculus is
exact.  A polynomial is stored as {packed monomial: int numerator} over
one positive common denominator `den`, in lowest terms (the gcd of `den`
and every numerator is 1; the zero polynomial has no terms and den 1).

A packed monomial is one int holding a FIELD_BITS-bit field per
variable, x_{v+1}'s exponent in bits [v FIELD_BITS, (v + 1) FIELD_BITS),
so the product of two monomials is the sum of their keys, and the
arithmetic below adds and multiplies Python ints only.  An exponent is at
most MAX_EXPONENT, which leaves the top bit of every field clear: the sum
of two keys can then never carry from one field into the next, and a
product whose exponent passes the limit is refused with InputError before
its terms are returned.  A field never wraps.

`sum_of_products` sums many products in one pass, with one dict and one
normalization; the exact EMT audit's determinants, Christoffel symbols
and divergence are each one such sum.  `terms` is the read-only view
{sparse monomial: Fraction} in insertion order, a sparse monomial being
the tuple of (variable, exponent) pairs with exponent > 0 in ascending
variable order, () for the constant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType

from .errors import InputError, json_rational

# 16-bit fields: on the exact EMT audit's Christoffel symbols at m = 4..7,
# 8- and 32-bit fields were no faster, and 16 bits hold exponents to 32767
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1


class ExponentLimitError(InputError):
    """An exponent past MAX_EXPONENT in a polynomial being parsed."""


def monomial(key):
    """The sparse monomial ((variable, exponent), ...) of a packed key."""
    out = []
    v = 0
    while key:
        e = key & _FIELD
        if e:
            out.append((v, e))
        key >>= FIELD_BITS
        v += 1
    return tuple(out)


def _over_common_denominator(nvars, terms):
    """The polynomial of {packed monomial: Fraction}, zeros dropped: over
    the lcm of the denominators the numerators have no common factor with
    it."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return _new(nvars, {k: c.numerator * (den // c.denominator)
                        for k, c in terms.items() if c}, den)


def _reduced(nvars, nums, den):
    """The polynomial nums / den, divided through by the gcd of den and the
    numerators; `nums` holds no zero and becomes the polynomial's own."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    return _new(nvars, nums, den)


def _new(nvars, nums, den):
    out = Polynomial.__new__(Polynomial)
    out.nvars, out.nums, out.den = nvars, nums, den
    return out


def sum_of_products(nvars, items):
    """The polynomial sum of c * a * b over the (c, a, b) of `items`, c an
    int or a Fraction and a, b polynomials in `nvars` variables, summed in
    one pass over the lcm of the terms' denominators.  Terms appear in the
    order a product of sums, expanded term by term, first writes them; a
    sum that vanishes is dropped, and written again at the end if a later
    term brings it back.  InputError when a term of the sum has an
    exponent past MAX_EXPONENT."""
    kept = []
    den = 1
    for item in items:
        c, a, b = item
        if c and a.nums and b.nums:
            kept.append(item)
            den = math.lcm(den, c.denominator * a.den * b.den)
    terms = {}
    get = terms.get
    for c, a, b in kept:
        f = c.numerator * (den // (c.denominator * a.den * b.den))
        right = b.nums.items()
        for ka, va in a.nums.items():
            va *= f
            for kb, vb in right:
                k = ka + kb
                acc = get(k)
                if acc is None:
                    terms[k] = va * vb
                else:
                    nv = acc + va * vb
                    if nv:
                        terms[k] = nv
                    else:
                        del terms[k]
    # every field of every factor is at most MAX_EXPONENT, so no sum of two
    # keys carried into the next field, and a field past it has its top bit
    # set
    top = ((1 << (FIELD_BITS * nvars)) // _FIELD) << (FIELD_BITS - 1)
    if reduce(or_, terms, 0) & top:
        raise InputError(f"a product has an exponent past the limit {MAX_EXPONENT}")
    return _reduced(nvars, terms, den)


class Polynomial:
    """Polynomial in `nvars` variables x1..x_nvars.

    The constructor takes dense exponent tuples, 0-based positionally:
    {(2, 0, 1): c} means c * x1^2 * x3."""

    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            key = _key(exps, nvars)
            coeff = Fraction(coeff)
            if coeff:
                nv = clean.get(key, 0) + coeff
                if nv:
                    clean[key] = nv
                else:
                    del clean[key]
        poly = _over_common_denominator(nvars, clean)
        self.nvars, self.nums, self.den = nvars, poly.nums, poly.den

    @classmethod
    def constant(cls, c, nvars):
        c = Fraction(c)
        return _new(nvars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, i, nvars):
        """x_{i+1}, i 0-based."""
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} outside 0..{nvars - 1}")
        return _new(nvars, {1 << (FIELD_BITS * i): 1}, 1)

    @property
    def terms(self):
        """{sparse monomial: Fraction coefficient}, read-only, in insertion
        order."""
        return MappingProxyType({monomial(k): Fraction(c, self.den)
                                 for k, c in self.nums.items()})

    def __bool__(self):
        return bool(self.nums)

    def is_zero(self):
        return not self.nums

    def is_constant(self):
        return all(not k for k in self.nums)

    def constant_value(self):
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return Fraction(self.nums.get(0, 0), self.den)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise InputError("polynomial variable-count mismatch")
            return other
        return Polynomial.constant(other, self.nvars)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        other = self._coerce(other)
        a, b, den = self.nums, other.nums, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            a = {k: c * fa for k, c in a.items()} if fa != 1 else a
            b = {k: c * fb for k, c in b.items()} if fb != 1 else b
        terms = dict(a)
        for k, c in b.items():
            acc = terms.get(k)
            nv = c if acc is None else acc + c
            if nv:
                terms[k] = nv
            else:
                terms.pop(k, None)
        return _reduced(self.nvars, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.nvars, {k: -c for k, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        return sum_of_products(self.nvars, [(1, self, self._coerce(other))])

    __rmul__ = __mul__

    def partial(self, i):
        """d/dx_{i+1}, i 0-based."""
        if not 0 <= i < self.nvars:
            raise InputError(f"variable index {i} outside 0..{self.nvars - 1}")
        shift = FIELD_BITS * i
        unit = 1 << shift
        terms = {}
        for k, c in self.nums.items():
            e = k >> shift & _FIELD
            if e:
                terms[k - unit] = c * e
        return _reduced(self.nvars, terms, self.den)

    def eval(self, point):
        """Evaluate at a point (exact for Fractions, float for floats): each
        term's Fraction coefficient times its factors in ascending variable
        order, summed from 0 in term order."""
        if len(point) != self.nvars:
            raise InputError("evaluation point has wrong length")
        total = 0
        for k, v in self.terms.items():
            term = v
            for var, e in k:
                term = term * point[var] ** e
            total = total + term
        return total

    def degree(self):
        return max((sum(e for _, e in k) for k in self.terms), default=0)

    def __repr__(self):
        if not self.nums:
            return "Polynomial(0)"
        parts = []
        for k, v in sorted(self.terms.items()):
            mono = "*".join(f"x{i + 1}^{e}" for i, e in k)
            parts.append(f"({v}){'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(parts) + ")"


def from_json_terms(items, nvars):
    """Build a polynomial from [{"exponents": [...], "coefficient": "p/q"}].

    Items are read in order, each item's exponents (by `_key`) before its
    coefficient, so the first bad item raises InputError.  The
    coefficients of items with equal exponents are summed and zero sums
    dropped, in the order the exponents first appear."""
    terms = {}
    for item in items:
        key = _key(item["exponents"], nvars)
        coeff = json_rational(item["coefficient"])
        acc = terms.get(key)
        terms[key] = coeff if acc is None else acc + coeff
    return _over_common_denominator(nvars, terms)


def _key(exps, nvars):
    """The packed monomial of the dense exponents `exps`, a list or tuple of
    `nvars` non-negative ints, checked and packed in one pass.  InputError
    otherwise (a bool is refused, as JSON's true would otherwise be read as
    the exponent 1), and ExponentLimitError for the first exponent past
    MAX_EXPONENT."""
    if type(exps) in (list, tuple) and len(exps) == nvars:
        key = 0
        for e in reversed(exps):
            if type(e) is not int or not 0 <= e <= MAX_EXPONENT:
                break
            key = key << FIELD_BITS | e
        else:
            return key
        if all(type(e) is int and e >= 0 for e in exps):
            v, e = next((v, e) for v, e in enumerate(exps) if e > MAX_EXPONENT)
            raise ExponentLimitError(f"exponent {e} of x{v + 1} is past the limit {MAX_EXPONENT}")
    shown = tuple(exps) if type(exps) in (list, tuple) else repr(exps)
    raise InputError(f"bad exponent tuple {shown} for {nvars} variables")

"""Multivariate polynomials with exact rational coefficients.

These serve as chart functions: exterior derivatives of polynomial
coefficient functions stay in the ring, so all chart-level calculus is
exact.  Terms are stored sparsely as {monomial: coefficient}, and each
monomial is itself sparse: the sorted tuple of (variable, exponent)
pairs with exponent > 0, with () for the constant monomial.  A product
of a few variables out of hundreds therefore costs a few pairs, not a
dense exponent tuple as long as the variable count.

A coefficient is an int or a Fraction.  Ints are exact rationals too, and
an int and the equal Fraction agree under str, == and hash, so two
polynomials compare, hash and print alike whichever type their
coefficients have.  The constructor stores Fractions; writers that know
their coefficients are integers (the Grassmann pullback's +-1) store ints,
which keeps arithmetic at an integer point in ints.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, json_rational


def _monomial_product(ka, kb):
    """Product of two sparse monomials."""
    if not ka:
        return kb
    if not kb:
        return ka
    exps = dict(ka)
    for v, e in kb:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _bad_exponent(e):
    """True unless e is a non-negative int; a bool is refused, as JSON's
    true would otherwise be read as the exponent 1."""
    return isinstance(e, bool) or not isinstance(e, int) or e < 0


class Polynomial:
    """Polynomial in `nvars` variables x1..x_nvars.

    The constructor takes dense exponent tuples, 0-based positionally:
    {(2, 0, 1): c} means c * x1^2 * x3.  It stores that term under the
    sparse monomial ((0, 2), (2, 1))."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(map(_bad_exponent, exps)):
                    raise InputError(f"bad exponent tuple {exps} for {nvars} variables")
                coeff = Fraction(coeff)
                if coeff:
                    key = tuple((v, e) for v, e in enumerate(exps) if e)
                    nv = clean.get(key, 0) + coeff
                    if nv:
                        clean[key] = nv
                    else:
                        del clean[key]
        self.terms = clean

    @classmethod
    def from_sparse(cls, nvars, terms):
        """The polynomial whose terms are the dict `terms`, taken as it is:
        sparse monomials, in poly's sorted form, to non-zero coefficients."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def constant(cls, c, nvars):
        c = Fraction(c)
        return cls.from_sparse(nvars, {(): c} if c else {})

    @classmethod
    def variable(cls, i, nvars):
        """x_{i+1}, i 0-based."""
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} outside 0..{nvars - 1}")
        return cls.from_sparse(nvars, {((i, 1),): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not k for k in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return next(iter(self.terms.values()))

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
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            acc = terms.get(k)
            nv = v if acc is None else acc + v
            if nv:
                terms[k] = nv
            else:
                terms.pop(k, None)
        return Polynomial.from_sparse(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_sparse(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = _monomial_product(ka, kb)
                acc = terms.get(k)
                nv = va * vb if acc is None else acc + va * vb
                if nv:
                    terms[k] = nv
                else:
                    terms.pop(k, None)
        return Polynomial.from_sparse(self.nvars, terms)

    __rmul__ = __mul__

    def partial(self, i):
        """d/dx_{i+1}, i 0-based."""
        if not 0 <= i < self.nvars:
            raise InputError(f"variable index {i} outside 0..{self.nvars - 1}")
        terms = {}
        for k, v in self.terms.items():
            for pos, (var, e) in enumerate(k):
                if var != i:
                    continue
                rest = ((i, e - 1),) if e > 1 else ()
                nk = k[:pos] + rest + k[pos + 1:]
                acc = terms.get(nk)
                nv = v * e if acc is None else acc + v * e
                if nv:
                    terms[nk] = nv
                else:
                    terms.pop(nk, None)
                break
        return Polynomial.from_sparse(self.nvars, terms)

    def eval(self, point):
        """Evaluate at a point (exact for Fractions, float for floats)."""
        if len(point) != self.nvars:
            raise InputError("evaluation point has wrong length")
        total = 0
        for k, v in self.terms.items():
            term = v
            for var, e in k:
                term = term * point[var] ** e
            total = total + term
        return total

    def gradient_at(self, point):
        """{v: d/dx_{v+1} at `point`} over the non-zero entries, v 0-based,
        in one pass over the terms.  At a rational point each value equals
        `partial(v).eval(point)` exactly.

        Each factor's value is read once.  A term whose zero factors have
        total multiplicity 2 or more has a zero derivative in every
        variable and is skipped; with one simple zero factor, only the
        derivative in that variable is formed."""
        if len(point) != self.nvars:
            raise InputError("evaluation point has wrong length")
        grad = {}
        for k, c in self.terms.items():
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

    def degree(self):
        return max((sum(e for _, e in k) for k in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for k, v in sorted(self.terms.items()):
            mono = "*".join(f"x{i + 1}^{e}" for i, e in k)
            parts.append(f"({v}){'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(parts) + ")"


def from_json_terms(items, nvars):
    """Build a polynomial from [{"exponents": [...], "coefficient": "p/q"}].

    Items are read in order, each item's exponents before its coefficient;
    the first whose exponents are not a list of `nvars` non-negative ints
    (a bool is refused, as JSON's true would otherwise be read as the
    exponent 1) raises InputError.  The sparse terms are written directly:
    the coefficients of items with equal exponents are summed and zero
    sums dropped, in the order the exponents first appear."""
    terms = {}
    for item in items:
        exps = item["exponents"]
        if not (type(exps) is list and len(exps) == nvars
                and all(type(e) is int and e >= 0 for e in exps)):
            shown = tuple(exps) if type(exps) is list else repr(exps)
            raise InputError(f"bad exponent tuple {shown} for {nvars} variables")
        coeff = json_rational(item["coefficient"])
        key = tuple((v, e) for v, e in enumerate(exps) if e)
        acc = terms.get(key)
        terms[key] = coeff if acc is None else acc + coeff
    return Polynomial.from_sparse(nvars, {k: c for k, c in terms.items() if c})

"""Exact alternating multilinear algebra over a labeled coframe.

Forms are stored sparsely: a mapping from strictly increasing index
tuples (1-based, bounded by the ambient dimension) to coefficients.
Coefficients are exact rationals by default, but any commutative ring
element supporting +, -, * and truthiness works (polynomial-coefficient
forms reuse this class).

Signs come from :func:`sort_with_sign`, except in `substitute`, which
inserts one index at a time into a sorted key and counts the larger
indices it passes.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .errors import InputError


def sort_with_sign(indices):
    """Sort an index tuple, counting transpositions.

    Returns (sorted_tuple, sign) where sign is +1/-1, or (None, 0) if an
    index repeats (the wedge monomial is zero).  This is the single sign
    source for the whole library.
    """
    idx = list(indices)
    sign = 1
    # insertion sort; counts inversions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None, 0
    return tuple(idx), sign


class ExteriorForm:
    """A degree-p alternating form on an `dim`-dimensional space.

    coefficients: dict mapping strictly increasing tuples of length
    `degree` to nonzero coefficients.  Instances are immutable by
    convention; all operations return new forms.
    """

    __slots__ = ("dim", "degree", "coefficients")

    def __init__(self, dim, degree, coefficients=None):
        if degree < 0:
            raise InputError(f"negative form degree {degree}")
        self.dim = dim
        self.degree = degree
        coeffs = {}
        if coefficients:
            for key, val in coefficients.items():
                key = tuple(key)
                if len(key) != degree:
                    raise InputError(f"index {key} has wrong length for degree {degree}")
                if any(not (1 <= k <= dim) for k in key):
                    raise InputError(f"index {key} out of range 1..{dim}")
                if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                    raise InputError(f"index {key} is not strictly increasing")
                if val:
                    coeffs[key] = val
        self.coefficients = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, dim, degree, coefficients):
        """The form with `coefficients` as its own dict, trusted to be
        canonical: sorted keys of length `degree` in 1..dim, no zero value.
        Every computed form is built here."""
        out = cls.__new__(cls)
        out.dim, out.degree, out.coefficients = dim, degree, coefficients
        return out

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree, {})

    @classmethod
    def monomial(cls, dim, indices, coeff=Fraction(1)):
        """coeff * eta^{i1} ^ ... ^ eta^{ip} for arbitrary index order."""
        key, sign = sort_with_sign(indices)
        if sign == 0 or not coeff:
            return cls.zero(dim, len(indices))
        return cls(dim, len(indices), {key: coeff * sign})

    @classmethod
    def covector(cls, dim, k, coeff=Fraction(1)):
        return cls.monomial(dim, (k,), coeff)

    # -- ring structure -----------------------------------------------

    def __bool__(self):
        return bool(self.coefficients)

    def is_zero(self):
        return not self.coefficients

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash((self.dim, self.degree,
                     frozenset(self.coefficients.items())))

    def __add__(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise InputError("form shape mismatch in addition")
        coeffs = dict(self.coefficients)
        for key, val in other.coefficients.items():
            _accumulate(coeffs, key, val)
        return ExteriorForm._of(self.dim, self.degree, coeffs)

    def __neg__(self):
        return ExteriorForm._of(self.dim, self.degree,
                                {k: -v for k, v in self.coefficients.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return ExteriorForm._of(self.dim, self.degree,
                                {k: c * v for k, v in self.coefficients.items()} if c else {})

    def __rmul__(self, c):
        return self.scale(c)

    def __repr__(self):
        if not self.coefficients:
            return f"ExteriorForm({self.dim}, {self.degree}, 0)"
        terms = " + ".join(f"({v})*eta^{''.join(map(str, k)) or '()'}"
                           for k, v in sorted(self.coefficients.items()))
        return f"ExteriorForm({self.dim}, {self.degree}, {terms})"


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Exterior product; bilinear and graded-anticommutative."""
    if a.dim != b.dim:
        raise InputError(f"wedge of forms on different spaces ({a.dim} vs {b.dim})")
    coeffs = {}
    if a.degree + b.degree <= a.dim:
        for ka, va in a.coefficients.items():
            for kb, vb in b.coefficients.items():
                key, sign = sort_with_sign(ka + kb)
                if sign:
                    _accumulate(coeffs, key, va * vb if sign > 0 else -(va * vb))
    return ExteriorForm._of(a.dim, a.degree + b.degree, coeffs)


def contract(v, a: ExteriorForm) -> ExteriorForm:
    """Interior product v -| a (degree drops by one) for the vector v
    given by its non-zero entries {k: v_k}, k 1-based."""
    if a.degree == 0:
        raise InputError("interior product of a 0-form")
    coeffs = {}
    for key, val in a.coefficients.items():
        for pos, k in enumerate(key):
            vk = v.get(k)
            if vk is not None:
                _accumulate(coeffs, key[:pos] + key[pos + 1:],
                            vk * val if pos % 2 == 0 else -(vk * val))
    return ExteriorForm._of(a.dim, a.degree - 1, coeffs)


def evaluate(a: ExteriorForm, vectors):
    """a(v_1..v_p) = v_p -| ... v_1 -| a for p vectors given as {k: v_k}."""
    vectors = list(vectors)
    if len(vectors) != a.degree:
        raise InputError(f"evaluating degree-{a.degree} form on {len(vectors)} vectors")
    for v in vectors:
        if any(not 1 <= k <= a.dim for k in v):
            raise InputError(f"vector index outside 1..{a.dim}")
        a = contract(v, a)
    return a.coefficients.get((), Fraction(0))


def substitute(a: ExteriorForm, images, new_dim=None) -> ExteriorForm:
    """Rewrite a form under a linear change of coframe.

    images[k] (1-based key) is the 1-form replacing the covector eta^k;
    the substitution extends multiplicatively over wedge monomials.

    Each monomial is expanded multilinearly in one pass: an index joins
    a sorted partial key by bisection, with the sign of the larger
    indices it passes, and an index without an image joins without a
    multiplication.  Terms accumulate in one dict, in the order (and
    with the cancellations) that repeated wedging and adding would give.
    """
    if new_dim is None:
        new_dim = next(iter(images.values())).dim if images else a.dim
    factors_of = {}
    coeffs = {}
    for key, val in a.coefficients.items():
        terms = {(): val}
        for k in key:
            factors = factors_of.get(k)
            if factors is None:
                factors = factors_of[k] = _image_factors(k, images.get(k), new_dim)
            nxt = {}
            for t, c in terms.items():
                for j, cj in factors:
                    pos = bisect_left(t, j)
                    if pos < len(t) and t[pos] == j:
                        continue
                    c_new = c if cj is None else c * cj
                    if (len(t) - pos) % 2:
                        c_new = -c_new
                    _accumulate(nxt, t[:pos] + (j,) + t[pos:], c_new)
            terms = nxt
        for t, c in terms.items():
            _accumulate(coeffs, t, c)
    return ExteriorForm._of(new_dim, a.degree, coeffs)


def _image_factors(k, image, dim):
    """The terms (j, c) of eta^k's image under `substitute`; (k, None),
    eta^k with no coefficient to multiply by, when there is no image."""
    if image is None:
        if not 1 <= k <= dim:
            raise InputError(f"index {k} out of range 1..{dim}")
        return [(k, None)]
    if image.dim != dim or image.degree != 1:
        raise InputError(f"image of eta^{k} is not a 1-form on {dim} coordinates")
    return [(j, c) for (j,), c in image.coefficients.items()]


def _accumulate(coeffs, key, val):
    """coeffs[key] += val, dropping the key when the sum vanishes."""
    acc = coeffs.get(key)
    new = val if acc is None else acc + val
    if new:
        coeffs[key] = new
    else:
        coeffs.pop(key, None)


class VectorValuedForm:
    """A vector of n exterior forms sharing (dim, degree)."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = list(components)
        if not components:
            raise InputError("vector-valued form needs at least one component")
        dim, degree = components[0].dim, components[0].degree
        for c in components:
            if c.dim != dim or c.degree != degree:
                raise InputError("vector-valued form components disagree in shape")
        self.components = components

    @property
    def dim(self):
        return self.components[0].dim

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

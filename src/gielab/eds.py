"""Pointwise exterior-ideal machinery.

Everything here works at a single point: ideals have constant rational
coefficients in an ambient coframe split into base covectors (the first
`n_base` coordinates) and fiber covectors.  Integral elements, polar
spaces, Cartan characters by the expansion method (the split of an
ideal into (sup J, row) pairs, and the one elimination that counts the
characters from such pairs, however they were written), and the
one-sided Cartan test.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

from . import linalg
from .errors import InputError, VerificationError
from .exterior import ExteriorForm, contract


class SigmaCoframe:
    """A split coframe: n_base base covectors, then n_fiber fiber ones."""

    def __init__(self, n_base: int, n_fiber: int):
        self.n_base = n_base
        self.n_fiber = n_fiber

    @property
    def dim(self):
        return self.n_base + self.n_fiber


class AlgebraicIdeal:
    """Exterior ideal generated algebraically by constant-coefficient
    forms over a split coframe (no 0-form generators allowed)."""

    def __init__(self, coframe: SigmaCoframe, generators):
        self.coframe = coframe
        self.generators = list(generators)
        for g in self.generators:
            if g.degree == 0:
                raise InputError("ideal generators must have positive degree")
            if g.dim != coframe.dim:
                raise InputError("generator dimension does not match the coframe")

    @property
    def dim(self):
        return self.coframe.dim


class IntegralElement:
    """A p-dimensional subspace given by an independent basis of vectors
    {k: v_k}, their non-zero rational entries, kept as given, at 1-based
    coordinates k."""

    def __init__(self, basis):
        self.basis = [{k: x for k, x in v.items() if x} for v in basis]
        echelon = linalg.SparseEchelon()
        if not all(echelon.insert(linalg.integer_row(v)) for v in self.basis):
            raise InputError("integral-element basis is linearly dependent")

    @property
    def dimension(self):
        return len(self.basis)


def first_nonvanishing(g, vectors):
    """The first increasing index tuple S into `vectors` (given as
    {k: v_k}), in lex order, with g(vectors[S]) != 0, as
    (S, value); None if g vanishes on every increasing g.degree-subset.

    g(s_1..s_d) = s_d -| ... s_1 -| g, so subsets sharing a prefix share
    its contraction, and a prefix whose contraction vanishes is pruned
    with every subset that extends it.
    """
    def walk(form, start, prefix):
        if not form.degree:
            value = form.coefficients.get(())
            return (prefix, value) if value else None
        for i in range(start, len(vectors) - form.degree + 1):
            rest = contract(vectors[i], form)
            if rest:
                found = walk(rest, i + 1, prefix + (i,))
                if found:
                    return found
        return None

    return walk(g, 0, ())


def _require_within(element: IntegralElement, dim):
    """InputError unless every basis vector lies in the space 1..dim."""
    for v in element.basis:
        if v and not (1 <= min(v) and max(v) <= dim):
            raise InputError(
                f"integral-element vector with indices {sorted(v)} outside 1..{dim}")


def is_integral_element(element: IntegralElement, ideal: AlgebraicIdeal) -> bool:
    """True iff every generator of degree <= p vanishes on every
    sub-tuple of the basis (multilinearity extends this to the whole
    ideal).  InputError for a vector outside the ideal's space."""
    _require_within(element, ideal.dim)
    p = element.dimension
    return all(first_nonvanishing(g, element.basis) is None
               for g in ideal.generators if g.degree <= p)


def polar_space(element: IntegralElement, ideal: AlgebraicIdeal):
    """Polar space H(E) = {v : phi(v, e_1..e_p) = 0 for phi in I_{p+1}},
    returned as a basis {k: v_k} of the linear polar system's solution
    space.

    For a generator g of degree d and any (d-1)-subset S = (s_1..s_r) of
    the basis, v -> g(v, S) is one polar equation; these span all of
    I_{p+1} evaluated against E.  Its row is read off the 1-form left by
    contracting g with s_1, then s_2, and so on:
    g(e_k, s_1..s_r) = (-1)^r (s_r -| ... s_1 -| g)_k, up to the sign and
    the positive factors that make g and the basis int (`integer_row`).
    InputError for a vector outside the ideal's space.
    """
    p = element.dimension
    dim = ideal.dim
    _require_within(element, dim)
    basis = [linalg.integer_row(v) for v in element.basis]
    rows = []
    for g in ideal.generators:
        if g.degree > p + 1:
            continue
        scaled = ExteriorForm._of(g.dim, g.degree, linalg.integer_row(g.coefficients))
        for subset in combinations(basis, g.degree - 1):
            form = scaled
            for s in subset:
                form = contract(s, form)
            if not form:
                continue
            rows.append({k: v for (k,), v in form.coefficients.items()})
    return linalg.nullspace(rows, n_cols=dim)


class CartanReport:
    """Cartan characters plus the test outcome."""

    def __init__(self, characters: list, observed_codimension: int | None = None,
                 verdict: str = "unevaluated"):
        self.characters = characters
        self.observed_codimension = observed_codimension
        self.verdict = verdict

    @property
    def character_sum(self):
        return sum(self.characters)


def expansion_rows(ideal: AlgebraicIdeal):
    """Split every generator into its single-fiber-factor expansion.

    Returns (sup_J, row) pairs sorted by sup_J, where row maps fiber
    coordinates to the coefficient of the pi covector in the 1-form pi_rho^J,
    as a primitive int row (`linalg.integer_row`).
    Raises VerificationError if a generator has a nonzero pure-base term
    (the expansion shape then fails at this point).  The flag pipeline
    writes the rows it needs straight from H (`gie.adapted_expansion_rows`);
    the tests keep this split of the adapted ideal as its oracle.
    """
    n_base = ideal.coframe.n_base
    merged = {}  # (generator, J) -> (sup J, row)
    for gi, g in enumerate(ideal.generators):
        for key, val in g.coefficients.items():
            # a key is sorted, so its base indices J come first
            split = bisect_right(key, n_base)
            if split == len(key):
                raise VerificationError(
                    f"generator {gi} has pure-base term {key} with coefficient {val}; "
                    "the expansion shape does not apply")
            if split < len(key) - 1:
                continue  # quadratic or higher in pi: part of the remainder
            base = key[:split]
            _, row = merged.setdefault((gi, base), (base[-1] if base else 0, {}))
            # moving the single fiber index to the front across |J| base
            # indices flips the sign |J| times; (J, fiber) is one key of g,
            # so each row entry is written once
            row[key[split]] = -val if split % 2 else val
    return sorted(((j, linalg.integer_row(row)) for j, row in merged.values()), key=lambda t: t[0])


def cartan_characters_by_expansion(rows, m) -> CartanReport:
    """Characters C_0..C_{m-1} by incremental ranks of the pi_rho^J
    systems collected level by level (sup J <= p).  `rows` are (sup J, int
    row) pairs sorted by sup J, as `expansion_rows` gives them; rows above
    level m - 1 are never inserted."""
    ech = linalg.SparseEchelon()
    characters = []
    idx = 0
    for p in range(m):
        while idx < len(rows) and rows[idx][0] <= p:
            ech.insert(rows[idx][1])
            idx += 1
        characters.append(ech.rank)
    return CartanReport(characters=characters)


def cartan_test(report: CartanReport, observed_codimension: int) -> CartanReport:
    """One-sided Cartan test: ordinary iff the character sum equals the
    observed codimension (it can never exceed it)."""
    report.observed_codimension = observed_codimension
    if report.character_sum == observed_codimension:
        report.verdict = "ordinary"
    else:
        report.verdict = "inconclusive"
    return report

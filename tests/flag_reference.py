"""Term-by-term references for the flag pipeline's exterior kernels.

The library writes the raw GIE ideal's generators straight into
coefficient dicts, substitutes a change of coframe in one multilinear
pass, and finds a generator's first non-zero value on the flag by
shared-prefix contraction.  This module keeps the earlier formulations:
generators summed from `ExteriorForm.monomial`, substitution by repeated
`wedge` and addition, and every subset evaluated by cofactor expansion
on dense vectors, independent of contraction.  The tests require the
library to agree with them exactly, including the order of the
coefficient dicts, which fixes the first witness a failure report names.

`determinant` is the cofactor expansion over any ring, with shared
sub-minors; `emt_reference` takes its exact inverse metric from it too,
while the library's own expansion (`emt._minor_det`) is over packed
polynomials.

The ideal in the coframe adapted to H exists only here (`adapted_ideal`,
by substitution): the library writes its expansion rows straight from H
(`gie.adapted_expansion_rows`), and the characters by expansion are kept
from it, split into rows by `eds.expansion_rows`.
"""

from fractions import Fraction
from itertools import combinations

from gielab.eds import AlgebraicIdeal, cartan_characters_by_expansion, expansion_rows
from gielab.exterior import ExteriorForm, wedge
from gielab.gie import SigmaIndexMap, gie_coframe


def determinant(rows, row_ids=None, col_ids=None, minors=None):
    """Determinant of the minor of `rows` on the row indices `row_ids` and
    the column indices `col_ids` (the whole square matrix by default), by
    expansion along its first row; entries are ring elements.

    Every sub-minor is kept in `minors` under (row indices, column
    indices), so that the calls sharing one dict compute each sub-minor
    once: the cofactors of a matrix and its determinant then expand the
    same smaller minors only once between them."""
    if row_ids is None:
        row_ids = col_ids = tuple(range(len(rows)))
    n = len(row_ids)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[row_ids[0]][col_ids[0]]
    if minors is None:
        minors = {}
    key = (row_ids, col_ids)
    det = minors.get(key)
    if det is not None:
        return det
    top, rest = rows[row_ids[0]], row_ids[1:]
    total = None
    for j, c in enumerate(col_ids):
        head = top[c]
        if not head:
            continue
        term = head * determinant(rows, rest, col_ids[:j] + col_ids[j + 1:], minors)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    det = minors[key] = total if total is not None else Fraction(0)
    return det


def expansion_characters(ideal):
    """The CartanReport of the characters by expansion of a materialized
    ideal: the rows `eds.expansion_rows` splits off it, through the one
    elimination `gie.gie_cartan_report` runs on the rows it writes."""
    return cartan_characters_by_expansion(expansion_rows(ideal), ideal.coframe.n_base)


def substitute(a, images, new_dim=None):
    """Each substituted monomial as a wedge of images, added up."""
    if new_dim is None:
        new_dim = next(iter(images.values())).dim if images else a.dim
    out = ExteriorForm.zero(new_dim, a.degree)
    for key, val in a.coefficients.items():
        term = None
        for k in key:
            img = images.get(k)
            if img is None:
                img = ExteriorForm.covector(new_dim, k)
            term = img if term is None else wedge(term, img)
        if term is None:  # degree 0
            term = ExteriorForm(new_dim, 0, {(): Fraction(1)})
        out = out + term.scale(val)
    return out


def evaluate(a, vectors):
    """a(v_1..v_p) for p dense vectors (lists of length a.dim): each term
    times the cofactor expansion of its p x p minor."""
    vectors = list(vectors)
    assert len(vectors) == a.degree and all(len(v) == a.dim for v in vectors)
    total = Fraction(0)
    for key, val in a.coefficients.items():
        d = determinant([[v[k - 1] for k in key] for v in vectors])
        if d:
            total = total + val * d
    return total


def first_nonvanishing(g, vectors):
    """(S, g(vectors[S])) for the first increasing index tuple S, in
    `combinations` order, on which g is non-zero; None if there is none.
    The vectors are dense."""
    for subset in combinations(range(len(vectors)), g.degree):
        value = evaluate(g, [vectors[i] for i in subset])
        if value:
            return subset, value
    return None


def gie_ideal_generators(psi, R, kappa, H=None):
    """The generators of `gie.gie_ideal`, summed monomial by monomial;
    in the coframe adapted to H (omega^a_i = pi^a_i + H^a_{i lam} eta^lam)
    when H is given."""
    n, m = psi.n, psi.m
    sigma = SigmaIndexMap(n, kappa)
    N = gie_coframe(n, m, kappa).dim
    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(ExteriorForm.covector(N, m + sigma.pair(i, j)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = ExteriorForm.zero(N, 2)
            for a in range(n + 1, n + kappa + 1):
                g = g + ExteriorForm.monomial(
                    N, (m + sigma.normal(a, i), m + sigma.normal(a, j)))
            for lam in range(1, m + 1):
                for mu in range(lam + 1, m + 1):
                    v = R[i, j, lam, mu]
                    if v:
                        g = g + ExteriorForm.monomial(N, (lam, mu), -v)
            gens.append(g)
    for a in range(n + 1, n + kappa + 1):
        g = ExteriorForm.zero(N, m)
        for i in range(1, n + 1):
            for lam in range(1, m + 1):
                v = psi[i, lam]
                if v:
                    comp = tuple(k for k in range(1, m + 1) if k != lam)
                    g = g + ExteriorForm.monomial(
                        N, (m + sigma.normal(a, i),) + comp, v)
        gens.append(g)
    if H is not None:
        images = {}
        for a in range(n + 1, n + kappa + 1):
            for i in range(1, n + 1):
                coord = m + sigma.normal(a, i)
                img = ExteriorForm.covector(N, coord)
                for lam in range(1, m + 1):
                    v = H[a - n, i, lam]
                    if v:
                        img = img + ExteriorForm.covector(N, lam, v)
                images[coord] = img
        gens = [substitute(g, images, new_dim=N) for g in gens]
    return gens


def adapted_ideal(psi, R, kappa, H):
    """The ideal of `gie.gie_ideal(psi, R, kappa)` in the coframe adapted
    to H, the one whose rows `gie.adapted_expansion_rows` writes."""
    return AlgebraicIdeal(gie_coframe(psi.n, psi.m, kappa),
                          gie_ideal_generators(psi, R, kappa, H=H))

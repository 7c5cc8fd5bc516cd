"""Generalized isometric embedding construction (conservation-law case).

Given psi-data (the coefficients of a covariantly closed vector-valued
(m-1)-form) this module builds second-fundamental-form coefficients H
satisfying the generalized Cartan identities with vanishing Gauss image,
certifies that the Gauss-map differential has maximal rank, assembles
the exterior ideal on the product space in the sigma-indexed coframe,
builds the explicit integral flag, and counts Cartan characters both by
the expansion method and through the Grassmannian pullback.  The
expansion rows of the ideal in the coframe adapted to H are written
straight from psi and the non-zeros of H (`adapted_expansion_rows`), so
no pipeline builds the adapted ideal; `gie_ideal` writes the raw one,
which the polar-space route reads.

Index conventions (all 1-based): i, j, k = 1..n fiber; lam, mu, nu =
1..m base; a = 1..kappa normal directions.  psi[i][lam] stores the
coefficient of eta^{Lambda minus lam} in phi^i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .eds import (AlgebraicIdeal, CartanReport, IntegralElement, SigmaCoframe,
                  cartan_characters_by_expansion, cartan_test)
from .errors import InputError, VerificationError, json_int, json_matrix, json_rational
from .exterior import ExteriorForm


# ---------------------------------------------------------------------------
# psi-data


def _require_shape(n, m):
    if n < 2 or m < 2:
        raise InputError("need fiber rank n >= 2 and base dimension m >= 2")


class PsiData:
    """Coefficients psi^i_{Lambda minus lam} of the (m-1)-form phi."""

    def __init__(self, n, m, values):
        _require_shape(n, m)
        values = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in values]
        if len(values) != n or any(len(row) != m for row in values):
            raise InputError(f"psi values must form an {n} x {m} array")
        if all(not v for row in values for v in row):
            raise InputError("phi vanishes: all psi coefficients are zero")
        self.n = n
        self.m = m
        self.values = values

    def __getitem__(self, ilam):
        i, lam = ilam
        return self.values[i - 1][lam - 1]

    @cached_property
    def numerators(self):
        """(D, D*psi as rows of ints), D the lcm of psi's denominators."""
        D = lcm(*(v.denominator for row in self.values for v in row))
        return D, [[v.numerator * (D // v.denominator) for v in row] for row in self.values]

    def det2(self):
        """det psi for the n = m = 2 case."""
        if self.n != 2 or self.m != 2:
            raise InputError("det psi is only defined for n = m = 2")
        v = self.values
        return v[0][0] * v[1][1] - v[0][1] * v[1][0]


RANDOM_PSI_BOUND = 10


def random_normalized_psi(n, m, rng):
    """Seeded random psi already in normalized form; entries have
    numerators and denominators bounded by RANDOM_PSI_BOUND."""
    _require_shape(n, m)
    while True:
        values = [[Fraction(rng.randint(1 - RANDOM_PSI_BOUND, RANDOM_PSI_BOUND - 1),
                            rng.randint(1, RANDOM_PSI_BOUND))
                   for _ in range(m)] for _ in range(n)]
        for i in range(n):
            values[i][m - 1] = Fraction(1 if i == 0 else 0)
        psi = PsiData(n, m, values)
        if n == 2 and m == 2 and not psi.det2():
            continue
        return psi


def load_psi(doc) -> PsiData:
    """psi-data from the JSON schema {"n", "m", "psi": [[str]]}, with psi
    a list of n lists of m entries."""
    try:
        n, m = json_int(doc, "n"), json_int(doc, "m")
        values = [[json_rational(v) for v in row] for row in json_matrix(doc, "psi", n, m)]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed psi input: {exc}") from exc
    return PsiData(n, m, values)


# ---------------------------------------------------------------------------
# second fundamental form, curvature elements


_ZERO = Fraction(0)
_RATIONAL_TYPES = {int, Fraction}


class SecondFundamental:
    """Coefficients H^a_{i lam}; the columns H_{i lam} are vectors in the
    kappa-dimensional normal space W, stored as ints over one positive
    common denominator `den`: columns[(i, lam)] = {a: den * H^a_{i lam}}
    over the non-zero entries.  The accessors take and give rationals."""

    def __init__(self, n, m, kappa, entries=None):
        """The H with H^a_{i lam} = entries[a-1][i-1][lam-1], given as an
        exactly kappa x n x m array; the zero H when entries is None."""
        self.n = n
        self.m = m
        self.kappa = kappa
        self.den = 1
        self.columns = {(i, lam): {} for i in range(1, n + 1) for lam in range(1, m + 1)}
        if entries is None:
            return
        if [len(block) for block in entries] != [n] * kappa or any(
                len(row) != m for block in entries for row in block):
            raise InputError(f"H entries must form a {kappa} x {n} x {m} array")
        for a, block in enumerate(entries, 1):
            for i, row in enumerate(block, 1):
                for lam, v in enumerate(row, 1):
                    self.set(a, i, lam, v)

    def _column(self, a, i, lam):
        if not (0 < a <= self.kappa and 0 < i <= self.n and 0 < lam <= self.m):
            raise InputError(
                f"H index (a, i, lam) = {(a, i, lam)} outside 1..{self.kappa}, "
                f"1..{self.n}, 1..{self.m}")
        return self.columns[i, lam]

    def __getitem__(self, ail):
        a, i, lam = ail
        v = self._column(a, i, lam).get(a)
        return _ZERO if v is None else Fraction(v, self.den)

    def set(self, a, i, lam, value):
        """H^a_{i lam} := value; a denominator that does not divide `den`
        rescales every numerator once, to the lcm."""
        self._column(a, i, lam)  # InputError before anything changes
        value = Fraction(value)
        if self.den % value.denominator:
            factor = lcm(self.den, value.denominator) // self.den
            self.den *= factor
            self.columns = {key: {b: v * factor for b, v in col.items()}
                            for key, col in self.columns.items()}
        column = self.columns[i, lam]
        if value:
            column[a] = value.numerator * (self.den // value.denominator)
        else:
            column.pop(a, None)

    def vector(self, i, lam):
        """H_{i lam} as a vector of W (length kappa)."""
        out = [_ZERO] * self.kappa
        for a, v in self.columns[i, lam].items():
            out[a - 1] = Fraction(v, self.den)
        return out

    def scaled(self, rho):
        rho = Fraction(rho)
        out = SecondFundamental(self.n, self.m, self.kappa)
        if rho:
            c = rho.numerator
            out.den = self.den * rho.denominator
            out.columns = {key: {a: c * v for a, v in col.items()}
                           for key, col in self.columns.items()}
        return out


class CurvatureElement:
    """R^i_{j; lam mu} with both antisymmetries, stored for i<j, lam<mu."""

    def __init__(self, n, m, values=None):
        self.n = n
        self.m = m
        self.values = {}
        for key, val in (values or {}).items():
            i, j, lam, mu = key
            if not (1 <= i < j <= n and 1 <= lam < mu <= m):
                raise InputError(f"curvature key {key} violates i<j, lam<mu")
            val = Fraction(val)
            if val:
                self.values[key] = val

    def __getitem__(self, key):
        i, j, lam, mu = key
        sign = 1
        if i == j or lam == mu:
            return Fraction(0)
        if i > j:
            i, j, sign = j, i, -sign
        if lam > mu:
            lam, mu, sign = mu, lam, -sign
        return sign * self.values.get((i, j, lam, mu), Fraction(0))

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        return (isinstance(other, CurvatureElement) and self.n == other.n
                and self.m == other.m and self.values == other.values)


def _require_curvature_shape(R: CurvatureElement, n, m):
    """InputError unless R is of shape (n, m): a component of another
    shape would be dropped or read at an index the problem does not have."""
    if (R.n, R.m) != (n, m):
        raise InputError(f"R of shape (n, m) = {(R.n, R.m)} does not fit psi's {(n, m)}")


# ---------------------------------------------------------------------------
# core maps


def cartan_identity_residual(H: SecondFundamental, psi: PsiData):
    """Residual sum_{i,lam} (-1)^(lam+1) H^a_{i lam} psi^i_{Lambda minus lam}
    for each normal direction a; zero iff the identities hold."""
    if (H.n, H.m) != (psi.n, psi.m):
        raise InputError("H and psi shapes disagree")
    D, P = psi.numerators
    sums = [0] * H.kappa
    for (i, lam), column in H.columns.items():
        c = P[i - 1][lam - 1] if lam % 2 else -P[i - 1][lam - 1]
        if c:
            for a, v in column.items():
                sums[a - 1] += c * v
    return [Fraction(s, D * H.den) if s else _ZERO for s in sums]


def gauss_map(H: SecondFundamental) -> CurvatureElement:
    """(G(H))^i_{j; lam mu} = H_{i lam}.H_{j mu} - H_{i mu}.H_{j lam}.

    Summed one normal direction a at a time, in ints over den^2: each pair
    of non-zeros x = den*H^a_{i lam}, y = den*H^a_{j mu} with i != j and
    lam != mu adds x*y to the component (i, j; lam, mu), stored up to sign
    with i < j, lam < mu.  The cost is the sum over a of the squared
    non-zero count of a, not a dot product per component."""
    by_normal = {}
    for (i, lam), column in H.columns.items():
        for a, x in column.items():
            by_normal.setdefault(a, []).append((i, lam, x))
    sums = {}
    for entries in by_normal.values():
        for p, (i, lam, x) in enumerate(entries):
            for j, mu, y in entries[p + 1:]:
                if i != j and lam != mu:
                    key = (min(i, j), max(i, j), min(lam, mu), max(lam, mu))
                    xy = x * y if (i < j) == (lam < mu) else -x * y
                    sums[key] = sums.get(key, 0) + xy
    scale = H.den * H.den
    return CurvatureElement(H.n, H.m, {key: Fraction(v, scale)
                                       for key, v in sorted(sums.items()) if v})


def curvature_rows(n, m):
    """Row index order (i, j, lam, mu), i<j then lam<mu, lexicographic."""
    return [(i, j, lam, mu)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for lam in range(1, m + 1) for mu in range(lam + 1, m + 1)]


def dependent_coefficient(H: SecondFundamental, psi: PsiData, a: int):
    """The H^a_{p m} (p the pivot, see `_pivot`) that closes the Cartan
    identity of a, other entries held fixed: the residual of a is linear
    in it with coefficient u_p.  InputError when psi has no pivot."""
    p, U = _pivot(psi)
    return H[a, p, H.m] - cartan_identity_residual(H, psi)[a - 1] * psi.numerators[0] / U[p - 1]


class RankCertificate:
    """Outcome of the Jacobian maximal-rank check."""

    def __init__(self, rank: int, expected: int, witness_columns: list,
                 failed_level: tuple | None = None):
        self.rank = rank
        self.expected = expected
        self.witness_columns = witness_columns
        self.failed_level = failed_level

    @property
    def full(self):
        return self.rank == self.expected


def _flag_levels(n, m):
    """Column-group order (k, nu), nu outer, matching the interleaved
    flag of curvature subspaces."""
    return [(k, nu) for nu in range(2, m + 1) for k in range(2, n + 1)]


def jacobian_rank_certificate(H: SecondFundamental, psi: PsiData) -> RankCertificate:
    """Certify that dG restricted to the columns d/dH^a_{k nu}, k >= 2,
    nu >= 2, has rank dim K = n(n-1)m(m-1)/4.

    The restricted matrix is block lower triangular along the flag of
    curvature subspaces: row (i,j;lam,mu) belongs to level (j,mu), and
    its only entries at that level form the stacked matrix (H^a_{i lam})
    with i<j, lam<mu.  Full row rank of every diagonal block certifies
    full rank; the pivot columns of the blocks are the witness.  On a
    singular block, the first failing level is reported and the true
    rank is computed by sparse elimination.

    Everything runs on the int columns den*H, which have the same ranks
    and pivots as H.  The block of level (k, nu) is that of (k-1, nu) plus
    the rows H_{k-1, lam}, lam < nu, or that of (k, nu-1) plus the rows
    H_{i, nu-1}, i < k.  So one incremental echelon per nu (per k when
    m > n, inserting each row once) decides every level: a level fails
    when one of its new rows is dependent, and otherwise its witness is
    the echelon's pivot set, the block's column rank profile.
    """
    n, m, kappa = H.n, H.m, H.kappa
    expected = n * (n - 1) * m * (m - 1) // 4
    levels = _flag_levels(n, m)
    cols = H.columns
    failed = None
    witness = []
    echelons = {}
    for (k, nu) in levels:
        ech = echelons.setdefault(k if m > n else nu, linalg.SparseEchelon())
        rows = ([cols[i, nu - 1] for i in range(1, k)] if m > n
                else [cols[k - 1, lam] for lam in range(1, nu)])
        if not all(ech.insert(row) for row in rows):
            failed = (k, nu)
            break
        witness.extend((a, k, nu) for a in sorted(ech.pivots))
    if failed is None:
        return RankCertificate(rank=expected, expected=expected,
                               witness_columns=witness)
    # honest fallback: exact rank of the whole restricted matrix, whose
    # row (i,j;lam,mu) is dG's four column terms read off den*H
    offset = {level: idx * kappa - 1 for idx, level in enumerate(levels)}
    ech = linalg.SparseEchelon()
    for (i, j, lam, mu) in curvature_rows(n, m):
        row = {}
        for level, col, sign in (((i, lam), (j, mu), 1), ((j, mu), (i, lam), 1),
                                 ((i, mu), (j, lam), -1), ((j, lam), (i, mu), -1)):
            if level in offset:
                base = offset[level]
                for a, v in cols[col].items():
                    row[base + a] = sign * v
        ech.insert(row)
    return RankCertificate(rank=ech.rank, expected=expected,
                           witness_columns=[], failed_level=failed)


def _require_kappa(n, m, kappa):
    """(n-1)(m-1), the least kappa of the pre-image; InputError below it."""
    min_kappa = (n - 1) * (m - 1)
    if kappa < min_kappa:
        raise InputError(f"kappa = {kappa} below the minimum (n-1)(m-1) = {min_kappa}")
    return min_kappa


def _pivot(psi: PsiData):
    """(p, U): U_i = D u_i (D of `PsiData.numerators`), u_i = (-1)^(m+1)
    psi^i_{Lambda minus m} (i <= n-1), and the pivot p, the first i with
    u_i != 0; InputError when there is none."""
    n, m = psi.n, psi.m
    P = psi.numerators[1]
    U = [P[i][m - 1] if m % 2 else -P[i][m - 1] for i in range(n - 1)]
    p = next((i for i, x in enumerate(U, 1) if x), None)
    if p is None:
        raise InputError(
            "psi^i_{Lambda minus m} = 0 for every fiber index i <= n-1, so the "
            "pre-image has no pivot; reorder the fiber or the base so that one "
            "of them is non-zero")
    return p, U


def construct_preimage(psi: PsiData, kappa) -> SecondFundamental:
    """Explicit pre-image of 0 under the Gauss map, for psi as given.

    With Psi'_{i lam} = (-1)^(lam+1) psi^i_{Lambda minus lam}, the sign of
    `cartan_identity_residual`, u_i = Psi'_{i m} and the pivot p are those
    of `_pivot`.  The vectors H_{i lam} (i <= n-1, lam <= m-1) are
    standard basis vectors e_{(i, lam)} of W in (i, lam)-lexicographic
    order and the last fiber row is zero.  For each lam <= m-1,
    w_k = -Psi'_{k lam} and the symmetric matrix

        S = (e_p w^T + w e_p^T) / u_p - (w.u) / u_p^2 e_p e_p^T,

    which has S u = w, gives H^{(k, lam)}_{i m} = S_{ik}: the Cartan
    identity of a = (k, lam) is Psi'_{k lam} + (S u)_k = 0, symmetry of S
    makes G(H) = 0, and the rank certificate is full because it only
    reads the basis vectors.  Only row and column p of S are non-zero.
    For normalized psi (u = +-e_1) this is S_{1k} = (-1)^(m+lam+1)
    psi^k_{Lambda minus lam}.  In ints (P = D psi, U = D u), H's den is
    |U_p|, or U_p^2 when a u_k != 0, k > p, brings in S_{pp}'s correction.

    InputError for kappa below (n-1)(m-1), for det psi = 0 at n = m = 2,
    and when there is no pivot.
    """
    n, m = psi.n, psi.m
    _require_kappa(n, m, kappa)
    if n == 2 and m == 2 and not psi.det2():
        raise InputError("n = m = 2 requires det psi != 0")
    p, U = _pivot(psi)
    P = psi.numerators[1]
    others = [k for k in range(p + 1, n) if U[k - 1]]
    # den * S_{pk} = (-1)^lam P_{k lam} t for k != p, over den = t U_p > 0
    t = U[p - 1] if others else (1 if U[p - 1] > 0 else -1)

    def a_of(i, lam):  # the W coordinate of the basis vector H_{i lam}
        return (i - 1) * (m - 1) + lam

    H = SecondFundamental(n, m, kappa)
    den = H.den = t * U[p - 1]
    for i in range(1, n):
        for lam in range(1, m):
            H.columns[i, lam][a_of(i, lam)] = den

    # Row p of S: S_{pk} = w_k / u_p for k != p, and S_{pp} = w_p / u_p -
    # sum_{k != p} S_{pk} u_k / u_p (u_k = 0 for k < p), an exact quotient
    # in ints.  H_{p m} collects S_{pk} at every a = (k, lam); H_{k m},
    # k != p, gets the symmetric partner S_{kp} = S_{pk} at a = (p, lam).
    # Every (a, column) below is written at most once.
    for lam in range(1, m):
        t_lam = t if lam % 2 == 0 else -t
        row = [P[k][lam - 1] * t_lam for k in range(n - 1)]
        row[p - 1] -= sum(row[k - 1] * U[k - 1] for k in others) // U[p - 1]
        for k, v in enumerate(row, 1):
            if v:
                H.columns[p, m][a_of(k, lam)] = v
                if k != p:
                    H.columns[k, m][a_of(p, lam)] = v
    return H


def flag_size_bound(n, m, kappa):
    """An upper bound, for every psi of shape (n, m), on what the flag
    pipeline stores in proportion to its cell: the n*m columns of
    `construct_preimage(psi, kappa)` and their at most (3n - 4)(m - 1)
    non-zeros (H_{i lam} = e_{(i, lam)} for i < n, lam < m, (n - 1)(m - 1)
    entries in H_{p m} and m - 1 in each other H_{k m}, k < n), plus the
    entries of its `adapted_expansion_rows`: n(n - 1)/2 unit rows, each of
    the (n - 1)(m - 1) non-zeros H^a_{k mu}, mu < m, once in each of the
    n - 1 Gauss-type rows of a pair with k, and at most n per phi-type
    row.  Computed before anything is allocated."""
    return (n * m + (3 * n - 4) * (m - 1) + n * (n - 1) // 2
            + (n - 1) ** 2 * (m - 1) + kappa * n)


# ---------------------------------------------------------------------------
# sigma indexing and dimension ledger


class SigmaIndexMap:
    """Bijection from the fiber covector labels (omega^i_j - eta^i_j and
    omega^a_i) onto 1..(n(n-1)/2 + n*kappa); a is the absolute extension
    index n+1..n+kappa."""

    def __init__(self, n, kappa):
        self.n = n
        self.kappa = kappa

    def pair(self, i, j):
        n = self.n
        if not 1 <= i < j <= n:
            raise InputError(f"sigma(i,j) needs 1 <= i < j <= n, got {(i, j)}")
        return (j - i) + n * (n - 1) // 2 - (n - i) * (n - i + 1) // 2

    def normal(self, a, i):
        n = self.n
        if not (n + 1 <= a <= n + self.kappa and 1 <= i <= n):
            raise InputError(f"sigma(a,i) arguments out of range: {(a, i)}")
        return n * (n - 1) // 2 + (a - n - 1) * n + i

    def normals(self, i):
        """sigma(n + a, i) for a = 1..kappa, as a range: entry a - 1 is
        `normal(n + a, i)`, without its range check."""
        n = self.n
        start = n * (n - 1) // 2 + i
        return range(start, start + self.kappa * n, n)

    @property
    def size(self):
        return self.n * (self.n - 1) // 2 + self.n * self.kappa

    def is_bijection(self):
        seen = set()
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                seen.add(self.pair(i, j))
        for a in range(self.n + 1, self.n + self.kappa + 1):
            for i in range(1, self.n + 1):
                seen.add(self.normal(a, i))
        return seen == set(range(1, self.size + 1))


class DimensionLedger:
    """The dimension count of the construction at (n, m, kappa).  InputError
    below the least kappa (n-1)(m-1) or off the shape n, m >= 2."""

    def __init__(self, n, m, kappa):
        _require_shape(n, m)
        self.min_kappa = _require_kappa(n, m, kappa)
        self.n, self.m, self.kappa = n, m, kappa
        self.dim_k = n * (n - 1) * m * (m - 1) // 4
        self.dim_sigma = m + n * (n - 1) // 2 + n * kappa
        self.dim_hset = (n * m - 1) * kappa - self.dim_k
        self.dim_z = self.dim_sigma + self.dim_hset
        self.codim_v = m * n * (n - 1) // 2 + self.dim_k + kappa
        self.characters = closed_form_characters(n, m, kappa)

    @property
    def character_sum(self):
        return sum(self.characters)


def closed_form_characters(n, m, kappa):
    """C_lam = n(n-1)(lam+1)/2 for lam <= m-2; C_{m-1} = n(n-1)m/2 + kappa.
    They sum to n(n-1)m/2 + dim K + kappa, the codimension of V, for
    every shape: sum_{lam <= m-2} n(n-1)(lam+1)/2 = n(n-1)m(m-1)/4 = dim K."""
    chars = [n * (n - 1) * (lam + 1) // 2 for lam in range(m - 1)]
    chars.append(n * (n - 1) * m // 2 + kappa)
    return chars


def dimension_ledger(n, m, kappa) -> DimensionLedger:
    return DimensionLedger(n, m, kappa)


# ---------------------------------------------------------------------------
# the exterior ideal on the product space, flags, characters


def gie_coframe(n, m, kappa) -> SigmaCoframe:
    return SigmaCoframe(m, SigmaIndexMap(n, kappa).size)


def gie_ideal(psi: PsiData, R: CurvatureElement, kappa) -> AlgebraicIdeal:
    """The exterior ideal on the product space in the sigma coframe.

    Generators: the coframe covectors omega^i_j - eta^i_j, the Gauss-type
    2-forms sum_a omega^a_i ^ omega^a_j - Omega^i_j, and the phi-type
    m-forms omega^a_i ^ phi^i.  InputError when R is not of shape (n, m).
    """
    n, m = psi.n, psi.m
    _require_curvature_shape(R, n, m)
    sigma = SigmaIndexMap(n, kappa)
    coframe = gie_coframe(n, m, kappa)
    N = coframe.dim
    # coords[i][a - 1] = m + sigma(a, i), the coordinate of omega^a_i
    coords = {i: [m + c for c in sigma.normals(i)] for i in range(1, n + 1)}

    def form(degree, coefficients):
        # keys are written sorted: base indices 1..m precede fiber ones,
        # and sigma(a, i) < sigma(a, j) for i < j
        return ExteriorForm._of(N, degree, coefficients)

    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(form(1, {(m + sigma.pair(i, j),): 1}))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = {key: 1 for key in zip(coords[i], coords[j])}
            for lam in range(1, m + 1):
                for mu in range(lam + 1, m + 1):
                    v = R.values.get((i, j, lam, mu))
                    if v:
                        g[lam, mu] = -v
            gens.append(form(2, g))
    # omega^a_i ^ eta^(Lambda minus lam): moving the fiber index to the
    # end, past m - 1 base indices, gives the sign (-1)^(m-1)
    sign = -1 if (m - 1) % 2 else 1
    base = tuple(range(1, m + 1))
    phi = [(coords[i], [(base[:lam - 1] + base[lam:], sign * psi[i, lam])
                        for lam in base if psi[i, lam]])
           for i in range(1, n + 1)]
    for a in range(kappa):
        g = {}
        for coords_i, terms in phi:
            fiber = (coords_i[a],)
            for complement, v in terms:
                g[complement + fiber] = v
        gens.append(form(m, g))
    return AlgebraicIdeal(coframe, gens)


def _flag_values(psi: PsiData, H: SecondFundamental, R: CurvatureElement | None):
    """(generator, pure-base key, value) for each pure-base coefficient of
    `gie_ideal(psi, R, kappa)` in the coframe adapted to H (omega^a_i =
    pi^a_i + H^a_{i lam} eta^lam) that can be non-zero, zeros included,
    in the ideal's order: (G(H) - R)_{ij; lam mu} at (lam, mu) for the
    Gauss-type form of (i, j), none when R = None (then R = G(H)), and the
    Cartan residual of a at eta^Lambda for the phi-type form of a.  These
    are also the generators' values on the flag of H.  InputError when
    H or R is not of psi's shape."""
    residuals = cartan_identity_residual(H, psi)  # InputError before any value
    n, m = H.n, H.m
    if R is not None:
        _require_curvature_shape(R, n, m)
    sigma = SigmaIndexMap(n, H.kappa)
    pairs = n * (n - 1) // 2
    if R is not None:
        G = gauss_map(H).values
        for key in sorted(G.keys() | R.values.keys()):
            yield pairs + sigma.pair(*key[:2]) - 1, key[2:], G.get(key, _ZERO) - R[key]
    volume = tuple(range(1, m + 1))
    for a, r in enumerate(residuals):
        yield 2 * pairs + a, volume, r


def build_integral_flag(psi: PsiData, H: SecondFundamental,
                        R: CurvatureElement | None = None) -> IntegralElement:
    """The explicit m-dimensional integral element e_lam = X_lam +
    H^a_{i lam} Y_{sigma(a,i)} of `gie_ideal(psi, R, kappa)`.

    E is the pi = 0 plane of the coframe adapted to H, so a generator's
    value on (e_S) is its pure-base coefficient at S: 0 for omega^i_j -
    eta^i_j, (G(H) - R)_{ij; lam mu} for the Gauss-type form of (i, j) on
    (e_lam, e_mu), the Cartan residual of a for the phi-type form of a
    (R = None means R = G(H)).  VerificationError names the first
    non-zero value, as `eds.first_nonvanishing` would."""
    n, m, kappa, den = H.n, H.m, H.kappa, H.den
    sigma = SigmaIndexMap(n, kappa)
    basis = []
    for lam in range(1, m + 1):
        v = {lam: 1}
        for i in range(1, n + 1):
            normals = sigma.normals(i)
            for a, h in H.columns[i, lam].items():
                v[m + normals[a - 1]] = Fraction(h, den)
        basis.append(v)
    element = IntegralElement(basis)
    for generator, _, value in _flag_values(psi, H, R):
        if value:
            raise VerificationError(
                f"generator {generator} evaluates to {value} on the flag; "
                "H violates the Gauss/Cartan preconditions")
    return element


def adapted_expansion_rows(psi: PsiData, H: SecondFundamental,
                           R: CurvatureElement | None = None):
    """The (sup J, row) pairs that `eds.expansion_rows` splits off
    `gie_ideal(psi, R, kappa)` in the coframe adapted to H (omega^a_i =
    pi^a_i + H^a_{i lam} eta^lam) at the levels sup J <= m - 1, the ones
    the character count inserts, written from psi and the non-zeros of H
    without building the ideal (R = None means R = G(H)).  In the order
    of the ideal's generators:

    - the covector omega^i_j - eta^i_j gives {m + sigma(i, j): 1} at level 0;
    - the Gauss-type form of (i, j) gives, per mu <= m - 1, the row
      {sigma(a, i): H^a_{j mu}, sigma(a, j): -H^a_{i mu}} at level mu;
    - the phi-type form of a gives {sigma(a, i): psi^i_{Lambda minus m}}
      at level m - 1,

    with sigma(a, i) standing for the coordinate m + sigma(n + a, i) and
    empty rows left out, each as a positive int multiple: level mu's
    numerators of H over their gcd, and psi's primitive int form.  The
    pure-base terms are checked first, as `eds.expansion_rows` does:
    (G(H) - R)_{ij; lam mu} for the Gauss-type forms, skipped when R =
    None since it is then 0, and the Cartan residual of a for the
    phi-type form of a.  These are the generators' values on the flag of
    H, so rows returned prove that flag integral.
    VerificationError names the first generator with a non-zero one (the
    phi-type message is the oracle's byte for byte); InputError when the
    shapes disagree.
    """
    for generator, key, value in _flag_values(psi, H, R):
        if value:
            raise VerificationError(
                f"generator {generator} has pure-base term {key} with coefficient "
                f"{value}; the expansion shape does not apply")
    n, m = psi.n, psi.m
    sigma = SigmaIndexMap(n, H.kappa)
    # normals[i - 1][a - 1] = sigma(n + a, i), kept as ranges, and each row
    # filled by plain loops: lists of the kappa*n ints, or a comprehension
    # per row, measured slower at the (79, 79) frontier
    normals = [sigma.normals(i) for i in range(1, n + 1)]
    # sigma(i, j) runs through 1..n(n-1)/2 in the order of the pairs i < j
    rows = [(0, {m + c: 1}) for c in range(1, n * (n - 1) // 2 + 1)]
    for mu in range(1, m):
        # (a - 1, den*H^a_{i mu} / g) per non-zero, and the same negated, per i
        g = gcd(*(h for i in range(1, n + 1) for h in H.columns[i, mu].values()))
        columns = [[(a - 1, h // g) for a, h in H.columns[i, mu].items()]
                   for i in range(1, n + 1)]
        negated = [[(a, -h) for a, h in column] for column in columns]
        for i in range(n):
            normals_i = normals[i]
            for j in range(i + 1, n):
                normals_j = normals[j]
                row = {}
                for a, h in columns[j]:
                    row[m + normals_i[a]] = h
                for a, h in negated[i]:
                    row[m + normals_j[a]] = h
                if row:
                    rows.append((mu, row))
    last = linalg.integer_row({i: psi[i + 1, m] for i in range(n)})
    last = [(normals[i], v) for i, v in last.items()]
    if last:
        rows.extend((m - 1, {m + normals_i[a]: v for normals_i, v in last})
                    for a in range(H.kappa))
    return rows


def gie_cartan_report(psi: PsiData, H: SecondFundamental,
                      R: CurvatureElement | None = None) -> CartanReport:
    """Characters of the constructed flag by the expansion method, from
    the rows `adapted_expansion_rows` writes, tested against the
    codimension formula (R = None means R = G(H))."""
    ledger = dimension_ledger(psi.n, psi.m, H.kappa)
    report = cartan_characters_by_expansion(adapted_expansion_rows(psi, H, R), psi.m)
    return cartan_test(report, ledger.codim_v)


# ---------------------------------------------------------------------------
# Grassmannian pullback (second-proof path)


class PullbackFunction:
    """A function of the Grassmannian chart coordinates, as
    {sparse monomial: coefficient}: each monomial the sorted tuple of
    (variable, exponent) pairs with exponent > 0, () for the constant.
    These are not chart polynomials: they have hundreds of variables and
    are never multiplied or differentiated; `GrassmannPullback` writes
    their Jacobian rows at a point from the point's non-zeros."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = terms


class GrassmannPullback:
    """Pulled-back generator coefficients as polynomial functions of the
    Grassmannian chart coordinates P^A_lam, the variable (A - 1) m + lam - 1.

    The linear and quadratic functions have coefficients +-1, and the
    constant of a quadratic function is -R.  The phi-type functions carry
    D*psi, psi's numerators over the lcm D of its denominators: a row
    scaling, so the rank is that of psi's functions.  Every non-constant
    coefficient is an int.  InputError when R is not of psi's shape."""

    def __init__(self, psi: PsiData, R: CurvatureElement, kappa):
        n, m = psi.n, psi.m
        _require_curvature_shape(R, n, m)
        self.psi = psi
        self.kappa = kappa
        self.sigma = SigmaIndexMap(n, kappa)
        self.nvars = self.sigma.size * m
        pairs = n * (n - 1) // 2
        # bases[i - 1][a - 1] = (sigma(n + a, i) - 1) m, the variable of P^{(a, i)}_1
        bases = [[(c - 1) * m for c in self.sigma.normals(i)] for i in range(1, n + 1)]
        self._bases = bases
        # every function is written in sorted sparse monomials, from one
        # shared factor (v, 1) per variable; sigma(i, j) runs through
        # 1..n(n-1)/2 in the order of the pairs i < j, so P^{sigma(i, j)}_lam
        # are the first n(n-1)m/2 variables
        nv = self.nvars
        factors = [(v, 1) for v in range(nv)]
        linear = [PullbackFunction(nv, {(factors[v],): 1}) for v in range(pairs * m)]
        quadratic = []
        for i in range(n):
            for j in range(i + 1, n):
                # sigma(a, i) < sigma(a, j), so P^{Ai} precedes P^{Aj}
                chart = list(zip(bases[i], bases[j]))
                for lam in range(m):
                    for mu in range(lam + 1, m):
                        r = R.values.get((i + 1, j + 1, lam + 1, mu + 1))
                        terms = {(): -r} if r else {}
                        for bi, bj in chart:
                            terms[factors[bi + lam], factors[bj + mu]] = 1
                            terms[factors[bi + mu], factors[bj + lam]] = -1
                        quadratic.append(PullbackFunction(nv, terms))
        # (lam - 1, D Psi'_{i lam}) with Psi'_{i lam} = (-1)^(lam+1) psi^i_{Lambda minus lam}
        _, numerators = psi.numerators
        signed = [(bases[i], [(lam, c if lam % 2 == 0 else -c)
                              for lam, c in enumerate(numerators[i]) if c])
                  for i in range(n)]
        # the phi-type function of a is sum_i sum_lam D Psi'_{i lam} P^{(a, i)}_lam,
        # its own gradient everywhere
        self._phi_rows = [{base[a] + lam: c for base, row in signed for lam, c in row}
                          for a in range(kappa)]
        self.linear = linear
        self.quadratic = quadratic
        self.phi_type = [PullbackFunction(nv, {(factors[v],): c for v, c in row.items()})
                         for row in self._phi_rows]

    @property
    def functions(self):
        return self.linear + self.quadratic + self.phi_type

    def point_from(self, H: SecondFundamental):
        """Chart coordinates of the plane spanned by the H-flag times H's
        den, which leaves the count unchanged: the ints P^{sigma(a, i)}_lam
        = den*H^a_{i lam}.  InputError when H is not of shape (n, m, kappa)."""
        n, m = self.psi.n, self.psi.m
        if (H.n, H.m, H.kappa) != (n, m, self.kappa):
            raise InputError(f"H of shape (n, m, kappa) = {(H.n, H.m, H.kappa)} does not "
                             f"fit the pullback's {(n, m, self.kappa)}")
        point = [0] * self.nvars
        for (i, lam), column in H.columns.items():
            base = self._bases[i - 1]
            for a, v in column.items():
                point[base[a - 1] + lam - 1] = v
        return point

    def jacobian_rows(self, point):
        """The gradient of each function of `functions`, in that order, at
        the int point D*P, D the lcm of the denominators of the rational
        point P (1 when it has none): {v: d/dx_{v+1}} over the non-zero
        entries, v 0-based, written from the non-zeros of D*P.

        - A linear function P_v has the unit row {v: 1}.
        - The quadratic function of (i, j, lam, mu) is -R plus the sum over
          a of P^{ai}_lam P^{aj}_mu - P^{ai}_mu P^{aj}_lam.  Its row has,
          for each a, P^{aj}_mu at P^{ai}_lam, P^{ai}_lam at P^{aj}_mu,
          -P^{aj}_lam at P^{ai}_mu and -P^{ai}_mu at P^{aj}_lam: four
          distinct variables, read from the point's columns (j, mu),
          (i, lam), (j, lam) and (i, mu).
        - The phi-type function of a is linear, with D*psi's signed
          numerators as its row.

        InputError when the point has not `nvars` coordinates or one of
        them is not an int or a Fraction."""
        if len(point) != self.nvars:
            raise InputError(f"the chart point has {len(point)} coordinates, "
                             f"not the {self.nvars} chart variables")
        if not {type(x) for x in point} <= _RATIONAL_TYPES:
            v = next(v for v, x in enumerate(point) if type(x) not in _RATIONAL_TYPES)
            raise InputError(f"chart coordinate {v} is {point[v]!r}, not an int or a Fraction")
        n, m, bases = self.psi.n, self.psi.m, self._bases
        pairs = n * (n - 1) // 2
        nonzero = [(v, x) for v, x in enumerate(point) if x]
        D = lcm(*(x.denominator for _, x in nonzero))
        # columns[i][lam] = {a: D P^{(a, i)}_lam} over the non-zeros, 0-based;
        # P^{sigma(i, j)}_lam enters no gradient but its own unit row
        columns = [[{} for _ in range(m)] for _ in range(n)]
        for v, x in nonzero:
            q, lam = divmod(v, m)
            if q >= pairs:
                a, i = divmod(q - pairs, n)
                columns[i][lam][a] = x.numerator * (D // x.denominator)
        rows = [{v: 1} for v in range(pairs * m)]
        for i in range(n):
            bi, ci = bases[i], columns[i]
            for j in range(i + 1, n):
                bj, cj = bases[j], columns[j]
                for lam in range(m):
                    for mu in range(lam + 1, m):
                        row = {}
                        for a, x in cj[mu].items():
                            row[bi[a] + lam] = x
                        for a, x in ci[lam].items():
                            row[bj[a] + mu] = x
                        for a, x in cj[lam].items():
                            row[bi[a] + mu] = -x
                        for a, x in ci[mu].items():
                            row[bj[a] + lam] = -x
                        rows.append(row)
        rows += [dict(row) for row in self._phi_rows]
        return rows

    def independent_differential_count(self, point) -> int:
        """Rank of the Jacobian of all pulled-back functions at the rational
        `point`; this is the observed codimension of the integral-element
        variety.

        The rows are `jacobian_rows`, the gradients at the integer point
        D*P, D the lcm of the denominators of P (1 when P has none).  Each
        function is a constant plus a form of degree d = 1 or 2, so its
        gradient at D*P is D^(d-1) times its gradient at P: every row of the
        Jacobian is only scaled by a non-zero factor, and the rank is that
        at P.  Every coefficient a row reads is an int, so every row is an
        int row.  InputError as `jacobian_rows` gives it."""
        rows = [row for row in self.jacobian_rows(point) if row]
        # The rank does not depend on the order, but the fill-in does.  Rows
        # go in by decreasing leading column (ties last function first).
        # Reducing a row only moves its lead to a larger column, so in this
        # order the pivot a row meets at its own lead is an unreduced
        # gradient, and only rows already reduced once meet filled pivots.
        # In function order the dense rows of the pairs (p, j), which read
        # the (n-1)(m-1) non-zeros of H_{pm}, became pivots first and their
        # fill reached the later rows: at a (10,10) pre-image the pivots
        # held 167,317 entries of up to 205 bits, against 77,925 entries of
        # up to 147 bits in this order, from 26,046 gradient entries.
        rows.reverse()
        rows.sort(key=min, reverse=True)
        ech = linalg.SparseEchelon()
        for row in rows:
            ech.insert(row)
        return ech.rank


def grassmann_pullback(psi: PsiData, R: CurvatureElement, kappa) -> GrassmannPullback:
    return GrassmannPullback(psi, R, kappa)

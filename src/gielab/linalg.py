"""Exact rational linear algebra.

Dense routines use fraction-free (Bareiss) elimination on integer
matrices obtained by clearing denominators, so every intermediate value
stays an exact integer.  For the large, very sparse systems that arise
when counting Cartan characters and solving polar systems there is an
incremental sparse echelon structure that accepts one row at a time;
its fully reduced form (the RREF) gives nullspace bases directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def frac_sqrt(x: Fraction):
    """Exact square root of a non-negative rational, or None when x is
    negative or not a perfect rational square."""
    if x < 0:
        return None
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)


def _clear_denominators(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in rows:
        lcm = 1
        for x in row:
            f = Fraction(x)
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        out.append([int(Fraction(x) * lcm) for x in row])
    return out


def bareiss_echelon(rows):
    """Fraction-free row echelon form.

    Returns (echelon_rows, pivot_columns).  Row scaling does not change
    rank or pivot structure, so denominators are cleared first.
    """
    m = _clear_denominators(rows)
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows) -> int:
    """Exact rank of a matrix of Fractions/ints."""
    _, pivots = bareiss_echelon(rows)
    return len(pivots)


def nullspace(rows, n_cols=None):
    """Basis of {x : A x = 0} as lists of Fractions, one per free column
    fc: x[fc] = 1 and x[pc] = -rref[pc][fc] at each pivot column pc.
    The RREF is unique, so the basis does not depend on row order."""
    if rows:
        n_cols = len(rows[0])
    elif n_cols is None:
        raise ValueError("nullspace of an empty system needs n_cols")
    ech = SparseEchelon()
    for row in rows:
        ech.insert({j: v for j, v in enumerate(row) if v})
    rref = ech.reduced()
    basis = []
    for fc in range(n_cols):
        if fc in rref:
            continue
        x = [Fraction(0)] * n_cols
        x[fc] = Fraction(1)
        for pc, prow in rref.items():
            v = prow.get(fc)
            if v:
                x[pc] = -v
        basis.append(x)
    return basis


def independent(vectors) -> bool:
    """True iff the given vectors are linearly independent."""
    vecs = list(vectors)
    if not vecs:
        return True
    return rank(vecs) == len(vecs)


class SparseEchelon:
    """Incremental exact rank over sparse rational rows.

    Rows are dicts {column: Fraction}.  Each inserted row is reduced
    against the stored pivots; a surviving row becomes a new pivot.
    """

    def __init__(self):
        self.pivots = {}  # column -> reduced row (leading coefficient 1)

    def insert(self, row) -> bool:
        """Reduce `row` and keep it if independent; returns True if kept."""
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work:
            lead = min(work)
            piv = self.pivots.get(lead)
            if piv is None:
                coeff = work[lead]
                self.pivots[lead] = {c: v / coeff for c, v in work.items()}
                return True
            factor = work[lead]
            for c, v in piv.items():
                nv = work.get(c, Fraction(0)) - factor * v
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
        return False

    def reduced(self):
        """The pivot rows fully reduced, i.e. the RREF: {pivot column: row}
        where each row is 1 at its own pivot and 0 at every other pivot
        column.  Rows are reduced from the last pivot to the first, so
        each one is cleared against rows that are already final."""
        rref = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for c in [c for c in row if c != lead and c in rref]:
                factor = row.pop(c)
                for j, v in rref[c].items():
                    if j == c:
                        continue
                    nv = row.get(j, Fraction(0)) - factor * v
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
            rref[lead] = row
        return rref

    @property
    def rank(self) -> int:
        return len(self.pivots)

"""Exact rational linear algebra.

Dense routines use fraction-free (Bareiss) elimination on integer
matrices obtained by clearing denominators, so every intermediate value
stays an exact integer.  For the large, very sparse systems that arise
when counting Cartan characters and solving polar systems there is an
incremental sparse echelon structure that accepts one int row at a time;
it is fraction-free too, and only its fully reduced form (the RREF), which
gives nullspace bases directly, divides by the leading entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _clear_denominators(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
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


def nullspace(rows, n_cols):
    """Basis of {x : A x = 0} for the int rows {column: value} of A over
    the columns 1..n_cols, one vector {column: value} per free column fc:
    x[fc] = 1 and x[pc] = -rref[pc][fc] at each pivot column pc.  The
    RREF is unique, so the basis does not depend on row order."""
    ech = SparseEchelon()
    for row in rows:
        if row and not (1 <= min(row) and max(row) <= n_cols):
            raise ValueError(f"nullspace row has a column outside 1..{n_cols}")
        ech.insert(row)
    rref = ech.reduced()
    basis = {fc: {fc: Fraction(1)} for fc in range(1, n_cols + 1) if fc not in rref}
    for pc, prow in rref.items():
        for fc, v in prow.items():
            if fc != pc:
                basis[fc][pc] = -v
    return list(basis.values())


def _primitive(row):
    """The int row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def integer_row(row):
    """The row {key: rational} times the positive factor that makes it a
    primitive int row, zero entries dropped."""
    d = lcm(*(v.denominator for v in row.values()))
    out = {c: v.numerator * (d // v.denominator) for c, v in row.items() if v}
    return _primitive(out) if out else out


def _eliminate(row, piv, c):
    """The int row b*row - a*piv, with a/b = row[c]/piv[c] in lowest terms,
    so that column c vanishes.  `row` is changed in place when b = 1;
    otherwise the result is a new row with its gcd divided out."""
    a, b = row[c], piv[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if b < 0:
        a, b = -a, -b
    out = row if b == 1 else {j: b * v for j, v in row.items()}
    for j, v in piv.items():
        nv = out.get(j, 0) - a * v
        if nv:
            out[j] = nv
        else:
            del out[j]
    return out if b == 1 or not out else _primitive(out)


class SparseEchelon:
    """Incremental exact rank over sparse int rows, fraction-free.

    Rows are dicts {column: int} without zeros (`integer_row` scales a
    rational row); an inserted row is never changed.  A copy divided by its
    gcd is reduced against the stored pivots by integer cross-multiplication;
    a surviving row becomes a new pivot, kept as a primitive int row.
    """

    def __init__(self):
        self.pivots = {}  # column -> primitive int row leading at that column

    def insert(self, row) -> bool:
        """Reduce `row` and keep it if independent; returns True if kept.
        TypeError for an entry that is not an int, ValueError for a zero."""
        g = gcd(*row.values())  # TypeError unless every entry is an int
        if 0 in row.values():
            raise ValueError("SparseEchelon row has a zero entry")
        work = dict(row) if g == 1 else {c: v // g for c, v in row.items()}
        reduced = False  # until then, work is primitive
        while work:
            lead = min(work)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = _primitive(work) if reduced else work
                return True
            work = _eliminate(work, piv, lead)
            reduced = True
        return False

    def reduced(self):
        """The pivot rows fully reduced, i.e. the RREF: {pivot column: row}
        of Fractions, each row 1 at its own pivot and 0 at every other
        pivot column.  Rows are reduced in ints from the last pivot to the
        first, so each one is cleared against rows that are already final,
        and divided by their leading entries at the end."""
        final = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for c in [c for c in row if c != lead and c in final]:
                row = _eliminate(row, final[c], c)
            final[lead] = row
        return {lead: {c: Fraction(v, row[lead]) for c, v in row.items()}
                for lead, row in final.items()}

    @property
    def rank(self) -> int:
        return len(self.pivots)

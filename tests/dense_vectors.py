"""Dense test data for gielab's sparse vectors.

gielab takes and returns a vector as its non-zero entries {k: v_k}, with
k the 1-based coordinate.  Tests that state vectors, matrix rows or
references as lists convert them here.
"""

from fractions import Fraction


def sparse(v):
    """{k: v_k} over the non-zero entries of the list v, k 1-based."""
    return {k: x for k, x in enumerate(v, 1) if x}


def dense(v, dim):
    """The list of length dim with v_k at position k - 1."""
    out = [Fraction(0)] * dim
    for k, x in v.items():
        out[k - 1] = x
    return out

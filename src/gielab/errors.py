"""Exception types, and the JSON readers that raise them.

The CLI maps InputError to exit code 2 (invalid input) and
VerificationError to exit code 1 (violation).
"""

import sys
from fractions import Fraction


class InputError(ValueError):
    """Malformed or out-of-contract input data."""


class VerificationError(RuntimeError):
    """An identity or rank check that should hold failed."""


def json_int(doc, field):
    """doc[field] if it is a JSON integer (a boolean is not); an
    InputError naming the field otherwise."""
    value = doc[field]
    if type(value) is not int:
        raise InputError(f"field {field!r} must be an integer, got {value!r}")
    return value


def json_matrix(doc, field, rows, cols):
    """doc[field] when it is a rows x cols array (a list of `rows` lists of
    `cols` entries); an InputError naming the field otherwise, so that no
    row or entry beyond the shape is dropped unread and no string is read
    as a row of characters."""
    value = doc[field]
    if not (isinstance(value, list) and len(value) == rows
            and all(isinstance(row, list) and len(row) == cols for row in value)):
        raise InputError(f"field {field!r} must be {rows} rows of {cols} entries")
    return value


def json_rational(c):
    """A JSON rational as Fraction(str(c)) reads it, with its errors: a
    JSON int and a plain ASCII "n", "-n", "p/q" or "-p/q" (q not zero) are
    read by int(), which skips Fraction's regex; every other spelling goes
    through Fraction(str(c)), but an exponent beyond the digits int() reads
    (sys.get_int_max_str_digits()) is refused first: Fraction would compute
    10 ** exponent."""
    if type(c) is int:
        return Fraction(c)
    if type(c) is str and c.isascii():
        num, slash, den = c.partition("/")
        sign = -1 if num[:1] == "-" else 1
        digits = num[1:] if sign < 0 else num
        if digits.isdigit() and (not slash or den.isdigit() and den.strip("0")):
            p = sign * int(digits)
            return Fraction(p, int(den)) if slash else Fraction(p)
    text = str(c)
    _, e, exponent = text.upper().rpartition("E")
    limit = sys.get_int_max_str_digits()  # 0 when int() reads any length
    try:
        past = e and limit and abs(int(exponent)) > limit
    except ValueError:  # not an exponent: Fraction refuses the spelling
        past = False
    if past:
        raise InputError(f"exponent of {text!r} is past the limit {limit}")
    return Fraction(text)

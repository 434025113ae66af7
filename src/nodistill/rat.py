"""Exact rational scalars: parsing and canonical formatting.

Every probability, map coefficient and LP number in this package is a
`fractions.Fraction`, or an `int` in an LP row.  Floats are rejected
everywhere; the canonical text form is always "num/den" with the
denominator written out ("3" -> "3/1").
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"(?P<num>[+-]?[0-9]+)(?:/(?P<den>[0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p", with an optional sign on p, into a Fraction.

    The whole string must match; only ASCII digits are read, so floats
    ("0.5", "1e-3"), spaces, underscores and a signed q are rejected.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed rational: {text!r}")
    den = int(m["den"] or 1)
    if den == 0:
        raise ValueError(f"denominator must be positive: {text!r}")
    return Fraction(int(m["num"]), den)


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" form, lowest terms, denominator always explicit; a
    Fraction is read as it is, anything else through `ensure_fraction`."""
    f = x if type(x) is Fraction else ensure_fraction(x)
    return f"{f.numerator}/{f.denominator}"


def ensure_fraction(x) -> Fraction:
    """Coerce int/Fraction/str to Fraction; reject floats."""
    if isinstance(x, bool):
        raise ValueError("bool is not a rational")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise ValueError(f"cannot use {type(x).__name__} as an exact rational")

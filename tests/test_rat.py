from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodistill.rat import ensure_fraction, format_rational, parse_rational


@given(st.fractions(max_denominator=10**9))
def test_format_parse_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_always_writes_denominator():
    assert format_rational(F(3)) == "3/1"
    assert format_rational(F(-2, 4)) == "-1/2"
    assert format_rational(3) == "3/1"


@pytest.mark.parametrize("bad", [0.5, True])
def test_format_refuses_floats_and_bools(bad):
    with pytest.raises(ValueError):
        format_rational(bad)


@pytest.mark.parametrize("text,expected", [("1/2", F(1, 2)), ("-3/9", F(-1, 3)), ("7", F(7)), ("+2/4", F(1, 2))])
def test_parse_accepts_signed_and_bare(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "bad",
    ["0.5", "1e-3", "", "1/0", "1/-2", "a/b", "1//2", "1_0/3", "\u0663/4", " 1/2 ", "1 /2", "1/+2"],
)
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_ensure_fraction_rejects_floats_and_bools():
    with pytest.raises(ValueError):
        ensure_fraction(0.5)
    with pytest.raises(ValueError):
        ensure_fraction(True)
    assert ensure_fraction(3) == F(3)
    assert ensure_fraction("2/6") == F(1, 3)

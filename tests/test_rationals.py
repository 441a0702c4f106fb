"""Exact "p/q" codec."""

from fractions import Fraction

import pytest

import frozen
from mmideal import format_point, format_rational, parse_point, parse_rational
from mmideal.errors import RationalFormatError
from mmideal.rationals import over_common_denominator


def test_parse_integer_and_fraction():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/4") == Fraction(-7, 4)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational("0") == 0


def test_parse_normalizes():
    assert parse_rational("6/4") == Fraction(3, 2)


@pytest.mark.parametrize(
    "bad", ["", "1/", "/2", "1/0", "a", "1.5", "1/2/3", "1//2", None, True, 2.5]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(RationalFormatError):
        parse_rational(bad)


def test_over_common_denominator():
    assert over_common_denominator(frozen.RAT6_CANONICAL) == (6, (-3, -6, 3, -3, -4, -5))
    assert over_common_denominator((2, Fraction(-3, 4), 0, Fraction(5, 6))) == (
        12,
        (24, -9, 0, 10),
    )
    assert over_common_denominator((1, -2)) == (1, (1, -2))


def test_parse_tolerates_whitespace():
    assert parse_rational(" 1") == 1
    assert parse_rational("1 / 2 ") == Fraction(1, 2)


def test_format_round_trip():
    for value in (Fraction(0), Fraction(17), Fraction(-3, 8), Fraction(22, 7)):
        assert parse_rational(format_rational(value)) == value


def test_format_integers_bare():
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-2, 1)) == "-2"
    assert format_rational(Fraction(1, 3)) == "1/3"


def test_parse_point_and_length():
    assert parse_point("1/2,3", 2) == (Fraction(1, 2), Fraction(3))
    with pytest.raises(RationalFormatError):
        parse_point("1/2,3", 3)
    with pytest.raises(RationalFormatError):
        parse_point("", 1)


def test_format_point_round_trip():
    point = (Fraction(101, 780), Fraction(-1, 2), Fraction(9))
    assert parse_point(format_point(point)) == point

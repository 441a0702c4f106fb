"""Exact rational codec: "p/q" strings <-> fractions.Fraction.

Every number the library reads or writes is an exact rational.  The wire
format is either a JSON integer or a string "p/q" with integer p and nonzero
integer q; emission always normalizes to lowest terms with a positive
denominator and drops "/1".
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import RationalFormatError

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def parse_rational(text: str | int) -> Fraction:
    """Parse an integer or a "p/q" string into a Fraction.

    Raises RationalFormatError for malformed text or a zero denominator.
    """
    if isinstance(text, bool):
        raise RationalFormatError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise RationalFormatError(f"not a rational: {text!r}")
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise RationalFormatError(f"malformed rational literal: {text!r}")
    numerator = int(match.group(1))
    if match.group(2) is None:
        return Fraction(numerator)
    denominator = int(match.group(2))
    if denominator == 0:
        raise RationalFormatError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction | int) -> str:
    """Render a rational in lowest terms, "p/q" or plain "p" for integers."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def over_common_denominator(
    values: tuple[Fraction | int, ...],
) -> tuple[int, tuple[int, ...]]:
    """(N, (N*x_1, ...)): N the lcm of the denominators of the `int` or
    `Fraction` entries, so every N*x_i is an integer."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in values)


def parse_point(text: str, length: int | None = None) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals, e.g. "1/12,3/4".

    If *length* is given, the parsed tuple must have exactly that many
    coordinates.
    """
    parts = [piece.strip() for piece in text.split(",")]
    if parts == [""]:
        raise RationalFormatError("empty point")
    point = tuple(parse_rational(piece) for piece in parts)
    if length is not None and len(point) != length:
        raise RationalFormatError(
            f"expected {length} coordinates, got {len(point)}: {text!r}"
        )
    return point


def format_point(point: tuple[Fraction, ...]) -> str:
    """Inverse of parse_point."""
    return ",".join(format_rational(coordinate) for coordinate in point)
